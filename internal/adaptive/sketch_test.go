package adaptive

import (
	"math"
	"slices"
	"testing"
)

// hashOf simulates a key hash stream: a weak sequential "hash" the
// sketch's internal finalizer must spread out.
func hashOf(i int) uint64 { return uint64(i) * 0x9E3779B97F4A7C15 }

// sameState compares the whole sketch state: the KMV synopsis.
func sameState(a, b *Sketch) bool { return slices.Equal(a.kmv, b.kmv) }

func TestExactSmallStream(t *testing.T) {
	s := &Sketch{}
	for i := 0; i < 100; i++ {
		s.add(hashOf(i % 10))
	}
	if ndv := s.ndv(); ndv != 10 {
		t.Fatalf("NDV = %g, want exactly 10 (below-k streams are exact)", ndv)
	}
}

func TestNDVErrorBound(t *testing.T) {
	// TPC-H-column-shaped streams: uniform keys (orderkey-like), repeated
	// keys (suppkey-like FK with 10x fanout), and skewed keys.
	cases := []struct {
		name string
		n    int
		ndv  int
	}{
		{"uniform-50k", 50_000, 50_000},
		{"fk-fanout", 50_000, 5_000},
		{"low-card", 20_000, 25},
	}
	for _, tc := range cases {
		s := &Sketch{}
		for i := 0; i < tc.n; i++ {
			s.add(hashOf(i % tc.ndv))
		}
		est := s.ndv()
		relErr := math.Abs(est-float64(tc.ndv)) / float64(tc.ndv)
		if relErr > 0.15 {
			t.Errorf("%s: NDV est %.0f vs true %d (rel err %.3f > 0.15)",
				tc.name, est, tc.ndv, relErr)
		}
	}
}

func TestMergeAssociativity(t *testing.T) {
	build := func(lo, hi, mod int) *Sketch {
		s := &Sketch{}
		for i := lo; i < hi; i++ {
			s.add(hashOf(i % mod))
		}
		return s
	}
	mk := func() (a, b, c *Sketch) {
		return build(0, 4000, 700), build(4000, 9000, 1300), build(9000, 20000, 90)
	}

	// One scratch serves every merge, as a controller's does.
	var scratch []uint64

	// (a ⊔ b) ⊔ c
	a1, b1, c1 := mk()
	a1.merge(b1, &scratch)
	a1.merge(c1, &scratch)

	// a ⊔ (b ⊔ c)
	a2, b2, c2 := mk()
	b2.merge(c2, &scratch)
	a2.merge(b2, &scratch)

	// (c ⊔ a) ⊔ b — commutativity too
	a3, b3, c3 := mk()
	c3.merge(a3, &scratch)
	c3.merge(b3, &scratch)

	if !sameState(a1, a2) {
		t.Fatal("merge is not associative: (a+b)+c != a+(b+c)")
	}
	if !sameState(a1, c3) {
		t.Fatal("merge is not commutative: (a+b)+c != (c+a)+b")
	}
}

func TestInsertionOrderIndependence(t *testing.T) {
	// Same multiset, different insertion orders → identical state.
	s1, s2 := &Sketch{}, &Sketch{}
	for i := 0; i < 5000; i++ {
		s1.add(hashOf(i % 600))
	}
	for i := 4999; i >= 0; i-- {
		s2.add(hashOf(i % 600))
	}
	if !sameState(s1, s2) {
		t.Fatal("sketch state depends on insertion order")
	}
}
