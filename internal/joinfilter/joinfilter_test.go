package joinfilter

import (
	"math/rand"
	"testing"
)

func TestExactSmallSet(t *testing.T) {
	b := NewBuilder()
	for i := 0; i < 100; i++ {
		b.Add(uint64(i) * 0x9e3779b97f4a7c15)
	}
	f := b.Build()
	if f.exact == nil {
		t.Fatalf("100 keys should stay exact, got %s", f)
	}
	for i := 0; i < 100; i++ {
		if !f.Test(uint64(i) * 0x9e3779b97f4a7c15) {
			t.Fatalf("false negative on key %d", i)
		}
	}
	misses := 0
	for i := 100; i < 1100; i++ {
		if f.Test(uint64(i) * 0x9e3779b97f4a7c15) {
			misses++
		}
	}
	if misses != 0 {
		t.Fatalf("exact filter admitted %d absent keys", misses)
	}
}

func TestBloomNoFalseNegatives(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	b := NewBuilder()
	keys := make([]uint64, 50_000)
	for i := range keys {
		keys[i] = rng.Uint64()
		b.Add(keys[i])
	}
	f := b.Build()
	if f.exact != nil {
		t.Fatal("50k keys should build a bloom filter")
	}
	for _, k := range keys {
		if !f.Test(k) {
			t.Fatalf("false negative on inserted key %x", k)
		}
	}
	// False-positive rate at 10 bits/key should be low single digits.
	fp := 0
	const probes = 100_000
	for i := 0; i < probes; i++ {
		if f.Test(rng.Uint64()) {
			fp++
		}
	}
	if rate := float64(fp) / probes; rate > 0.05 {
		t.Fatalf("false-positive rate %.3f too high", rate)
	}
}

func TestDeterministicAcrossInsertionOrder(t *testing.T) {
	keys := make([]uint64, 20_000)
	rng := rand.New(rand.NewSource(11))
	for i := range keys {
		keys[i] = rng.Uint64()
	}
	fwd, rev := NewBuilder(), NewBuilder()
	for _, k := range keys {
		fwd.Add(k)
	}
	for i := len(keys) - 1; i >= 0; i-- {
		rev.Add(keys[i])
	}
	a, b := fwd.Build(), rev.Build()
	if a.SizeBytes() != b.SizeBytes() || len(a.words) != len(b.words) {
		t.Fatalf("size mismatch: %s vs %s", a, b)
	}
	for i := range a.words {
		if a.words[i] != b.words[i] {
			t.Fatalf("bit array differs at word %d", i)
		}
	}
}

func TestMergeAndCaps(t *testing.T) {
	a, b := NewBuilder(), NewBuilder()
	for i := 0; i < 1000; i++ {
		a.Add(uint64(i))
		b.Add(uint64(i + 500)) // 500 overlap
	}
	a.Merge(b)
	if len(a.order) != 1500 {
		t.Fatalf("merged distinct count = %d, want 1500", len(a.order))
	}
	// 60k keys want 600k bits, which rounds up past the 64 KiB cap.
	const capped = 60_000
	for i := 1500; i < capped; i++ {
		a.Add(uint64(i))
	}
	f := a.Build()
	if got := f.SizeBytes(); got != maxBytes {
		t.Fatalf("bloom size %d, want the %d-byte cap", got, maxBytes)
	}
	for i := 0; i < capped; i++ {
		if !f.Test(uint64(i)) {
			t.Fatalf("false negative after cap on key %d", i)
		}
	}
	if (*Filter)(nil).Test(42) != true {
		t.Fatal("nil filter must pass everything")
	}
}
