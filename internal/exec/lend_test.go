package exec

import (
	"sync"
	"testing"

	"gignite/internal/types"
)

// TestLenderSizeClasses: a lender hands out power-of-two classes and
// records each loan; a nil lender, and a request outside the classes,
// get an exact heap slice that Release knows nothing of. In race builds
// Release overwrites what it takes back with the pool's sentinel.
func TestLenderSizeClasses(t *testing.T) {
	if s := lend(nil, &valuePool, 100); len(s) != 100 || cap(s) != 100 {
		t.Errorf("nil lender: len %d cap %d, want an exact 100", len(s), cap(s))
	}
	var l Lender
	for _, n := range []int{1<<minClass - 1, 1<<maxClass + 1} {
		if s := lend(&l, &rowPool, n); len(s) != n || cap(s) != n {
			t.Errorf("request for %d: len %d cap %d, want an exact heap slice", n, len(s), cap(s))
		}
	}
	if l.loans != nil {
		t.Fatalf("requests outside the classes were recorded as %d loans", len(*l.loans))
	}
	vals := lend(&l, &valuePool, 100)
	if len(vals) != 100 || cap(vals) != 128 {
		t.Errorf("lent values: len %d cap %d, want 100 of class 128", len(vals), cap(vals))
	}
	links := lend(&l, &linkPool, 1<<minClass)
	if cap(links) != 1<<minClass {
		t.Errorf("lent links: cap %d, want %d", cap(links), 1<<minClass)
	}
	if n := len(*l.loans); n != 2 {
		t.Fatalf("%d loans, want 2", n)
	}
	vals[0] = types.NewInt(7)
	l.Release()
	if l.loans != nil {
		t.Error("Release left loans behind")
	}
	if poisonReleased && vals[0] != valuePool.poison {
		t.Errorf("a released value reads %v in a race build, want the sentinel", vals[0])
	}
	l.Release() // a second release has nothing to return
}

// TestLenderConcurrentLoans: the instances of one execution borrow from
// one lender at once (run under -race by make race-cpu), and Release
// takes back every loan.
func TestLenderConcurrentLoans(t *testing.T) {
	const borrowers, loans = 8, 50
	var l Lender
	var wg sync.WaitGroup
	for g := range borrowers {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := range loans {
				h := lend(&l, &hashPool, 1<<minClass+i)
				for k := range h {
					h[k] = uint64(g)
				}
				r := grow(&l, &rowPool, nil, 1<<minClass)
				r = append(r, types.Row{})
				if len(r) != 1 || cap(r) < 1<<minClass {
					t.Errorf("grow: len %d cap %d", len(r), cap(r))
				}
			}
		}()
	}
	wg.Wait()
	if n := len(*l.loans); n != 2*borrowers*loans {
		t.Errorf("%d loans, want %d", n, 2*borrowers*loans)
	}
	l.Release()
}
