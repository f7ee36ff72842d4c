package exec

import (
	"math/bits"
	"sync"

	"gignite/internal/types"
)

// Lender lends buffers and takes them all back at once, so the next
// borrower reuses them instead of allocating and collecting them. Every
// buffer of more than a few dozen elements that an operator keeps, or
// reuses batch after batch, is lent: join arena chunks, rowBuffer slabs
// and row headers, a kept projection's values, the hash operators'
// indexes, a merging receiver's concatenation, the streaming operators'
// scratch (but a Filter's, which only a passing row sizes), and a
// Sender's routing scratch and shipped row headers. Two lenders serve an
// instance: the execution's (Context.Lender), shared by its instances
// and released by the scheduler once they have all returned, lends what
// the instance ships, which later waves read; the attempt's own lends
// everything else, and Run releases it when the attempt ends.
//
// Lent buffers are not zeroed: whatever a previous borrower left is
// there until the borrower writes it, and every borrower writes a cell
// before it reads it, or clears the buffer when it depends on zero (a
// hash index's links). Storage behind rows that can reach the query
// result is never lent (Context.Output, Context.ToResult): those rows
// outlive the execution.
//
// The zero value is ready and allocates nothing until something is lent.
// A nil *Lender lends nothing: every buffer is made on the heap, for the
// garbage collector to reclaim.
type Lender struct {
	mu sync.Mutex
	// loans lists what is lent. The list itself comes from loanLists at
	// the first loan and goes back there on Release.
	loans *[]loan
}

// loan is one lent buffer, a *[]T, and the pool it returns to.
type loan struct {
	pool interface{ put(buf any) }
	buf  any
}

// loanLists keeps released Lenders' loan lists.
var loanLists sync.Pool

// Release takes back everything lent, into the package's pools. Nothing
// lent may be used afterwards; race builds overwrite every released
// buffer with a sentinel to make such a use show.
func (l *Lender) Release() {
	if l.loans == nil {
		return
	}
	for _, ln := range *l.loans {
		ln.pool.put(ln.buf)
	}
	clear(*l.loans)
	*l.loans = (*l.loans)[:0]
	loanLists.Put(l.loans)
	l.loans = nil
}

// Lent buffers come in power-of-two capacities, from 2^minClass to
// 2^maxClass elements. Smaller requests are cheaper to make than to
// track, and a larger buffer is not worth pinning in a pool.
const (
	minClass = 6
	maxClass = 20
)

// pool keeps released T buffers by size class. The pools are
// package-level on purpose: the runtime keeps a used sync.Pool reachable
// until the second collection after its last use, so a pool embedded in
// a per-execution object would keep that object, and every batch it
// points to, alive that long.
type pool[T any] struct {
	classes [maxClass - minClass + 1]sync.Pool
	// poison is what race builds overwrite a released buffer with.
	poison T
}

var (
	valuePool = pool[types.Value]{poison: types.NewString("released execution buffer")}
	rowPool   = pool[types.Row]{poison: types.Row{}}
	hashPool  = pool[uint64]{poison: 0x5eed5eed5eed5eed}
	linkPool  = pool[int32]{poison: -1 << 30}
	intPool   = pool[int]{poison: -1 << 30}
)

// lend returns n elements of T from p, on l's loan list. They hold
// whatever they held before. When l is nil, or n is outside the pooled
// classes, it makes them on the heap instead.
func lend[T any](l *Lender, p *pool[T], n int) []T {
	if l == nil || n < 1<<minClass || n > 1<<maxClass {
		return make([]T, n)
	}
	k := bits.Len(uint(n-1)) - minClass
	buf, _ := p.classes[k].Get().(*[]T)
	if buf == nil {
		buf = new([]T)
		*buf = make([]T, 1<<(k+minClass))
	}
	l.mu.Lock()
	if l.loans == nil {
		if l.loans, _ = loanLists.Get().(*[]loan); l.loans == nil {
			l.loans = new([]loan)
		}
	}
	*l.loans = append(*l.loans, loan{p, buf})
	l.mu.Unlock()
	return (*buf)[:n]
}

// put returns a released buffer to its class.
func (p *pool[T]) put(buf any) {
	b := buf.(*[]T)
	if poisonReleased {
		for i := range *b {
			(*b)[i] = p.poison
		}
	}
	p.classes[bits.Len(uint(len(*b)-1))-minClass].Put(b)
}

// grow returns s with room for n more elements, the new array lent by l
// from p (made on the heap when l is nil) when s has to move. Its
// capacity then doubles, or becomes exactly enough if that is more.
// append grows a large slice by only 1.25× (and slices.Grow overshoots a
// doubling): for a slice that grows a batch or a group at a time, that
// would allocate, and abandon, it about five times over.
func grow[T any](l *Lender, p *pool[T], s []T, n int) []T {
	if cap(s)-len(s) >= n {
		return s
	}
	grown := lend(l, p, max(len(s)+n, 2*cap(s)))
	return grown[:copy(grown, s)]
}
