// Package governor implements engine-wide resource governance: a FIFO
// admission queue that bounds how many queries execute concurrently, a
// shared memory pool that in-flight queries reserve against through
// per-query leases, and the typed sentinel errors that let callers tell
// load shedding (ErrOverloaded) from a single query blowing its own
// budget (ErrMemoryExceeded).
//
// Admission and memory interact through a watermark: when a shared pool
// is configured, a query is only admitted while the pool has headroom for
// one more query's worth of reservations (the per-query limit, capped at
// the pool size). Queries that cannot be admitted wait in FIFO order up
// to the admission timeout, then are shed with ErrOverloaded — the engine
// degrades by rejecting work it cannot serve instead of falling over.
//
// The governor bounds host resources, which are outside the modeled-time
// determinism contract: whether a query queues or sheds depends on what
// else is in flight. What stays deterministic is the outcome taxonomy —
// an admitted query returns exactly the rows an ungoverned engine would,
// and a rejected query always fails with a typed sentinel, never a
// partial result.
package governor

import (
	"context"
	"errors"
	"fmt"
	"sync"
	"time"

	"gignite/internal/obs"
)

// Typed sentinel errors. The engine re-exports both.
var (
	// ErrOverloaded reports load shedding: the admission queue timed out,
	// or an admitted query's reservation found the shared pool exhausted.
	ErrOverloaded = errors.New("governor: engine overloaded")
	// ErrMemoryExceeded reports one query exceeding its own memory budget;
	// only that query aborts, never the process.
	ErrMemoryExceeded = errors.New("governor: query memory limit exceeded")
)

// DefaultAdmissionTimeout bounds how long an over-capacity query waits in
// the admission queue before it is shed (Params.AdmissionTimeout = 0).
const DefaultAdmissionTimeout = 2 * time.Second

// Params configures a Governor. Zero fields disable their control:
// MaxConcurrent <= 0 means unbounded concurrency, PoolBytes <= 0 no
// shared pool, QueryLimitBytes <= 0 no per-query budget.
type Params struct {
	// MaxConcurrent bounds admitted (executing) queries.
	MaxConcurrent int
	// PoolBytes is the shared memory pool all leases reserve from.
	PoolBytes int64
	// QueryLimitBytes caps the bytes one query may charge cumulatively
	// over its lifetime. Charging is deterministic (estimated operator
	// state, not host allocations), so whether a query trips its limit is
	// identical at every worker count.
	QueryLimitBytes int64
	// AdmissionTimeout bounds the queued wait: 0 uses
	// DefaultAdmissionTimeout, negative waits until the context is done.
	AdmissionTimeout time.Duration
}

// Metrics are the observability handles the governor updates; nil fields
// are skipped.
type Metrics struct {
	// Queued tracks queries waiting in the admission queue.
	Queued *obs.Gauge
	// Shed counts queries rejected with ErrOverloaded at admission.
	Shed *obs.Counter
	// Reserved tracks the shared pool's reserved bytes.
	Reserved *obs.Gauge
}

// Governor is the engine-wide resource arbiter. The zero value is not
// valid; use New. A nil *Governor is valid and admits everything.
type Governor struct {
	p Params
	m Metrics

	mu       sync.Mutex
	inflight int
	poolUsed int64
	queue    []*waiter
}

// waiter is one queued admission request. ready is closed (with admitted
// set, both under the governor mutex) when dispatch grants the slot.
type waiter struct {
	ready    chan struct{}
	admitted bool
}

// New creates a governor. It never returns nil even when every control is
// disabled, so callers can gate construction on their own config.
func New(p Params, m Metrics) *Governor {
	return &Governor{p: p, m: m}
}

// Acquire admits one query, blocking in FIFO order while the engine is at
// capacity. It returns the query's memory lease on admission, ctx.Err()
// if the caller gives up while queued (the queue slot is released
// immediately — an abandoned waiter never pins capacity), or
// ErrOverloaded when the admission timeout fires first. A nil governor
// admits immediately with a nil lease (which accepts all reservations).
func (g *Governor) Acquire(ctx context.Context) (*Lease, error) {
	if g == nil {
		return nil, nil
	}
	g.mu.Lock()
	if len(g.queue) == 0 && g.admittableLocked() {
		g.inflight++
		g.mu.Unlock()
		return &Lease{g: g}, nil
	}
	w := &waiter{ready: make(chan struct{})}
	g.queue = append(g.queue, w)
	g.setQueuedLocked()
	g.mu.Unlock()

	var timeout <-chan time.Time
	if d := g.p.AdmissionTimeout; d >= 0 {
		if d == 0 {
			d = DefaultAdmissionTimeout
		}
		t := time.NewTimer(d)
		defer t.Stop()
		timeout = t.C
	}
	select {
	case <-w.ready:
		return &Lease{g: g}, nil
	case <-ctx.Done():
		if !g.abandon(w) {
			// Admitted in the race with cancellation: hand the slot back so
			// a live query can take it.
			(&Lease{g: g}).Close()
		}
		return nil, ctx.Err()
	case <-timeout:
		if !g.abandon(w) {
			// Admitted in the race with the shed timer: serve the query.
			return &Lease{g: g}, nil
		}
		if g.m.Shed != nil {
			g.m.Shed.Inc()
		}
		return nil, fmt.Errorf("admission queue wait exceeded %v: %w", g.p.AdmissionTimeout, ErrOverloaded)
	}
}

// abandon removes a still-queued waiter, reporting false when dispatch
// already admitted it (the caller then owns an admission slot and must
// either use it or close a lease to release it).
func (g *Governor) abandon(w *waiter) bool {
	g.mu.Lock()
	defer g.mu.Unlock()
	if w.admitted {
		return false
	}
	for i, q := range g.queue {
		if q == w {
			g.queue = append(g.queue[:i], g.queue[i+1:]...)
			break
		}
	}
	g.setQueuedLocked()
	return true
}

// admittableLocked decides whether one more query fits. The memory check
// is a watermark: a new query is assumed to eventually reserve up to its
// per-query limit, so admission waits until that headroom exists. The
// first query is always admitted — an oversized query then fails its own
// reservation rather than deadlocking the queue.
func (g *Governor) admittableLocked() bool {
	if g.p.MaxConcurrent > 0 && g.inflight >= g.p.MaxConcurrent {
		return false
	}
	if g.p.PoolBytes > 0 && g.inflight > 0 {
		if g.poolUsed+g.watermark() > g.p.PoolBytes {
			return false
		}
	}
	return true
}

// watermark is the pool headroom a newly admitted query is assumed to
// need: the per-query limit, capped at (and defaulting to) the pool size.
func (g *Governor) watermark() int64 {
	w := g.p.QueryLimitBytes
	if w <= 0 || w > g.p.PoolBytes {
		w = g.p.PoolBytes
	}
	return w
}

// dispatchLocked admits queued waiters in FIFO order while capacity lasts.
func (g *Governor) dispatchLocked() {
	for len(g.queue) > 0 && g.admittableLocked() {
		w := g.queue[0]
		g.queue = g.queue[1:]
		w.admitted = true
		g.inflight++
		close(w.ready)
	}
	g.setQueuedLocked()
}

func (g *Governor) setQueuedLocked() {
	if g.m.Queued != nil {
		g.m.Queued.Set(float64(len(g.queue)))
	}
}

func (g *Governor) setReservedLocked() {
	if g.m.Reserved != nil {
		g.m.Reserved.Set(float64(g.poolUsed))
	}
}

// Lease is one admitted query's handle on the governor: its admission
// slot plus its memory reservations. Operators Reserve as they accumulate
// state, the scheduler Releases when instances finish, and Close returns
// everything (idempotent). A nil lease accepts all calls and enforces
// nothing — ungoverned engines pass nil leases everywhere.
type Lease struct {
	g *Governor

	mu sync.Mutex
	// live is the currently reserved bytes (what the shared pool sees);
	// total is the cumulative charge (monotone — what the per-query limit
	// is enforced against, so the limit decision is independent of how
	// instance lifetimes overlap at different worker counts).
	live   int64
	total  int64
	peak   int64
	closed bool
}

// Reserve charges bytes against the query's budget and the shared pool.
// It fails with ErrMemoryExceeded when the cumulative charge would pass
// the per-query limit, and with ErrOverloaded when the shared pool has no
// room left; in both cases nothing is charged.
func (l *Lease) Reserve(bytes int64) error {
	if l == nil || l.g == nil || bytes <= 0 {
		return nil
	}
	g := l.g
	l.mu.Lock()
	if lim := g.p.QueryLimitBytes; lim > 0 && l.total+bytes > lim {
		total := l.total
		l.mu.Unlock()
		return fmt.Errorf("%w: %d bytes charged + %d requested > %d budget",
			ErrMemoryExceeded, total, bytes, lim)
	}
	l.total += bytes
	l.live += bytes
	if l.live > l.peak {
		l.peak = l.live
	}
	l.mu.Unlock()

	g.mu.Lock()
	if g.p.PoolBytes > 0 && g.poolUsed+bytes > g.p.PoolBytes {
		used := g.poolUsed
		g.mu.Unlock()
		l.mu.Lock()
		l.total -= bytes
		l.live -= bytes
		l.mu.Unlock()
		return fmt.Errorf("shared memory pool exhausted (%d reserved + %d requested > %d budget): %w",
			used, bytes, g.p.PoolBytes, ErrOverloaded)
	}
	g.poolUsed += bytes
	g.setReservedLocked()
	g.mu.Unlock()
	return nil
}

// Release returns bytes to the shared pool (clamped at the lease's live
// reservation). Freed memory may admit queued queries.
func (l *Lease) Release(bytes int64) {
	if l == nil || l.g == nil || bytes <= 0 {
		return
	}
	l.mu.Lock()
	if bytes > l.live {
		bytes = l.live
	}
	l.live -= bytes
	l.mu.Unlock()
	if bytes == 0 {
		return
	}
	g := l.g
	g.mu.Lock()
	g.poolUsed -= bytes
	if g.poolUsed < 0 {
		g.poolUsed = 0
	}
	g.setReservedLocked()
	g.dispatchLocked()
	g.mu.Unlock()
}

// Close releases any remaining reservation and the admission slot, then
// dispatches queued waiters. Safe to call more than once.
func (l *Lease) Close() {
	if l == nil || l.g == nil {
		return
	}
	l.mu.Lock()
	if l.closed {
		l.mu.Unlock()
		return
	}
	l.closed = true
	rem := l.live
	l.live = 0
	l.mu.Unlock()
	g := l.g
	g.mu.Lock()
	g.poolUsed -= rem
	if g.poolUsed < 0 {
		g.poolUsed = 0
	}
	g.inflight--
	g.setReservedLocked()
	g.dispatchLocked()
	g.mu.Unlock()
}

// Peak returns the lease's high-water mark of live reservations.
func (l *Lease) Peak() int64 {
	if l == nil {
		return 0
	}
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.peak
}
