// Package plancache caches optimized physical plans keyed by a normalized
// digest of the statement text, so repeated executions of the same query
// shape — in particular prepared statements with `?` parameters — skip
// parsing, validation and cost-based optimization entirely.
//
// This mirrors the Calcite-in-Ignite arrangement the paper studies: Ignite
// fronts Calcite with a bounded query-plan cache because planning is a
// significant fraction of short-query latency. An entry stores the
// compiled plan already split into fragments, which executions only read,
// so a hit pays for execution alone: parameter values are bound into
// per-execution kernels, never into the plan. Plans are invalidated by
// catalog version: any schema or statistics change bumps the version and
// lazily evicts stale entries on next lookup.
package plancache

import (
	"container/list"
	"sync"
	"sync/atomic"

	"gignite/internal/fragment"
	"gignite/internal/obs"
	"gignite/internal/physical"
	"gignite/internal/types"
)

// Entry is one cached plan, shared read-only by every execution. Split is
// the compiled plan's fragmentation (fragment.Split), made once when the
// entry is built: every execution, adaptive or not, runs Split as it is,
// with its `?` values bound into kernels of its own (physical.Bind) and
// an adaptive controller's decisions kept beside it. Plan is the
// unsplit physical tree, which the engine leaves nil; only the
// benchmark's staged pipeline (bench/staged.go) fills and reads it.
// ParamKinds holds the bind-time type hint for each `?` placeholder
// (types.KindNull when no hint was derivable).
// Tickets records the optimizer work the original planning pass spent, so
// cache hits can report a stable planning-cost figure. The plan's
// rendered text (Text) is made once per entry, on its first execution.
type Entry struct {
	Plan       physical.Node
	Split      *fragment.Plan
	ParamKinds []types.Kind
	Tickets    int
	// Version is the catalog version the plan was built against. An entry
	// whose version no longer matches the live catalog is stale.
	Version uint64

	textOnce sync.Once
	text     *Text
}

// Text is what every execution of an entry reports about its plan: the
// plan digest, each fragment's operator lines (indexed by fragment id,
// then operator id) and the result column names. Arguments render as
// their placeholders, so one rendering holds for every execution.
type Text struct {
	Digest  string
	Ops     [][]string
	Columns []string
}

// Text returns the entry's plan text, calling render for the first
// execution only; concurrent first executions wait for that one
// rendering. Callers share the result read-only.
func (e *Entry) Text(render func() *Text) *Text {
	e.textOnce.Do(func() { e.text = render() })
	return e.text
}

// Metrics holds optional observability counters. Any field may be nil.
type Metrics struct {
	Hits      *obs.Counter
	Misses    *obs.Counter
	Evictions *obs.Counter
}

// Stats is a point-in-time snapshot of cache behaviour.
type Stats struct {
	Size      int
	Capacity  int
	Hits      uint64
	Misses    uint64
	Evictions uint64
}

// Cache is a bounded LRU plan cache, safe for concurrent use. Concurrent
// misses on the same digest are coalesced: exactly one goroutine runs the
// builder while the rest wait and share its result, so a burst of
// identical queries costs a single planning pass.
type Cache struct {
	mu       sync.Mutex
	capacity int
	ll       *list.List // front = most recently used; values are *slot
	entries  map[uint64]*list.Element
	building map[uint64]*buildCall

	metrics   Metrics
	hits      atomic.Uint64
	misses    atomic.Uint64
	evictions atomic.Uint64
}

type slot struct {
	key   uint64
	entry *Entry
}

type buildCall struct {
	done    chan struct{}
	version uint64 // the catalog version the build was asked for
	entry   *Entry
	err     error
}

// New returns a cache holding at most capacity plans. Capacity must be
// positive; a disabled cache is represented by not constructing one.
func New(capacity int, metrics Metrics) *Cache {
	if capacity <= 0 {
		capacity = 1
	}
	return &Cache{
		capacity: capacity,
		ll:       list.New(),
		entries:  make(map[uint64]*list.Element),
		building: make(map[uint64]*buildCall),
		metrics:  metrics,
	}
}

// Get returns the cached plan for digest, building and inserting it on a
// miss. version is the live catalog version: a cached entry built against
// an older version is discarded and rebuilt. hit reports whether planning
// was skipped — waiters coalesced onto another goroutine's in-flight build
// count as hits, since they did no planning work themselves. A waiter
// whose build ran against another catalog version (DDL landed between the
// two lookups) does not take its result and looks up afresh.
func (c *Cache) Get(digest, version uint64, build func() (*Entry, error)) (e *Entry, hit bool, err error) {
	c.mu.Lock()
	for {
		if el, ok := c.entries[digest]; ok {
			s := el.Value.(*slot)
			if s.entry.Version == version {
				c.ll.MoveToFront(el)
				c.mu.Unlock()
				c.recordHit()
				return s.entry, true, nil
			}
			// Stale: schema or stats changed since this plan was built.
			c.removeLocked(el, false)
		}
		call, ok := c.building[digest]
		if !ok {
			break
		}
		c.mu.Unlock()
		<-call.done
		switch {
		case call.err == nil && call.entry.Version == version:
			c.recordHit()
			return call.entry, true, nil
		case call.err != nil && call.version == version:
			return nil, false, call.err
		}
		c.mu.Lock()
	}
	call := &buildCall{done: make(chan struct{}), version: version}
	c.building[digest] = call
	c.mu.Unlock()

	call.entry, call.err = build()

	// Waiters are released only once the entry is in place, so one that
	// looks up afresh finds it rather than this finished build.
	c.mu.Lock()
	delete(c.building, digest)
	if call.err == nil {
		c.insertLocked(digest, call.entry)
	}
	c.mu.Unlock()
	close(call.done)
	c.recordMiss()
	if call.err != nil {
		return nil, false, call.err
	}
	return call.entry, false, nil
}

// Snapshot returns current cache statistics.
func (c *Cache) Snapshot() Stats {
	c.mu.Lock()
	size := c.ll.Len()
	c.mu.Unlock()
	return Stats{
		Size:      size,
		Capacity:  c.capacity,
		Hits:      c.hits.Load(),
		Misses:    c.misses.Load(),
		Evictions: c.evictions.Load(),
	}
}

func (c *Cache) insertLocked(digest uint64, e *Entry) {
	if el, ok := c.entries[digest]; ok {
		// A concurrent builder for a different version may have raced us in;
		// keep the newest.
		if s := el.Value.(*slot); e.Version > s.entry.Version {
			s.entry = e
		}
		c.ll.MoveToFront(el)
		return
	}
	c.entries[digest] = c.ll.PushFront(&slot{key: digest, entry: e})
	for c.ll.Len() > c.capacity {
		c.removeLocked(c.ll.Back(), true)
	}
}

func (c *Cache) removeLocked(el *list.Element, evicted bool) {
	s := el.Value.(*slot)
	c.ll.Remove(el)
	delete(c.entries, s.key)
	if evicted {
		c.evictions.Add(1)
		if c.metrics.Evictions != nil {
			c.metrics.Evictions.Inc()
		}
	}
}

func (c *Cache) recordHit() {
	c.hits.Add(1)
	if c.metrics.Hits != nil {
		c.metrics.Hits.Inc()
	}
}

func (c *Cache) recordMiss() {
	c.misses.Add(1)
	if c.metrics.Misses != nil {
		c.metrics.Misses.Inc()
	}
}
