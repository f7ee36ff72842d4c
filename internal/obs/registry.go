// Package obs is the engine's observability subsystem: a lock-cheap
// metrics registry (counters, gauges, histograms) for cumulative engine
// telemetry, and per-query observation records — per-operator runtime
// statistics and distributed trace spans — collected by the executor and
// the cluster scheduler.
//
// Determinism contract (see DESIGN.md §12): everything derived from the
// executed rows — per-operator row counts, batches, build sizes, modeled
// work, span counts and span ordering — is identical at every host worker
// count, because instances record into private buffers that the wave
// barrier merges in deterministic job order. Wall-clock fields (operator
// wall time, span start/end offsets) are measurements of the host and are
// explicitly outside the contract.
package obs

import (
	"encoding/json"
	"fmt"
	"math"
	"sort"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
)

// Counter is a monotonically increasing float64 accumulated with atomic
// compare-and-swap on the bit pattern; Add never takes a lock.
type Counter struct {
	bits atomic.Uint64
}

// Add increments the counter.
func (c *Counter) Add(v float64) {
	for {
		old := c.bits.Load()
		new := math.Float64bits(math.Float64frombits(old) + v)
		if c.bits.CompareAndSwap(old, new) {
			return
		}
	}
}

// Inc adds 1.
func (c *Counter) Inc() { c.Add(1) }

// Value reads the current total.
func (c *Counter) Value() float64 { return math.Float64frombits(c.bits.Load()) }

// Gauge is a last-write-wins float64 (e.g. in-flight query count uses
// Add with ±1).
type Gauge struct {
	bits atomic.Uint64
}

// Set stores the gauge value.
func (g *Gauge) Set(v float64) { g.bits.Store(math.Float64bits(v)) }

// Add increments the gauge (CAS loop, lock-free).
func (g *Gauge) Add(v float64) {
	for {
		old := g.bits.Load()
		new := math.Float64bits(math.Float64frombits(old) + v)
		if g.bits.CompareAndSwap(old, new) {
			return
		}
	}
}

// Value reads the gauge.
func (g *Gauge) Value() float64 { return math.Float64frombits(g.bits.Load()) }

// Histogram counts observations into fixed buckets (upper-bound
// inclusive, +Inf implicit). Observe is lock-free: one atomic add on the
// bucket plus the sum/count counters.
type Histogram struct {
	bounds []float64
	counts []atomic.Uint64
	sum    Counter
	n      atomic.Uint64
}

// DefaultTimeBuckets are seconds-scale bounds suited to both modeled and
// wall query times (1 ms … ~17 min).
func DefaultTimeBuckets() []float64 {
	return []float64{0.001, 0.005, 0.025, 0.1, 0.5, 2.5, 10, 60, 300, 1000}
}

// Observe records one sample.
func (h *Histogram) Observe(v float64) {
	i := sort.SearchFloat64s(h.bounds, v)
	h.counts[i].Add(1)
	h.sum.Add(v)
	h.n.Add(1)
}

// Registry is a named collection of metrics. Lookup takes a short RWMutex
// critical section; callers on hot paths hold the returned handle and
// never touch the registry again.
type Registry struct {
	mu         sync.RWMutex
	counters   map[string]*Counter
	gauges     map[string]*Gauge
	histograms map[string]*Histogram
}

// NewRegistry creates an empty registry.
func NewRegistry() *Registry {
	return &Registry{
		counters:   make(map[string]*Counter),
		gauges:     make(map[string]*Gauge),
		histograms: make(map[string]*Histogram),
	}
}

// Counter returns (creating on first use) the named counter.
func (r *Registry) Counter(name string) *Counter {
	r.mu.RLock()
	c, ok := r.counters[name]
	r.mu.RUnlock()
	if ok {
		return c
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	if c, ok = r.counters[name]; ok {
		return c
	}
	c = &Counter{}
	r.counters[name] = c
	return c
}

// Gauge returns (creating on first use) the named gauge.
func (r *Registry) Gauge(name string) *Gauge {
	r.mu.RLock()
	g, ok := r.gauges[name]
	r.mu.RUnlock()
	if ok {
		return g
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	if g, ok = r.gauges[name]; ok {
		return g
	}
	g = &Gauge{}
	r.gauges[name] = g
	return g
}

// Histogram returns (creating on first use) the named histogram with the
// given bucket upper bounds (ignored if the histogram already exists).
func (r *Registry) Histogram(name string, bounds []float64) *Histogram {
	r.mu.RLock()
	h, ok := r.histograms[name]
	r.mu.RUnlock()
	if ok {
		return h
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	if h, ok = r.histograms[name]; ok {
		return h
	}
	bs := make([]float64, len(bounds))
	copy(bs, bounds)
	sort.Float64s(bs)
	h = &Histogram{bounds: bs, counts: make([]atomic.Uint64, len(bs)+1)}
	r.histograms[name] = h
	return h
}

// Bucket is one histogram bucket in a snapshot. Le is the inclusive upper
// bound (+Inf for the overflow bucket); Count is non-cumulative.
type Bucket struct {
	Le    float64 `json:"le"`
	Count uint64  `json:"count"`
}

// MarshalJSON renders Le as a string ("+Inf" for the overflow bucket,
// Prometheus style), since JSON has no infinity literal.
func (b Bucket) MarshalJSON() ([]byte, error) {
	le := "+Inf"
	if !math.IsInf(b.Le, 1) {
		le = strconv.FormatFloat(b.Le, 'g', -1, 64)
	}
	return json.Marshal(struct {
		Le    string `json:"le"`
		Count uint64 `json:"count"`
	}{le, b.Count})
}

// HistogramSnapshot is a histogram's state at snapshot time.
type HistogramSnapshot struct {
	Count   uint64   `json:"count"`
	Sum     float64  `json:"sum"`
	Buckets []Bucket `json:"buckets"`
}

// Snapshot is a point-in-time copy of every metric, suitable for JSON or
// text export. Map iteration order is made deterministic by Text.
type Snapshot struct {
	Counters   map[string]float64           `json:"counters"`
	Gauges     map[string]float64           `json:"gauges"`
	Histograms map[string]HistogramSnapshot `json:"histograms"`
}

// Snapshot copies the registry's current state.
func (r *Registry) Snapshot() Snapshot {
	r.mu.RLock()
	defer r.mu.RUnlock()
	s := Snapshot{
		Counters:   make(map[string]float64, len(r.counters)),
		Gauges:     make(map[string]float64, len(r.gauges)),
		Histograms: make(map[string]HistogramSnapshot, len(r.histograms)),
	}
	for name, c := range r.counters {
		s.Counters[name] = c.Value()
	}
	for name, g := range r.gauges {
		s.Gauges[name] = g.Value()
	}
	for name, h := range r.histograms {
		hs := HistogramSnapshot{Count: h.n.Load(), Sum: h.sum.Value()}
		for i := range h.counts {
			le := math.Inf(1)
			if i < len(h.bounds) {
				le = h.bounds[i]
			}
			hs.Buckets = append(hs.Buckets, Bucket{Le: le, Count: h.counts[i].Load()})
		}
		s.Histograms[name] = hs
	}
	return s
}

// Text renders the snapshot as sorted "name value" lines (counters and
// gauges) plus one line per histogram with count/sum/buckets.
func (s Snapshot) Text() string {
	var sb strings.Builder
	for _, name := range sortedNames(s.Counters) {
		fmt.Fprintf(&sb, "%s %g\n", name, s.Counters[name])
	}
	for _, name := range sortedNames(s.Gauges) {
		fmt.Fprintf(&sb, "%s %g\n", name, s.Gauges[name])
	}
	hnames := make([]string, 0, len(s.Histograms))
	for name := range s.Histograms {
		hnames = append(hnames, name)
	}
	sort.Strings(hnames)
	for _, name := range hnames {
		h := s.Histograms[name]
		fmt.Fprintf(&sb, "%s count=%d sum=%g", name, h.Count, h.Sum)
		for _, b := range h.Buckets {
			if b.Count == 0 {
				continue
			}
			fmt.Fprintf(&sb, " le%g=%d", b.Le, b.Count)
		}
		sb.WriteByte('\n')
	}
	return sb.String()
}

// Prometheus renders the snapshot in the Prometheus text exposition
// format (version 0.0.4): one `# TYPE` line per family, counters and
// gauges as bare samples, histograms as cumulative `_bucket{le="..."}`
// series plus `_sum` and `_count`. The serving layer's /metrics endpoint
// returns exactly this.
func (s Snapshot) Prometheus() string {
	var sb strings.Builder
	for _, name := range sortedNames(s.Counters) {
		fmt.Fprintf(&sb, "# TYPE %s counter\n%s %s\n", name, name, promFloat(s.Counters[name]))
	}
	for _, name := range sortedNames(s.Gauges) {
		fmt.Fprintf(&sb, "# TYPE %s gauge\n%s %s\n", name, name, promFloat(s.Gauges[name]))
	}
	hnames := make([]string, 0, len(s.Histograms))
	for name := range s.Histograms {
		hnames = append(hnames, name)
	}
	sort.Strings(hnames)
	for _, name := range hnames {
		h := s.Histograms[name]
		fmt.Fprintf(&sb, "# TYPE %s histogram\n", name)
		var cum uint64
		for _, b := range h.Buckets {
			cum += b.Count
			le := "+Inf"
			if !math.IsInf(b.Le, 1) {
				le = promFloat(b.Le)
			}
			fmt.Fprintf(&sb, "%s_bucket{le=%q} %d\n", name, le, cum)
		}
		fmt.Fprintf(&sb, "%s_sum %s\n", name, promFloat(h.Sum))
		fmt.Fprintf(&sb, "%s_count %d\n", name, h.Count)
	}
	return sb.String()
}

func promFloat(v float64) string { return strconv.FormatFloat(v, 'g', -1, 64) }

func sortedNames(m map[string]float64) []string {
	out := make([]string, 0, len(m))
	for name := range m {
		out = append(out, name)
	}
	sort.Strings(out)
	return out
}
