package obs

import (
	"encoding/json"
	"math"
	"runtime"
	"strings"
	"sync"
	"testing"
	"time"
)

// TestCounterGaugeConcurrent hammers one counter and one gauge from many
// goroutines (run under -race in CI) and checks the totals are exact —
// the CAS loops must not lose updates.
func TestCounterGaugeConcurrent(t *testing.T) {
	r := NewRegistry()
	const workers, perWorker = 16, 2000
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			c := r.Counter("c")
			g := r.Gauge("g")
			h := r.Histogram("h", DefaultTimeBuckets())
			for i := 0; i < perWorker; i++ {
				c.Add(1)
				g.Add(1)
				g.Add(-1)
				h.Observe(0.01)
			}
		}()
	}
	wg.Wait()
	s := r.Snapshot()
	if got := s.Counters["c"]; got != workers*perWorker {
		t.Errorf("counter = %g, want %d", got, workers*perWorker)
	}
	if got := s.Gauges["g"]; got != 0 {
		t.Errorf("gauge = %g, want 0", got)
	}
	if got := s.Histograms["h"].Count; got != workers*perWorker {
		t.Errorf("histogram count = %d, want %d", got, workers*perWorker)
	}
}

// TestRegistryNoGoroutines: the registry must not spawn goroutines — it
// is pure shared memory.
func TestRegistryNoGoroutines(t *testing.T) {
	before := runtime.NumGoroutine()
	r := NewRegistry()
	for i := 0; i < 100; i++ {
		r.Counter("x").Inc()
		r.Gauge("y").Set(float64(i))
		r.Histogram("z", []float64{1, 10}).Observe(float64(i))
	}
	_ = r.Snapshot()
	time.Sleep(10 * time.Millisecond)
	if after := runtime.NumGoroutine(); after > before {
		t.Errorf("registry spawned goroutines: %d before, %d after", before, after)
	}
}

// TestHistogramBuckets checks bucket assignment (upper-bound inclusive)
// and the +Inf overflow bucket.
func TestHistogramBuckets(t *testing.T) {
	r := NewRegistry()
	h := r.Histogram("h", []float64{1, 10, 100})
	for _, v := range []float64{0.5, 1, 5, 10, 1000} {
		h.Observe(v)
	}
	s := r.Snapshot().Histograms["h"]
	if s.Count != 5 {
		t.Fatalf("count = %d, want 5", s.Count)
	}
	want := []uint64{2, 2, 0, 1} // le1, le10, le100, +Inf
	for i, b := range s.Buckets {
		if b.Count != want[i] {
			t.Errorf("bucket %d (le %g): count %d, want %d", i, b.Le, b.Count, want[i])
		}
	}
	if !math.IsInf(s.Buckets[3].Le, 1) {
		t.Errorf("overflow bucket bound = %g, want +Inf", s.Buckets[3].Le)
	}
}

// TestSnapshotJSON: snapshots must marshal cleanly (the +Inf bucket bound
// needs the string encoding) and round-trip the counts.
func TestSnapshotJSON(t *testing.T) {
	r := NewRegistry()
	r.Counter("c").Add(3)
	r.Histogram("h", []float64{1}).Observe(2)
	data, err := json.Marshal(r.Snapshot())
	if err != nil {
		t.Fatalf("JSON: %v", err)
	}
	if !strings.Contains(string(data), `"+Inf"`) {
		t.Errorf("JSON missing +Inf bucket: %s", data)
	}
	var decoded map[string]any
	if err := json.Unmarshal(data, &decoded); err != nil {
		t.Fatalf("round-trip: %v", err)
	}
}

// TestSnapshotTextDeterministic: two snapshots of the same state render
// identical sorted text.
func TestSnapshotTextDeterministic(t *testing.T) {
	r := NewRegistry()
	for _, name := range []string{"zeta", "alpha", "mid"} {
		r.Counter(name).Inc()
	}
	r.Gauge("g").Set(2)
	a, b := r.Snapshot().Text(), r.Snapshot().Text()
	if a != b {
		t.Errorf("text not deterministic:\n%s\nvs\n%s", a, b)
	}
	if !strings.HasPrefix(a, "alpha 1\n") {
		t.Errorf("text not sorted:\n%s", a)
	}
}

// TestSnapshotPrometheus: the /metrics exposition carries counters and
// gauges as bare `name value` samples a scraper can read back, and
// histograms as cumulative buckets.
func TestSnapshotPrometheus(t *testing.T) {
	r := NewRegistry()
	r.Counter("queries_planning_skipped_total").Add(4)
	r.Gauge("conns_open").Set(2)
	h := r.Histogram("h", []float64{1, 10})
	for _, v := range []float64{0.5, 5, 50} {
		h.Observe(v)
	}
	text := r.Snapshot().Prometheus()
	for _, line := range []string{
		"# TYPE queries_planning_skipped_total counter", "queries_planning_skipped_total 4",
		"# TYPE conns_open gauge", "conns_open 2",
		`h_bucket{le="1"} 1`, `h_bucket{le="10"} 2`, `h_bucket{le="+Inf"} 3`, "h_sum 55.5", "h_count 3",
	} {
		if !strings.Contains("\n"+text, "\n"+line+"\n") {
			t.Errorf("exposition lacks line %q:\n%s", line, text)
		}
	}
}

// TestFragmentMerge: merging two instance records sums flows and takes
// the max of the high-water mark.
func TestFragmentMerge(t *testing.T) {
	fo := &FragmentObs{Frag: 1, Ops: []OpStats{{Op: "Scan", EstRows: 100}}}
	a := &InstanceObs{Ops: []OpStats{{RowsIn: 10, RowsOut: 5, Work: 2, PeakRows: 7}}}
	b := &InstanceObs{Ops: []OpStats{{RowsIn: 20, RowsOut: 15, Work: 3, PeakRows: 4}}}
	fo.Merge(a)
	fo.Merge(b)
	op := fo.Ops[0]
	if fo.Instances != 2 || op.RowsIn != 30 || op.RowsOut != 20 || op.Work != 5 {
		t.Errorf("merge totals wrong: %+v (instances=%d)", op, fo.Instances)
	}
	if op.PeakRows != 7 {
		t.Errorf("PeakRows = %d, want max 7", op.PeakRows)
	}
}

// TestTopOperators: ranking is by self work, descending, stable.
func TestTopOperators(t *testing.T) {
	q := &QueryObs{Fragments: []*FragmentObs{
		{Frag: 0, Ops: []OpStats{{Op: "Sort", Work: 5}, {Op: "Scan", Work: 50}}},
		{Frag: 1, Ops: []OpStats{{Op: "Join", Work: 20}}},
	}}
	top := q.TopOperators(2)
	if len(top) != 2 || top[0].Op != "Scan" || top[1].Op != "Join" {
		t.Errorf("TopOperators = %+v", top)
	}
}

// TestChromeTrace: the export is a valid trace_event document with one
// "X" event per span plus process metadata.
func TestChromeTrace(t *testing.T) {
	q := &QueryObs{
		QueryID: 7, Label: "Q3",
		Spans: []Span{
			{Frag: 1, Site: 2, Host: 2, StartNanos: 100, EndNanos: 400, Status: SpanOK},
			{Frag: 1, Site: 3, Host: 3, StartNanos: 50, EndNanos: 90, Status: SpanRetried, Error: "crash"},
		},
	}
	data, err := ChromeTrace([]*QueryObs{q})
	if err != nil {
		t.Fatalf("ChromeTrace: %v", err)
	}
	var doc struct {
		TraceEvents []map[string]any `json:"traceEvents"`
	}
	if err := json.Unmarshal(data, &doc); err != nil {
		t.Fatalf("unmarshal: %v", err)
	}
	if len(doc.TraceEvents) != 3 { // 1 metadata + 2 spans
		t.Fatalf("events = %d, want 3", len(doc.TraceEvents))
	}
	if doc.TraceEvents[0]["ph"] != "M" || doc.TraceEvents[1]["ph"] != "X" {
		t.Errorf("event phases wrong: %+v", doc.TraceEvents)
	}
}
