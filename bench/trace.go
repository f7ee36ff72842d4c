package main

import (
	"encoding/json"
	"os"
	"runtime/metrics"
	"sort"
	"time"
)

// span is one timed call into a layer. Spans of one statement execution
// share Req; Parent 0 marks a root.
type span struct {
	ID     int    `json:"id"`
	Parent int    `json:"parent"`
	Req    string `json:"request"` // "<pass>.<statement id>"
	Name   string `json:"name"`
	Detail string `json:"detail,omitempty"`
	Start  int64  `json:"start_ns"` // since the tracer started
	End    int64  `json:"end_ns"`
	// Lane separates spans that overlap in time (fragment instances) when
	// the trace is drawn; the staged calls themselves run in lane 0.
	Lane int `json:"lane,omitempty"`
}

func (s span) dur() int64 { return s.End - s.Start }

// selfTimes returns, per span ID, the span's duration minus the part of
// that interval its child spans cover (the union of the children, clipped
// to the parent): the time the layer itself was busy or waiting.
func selfTimes(spans []span) map[int]int64 {
	type iv struct{ lo, hi int64 }
	kids := make(map[int][]iv)
	byID := make(map[int]span, len(spans))
	for _, s := range spans {
		byID[s.ID] = s
	}
	for _, s := range spans {
		p, ok := byID[s.Parent]
		if !ok {
			continue
		}
		lo, hi := max(s.Start, p.Start), min(s.End, p.End)
		if hi > lo {
			kids[s.Parent] = append(kids[s.Parent], iv{lo, hi})
		}
	}
	out := make(map[int]int64, len(spans))
	for _, s := range spans {
		ivs := kids[s.ID]
		sort.Slice(ivs, func(a, b int) bool { return ivs[a].lo < ivs[b].lo })
		var covered, end int64
		end = s.Start
		for _, k := range ivs {
			if k.hi <= end {
				continue
			}
			covered += k.hi - max(k.lo, end)
			end = k.hi
		}
		out[s.ID] = s.dur() - covered
	}
	return out
}

// keepPasses is how many passes the trace file holds span by span; later
// passes only feed the aggregates, so memory stays bounded.
const keepPasses = 20

// tracer records spans around the benchmark's own calls into each layer.
// Spans stay in memory and are written out when the run ends.
type tracer struct {
	t0     time.Time
	nextID int
	// cur and counts belong to the statement being traced, until flush
	// folds them into the aggregates or discard drops them.
	cur    []span
	counts map[string]float64
	kept   []span
	// sum totals span durations (ns) by span name, plus the named counts
	// taken at the same boundaries, over every flushed statement.
	sum map[string]float64
	// sample is reused so that reading the allocation count allocates
	// nothing itself.
	sample [1]metrics.Sample
}

func newTracer() *tracer {
	t := &tracer{t0: time.Now(), counts: make(map[string]float64), sum: make(map[string]float64)}
	t.sample[0].Name = "/gc/heap/allocs:objects"
	return t
}

// heapAllocs reads the process's cumulative heap allocation count without
// stopping the world.
func (t *tracer) heapAllocs() uint64 {
	metrics.Read(t.sample[:])
	return t.sample[0].Value.Uint64()
}

func (t *tracer) now() int64 { return time.Since(t.t0).Nanoseconds() }

// begin opens a span now and returns its ID for end.
func (t *tracer) begin(parent int, req, name string) int {
	return t.add(span{Parent: parent, Req: req, Name: name, Start: t.now()})
}

// end closes a span of the statement being traced.
func (t *tracer) end(id int) {
	s := &t.cur[id-t.cur[0].ID]
	s.End = t.now()
}

// add records a span whose times are already known.
func (t *tracer) add(s span) int {
	t.nextID++
	s.ID = t.nextID
	t.cur = append(t.cur, s)
	return s.ID
}

func (t *tracer) get(id int) span { return t.cur[id-t.cur[0].ID] }

func (t *tracer) count(name string, v float64) { t.counts[name] += v }

// flush folds the traced statement into the aggregates and, when keep is
// set, into the spans the trace file shows in full. cluster.run also
// totals its self time: the run minus the union of its instance spans,
// which is wave set-up, barriers, merging and result assembly.
func (t *tracer) flush(keep bool) {
	self := selfTimes(t.cur)
	for _, s := range t.cur {
		t.sum[s.Name] += float64(s.dur())
		if s.Name == "cluster.run" {
			t.sum["cluster.run.self"] += float64(self[s.ID])
		}
	}
	for name, v := range t.counts {
		t.sum[name] += v
	}
	if keep {
		t.kept = append(t.kept, t.cur...)
	}
	t.discard()
}

// discard drops the spans and counts of the statement being traced.
func (t *tracer) discard() {
	t.cur = t.cur[:0]
	clear(t.counts)
}

// takeSums hands over the aggregates so far and starts new ones; the
// set-up spans are separated from the per-statement ones this way.
func (t *tracer) takeSums() map[string]float64 {
	out := t.sum
	t.sum = make(map[string]float64)
	return out
}

// chromeEvent is one trace_event "complete" event (Perfetto and
// chrome://tracing load the file).
type chromeEvent struct {
	Name string         `json:"name"`
	Ph   string         `json:"ph"`
	Ts   float64        `json:"ts"` // microseconds
	Dur  float64        `json:"dur"`
	Pid  int            `json:"pid"`
	Tid  int            `json:"tid"`
	Args map[string]any `json:"args"`
}

// write stores the kept spans in Chrome trace_event form, with the
// per-layer metrics of the whole traced run beside them.
func (t *tracer) write(path string, metrics map[string]metricValue) error {
	events := make([]chromeEvent, 0, len(t.kept))
	for _, s := range t.kept {
		name := s.Name
		if s.Detail != "" {
			name += " " + s.Detail
		}
		events = append(events, chromeEvent{
			Name: name, Ph: "X", Ts: float64(s.Start) / 1e3, Dur: float64(s.dur()) / 1e3,
			Pid: 1, Tid: s.Lane,
			Args: map[string]any{"id": s.ID, "parent": s.Parent, "request": s.Req},
		})
	}
	data, err := json.Marshal(map[string]any{"traceEvents": events, "aggregates": metrics})
	if err != nil {
		return err
	}
	return os.WriteFile(path, data, 0o644)
}
