package obs

import (
	"encoding/json"
	"fmt"
	"sort"
	"time"

	"gignite/internal/fragment"
	"gignite/internal/physical"
)

// OpStats is the runtime record of one physical operator within one
// fragment, aggregated over the fragment's successful instance
// executions. Row counts, batches, build sizes and modeled work are
// deterministic across host worker counts; WallNanos is host measurement.
type OpStats struct {
	// Op is the operator's Describe() line (arguments as placeholders).
	Op string `json:"op"`
	// EstRows is the planner's cardinality estimate for the operator.
	EstRows float64 `json:"est_rows"`
	// RowsIn counts input rows consumed (for scans: partition rows read
	// before variant splitting; for receivers: rows received).
	RowsIn int64 `json:"rows_in"`
	// RowsOut counts output rows produced, summed across instances — the
	// "actual" side of the estimate-vs-actual report.
	RowsOut int64 `json:"rows_out"`
	// Batches counts exchanged batches consumed (receivers only).
	Batches int64 `json:"batches,omitempty"`
	// BuildRows counts hash-table build-side rows (hash joins only;
	// hash-aggregate group counts equal RowsOut).
	BuildRows int64 `json:"build_rows,omitempty"`
	// PeakRows is the row high-water mark: the most rows any one instance
	// of this operator held at once — the largest batch a streaming
	// operator emitted, the rows a breaker kept (a join's collected
	// inputs, a sort buffer, a merging receiver's input).
	PeakRows int64 `json:"peak_rows"`
	// PeakMemBytes is the governed-memory high-water mark: the most
	// estimated state bytes any one instance of this operator charged
	// against its query's memory lease (DESIGN.md §14). Zero when the
	// operator holds no pipeline-breaking state.
	PeakMemBytes int64 `json:"peak_mem_bytes,omitempty"`
	// Work is the modeled executor work charged by this operator itself
	// (children excluded).
	Work float64 `json:"work"`
	// WallNanos is cumulative host wall time inclusive of children
	// (outside the determinism contract).
	WallNanos int64 `json:"wall_ns"`
}

// FragmentObs is the per-fragment view: one OpStats per operator in
// pre-order (root first), plus the instance count that contributed.
type FragmentObs struct {
	Frag int  `json:"frag"`
	Root bool `json:"root,omitempty"`
	// Instances counts successful fragment instances merged into Ops.
	Instances int `json:"instances"`
	// Ops holds the fragment's operators in pre-order walk order.
	Ops []OpStats `json:"ops"`
	// OpIndex maps the fragment's plan nodes to indices in Ops
	// (fragment.Fragment.OpIDs, shared read-only by every execution of
	// the plan). It is a runtime navigation aid (EXPLAIN ANALYZE
	// rendering), not exported.
	OpIndex map[physical.Node]int `json:"-"`
}

// NewFragmentObs returns one execution's views of a split plan's
// fragments, indexed by fragment id: the fragment's operator ids and each
// operator's planner estimate. Op is left empty: the engine fills it from
// the plan's text, rendered once per plan. The views and their records
// are allocated together, so a plan of any size costs three objects.
func NewFragmentObs(plan *fragment.Plan) []*FragmentObs {
	n := 0
	for _, f := range plan.Fragments {
		n += len(f.Ops)
	}
	views := make([]FragmentObs, len(plan.Fragments))
	ops := make([]OpStats, n)
	out := make([]*FragmentObs, len(plan.Fragments))
	for _, f := range plan.Fragments {
		fo := &views[f.ID]
		fo.Frag, fo.Root, fo.OpIndex = f.ID, f.IsRoot, f.OpIDs
		fo.Ops, ops = ops[:len(f.Ops):len(f.Ops)], ops[len(f.Ops):]
		for i, op := range f.Ops {
			fo.Ops[i].EstRows = op.Props().EstRows
		}
		out[f.ID] = fo
	}
	return out
}

// InstanceObs is the private recorder of one fragment instance attempt:
// one slot per operator id. Instances never share an InstanceObs, so
// recording needs no synchronization; the wave barrier merges successful
// attempts in deterministic job order.
type InstanceObs struct {
	Ops []OpStats
}

// NewInstanceObs creates a recorder sized for a fragment.
func NewInstanceObs(fo *FragmentObs) *InstanceObs {
	return &InstanceObs{Ops: make([]OpStats, len(fo.Ops))}
}

// Merge folds one successful instance's records into the fragment view.
func (fo *FragmentObs) Merge(in *InstanceObs) {
	fo.Instances++
	for i := range in.Ops {
		src, dst := &in.Ops[i], &fo.Ops[i]
		dst.RowsIn += src.RowsIn
		dst.RowsOut += src.RowsOut
		dst.Batches += src.Batches
		dst.BuildRows += src.BuildRows
		dst.Work += src.Work
		dst.WallNanos += src.WallNanos
		if src.PeakRows > dst.PeakRows {
			dst.PeakRows = src.PeakRows
		}
		if src.PeakMemBytes > dst.PeakMemBytes {
			dst.PeakMemBytes = src.PeakMemBytes
		}
	}
}

// SpanStatus is the outcome of one fragment-instance attempt.
type SpanStatus string

// Span statuses.
const (
	// SpanOK: the attempt succeeded and its outputs were kept.
	SpanOK SpanStatus = "ok"
	// SpanRetried: the attempt failed with a retryable fault and a later
	// attempt took over (its shipments were never published).
	SpanRetried SpanStatus = "retried"
	// SpanSkipped: the target host was already known dead, so the attempt
	// failed over immediately without executing (zero-cost recovery).
	SpanSkipped SpanStatus = "skipped"
	// SpanFailed: the attempt failed terminally.
	SpanFailed SpanStatus = "failed"
	// SpanReplan: not an instance attempt — an adaptive re-planning pass
	// at a wave barrier (DESIGN.md §17). Frag/Site/Host are -1; Wave is
	// the completed wave; Ordinal is the pass's index in the query (0, 1,
	// …). Emitted only when AdaptiveExec is on; every execution keeps the
	// invariant spans == instances + retries + replans.
	SpanReplan SpanStatus = "replan"
)

// Span is one fragment-instance attempt in the per-query distributed
// trace, and the row the cost clock prices (simnet.Ledger). Start/End
// are wall-clock offsets from the query's start; the span set, its
// ordering, Work and Bytes are deterministic, the offsets are not.
type Span struct {
	Frag    int `json:"frag"`
	Site    int `json:"site"`
	Host    int `json:"host"`
	Variant int `json:"variant"`
	Attempt int `json:"attempt"`
	// Ordinal is the instance's deterministic global sequence number (the
	// same ordinal fault plans address).
	Ordinal int `json:"ordinal"`
	// Wave is the scheduler wave the instance ran in.
	Wave       int        `json:"wave"`
	StartNanos int64      `json:"start_ns"`
	EndNanos   int64      `json:"end_ns"`
	Status     SpanStatus `json:"status"`
	Error      string     `json:"error,omitempty"`
	// Work is the attempt's CPU work as charged to the cost clock (a
	// slow host's scaled up; zero for a skip or a replan).
	Work float64 `json:"work"`
	// Bytes is what the attempt shipped: published if it survived, sent
	// again by the next attempt if it was retried.
	Bytes int64 `json:"bytes"`
}

// Edge is one exchange edge of the fragment DAG: producer fragment →
// consumer fragment over an exchange id.
type Edge struct {
	Exchange int `json:"exchange"`
	FromFrag int `json:"from_frag"`
	ToFrag   int `json:"to_frag"`
	// Rows/Bytes total the exchange's published volume (resends excluded:
	// a failed attempt's batches are never published).
	Rows  int64 `json:"rows"`
	Bytes int64 `json:"bytes"`
}

// ExecStats is per-query execution telemetry. The cluster scheduler fills
// every field but the three planning ones, which the engine adds.
type ExecStats struct {
	// Work is total executor work units across all fragment instances,
	// including work lost to failed attempts.
	Work float64
	// BytesShipped is total network volume, including resent bytes.
	BytesShipped float64
	// Fragments / Instances count execution units.
	Fragments int
	Instances int
	// Workers is the host worker-pool size the query executed with.
	Workers int
	// Retries counts fault-recovery events (failed attempts retried or
	// failed over onto a replica site).
	Retries int
	// Spans counts trace spans: fragment-instance attempts, including
	// retried and skipped ones, and adaptive replan passes.
	Spans int
	// Modeled is the simnet cost-clock response time.
	Modeled time.Duration
	// PlanTickets is the planner search effort.
	PlanTickets int
	// MemPeakBytes is the query's high-water mark of estimated operator
	// state reserved against the engine's memory pool (0 when ungoverned).
	MemPeakBytes int64
	// PlanNanos is the wall time spent acquiring the optimized plan: the
	// cache lookup plus, on a miss, bind + heuristic + cost-based
	// optimization. Parsing and fragmentation are excluded — they are
	// per-execution costs paid whether or not the plan was cached.
	PlanNanos int64
	// PlanningSkipped is true when the plan came from the plan cache (or a
	// prepared statement's retained plan), so no optimization ran for this
	// execution.
	PlanningSkipped bool
	// AdaptiveReplans counts the re-planning passes run at wave barriers;
	// AdaptiveSwitches the plan rewrites they applied (both 0 unless
	// adaptive execution is on — DESIGN.md §17).
	AdaptiveReplans  int
	AdaptiveSwitches int
}

// QueryObs is the complete observation record of one query: the trace
// (spans parented under the query, connected by exchange edges) and the
// per-fragment, per-operator runtime statistics.
type QueryObs struct {
	// QueryID is the engine's query sequence number.
	QueryID uint64 `json:"query_id"`
	// Label is an optional short name (benchmark query id).
	Label string `json:"label,omitempty"`
	// SQL is the query text.
	SQL string `json:"sql,omitempty"`
	// PlanDigest is a stable hash of the fragmented physical plan text,
	// in which prepared-statement arguments appear as their placeholders:
	// it identifies the plan, not the argument values.
	PlanDigest string `json:"plan_digest,omitempty"`
	// Began is the query's wall-clock start (span offsets are relative).
	Began time.Time `json:"began"`
	// WallNanos is the query's host wall time.
	WallNanos int64 `json:"wall_ns"`
	// ModeledNanos is the simnet cost-clock response time.
	ModeledNanos int64 `json:"modeled_ns"`
	// Fragments is indexed by fragment id.
	Fragments []*FragmentObs `json:"fragments"`
	// Spans holds one span per fragment-instance attempt, in
	// deterministic job order.
	Spans []Span `json:"spans"`
	// Edges lists the exchange edges of the fragment DAG.
	Edges []Edge `json:"edges"`
	// Replans lists the adaptive plan changes applied at wave barriers,
	// in barrier order (empty when AdaptiveExec is off or no trigger
	// fired). Each re-planning pass also adds one SpanReplan span.
	Replans []Replan `json:"replans,omitempty"`
}

// Replan is one adaptive plan change applied at a wave barrier
// (DESIGN.md §17): a pending fragment's operator switched strategy based
// on observed runtime statistics from completed fragments.
type Replan struct {
	// Wave is the completed wave whose barrier triggered the change.
	Wave int `json:"wave"`
	// Frag is the pending fragment whose plan changed.
	Frag int `json:"frag"`
	// Kind names the trigger: "build-swap" (hash-join build side) or
	// "variant-regrade" (parallelism split).
	Kind string `json:"kind"`
	// Op describes the operator after the change.
	Op string `json:"op"`
	// From/To are the strategy labels before and after.
	From string `json:"from"`
	To   string `json:"to"`
	// EstRows is the planner's estimate and ActRows the runtime actual
	// that fired the trigger (est-vs-act in EXPLAIN ANALYZE).
	EstRows float64 `json:"est_rows"`
	ActRows int64   `json:"act_rows"`
}

// TopOp identifies one operator in a ranking.
type TopOp struct {
	Frag int
	Op   string
	// Work is the operator's own modeled work.
	Work float64
}

// TopOperators returns the k operators with the most self modeled work
// (the deterministic notion of "operator time"), ties broken by fragment
// then operator order so the ranking is stable.
func (q *QueryObs) TopOperators(k int) []TopOp {
	var all []TopOp
	for _, fo := range q.Fragments {
		if fo == nil {
			continue
		}
		for _, op := range fo.Ops {
			all = append(all, TopOp{Frag: fo.Frag, Op: op.Op, Work: op.Work})
		}
	}
	sort.SliceStable(all, func(a, b int) bool { return all[a].Work > all[b].Work })
	if len(all) > k {
		all = all[:k]
	}
	return all
}

// chromeEvent is one Chrome trace_event (the about://tracing and Perfetto
// import format, "X" complete events plus "M" metadata).
type chromeEvent struct {
	Name string         `json:"name"`
	Ph   string         `json:"ph"`
	Ts   float64        `json:"ts"` // microseconds
	Dur  float64        `json:"dur,omitempty"`
	Pid  uint64         `json:"pid"`
	Tid  int            `json:"tid"`
	Args map[string]any `json:"args,omitempty"`
}

// ChromeTrace renders one or more query traces as a Chrome trace_event
// file ({"traceEvents": [...]}): one process per query, one thread per
// site, one complete event per span. Load it in Perfetto or
// chrome://tracing.
func ChromeTrace(queries []*QueryObs) ([]byte, error) {
	var events []chromeEvent
	for i, q := range queries {
		pid := q.QueryID
		if pid == 0 {
			pid = uint64(i + 1)
		}
		name := q.Label
		if name == "" {
			name = fmt.Sprintf("query %d", pid)
		}
		events = append(events, chromeEvent{
			Name: "process_name", Ph: "M", Pid: pid,
			Args: map[string]any{"name": name},
		})
		for _, s := range q.Spans {
			events = append(events, chromeEvent{
				Name: fmt.Sprintf("frag%d v%d a%d (%s)", s.Frag, s.Variant, s.Attempt, s.Status),
				Ph:   "X",
				Ts:   float64(s.StartNanos) / 1e3,
				Dur:  float64(s.EndNanos-s.StartNanos) / 1e3,
				Pid:  pid,
				Tid:  s.Host,
				Args: map[string]any{
					"site": s.Site, "ordinal": s.Ordinal, "wave": s.Wave,
					"status": string(s.Status), "error": s.Error,
				},
			})
		}
	}
	return json.MarshalIndent(map[string]any{"traceEvents": events}, "", " ")
}
