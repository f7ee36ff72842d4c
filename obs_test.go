package gignite_test

// Observability suite: the determinism contract of the obs subsystem
// (DESIGN.md §12). Per-operator row counts and the trace span sequence
// must be identical at every host worker count, the span count must equal
// fragment-instance attempts even under fault injection with byte-identical
// recovered results, and EXPLAIN ANALYZE must render estimate-vs-actual
// annotations. Run under -race in CI.

import (
	"fmt"
	"strings"
	"sync"
	"testing"
	"time"

	"gignite"
	"gignite/internal/harness"
	"gignite/internal/obs"
	"gignite/internal/tpch"
)

const obsSF = 0.005

// opSummary renders the deterministic slice of a query's per-operator
// stats (row flows, batches, build sizes, peaks and modeled work — wall
// times excluded, they are host measurements).
func opSummary(q *obs.QueryObs) string {
	var sb strings.Builder
	for _, fo := range q.Fragments {
		fmt.Fprintf(&sb, "frag%d instances=%d\n", fo.Frag, fo.Instances)
		for _, op := range fo.Ops {
			fmt.Fprintf(&sb, "  %s in=%d out=%d batches=%d build=%d peak=%d work=%.3f\n",
				op.Op, op.RowsIn, op.RowsOut, op.Batches, op.BuildRows, op.PeakRows, op.Work)
		}
	}
	return sb.String()
}

// spanSummary renders the deterministic slice of the trace (everything
// but the wall-clock offsets).
func spanSummary(q *obs.QueryObs) string {
	var sb strings.Builder
	for _, s := range q.Spans {
		fmt.Fprintf(&sb, "frag%d site%d host%d v%d a%d ord%d w%d %s\n",
			s.Frag, s.Site, s.Host, s.Variant, s.Attempt, s.Ordinal, s.Wave, s.Status)
	}
	return sb.String()
}

// TestObsDeterministicAcrossWorkers: per-operator stats and the span
// sequence are byte-identical between sequential and parallel execution.
func TestObsDeterministicAcrossWorkers(t *testing.T) {
	seq := openTPCH(t, obsSF, 4, parallelism(1))
	par := openTPCH(t, obsSF, 4, parallelism(8))
	for _, id := range []int{1, 3, 6} {
		q := tpch.QueryByID(id).SQL
		rs, err := seq.Query(q)
		if err != nil {
			t.Fatalf("Q%d sequential: %v", id, err)
		}
		rp, err := par.Query(q)
		if err != nil {
			t.Fatalf("Q%d parallel: %v", id, err)
		}
		if a, b := opSummary(rs.Obs), opSummary(rp.Obs); a != b {
			t.Errorf("Q%d operator stats differ between 1 and 8 workers:\n%s\nvs\n%s", id, a, b)
		}
		if a, b := spanSummary(rs.Obs), spanSummary(rp.Obs); a != b {
			t.Errorf("Q%d span sequence differs between 1 and 8 workers:\n%s\nvs\n%s", id, a, b)
		}
		if rs.Obs.PlanDigest == "" || rs.Obs.PlanDigest != rp.Obs.PlanDigest {
			t.Errorf("Q%d plan digests differ: %q vs %q", id, rs.Obs.PlanDigest, rp.Obs.PlanDigest)
		}
	}
}

// TestObsSpanInvariantUnderFaults: one span per fragment-instance attempt
// (spans == instances + retries), retried attempts marked, and the
// recovered rows byte-identical to the fault-free run.
func TestObsSpanInvariantUnderFaults(t *testing.T) {
	baseline := openTPCH(t, obsSF, 4, parallelism(4), withFaults(t, 1, ""))
	faulty := openTPCH(t, obsSF, 4, parallelism(4), withFaults(t, 1, "seed=7;crash=2@5"))
	for _, id := range []int{1, 3} {
		q := tpch.QueryByID(id).SQL
		want, err := baseline.Query(q)
		if err != nil {
			t.Fatalf("fault-free Q%d: %v", id, err)
		}
		got, err := faulty.Query(q)
		if err != nil {
			t.Fatalf("faulty Q%d: %v", id, err)
		}
		if w, g := rowStrings(want), rowStrings(got); strings.Join(w, "\n") != strings.Join(g, "\n") {
			t.Errorf("Q%d rows differ under faults", id)
		}
		qo := got.Obs
		if qo == nil {
			t.Fatalf("Q%d: no observation record", id)
		}
		if len(qo.Spans) != got.Stats.Instances+got.Stats.Retries {
			t.Errorf("Q%d: %d spans, want instances %d + retries %d",
				id, len(qo.Spans), got.Stats.Instances, got.Stats.Retries)
		}
		if got.Stats.Spans != len(qo.Spans) {
			t.Errorf("Q%d: Stats.Spans=%d, len(Spans)=%d", id, got.Stats.Spans, len(qo.Spans))
		}
		ok, notOK := 0, 0
		for _, s := range qo.Spans {
			if s.Status == obs.SpanOK {
				ok++
			} else {
				notOK++
			}
		}
		if ok != got.Stats.Instances {
			t.Errorf("Q%d: %d ok spans, want %d instances", id, ok, got.Stats.Instances)
		}
		if got.Stats.Retries > 0 && notOK == 0 {
			t.Errorf("Q%d: %d retries but no retried/skipped spans", id, got.Stats.Retries)
		}
	}
	// The same crashed run must stay deterministic across worker counts.
	faultySeq := openTPCH(t, obsSF, 4, parallelism(1), withFaults(t, 1, "seed=7;crash=2@5"))
	for _, id := range []int{1, 3} {
		q := tpch.QueryByID(id).SQL
		a, err := faulty.Query(q)
		if err != nil {
			t.Fatalf("faulty Q%d: %v", id, err)
		}
		b, err := faultySeq.Query(q)
		if err != nil {
			t.Fatalf("faulty sequential Q%d: %v", id, err)
		}
		if spanSummary(a.Obs) != spanSummary(b.Obs) {
			t.Errorf("Q%d: faulted span sequence differs across worker counts:\n%s\nvs\n%s",
				id, spanSummary(a.Obs), spanSummary(b.Obs))
		}
	}
}

// TestObsEdges: the trace records the fragment DAG's exchange edges.
func TestObsEdges(t *testing.T) {
	e := openTPCH(t, obsSF, 4)
	res, err := e.Query(tpch.QueryByID(3).SQL)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Obs.Edges) == 0 {
		t.Fatal("no exchange edges recorded")
	}
	for _, edge := range res.Obs.Edges {
		if edge.FromFrag == edge.ToFrag {
			t.Errorf("self-edge on exchange %d", edge.Exchange)
		}
	}
}

// TestExplainAnalyze: the report annotates every operator with estimated
// vs. actual rows and drops the result rows.
func TestExplainAnalyze(t *testing.T) {
	e := openTPCH(t, obsSF, 4)
	res, err := e.Exec("EXPLAIN ANALYZE " + tpch.QueryByID(3).SQL)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Rows) != 0 || len(res.Columns) != 0 {
		t.Errorf("EXPLAIN ANALYZE returned %d rows, want none", len(res.Rows))
	}
	for _, want := range []string{"est=", "act=", "err=", "TableScan", "root fragment 0", "spans="} {
		if !strings.Contains(res.PlanText, want) {
			t.Errorf("EXPLAIN ANALYZE output missing %q:\n%s", want, res.PlanText)
		}
	}
	// Scans read real data, so actuals must be non-zero.
	if strings.Contains(res.PlanText, "act=0 ") && strings.Contains(res.PlanText, "TableScan lineitem") {
		t.Errorf("suspicious zero actuals:\n%s", res.PlanText)
	}
}

// TestSlowQueryLog: queries at or over the threshold log the digest and
// the top operators through the pluggable logger.
func TestSlowQueryLog(t *testing.T) {
	var mu sync.Mutex
	var lines []string
	cfg := harness.ConfigFor(harness.ICPlus, 4, obsSF)
	cfg.SlowQueryThreshold = time.Nanosecond
	cfg.Logger = func(format string, args ...interface{}) {
		mu.Lock()
		lines = append(lines, fmt.Sprintf(format, args...))
		mu.Unlock()
	}
	e := gignite.Open(gignite.WithConfig(cfg))
	if err := tpch.Setup(e, obsSF); err != nil {
		t.Fatal(err)
	}
	res, err := e.Query(tpch.QueryByID(1).SQL)
	if err != nil {
		t.Fatal(err)
	}
	mu.Lock()
	defer mu.Unlock()
	if len(lines) != 1 {
		t.Fatalf("slow-query log lines = %d, want 1", len(lines))
	}
	line := lines[0]
	for _, want := range []string{"slow query", res.Obs.PlanDigest, "top=[", "frag", "sql="} {
		if !strings.Contains(line, want) {
			t.Errorf("log line missing %q: %s", want, line)
		}
	}
	snap := e.Metrics()
	if snap.Counters["queries_slow_total"] != 1 {
		t.Errorf("queries_slow_total = %g, want 1", snap.Counters["queries_slow_total"])
	}
}

// TestEngineMetrics: the cumulative registry tracks queries, failures and
// in-flight counts across a mixed workload.
func TestEngineMetrics(t *testing.T) {
	e := openTPCH(t, obsSF, 4)
	if _, err := e.Query(tpch.QueryByID(6).SQL); err != nil {
		t.Fatal(err)
	}
	if _, err := e.Query("SELECT * FROM no_such_table"); err == nil {
		t.Fatal("expected error for missing table")
	}
	snap := e.Metrics()
	if got := snap.Counters["queries_total"]; got != 2 {
		t.Errorf("queries_total = %g, want 2", got)
	}
	if got := snap.Counters["queries_failed_total"]; got != 1 {
		t.Errorf("queries_failed_total = %g, want 1", got)
	}
	if got := snap.Gauges["queries_inflight"]; got != 0 {
		t.Errorf("queries_inflight = %g, want 0", got)
	}
	if got := snap.Counters["trace_spans_total"]; got <= 0 {
		t.Errorf("trace_spans_total = %g, want > 0", got)
	}
	if snap.Histograms["query_modeled_seconds"].Count != 1 {
		t.Errorf("query_modeled_seconds count = %d, want 1",
			snap.Histograms["query_modeled_seconds"].Count)
	}
	if snap.Text() == "" {
		t.Error("empty metrics text")
	}
}
