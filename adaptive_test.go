// Tests for adaptive mid-query re-optimization (DESIGN.md §17):
// byte-identity of results with adaptivity on vs. off at every host
// parallelism and under fault plans, re-adaptation of plan-cache hits,
// and the EXPLAIN ANALYZE / trace-span observability surface.
//
// Byte identity is defined against the static plan under the SAME
// (misestimated) statistics — the plan the rewrites started from.
// Different statistics may legitimately pick a different plan whose
// float aggregation order differs in the last bits, so runs are never
// compared byte-for-byte across statistics settings.
package gignite_test

import (
	"fmt"
	"slices"
	"strings"
	"sync"
	"testing"

	"gignite"
	"gignite/internal/harness"
	"gignite/internal/obs"
	"gignite/internal/ssb"
	"gignite/internal/tpch"
)

const (
	adaptiveTestSF = 0.01
	// adaptiveTestMis is a 10x join-estimate overestimation: large enough
	// to clear the controller's divergence guard, small enough that the
	// optimizer keeps the oracle's plan on the shaped queries (their
	// static modeled time equals the oracle's).
	adaptiveTestMis = 10
)

// adaptiveTestSQL is a Q5-shaped join aggregate on which a build-swap
// fires under the misestimate.
const adaptiveTestSQL = `SELECT n_name, SUM(l_extendedprice * (1 - l_discount)) AS revenue
FROM customer, orders, lineitem, supplier, nation
WHERE c_custkey = o_custkey AND l_orderkey = o_orderkey AND l_suppkey = s_suppkey
  AND c_nationkey = s_nationkey AND s_nationkey = n_nationkey
GROUP BY n_name ORDER BY revenue DESC`

// adaptiveTestQueries are Q5/Q9-shaped multiway join aggregates. The
// misestimation leaves their plans as the oracle plans them, so the §17
// rewrites that fire here act on correctly planned queries.
var adaptiveTestQueries = []struct{ name, sql string }{
	{"Q5-shape", adaptiveTestSQL},
	{"Q5-supplier", `SELECT s_name, SUM(l_extendedprice * (1 - l_discount)) AS revenue
FROM lineitem, orders, supplier
WHERE l_orderkey = o_orderkey AND l_suppkey = s_suppkey AND o_orderdate >= DATE '1994-01-01'
GROUP BY s_name ORDER BY revenue DESC`},
	{"Q9-shape", `SELECT n_name, SUM(l_extendedprice * (1 - l_discount) - ps_supplycost * l_quantity) AS profit
FROM part, supplier, lineitem, partsupp, nation
WHERE s_suppkey = l_suppkey AND ps_suppkey = l_suppkey AND ps_partkey = l_partkey
  AND p_partkey = l_partkey AND s_nationkey = n_nationkey
GROUP BY n_name ORDER BY profit DESC`},
}

// The suite's engines are IC+ at SF 0.01 on 4 sites with the 10x
// misestimation applied (static and adaptive alike) and adaptivity
// toggled.
func misestimated(c *gignite.Config) { c.StatsMisestimate = adaptiveTestMis }
func adaptiveOn(c *gignite.Config)   { c.AdaptiveExec = true }

// TestAdaptiveByteIdentity checks that the adaptive run returns exactly
// the static plan's bytes at host parallelism 1, 2 and 8, with an
// identical modeled time at every parallelism, while actually rewriting
// something (a run that never switches proves nothing).
func TestAdaptiveByteIdentity(t *testing.T) {
	static := openTPCH(t, adaptiveTestSF, 4, misestimated)
	ad := openTPCH(t, adaptiveTestSF, 4, misestimated, adaptiveOn)
	base, err := static.Query(adaptiveTestSQL)
	if err != nil {
		t.Fatal(err)
	}
	want := rowsChecksum(base.Rows)
	var modeled string
	for _, par := range []int{1, 2, 8} {
		ad.SetExecParallelism(par)
		res, err := ad.Query(adaptiveTestSQL)
		if err != nil {
			t.Fatalf("par=%d: %v", par, err)
		}
		if rowsChecksum(res.Rows) != want {
			t.Errorf("par=%d: adaptive rows diverge from the static plan", par)
		}
		if res.Stats.AdaptiveSwitches == 0 {
			t.Errorf("par=%d: no adaptive rewrite fired", par)
		}
		if res.Stats.AdaptiveReplans == 0 {
			t.Errorf("par=%d: no re-planning pass ran", par)
		}
		if modeled == "" {
			modeled = res.Modeled.String()
		} else if res.Modeled.String() != modeled {
			t.Errorf("par=%d: modeled time %v != %v at other parallelism", par, res.Modeled, modeled)
		}
	}
}

// TestAdaptiveRecoversMisestimate is the efficacy bar: with the join
// estimates 10x off, the adaptive run's modeled time is no worse than the
// static plan's and stays within 115% of an oracle planned from correct
// statistics, on every shaped query, and at least one rewrite fires
// across the set. The misestimated static plan must return the oracle's
// row count (the misestimate perturbs only the estimator), and the
// adaptive run the static plan's exact bytes. The misestimate does not
// damage these plans — static and oracle model the same time — so this
// measures what the rewrites do to a well-planned query, not a recovery.
func TestAdaptiveRecoversMisestimate(t *testing.T) {
	oracle := openTPCH(t, adaptiveTestSF, 4)
	static := openTPCH(t, adaptiveTestSF, 4, misestimated)
	ad := openTPCH(t, adaptiveTestSF, 4, misestimated, adaptiveOn)
	switches := 0
	for _, q := range adaptiveTestQueries {
		base, err := oracle.Query(q.sql)
		if err != nil {
			t.Fatalf("%s oracle: %v", q.name, err)
		}
		st, err := static.Query(q.sql)
		if err != nil {
			t.Fatalf("%s static: %v", q.name, err)
		}
		res, err := ad.Query(q.sql)
		if err != nil {
			t.Fatalf("%s adaptive: %v", q.name, err)
		}
		ratio := res.Modeled.Seconds() / base.Modeled.Seconds()
		t.Logf("%s: oracle %v, static-mis %v, adaptive-mis %v (%.2fx oracle), %d switches",
			q.name, base.Modeled, st.Modeled, res.Modeled, ratio, res.Stats.AdaptiveSwitches)
		if len(st.Rows) != len(base.Rows) {
			t.Errorf("%s: misestimated static plan returns %d rows, oracle %d", q.name, len(st.Rows), len(base.Rows))
		}
		if rowsChecksum(res.Rows) != rowsChecksum(st.Rows) {
			t.Errorf("%s: adaptive rows diverge from the static plan", q.name)
		}
		if res.Modeled > st.Modeled {
			t.Errorf("%s: adaptive modeled time %v exceeds the static plan's %v", q.name, res.Modeled, st.Modeled)
		}
		if ratio > 1.15 {
			t.Errorf("%s: adaptive modeled time is %.2fx the oracle's (limit 1.15x)", q.name, ratio)
		}
		switches += res.Stats.AdaptiveSwitches
	}
	if switches == 0 {
		t.Error("no adaptive rewrite fired across the query set")
	}
}

// TestAdaptiveUnderFaults checks byte identity while the fault injector
// crashes, slows and drops sends: the re-planning decisions are pure
// functions of what the surviving attempts shipped, so recovery
// machinery must change neither what the adaptive run returns nor which
// rewrites it makes, on which operator, from which estimate and actual.
func TestAdaptiveUnderFaults(t *testing.T) {
	static := openTPCH(t, adaptiveTestSF, 4, misestimated, withFaults(t, 1, ""))
	base, err := static.Query(adaptiveTestSQL)
	if err != nil {
		t.Fatal(err)
	}
	want := rowsChecksum(base.Rows)
	clean, err := openTPCH(t, adaptiveTestSF, 4, misestimated, adaptiveOn, withFaults(t, 1, "")).Query(adaptiveTestSQL)
	if err != nil {
		t.Fatal(err)
	}
	type decision struct {
		kind     string
		frag, op int
		est      float64
		act      int64
	}
	decisions := func(res *gignite.Result) []decision {
		var out []decision
		for _, rp := range res.Report().Replans {
			out = append(out, decision{rp.Kind, rp.Frag, rp.OpID, rp.EstRows, rp.ActRows})
		}
		return out
	}
	wantReplans := decisions(clean)
	if len(wantReplans) == 0 {
		t.Fatal("the fault-free adaptive run rewrote nothing; the comparison tests nothing")
	}
	for _, spec := range []string{"seed=7;crash=2@4", "seed=7;slow=1x4", "seed=7;sendfail=0.05"} {
		ad := openTPCH(t, adaptiveTestSF, 4, misestimated, adaptiveOn, withFaults(t, 1, spec))
		res, err := ad.Query(adaptiveTestSQL)
		if err != nil {
			t.Fatalf("faults=%q: %v", spec, err)
		}
		if rowsChecksum(res.Rows) != want {
			t.Errorf("faults=%q: adaptive rows diverge from the clean static run", spec)
		}
		if got := decisions(res); !slices.Equal(got, wantReplans) {
			t.Errorf("faults=%q: replans %+v, the fault-free run's %+v", spec, got, wantReplans)
		}
	}
}

// TestAdaptivePlanCacheReAdapts checks the cache contract of DESIGN.md
// §17: every adaptive execution runs the cached split with a controller
// of its own, whose decisions live beside the plan, so the second
// execution skips planning yet still re-adapts from scratch. If a
// decision ever outlived its execution, the build-swap trigger (which
// skips a join already swapped) could not re-fire and switches would
// drop to zero on the hit.
func TestAdaptivePlanCacheReAdapts(t *testing.T) {
	e := openTPCH(t, adaptiveTestSF, 4, misestimated, adaptiveOn, func(c *gignite.Config) { c.PlanCacheSize = 16 })
	first, err := e.Query(adaptiveTestSQL)
	if err != nil {
		t.Fatal(err)
	}
	if first.Stats.PlanningSkipped {
		t.Fatal("first execution claims a plan-cache hit")
	}
	if first.Stats.AdaptiveSwitches == 0 {
		t.Fatal("first execution fired no rewrite")
	}
	second, err := e.Query(adaptiveTestSQL)
	if err != nil {
		t.Fatal(err)
	}
	if !second.Stats.PlanningSkipped {
		t.Fatal("second execution did not hit the plan cache")
	}
	if second.Stats.AdaptiveSwitches != first.Stats.AdaptiveSwitches {
		t.Errorf("cache hit fired %d switches, first run fired %d (cached plan retained adaptations?)",
			second.Stats.AdaptiveSwitches, first.Stats.AdaptiveSwitches)
	}
	if rowsChecksum(second.Rows) != rowsChecksum(first.Rows) {
		t.Error("cache hit returned different rows")
	}
}

// TestSharedEntryUnderFaultsAndAdaptivity: a prepared Q5-shaped
// statement runs under a crash and send-failure plan (retries and replica
// failover) on the entry's one split, first with adaptive execution off
// and then on, where each execution's controller decides rewrites of
// that same split that its instances read beside it. Either way the
// entry's split reads as before afterwards: its text, its operators and
// their kernels (run under -race by make race-cpu).
func TestSharedEntryUnderFaultsAndAdaptivity(t *testing.T) {
	const spec = "seed=7;crash=2@4;sendfail=0.05"
	for _, adaptive := range []bool{false, true} {
		opts := []gignite.Option{misestimated, withFaults(t, 1, spec), planCache(16)}
		if adaptive {
			opts = append(opts, adaptiveOn)
		}
		e := openTPCH(t, adaptiveTestSF, 4, opts...)
		stmt, err := e.Prepare(adaptiveTestSQL)
		if err != nil {
			t.Fatal(err)
		}
		fp := stmt.CachedSplit()
		text, state := splitState(fp)
		retries, switches := 0, 0
		for run := 0; run < 3; run++ {
			res, err := stmt.Query()
			if err != nil {
				t.Fatalf("adaptive=%v run %d: %v", adaptive, run, err)
			}
			retries += res.Stats.Retries
			switches += res.Stats.AdaptiveSwitches
		}
		if retries == 0 {
			t.Errorf("adaptive=%v: the fault plan caused no retry", adaptive)
		}
		if adaptive && switches == 0 {
			t.Error("no adaptive rewrite fired: the test would prove nothing")
		}
		if stmt.CachedSplit() != fp {
			t.Fatalf("adaptive=%v: the entry's split was replaced", adaptive)
		}
		if gotText, gotState := splitState(fp); gotText != text || !slices.Equal(gotState, state) {
			t.Errorf("adaptive=%v: executions changed the entry's split:\n%s\nwas\n%s", adaptive, gotText, text)
		}
	}
}

// TestAdaptiveConcurrentExecutionsShareOneEntry: eight goroutines run one
// prepared, misestimated join with different arguments through one cached
// entry, so concurrent executions run one split while each execution's
// adaptive controller decides rewrites of it for that execution alone.
// Every result must be its sequential cache-off run's, and the entry's
// plan — its EXPLAIN text, which its plan digest hashes — must be
// unchanged afterwards.
func TestAdaptiveConcurrentExecutionsShareOneEntry(t *testing.T) {
	const q = `SELECT s_name, SUM(l_extendedprice * (1 - l_discount)) AS revenue
FROM lineitem, orders, supplier
WHERE l_orderkey = o_orderkey AND l_suppkey = s_suppkey AND o_orderdate >= ?
GROUP BY s_name ORDER BY revenue DESC`
	dates := []string{"1992-03-01", "1992-09-01", "1993-03-01", "1993-09-01",
		"1994-03-01", "1994-09-01", "1995-03-01", "1995-09-01"}
	report := func(res *gignite.Result) string {
		return fmt.Sprintf("%s modeled=%v switches=%d", rowsChecksum(res.Rows), res.Modeled, res.Stats.AdaptiveSwitches)
	}

	off := openTPCH(t, adaptiveTestSF, 4, misestimated, adaptiveOn)
	sequential, err := off.Prepare(q)
	if err != nil {
		t.Fatal(err)
	}
	want := make([]string, len(dates))
	switches := 0
	for i, d := range dates {
		res, err := sequential.Query(gignite.NewString(d))
		if err != nil {
			t.Fatal(err)
		}
		want[i] = report(res)
		switches += res.Stats.AdaptiveSwitches
	}
	if switches == 0 {
		t.Fatal("no adaptive rewrite fired: the test would prove nothing")
	}

	on := openTPCH(t, adaptiveTestSF, 4, misestimated, adaptiveOn, planCache(16), parallelism(2))
	stmt, err := on.Prepare(q)
	if err != nil {
		t.Fatal(err)
	}
	before, err := on.Explain(q)
	if err != nil {
		t.Fatal(err)
	}
	got := make([]string, len(dates))
	var wg sync.WaitGroup
	for i, d := range dates {
		wg.Add(1)
		go func() {
			defer wg.Done()
			res, err := stmt.Query(gignite.NewString(d))
			if err != nil {
				t.Error(err)
				return
			}
			if !res.Stats.PlanningSkipped {
				t.Errorf("%s: execution planned instead of sharing the entry", d)
			}
			got[i] = report(res)
		}()
	}
	wg.Wait()
	for i, d := range dates {
		if got[i] != want[i] {
			t.Errorf("%s: concurrent cached run differs from its sequential cache-off run:\n%.300s\nvs\n%.300s", d, got[i], want[i])
		}
	}
	if after, err := on.Explain(q); err != nil || after != before {
		t.Errorf("the cached entry's plan changed (err %v):\n%s\nvs\n%s", err, after, before)
	}
}

// TestAdaptiveExplainAnalyze checks the observability surface: EXPLAIN
// ANALYZE must carry the per-rewrite "adaptive replan:" lines, mark each
// rewritten operator's line once from its replan — a build-swap on a
// hash join's — and print the replans=/switches= summary counters.
func TestAdaptiveExplainAnalyze(t *testing.T) {
	e := openTPCH(t, adaptiveTestSF, 4, misestimated, adaptiveOn)
	res, err := e.Exec("EXPLAIN ANALYZE " + adaptiveTestSQL)
	if err != nil {
		t.Fatal(err)
	}
	replans := strings.Count(res.PlanText, "adaptive replan:")
	if replans == 0 {
		t.Errorf("EXPLAIN ANALYZE lacks adaptive replan lines:\n%s", res.PlanText)
	}
	marks := 0
	for _, line := range strings.Split(res.PlanText, "\n") {
		if strings.Contains(line, "[adaptive: build-swap") {
			marks++
			if !strings.HasPrefix(strings.TrimSpace(line), "Join[hash]") {
				t.Errorf("build-swap marks a line that is no hash join: %s", line)
			}
		} else if strings.Contains(line, "[adaptive: ") {
			marks++
		}
	}
	if marks != replans {
		t.Errorf("%d operator lines marked for %d replans:\n%s", marks, replans, res.PlanText)
	}
	if !strings.Contains(res.PlanText, "replans=") {
		t.Errorf("EXPLAIN ANALYZE summary lacks replans= counter:\n%s", res.PlanText)
	}
}

// TestAdaptiveSpansAndReport checks the trace and the unified report:
// each re-planning pass emits exactly one SpanReplan span, numbered by its
// pass, static runs emit none, and Result.Report carries the replan log.
func TestAdaptiveSpansAndReport(t *testing.T) {
	ad := openTPCH(t, adaptiveTestSF, 4, misestimated, adaptiveOn)
	res, err := ad.Query(adaptiveTestSQL)
	if err != nil {
		t.Fatal(err)
	}
	replanSpans := 0
	for _, sp := range res.Obs.Spans {
		if sp.Status == obs.SpanReplan {
			// The passes are numbered 0, 1, … in span order.
			if sp.Ordinal != replanSpans {
				t.Errorf("replan span %d (wave %d) has ordinal %d", replanSpans, sp.Wave, sp.Ordinal)
			}
			replanSpans++
		}
	}
	if replanSpans != res.Stats.AdaptiveReplans {
		t.Errorf("%d SpanReplan spans, Stats.AdaptiveReplans = %d", replanSpans, res.Stats.AdaptiveReplans)
	}
	rep := res.Report()
	if len(rep.Replans) != res.Stats.AdaptiveSwitches {
		t.Errorf("report carries %d replans, Stats.AdaptiveSwitches = %d", len(rep.Replans), res.Stats.AdaptiveSwitches)
	}
	if rep.Stats.AdaptiveSwitches == 0 {
		t.Error("report shows no switches")
	}

	static := openTPCH(t, adaptiveTestSF, 4, misestimated)
	sres, err := static.Query(adaptiveTestSQL)
	if err != nil {
		t.Fatal(err)
	}
	for _, sp := range sres.Obs.Spans {
		if sp.Status == obs.SpanReplan {
			t.Fatal("static run emitted a SpanReplan span")
		}
	}
	// The rewrites are decisions beside the plan, not a plan of the
	// execution's own: the adapted execution reports its statement's
	// digest.
	if res.Obs.PlanDigest != sres.Obs.PlanDigest {
		t.Errorf("adapted execution reports plan digest %s, the statement's is %s", res.Obs.PlanDigest, sres.Obs.PlanDigest)
	}
	if sres.Stats.Spans != sres.Stats.Instances+sres.Stats.Retries {
		t.Errorf("static span invariant broken: spans=%d instances=%d retries=%d",
			sres.Stats.Spans, sres.Stats.Instances, sres.Stats.Retries)
	}
}

// TestAdaptiveWholeSuite runs every TPC-H query but Q15 and the 13 SSB
// queries on IC+M with adaptivity off and on, under correct statistics:
// the adaptive run must return the static run's exact bytes, every
// rewrite it reports must be one the controller implements, and each of
// them must fire somewhere in the suite (a rewrite that never fires on the
// benchmarks proves nothing and costs code).
func TestAdaptiveWholeSuite(t *testing.T) {
	const (
		sf    = 0.005
		sites = 4
	)
	type query struct{ label, sql string }
	workloads := map[harness.Workload][]query{}
	for _, q := range tpch.Queries() {
		if !q.RequiresViews {
			workloads[harness.TPCH] = append(workloads[harness.TPCH], query{fmt.Sprintf("Q%02d", q.ID), q.SQL})
		}
	}
	for _, q := range ssb.Queries() {
		workloads[harness.SSB] = append(workloads[harness.SSB], query{q.ID, q.SQL})
	}
	fired := map[string]int{"build-swap": 0, "variant-regrade": 0}
	for w, queries := range workloads {
		open := func(opts ...gignite.Option) *gignite.Engine {
			e := gignite.Open(append([]gignite.Option{gignite.WithConfig(harness.ConfigFor(harness.ICPM, sites, sf))}, opts...)...)
			if err := w.Setup(e, sf); err != nil {
				t.Fatal(err)
			}
			t.Cleanup(func() {
				if err := e.Close(); err != nil {
					t.Error(err)
				}
			})
			return e
		}
		static, ad := open(), open(adaptiveOn)
		for _, q := range queries {
			base, err := static.Query(q.sql)
			if err != nil {
				t.Fatalf("%s %s static: %v", w, q.label, err)
			}
			res, err := ad.Query(q.sql)
			if err != nil {
				t.Fatalf("%s %s adaptive: %v", w, q.label, err)
			}
			if rowsChecksum(res.Rows) != rowsChecksum(base.Rows) {
				t.Errorf("%s %s: adaptive rows diverge from the static plan", w, q.label)
			}
			for _, rp := range res.Report().Replans {
				if _, ok := fired[rp.Kind]; !ok {
					t.Errorf("%s %s: unexpected rewrite %+v", w, q.label, rp)
				}
				fired[rp.Kind]++
			}
		}
	}
	t.Logf("rewrites fired: %v", fired)
	for kind, n := range fired {
		if n == 0 {
			t.Errorf("no %s fired across the suite", kind)
		}
	}
}
