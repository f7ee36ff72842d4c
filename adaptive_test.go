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
	"strings"
	"testing"

	"gignite"
	"gignite/internal/harness"
	"gignite/internal/obs"
	"gignite/internal/tpch"
)

const (
	adaptiveTestSF = 0.01
	// adaptiveTestMis is a 10x join-estimate overestimation: large enough
	// to invert build-side choices, small enough that the optimizer keeps
	// the same join order (in-place rewrites cannot recover a changed
	// join order; see cmd/benchrunner's adaptive smoke).
	adaptiveTestMis = 10
)

// adaptiveTestSQL is the benchrunner smoke's Q5-shaped join aggregate:
// its misestimated plan broadcasts a build side the rewrites repair.
const adaptiveTestSQL = `SELECT n_name, SUM(l_extendedprice * (1 - l_discount)) AS revenue
FROM customer, orders, lineitem, supplier, nation
WHERE c_custkey = o_custkey AND l_orderkey = o_orderkey AND l_suppkey = s_suppkey
  AND c_nationkey = s_nationkey AND s_nationkey = n_nationkey
GROUP BY n_name ORDER BY revenue DESC`

// adaptiveEngine opens an IC+ engine at SF 0.01 on 4 sites with the 10x
// misestimation applied and adaptivity toggled.
func adaptiveEngine(t testing.TB, adaptive bool, backups int, faultSpec string, planCache int) *gignite.Engine {
	t.Helper()
	cfg := harness.ConfigFor(harness.ICPlus, 4, adaptiveTestSF)
	cfg.StatsMisestimate = adaptiveTestMis
	cfg.AdaptiveExec = adaptive
	cfg.Backups = backups
	cfg.PlanCacheSize = planCache
	if faultSpec != "" {
		fp, err := gignite.ParseFaults(faultSpec)
		if err != nil {
			t.Fatal(err)
		}
		cfg.Faults = fp
	}
	e := gignite.Open(gignite.WithConfig(cfg))
	if err := tpch.Setup(e, adaptiveTestSF); err != nil {
		t.Fatal(err)
	}
	return e
}

// TestAdaptiveByteIdentity checks that the adaptive run returns exactly
// the static plan's bytes at host parallelism 1, 2 and 8, with an
// identical modeled time at every parallelism, while actually rewriting
// something (a run that never switches proves nothing).
func TestAdaptiveByteIdentity(t *testing.T) {
	static := adaptiveEngine(t, false, 0, "", 0)
	ad := adaptiveEngine(t, true, 0, "", 0)
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

// TestAdaptiveUnderFaults checks byte identity while the fault injector
// crashes, slows and drops sends: the re-planning decisions are pure
// functions of merged sketches, so recovery machinery must not change
// what the adaptive run returns.
func TestAdaptiveUnderFaults(t *testing.T) {
	static := adaptiveEngine(t, false, 1, "", 0)
	base, err := static.Query(adaptiveTestSQL)
	if err != nil {
		t.Fatal(err)
	}
	want := rowsChecksum(base.Rows)
	for _, spec := range []string{"seed=7;crash=2@4", "seed=7;slow=1x4", "seed=7;sendfail=0.05"} {
		ad := adaptiveEngine(t, true, 1, spec, 0)
		res, err := ad.Query(adaptiveTestSQL)
		if err != nil {
			t.Fatalf("faults=%q: %v", spec, err)
		}
		if rowsChecksum(res.Rows) != want {
			t.Errorf("faults=%q: adaptive rows diverge from the clean static run", spec)
		}
	}
}

// TestAdaptivePlanCacheReAdapts checks the cache contract of DESIGN.md
// §17: a cached plan is cloned before fragmenting, so the second
// execution skips planning yet still re-adapts from scratch. If the
// cache ever retained a post-adaptation tree, the build-swap trigger
// (which requires build=right) could not re-fire and switches would
// drop to zero on the hit.
func TestAdaptivePlanCacheReAdapts(t *testing.T) {
	e := adaptiveEngine(t, true, 0, "", 16)
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

// TestAdaptiveExplainAnalyze checks the observability surface: EXPLAIN
// ANALYZE must carry the per-rewrite "adaptive replan:" lines and the
// replans=/switches= summary counters.
func TestAdaptiveExplainAnalyze(t *testing.T) {
	e := adaptiveEngine(t, true, 0, "", 0)
	res, err := e.Exec("EXPLAIN ANALYZE " + adaptiveTestSQL)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(res.PlanText, "adaptive replan:") {
		t.Errorf("EXPLAIN ANALYZE lacks adaptive replan lines:\n%s", res.PlanText)
	}
	if !strings.Contains(res.PlanText, "replans=") {
		t.Errorf("EXPLAIN ANALYZE summary lacks replans= counter:\n%s", res.PlanText)
	}
}

// TestAdaptiveSpansAndReport checks the trace and the unified report:
// each re-planning pass emits exactly one SpanReplan span, static runs
// emit none, and Result.Report carries the replan log.
func TestAdaptiveSpansAndReport(t *testing.T) {
	ad := adaptiveEngine(t, true, 0, "", 0)
	res, err := ad.Query(adaptiveTestSQL)
	if err != nil {
		t.Fatal(err)
	}
	replanSpans := 0
	for _, sp := range res.Obs.Spans {
		if sp.Status == obs.SpanReplan {
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

	static := adaptiveEngine(t, false, 0, "", 0)
	sres, err := static.Query(adaptiveTestSQL)
	if err != nil {
		t.Fatal(err)
	}
	for _, sp := range sres.Obs.Spans {
		if sp.Status == obs.SpanReplan {
			t.Fatal("static run emitted a SpanReplan span")
		}
	}
	if sres.Stats.Spans != sres.Stats.Instances+sres.Stats.Retries+sres.Stats.Hedges {
		t.Errorf("static span invariant broken: spans=%d instances=%d retries=%d hedges=%d",
			sres.Stats.Spans, sres.Stats.Instances, sres.Stats.Retries, sres.Stats.Hedges)
	}
}
