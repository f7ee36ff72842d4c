package main

import (
	"encoding/json"
	"fmt"
	"os"
	"strings"
	"time"

	"gignite/internal/harness"
	"gignite/internal/tpch"
)

// planCacheHits is the hot-run count of the plancache smoke: enough to
// amortize a stray scheduler hiccup out of the mean without slowing CI.
const planCacheHits = 20

// runPlanCache is the plan-cache smoke check (DESIGN.md §15). For each
// query it runs a cache-off engine for reference rows, one cold run and
// planCacheHits hot runs on a cache-enabled engine, and requires:
//
//   - every hot run reports PlanningSkipped,
//   - the mean hot plan-acquisition time is ≤ 10% of the cold planning
//     time (the cache must eliminate ≥ 90% of planning work), and
//   - rows are byte-identical across cache-off, cold and every hot run.
func runPlanCache(opts harness.Options, queryList, metricsOut string) {
	sk := &smoke{name: "plancache"}
	ids := parseQueryIDs(queryList, []int{1, 3, 10})
	sf := opts.SFs[0]
	sites := opts.Sites[0]
	env := opts.Env
	env.PlanCache = 0
	off, err := env.Engine(harness.TPCH, harness.ICPlus, sites, sf)
	if err != nil {
		fatalf("plancache: %v", err)
	}
	env.PlanCache = 64
	on, err := env.Engine(harness.TPCH, harness.ICPlus, sites, sf)
	if err != nil {
		fatalf("plancache: %v", err)
	}

	fmt.Printf("plan cache smoke: IC+ sf=%g sites=%d, %d hot runs per query\n", sf, sites, planCacheHits)
	fmt.Printf("%-5s %8s %14s %14s %9s\n", "query", "rows", "cold_plan", "mean_hot_plan", "speedup")
	type gateQuery struct {
		ColdPlanNanos   int64   `json:"cold_plan_nanos"`
		MeanHotNanos    int64   `json:"mean_hot_plan_nanos"`
		Speedup         float64 `json:"speedup"`
		Rows            int     `json:"rows"`
		PlanningSkipped bool    `json:"planning_skipped"`
	}
	artifact := map[string]gateQuery{}
	for _, id := range ids {
		q := tpch.QueryByID(id)
		base, err := off.Query(q.SQL)
		if err != nil {
			fatalf("plancache: Q%d (cache off): %v", id, err)
		}
		want := rowsText(base.Rows)
		cold, err := on.Query(q.SQL)
		if err != nil {
			fatalf("plancache: Q%d (cold): %v", id, err)
		}
		if cold.Stats.PlanningSkipped {
			sk.failf("Q%d: cold run claims planning was skipped (cache warmed unexpectedly)", id)
		}
		if rowsText(cold.Rows) != want {
			sk.failf("Q%d: cold rows differ from the cache-off run", id)
		}
		var hotTotal int64
		allSkipped := true
		for i := 0; i < planCacheHits; i++ {
			hot, err := on.Query(q.SQL)
			if err != nil {
				fatalf("plancache: Q%d (hot %d): %v", id, i, err)
			}
			hotTotal += hot.Stats.PlanNanos
			if !hot.Stats.PlanningSkipped {
				allSkipped = false
			}
			if rowsText(hot.Rows) != want {
				sk.failf("Q%d: hot run %d rows differ from the cache-off run", id, i)
			}
		}
		meanHot := hotTotal / planCacheHits
		if !allSkipped {
			sk.failf("Q%d: not every hot run skipped planning", id)
		}
		if meanHot*10 > cold.Stats.PlanNanos {
			sk.failf("Q%d: hot planning %v is over 10%% of cold %v; the cache is not skipping enough work",
				id, time.Duration(meanHot), time.Duration(cold.Stats.PlanNanos))
		}
		speedup := float64(cold.Stats.PlanNanos) / float64(max64(meanHot, 1))
		fmt.Printf("Q%-4d %8d %14v %14v %8.0fx\n",
			id, len(base.Rows), time.Duration(cold.Stats.PlanNanos), time.Duration(meanHot), speedup)
		artifact[fmt.Sprintf("Q%d", id)] = gateQuery{
			ColdPlanNanos: cold.Stats.PlanNanos, MeanHotNanos: meanHot,
			Speedup: speedup, Rows: len(base.Rows), PlanningSkipped: allSkipped,
		}
	}
	if s, enabled := on.PlanCacheStats(); enabled {
		fmt.Printf("cache: %d/%d plans, %d hits, %d misses, %d evictions\n",
			s.Size, s.Capacity, s.Hits, s.Misses, s.Evictions)
	}
	if metricsOut != "" {
		writeJSON(metricsOut, artifact)
	}
	sk.exit()
}

// gateBaseline is the committed BENCH_gate.json document the regression
// gate compares against. The measured signals — modeled time and shipped
// bytes — come from the simnet cost clock and are deterministic across
// hosts and -par settings, so the tolerance guards real plan or executor
// regressions, not machine noise.
type gateBaseline struct {
	Schema      string `json:"schema"`
	Description string `json:"description"`
	Config      struct {
		System  string  `json:"system"`
		SF      float64 `json:"sf"`
		Sites   int     `json:"sites"`
		Queries []int   `json:"queries"`
	} `json:"config"`
	TolerancePct float64              `json:"tolerance_pct"`
	Queries      map[string]gateEntry `json:"queries"`
}

type gateEntry struct {
	ModeledMs    float64 `json:"modeled_ms"`
	BytesShipped float64 `json:"bytes_shipped"`
}

// gateSchema versions the baseline file format.
const gateSchema = "gignite.benchgate/v1"

// runBenchGate is the benchmark-regression gate: measure the baseline
// file's query set at its pinned configuration and fail when modeled time
// or shipped bytes regress beyond the baseline's tolerance. Improvements
// beyond the tolerance are reported (refresh the baseline with
// -update-baseline) but do not fail the gate.
func runBenchGate(opts harness.Options, baselinePath, metricsOut string, update bool) {
	sk := &smoke{name: "benchgate"}
	base := &gateBaseline{}
	data, err := os.ReadFile(baselinePath)
	switch {
	case err == nil:
		if err := json.Unmarshal(data, base); err != nil {
			fatalf("benchgate: parse %s: %v", baselinePath, err)
		}
		if base.Schema != gateSchema {
			fatalf("benchgate: %s has schema %q, want %q", baselinePath, base.Schema, gateSchema)
		}
	case os.IsNotExist(err) && update:
		// Seeding a fresh baseline: pin the default configuration.
		base.Schema = gateSchema
		base.Description = "Benchmark-regression gate baseline: deterministic modeled times and shipped bytes for the pinned TPC-H query set on the IC+ configuration. Regenerate with `make benchgate-update` after intentional performance changes and commit the diff."
		base.Config.System = "IC+"
		base.Config.SF = 0.05
		base.Config.Sites = 4
		base.Config.Queries = []int{1, 3, 5, 10}
		base.TolerancePct = 10
	default:
		fatalf("benchgate: %v (run with -update-baseline to seed it)", err)
	}
	if base.TolerancePct <= 0 {
		base.TolerancePct = 10
	}

	env := opts.Env
	e, err := env.Engine(harness.TPCH, harness.ICPlus, base.Config.Sites, base.Config.SF)
	if err != nil {
		fatalf("benchgate: %v", err)
	}
	fmt.Printf("benchmark-regression gate: %s sf=%g sites=%d tolerance=±%g%%\n",
		base.Config.System, base.Config.SF, base.Config.Sites, base.TolerancePct)
	fmt.Printf("%-5s %14s %14s %8s %14s %14s %8s\n",
		"query", "modeled_base", "modeled_now", "delta", "bytes_base", "bytes_now", "delta")

	measured := make(map[string]gateEntry, len(base.Config.Queries))
	for _, id := range base.Config.Queries {
		q := tpch.QueryByID(id)
		if q == nil {
			fatalf("benchgate: unknown TPC-H query %d", id)
		}
		res, err := e.Query(q.SQL)
		if err != nil {
			fatalf("benchgate: Q%d: %v", id, err)
		}
		label := fmt.Sprintf("Q%d", id)
		got := gateEntry{
			ModeledMs:    float64(res.Modeled.Microseconds()) / 1000,
			BytesShipped: res.Stats.BytesShipped,
		}
		measured[label] = got
		want, ok := base.Queries[label]
		if !ok {
			if !update {
				sk.failf("%s missing from baseline %s", label, baselinePath)
			}
			fmt.Printf("%-5s %14s %14.2f %8s %14s %14.0f %8s\n", label, "-", got.ModeledMs, "-", "-", got.BytesShipped, "-")
			continue
		}
		dm := pctDelta(got.ModeledMs, want.ModeledMs)
		db := pctDelta(got.BytesShipped, want.BytesShipped)
		fmt.Printf("%-5s %14.2f %14.2f %+7.1f%% %14.0f %14.0f %+7.1f%%\n",
			label, want.ModeledMs, got.ModeledMs, dm, want.BytesShipped, got.BytesShipped, db)
		if update {
			continue
		}
		if dm > base.TolerancePct {
			sk.failf("%s modeled time regressed %.1f%% (%.2fms -> %.2fms, tolerance %g%%)",
				label, dm, want.ModeledMs, got.ModeledMs, base.TolerancePct)
		}
		if db > base.TolerancePct {
			sk.failf("%s shipped bytes regressed %.1f%% (%.0f -> %.0f, tolerance %g%%)",
				label, db, want.BytesShipped, got.BytesShipped, base.TolerancePct)
		}
		if dm < -base.TolerancePct || db < -base.TolerancePct {
			fmt.Fprintf(os.Stderr, "benchrunner: benchgate: note: %s improved beyond tolerance; refresh the baseline with -update-baseline\n", label)
		}
	}

	if update {
		base.Queries = measured
		env := gateEnvironment()
		base.Description = strings.TrimSpace(base.Description)
		writeJSON(baselinePath, struct {
			*gateBaseline
			Environment map[string]string `json:"environment"`
		}{base, env})
	}
	if metricsOut != "" {
		writeJSON(metricsOut, map[string]interface{}{
			"baseline":      base.Queries,
			"measured":      measured,
			"tolerance_pct": base.TolerancePct,
		})
	}
	sk.exit()
}

// pctDelta returns (got-want)/want as a percentage; positive = regression.
func pctDelta(got, want float64) float64 {
	if want == 0 {
		if got == 0 {
			return 0
		}
		return 100
	}
	return 100 * (got - want) / want
}

func gateEnvironment() map[string]string {
	return map[string]string{
		"note": "modeled times and shipped bytes are simnet cost-clock values: deterministic across hosts, goroutine counts and -par settings",
	}
}

// writeJSON writes v as an indented JSON artifact; failure is fatal.
func writeJSON(path string, v interface{}) {
	data, err := json.MarshalIndent(v, "", "  ")
	if err != nil {
		fatalf("marshal %s: %v", path, err)
	}
	if err := os.WriteFile(path, append(data, '\n'), 0o644); err != nil {
		fatalf("%v", err)
	}
	fmt.Fprintf(os.Stderr, "benchrunner: wrote %s\n", path)
}

func max64(a, b int64) int64 {
	if a > b {
		return a
	}
	return b
}
