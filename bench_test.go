// Per-query benchmarks (host ns/op of every TPC-H and SSB query under the
// system variants, with the deterministic simnet modeled time reported as
// modeled_ms), operator and scheduler microbenchmarks, and the
// modeled-time regression gate. The paper's tables and figures come
// from go run ./cmd/benchrunner -exp all.
//
// Run the benchmarks: go test -bench=. -benchmem -run '^$'
package gignite_test

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"strconv"
	"sync"
	"testing"
	"time"

	"gignite"
	"gignite/internal/catalog"
	"gignite/internal/exec"
	"gignite/internal/expr"
	"gignite/internal/fragment"
	"gignite/internal/harness"
	"gignite/internal/logical"
	"gignite/internal/physical"
	"gignite/internal/ssb"
	"gignite/internal/storage"
	"gignite/internal/tpch"
	"gignite/internal/types"
)

// benchSF keeps bench runs laptop-sized; cmd/benchrunner accepts larger
// scale factors for fuller sweeps.
const benchSF = 0.005

var (
	benchEnvOnce sync.Once
	benchEnv     *harness.Env
)

// env returns the process-wide engine cache so repeated bench iterations
// do not reload data.
func env() *harness.Env {
	benchEnvOnce.Do(func() { benchEnv = harness.NewEnv() })
	return benchEnv
}

// mustEngine returns the cached engine for one benchmark point.
func mustEngine(b *testing.B, w harness.Workload, sys harness.System, sites int) *gignite.Engine {
	b.Helper()
	e, err := env().Engine(w, sys, sites, benchSF)
	if err != nil {
		b.Fatal(err)
	}
	return e
}

// BenchmarkTPCHPerQuery measures every runnable TPC-H query under each
// system variant on 4 sites — the raw data behind Figures 7–10.
func BenchmarkTPCHPerQuery(b *testing.B) {
	for _, sys := range harness.Systems() {
		for _, q := range tpch.Queries() {
			if q.RequiresViews {
				continue
			}
			if sys == harness.IC {
				// The paper's Figures 7/8 exclusion set: queries the
				// baseline cannot run (or runs only by grinding against
				// the runtime limit) plus the two disabled queries.
				switch q.ID {
				case 2, 5, 9, 17, 19, 20, 21:
					continue
				}
			}
			b.Run(fmt.Sprintf("%s/Q%d", sys, q.ID), func(b *testing.B) {
				e := mustEngine(b, harness.TPCH, sys, 4)
				var modeled float64
				for i := 0; i < b.N; i++ {
					res, err := e.Query(q.SQL)
					if err != nil {
						b.Fatal(err)
					}
					modeled = float64(res.Modeled.Microseconds()) / 1000
				}
				b.ReportMetric(modeled, "modeled_ms")
			})
		}
	}
}

// BenchmarkSSBPerQuery measures the 13 SSB queries under IC and IC+M —
// the raw data behind Figure 11.
func BenchmarkSSBPerQuery(b *testing.B) {
	for _, sys := range []harness.System{harness.IC, harness.ICPM} {
		for _, q := range ssb.Queries() {
			b.Run(fmt.Sprintf("%s/%s", sys, q.ID), func(b *testing.B) {
				e := mustEngine(b, harness.SSB, sys, 4)
				var modeled float64
				for i := 0; i < b.N; i++ {
					res, err := e.Query(q.SQL)
					if err != nil {
						b.Fatal(err)
					}
					modeled = float64(res.Modeled.Microseconds()) / 1000
				}
				b.ReportMetric(modeled, "modeled_ms")
			})
		}
	}
}

// BenchmarkParallelExecute compares the wave scheduler's wall-clock time
// at ExecParallelism=1 (sequential) and 0 (GOMAXPROCS workers) on a
// multi-fragment TPC-H join query. The modeled time is identical in both
// modes by construction; the ns/op ratio between the two sub-benchmarks
// is the host speedup (≥1.5× expected on a multi-core host — on a
// single-core runner the two coincide). Override the scale factor with
// GIGNITE_PARBENCH_SF.
func BenchmarkParallelExecute(b *testing.B) {
	sf := 0.1
	if s := os.Getenv("GIGNITE_PARBENCH_SF"); s != "" {
		if v, err := strconv.ParseFloat(s, 64); err == nil && v > 0 {
			sf = v
		}
	}
	e := gignite.Open(gignite.WithConfig(harness.ConfigFor(harness.ICPlus, 4, sf)))
	if err := tpch.Setup(e, sf); err != nil {
		b.Fatal(err)
	}
	q := tpch.QueryByID(3).SQL
	e.SetExecParallelism(1)
	base, err := e.Query(q)
	if err != nil {
		b.Fatal(err)
	}
	for _, mode := range []struct {
		name string
		par  int
	}{{"seq", 1}, {"par", 0}} {
		b.Run(mode.name, func(b *testing.B) {
			e.SetExecParallelism(mode.par)
			var res *gignite.Result
			for i := 0; i < b.N; i++ {
				res, err = e.Query(q)
				if err != nil {
					b.Fatal(err)
				}
			}
			// Whatever the worker count, results are byte-identical.
			if len(res.Rows) != len(base.Rows) {
				b.Fatalf("rows = %d, want %d", len(res.Rows), len(base.Rows))
			}
			for i := range res.Rows {
				if res.Rows[i].String() != base.Rows[i].String() {
					b.Fatalf("row %d diverged from sequential run", i)
				}
			}
			b.ReportMetric(float64(res.Stats.Workers), "workers")
			b.ReportMetric(float64(res.Modeled.Microseconds())/1000, "modeled_ms")
		})
	}
}

// aggBenchInput builds a 2-column (group, value) row set.
func aggBenchInput(n, groups int) []types.Row {
	rows := make([]types.Row, n)
	for i := range rows {
		rows[i] = types.Row{
			types.NewInt(int64(i % groups)),
			types.NewFloat(float64(i) * 0.5),
		}
	}
	return rows
}

// BenchmarkHashAggregate measures the hash-aggregate operator (its group
// table and chunked group state show up here).
func BenchmarkHashAggregate(b *testing.B) {
	fields := types.Fields{
		{Name: "g", Kind: types.KindInt},
		{Name: "v", Kind: types.KindFloat},
	}
	in := physical.NewValues(fields, aggBenchInput(20000, 256))
	agg := physical.NewHashAggregate(in, []int{0},
		[]expr.AggCall{
			{Func: expr.AggCount, Name: "n"},
			{Func: expr.AggSum, Arg: expr.NewColRef(1, types.KindFloat, ""), Name: "s"},
		}, physical.AggSinglePhase,
		types.Fields{{Name: "g", Kind: types.KindInt}, {Name: "n", Kind: types.KindInt},
			{Name: "s", Kind: types.KindFloat}})
	f := fragment.Split(agg).Fragments[0]
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_, rows, err := runFragment(f, nil, nil)
		if err != nil {
			b.Fatal(err)
		}
		if len(rows) != 256 {
			b.Fatalf("groups = %d", len(rows))
		}
	}
}

// BenchmarkHashJoin measures the hash-join operator (its build table and
// output batch show up here), in the two places a join stands. As the
// plan root ("root") its rows are the result, so its arena is never
// lent; its hash index is. Under a Sender ("sender"), in a fragment whose
// rows do not reach the result — a COUNT(*) reads the exchange — the
// arena is lent too, as it is for most joins of a distributed plan. Each
// iteration is one execution lending from one Lender, as the scheduler's
// instances do.
func BenchmarkHashJoin(b *testing.B) {
	lFields := types.Fields{{Name: "k", Kind: types.KindInt}, {Name: "a", Kind: types.KindInt}}
	rFields := types.Fields{{Name: "k2", Kind: types.KindInt}, {Name: "b", Kind: types.KindFloat}}
	var lRows, rRows []types.Row
	for i := 0; i < 20000; i++ {
		lRows = append(lRows, types.Row{types.NewInt(int64(i % 4096)), types.NewInt(int64(i))})
	}
	for i := 0; i < 4096; i++ {
		rRows = append(rRows, types.Row{types.NewInt(int64(i)), types.NewFloat(float64(i))})
	}
	join := physical.NewJoin(
		physical.NewValues(lFields, lRows),
		physical.NewValues(rFields, rRows),
		physical.HashAlgo, logical.JoinInner,
		expr.NewBinOp(expr.OpEq,
			expr.NewColRef(0, types.KindInt, ""), expr.NewColRef(2, types.KindInt, "")),
		[]expr.EquiKey{{Left: 0, Right: 0}}, physical.SingleDist, "single", nil)
	count := physical.NewHashAggregate(physical.NewExchange(join, physical.SingleDist), nil,
		[]expr.AggCall{{Func: expr.AggCount, Name: "n"}}, physical.AggSinglePhase,
		types.Fields{{Name: "n", Kind: types.KindInt}})
	shipped := fragment.Split(count).Producer[0]
	if shipped.ToResult {
		b.Fatal("the shipped join's rows reach the result")
	}
	// A Sender routes by the store's site count.
	st := storage.NewReplicatedStore(catalog.New(), 1, 0)
	for _, c := range []struct {
		name string
		f    *fragment.Fragment
	}{
		{"root", fragment.Split(join).Fragments[0]},
		{"sender", shipped},
	} {
		b.Run(c.name, func(b *testing.B) {
			var l exec.Lender
			for i := 0; i < b.N; i++ {
				ctx, rows, err := runFragment(c.f, st, &l)
				if err != nil {
					b.Fatal(err)
				}
				n := len(rows)
				for _, sent := range ctx.Sent {
					n += len(sent.Rows)
				}
				if n != 20000 {
					b.Fatalf("join rows = %d", n)
				}
				l.Release()
			}
		})
	}
}

// runFragment runs fragment f of a split plan as the scheduler runs one
// instance at site 0: with the fragment's operator ids, kernels and
// output marks, over store st, lending from l (nil: every buffer on the
// heap).
func runFragment(f *fragment.Fragment, st *storage.Store, l *exec.Lender) (*exec.Context, []types.Row, error) {
	ctx := &exec.Context{
		Store: st, NVariants: 1, OpIDs: f.OpIDs, Kernels: f.Kernels,
		Output: f.Output, ToResult: f.ToResult, Lender: l,
	}
	rows, err := exec.Run(f.Root, ctx)
	return ctx, rows, err
}

// updateGate makes TestBenchGate rewrite BENCH_gate.json from the current
// measurements instead of comparing against it (`make benchgate-update`).
var updateGate = flag.Bool("update-gate", false, "TestBenchGate: rewrite BENCH_gate.json from current measurements")

// TestBenchGate is the benchmark-regression gate: it measures the query
// set BENCH_gate.json pins, at the configuration it pins, and fails when
// modeled time or shipped bytes regress beyond the file's tolerance. Both
// signals come from the simnet cost clock — deterministic across hosts
// and worker counts — so a failure is a real plan or executor regression,
// never machine noise. Improvements beyond the tolerance are logged, not
// failed; refresh the baseline with -update-gate and commit the diff.
func TestBenchGate(t *testing.T) {
	const path = "BENCH_gate.json"
	type entry struct {
		ModeledMs    float64 `json:"modeled_ms"`
		BytesShipped float64 `json:"bytes_shipped"`
	}
	var base struct {
		Schema      string `json:"schema"`
		Description string `json:"description"`
		Config      struct {
			System  harness.System `json:"system"`
			SF      float64        `json:"sf"`
			Sites   int            `json:"sites"`
			Queries []int          `json:"queries"`
		} `json:"config"`
		TolerancePct float64           `json:"tolerance_pct"`
		Queries      map[string]entry  `json:"queries"`
		Environment  map[string]string `json:"environment"`
	}
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if err := json.Unmarshal(data, &base); err != nil {
		t.Fatalf("parse %s: %v", path, err)
	}
	if base.Schema != "gignite.benchgate/v1" || base.TolerancePct <= 0 {
		t.Fatalf("%s: schema %q, tolerance %g%%", path, base.Schema, base.TolerancePct)
	}
	e, err := env().Engine(harness.TPCH, base.Config.System, base.Config.Sites, base.Config.SF)
	if err != nil {
		t.Fatal(err)
	}
	pct := func(got, want float64) float64 { return 100 * (got - want) / want }
	measured := make(map[string]entry, len(base.Config.Queries))
	for _, id := range base.Config.Queries {
		res, err := e.Query(tpch.QueryByID(id).SQL)
		if err != nil {
			t.Fatalf("Q%d: %v", id, err)
		}
		label := fmt.Sprintf("Q%d", id)
		got := entry{float64(res.Modeled.Microseconds()) / 1000, res.Stats.BytesShipped}
		measured[label] = got
		want := base.Queries[label] // absent from the file: an infinite regression
		dm, db := pct(got.ModeledMs, want.ModeledMs), pct(got.BytesShipped, want.BytesShipped)
		t.Logf("%-4s modeled %.3fms -> %.3fms (%+.1f%%), shipped %.0f -> %.0f bytes (%+.1f%%)",
			label, want.ModeledMs, got.ModeledMs, dm, want.BytesShipped, got.BytesShipped, db)
		switch tol := base.TolerancePct; {
		case *updateGate:
		case dm > tol || db > tol:
			t.Errorf("%s regressed beyond the %g%% tolerance (modeled %+.1f%%, shipped bytes %+.1f%%)", label, tol, dm, db)
		case dm < -tol || db < -tol:
			t.Logf("%s improved beyond the tolerance; refresh the baseline with -update-gate", label)
		}
	}
	if *updateGate {
		base.Queries = measured
		data, err := json.MarshalIndent(base, "", "  ")
		if err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, append(data, '\n'), 0o644); err != nil {
			t.Fatal(err)
		}
	}
}

// TestPlanCacheSkipsPlanningWork is the plan cache's efficacy bar on real
// plans (DESIGN.md §15): on TPC-H Q1/Q3/Q10 the mean plan-acquisition
// time of 20 cache hits is at most 10% of the cold run's planning time.
// The slowest hit is left out of the mean: a hit takes ~15 µs, so one
// descheduling on a busy host would otherwise outweigh the other 19.
// (Byte identity and the PlanningSkipped contract are plancache_test.go's.)
func TestPlanCacheSkipsPlanningWork(t *testing.T) {
	const hits = 20
	e := openTPCH(t, 0.002, 4, func(c *gignite.Config) { c.PlanCacheSize = 64 })
	for _, id := range []int{1, 3, 10} {
		sql := tpch.QueryByID(id).SQL
		cold, err := e.Query(sql)
		if err != nil {
			t.Fatalf("Q%d cold: %v", id, err)
		}
		var sum, slowest int64
		for i := 0; i < hits; i++ {
			res, err := e.Query(sql)
			if err != nil {
				t.Fatalf("Q%d hot run %d: %v", id, i, err)
			}
			sum += res.Stats.PlanNanos
			slowest = max(slowest, res.Stats.PlanNanos)
		}
		coldPlan, hotPlan := time.Duration(cold.Stats.PlanNanos), time.Duration((sum-slowest)/(hits-1))
		t.Logf("Q%d: cold plan %v, mean hot plan %v", id, coldPlan, hotPlan)
		if hotPlan*10 > coldPlan {
			t.Errorf("Q%d: mean hot plan time %v is over 10%% of cold %v", id, hotPlan, coldPlan)
		}
	}
}
