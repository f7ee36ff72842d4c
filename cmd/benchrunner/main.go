// Command benchrunner regenerates the paper's evaluation artifacts: one
// experiment per table and figure of §6, printed as aligned text tables.
//
// Usage:
//
//	benchrunner -exp fig7|fig8|fig9|fig10|fig11|table3|failures|ablate|obs|filters|overload|plancache|benchgate|all
//	            [-sf 0.005,0.01] [-sites 4,8] [-par 0]
//	            [-backups 0] [-faults SPEC] [-timeout 0] [-filters] [-plancache 0]
//	            [-system ic+m] [-queries 1,3] [-metrics FILE] [-trace FILE]
//	            [-admission 2] [-clients 8] [-maxmem 0] [-querymem 0] [-hedge 2]
//	            [-baseline BENCH_gate.json] [-update-baseline]
//
// The obs experiment runs the selected TPC-H queries once on one system
// and emits observability artifacts: -metrics writes the per-query and
// cumulative metrics JSON (schema harness.MetricsSchema), -trace writes
// the distributed traces as a Chrome trace_event file (load it in
// Perfetto or chrome://tracing). benchrunner exits non-zero when the
// estimate-vs-actual operator report comes back empty — the CI
// observability smoke job relies on that.
//
// The overload experiment is the resource-governance smoke check
// (DESIGN.md §14): concurrent clients race TPC-H queries into an engine
// whose memory pool holds about two queries. Shed queries must carry
// ErrOverloaded, admitted queries must return rows byte-identical to the
// ungoverned run, a patient queue must drain completely, and hedged
// straggler attempts must cut the modeled makespan with one slow site.
// It exits non-zero on any violation — the CI overload-smoke job relies
// on that.
//
// The filters experiment is the runtime join-filter smoke check
// (DESIGN.md §13): it runs Q3/Q5/Q10 with filters off and on against the
// same data and prints rows, shipped bytes, modeled time and pruned-row
// counts side by side. It exits non-zero if any query's results diverge
// between the two runs, or if Q3 fails to ship fewer bytes with filters
// on — the CI filters-smoke job relies on that.
//
// The plancache experiment is the plan-cache smoke check (DESIGN.md §15):
// each query runs once cold and ~20 times hot against a cache-enabled
// engine, plus once against a cache-disabled engine. It exits non-zero
// unless every hot run skipped planning, the mean hot plan-acquisition
// time is at least 90% below the cold planning time, and the rows are
// byte-identical cache on and off — the CI plancache-smoke job relies on
// that.
//
// The benchgate experiment is the CI benchmark-regression gate: it runs
// the baseline file's query set and compares the deterministic modeled
// times and shipped bytes against the committed BENCH_gate.json, failing
// on any regression beyond the file's tolerance. -update-baseline rewrites
// the baseline from the current measurements (commit the diff).
//
// -filters enables runtime join-filter pushdown and -plancache a plan
// cache of the given capacity for the table/figure experiments (the
// modeled times then include filter build cost and the shipped-volume
// savings).
//
// Response times are deterministic modeled times from the simnet cost
// clock (see DESIGN.md), so runs are reproducible across hosts — and
// independent of -par, which only sets how many host goroutines execute
// fragment instances (wall-clock speed of the run itself).
//
// Fault-tolerance experiments (DESIGN.md §fault model): -backups keeps N
// backup replicas per partition, -faults injects a deterministic fault
// plan (e.g. "seed=7;crash=2@4;sendfail=0.05"), and -timeout bounds each
// query's wall-clock time. With backups ≥ 1 the modeled times include
// retry recovery cost; with backups = 0 a crashed site turns into clean
// query errors.
package main

import (
	"errors"
	"flag"
	"fmt"
	"os"
	"strconv"
	"strings"
	"time"

	"gignite"
	"gignite/internal/engineflags"
	"gignite/internal/harness"
	"gignite/internal/obs"
	"gignite/internal/tpch"
)

func main() {
	exp := flag.String("exp", "all", "experiment: fig7, fig8, fig9, fig10, fig11, table3, failures, ablate, scaling, obs, filters, overload, plancache, adaptive, benchgate, serve, serveaql, all")
	ef := engineflags.Bind(flag.CommandLine, engineflags.Defaults{System: "ic+m", Admission: 2, Hedge: 2})
	sfs := flag.String("sf", "0.005,0.01", "comma-separated scale factors")
	sites := flag.String("sites", "4,8", "comma-separated site counts")
	timeout := flag.Duration("timeout", 0, "per-query wall-clock deadline (0 = none)")
	queries := flag.String("queries", "", "obs experiment: comma-separated TPC-H query ids (empty = paper set)")
	metricsOut := flag.String("metrics", "", "obs/overload experiment: write the metrics JSON to this file")
	traceOut := flag.String("trace", "", "obs experiment: write Chrome trace_event JSON to this file")
	clients := flag.Int("clients", 8, "overload experiment: concurrent client goroutines")
	baseline := flag.String("baseline", "BENCH_gate.json", "benchgate experiment: committed baseline file")
	updateBaseline := flag.Bool("update-baseline", false, "benchgate experiment: rewrite the baseline from current measurements")
	flag.Parse()

	plan, err := gignite.ParseFaults(ef.Faults)
	if err != nil {
		fatalf("bad -faults spec: %v", err)
	}

	opts := harness.Options{Env: harness.NewEnv()}
	opts.Env.Parallelism = ef.Parallelism
	opts.Env.Backups = ef.Backups
	opts.Env.Faults = plan
	opts.Env.Timeout = *timeout
	opts.Env.Filters = ef.Filters
	opts.Env.PlanCache = ef.PlanCache
	opts.Env.Adaptive = ef.Adaptive
	opts.Env.Misestimate = ef.Misestimate
	for _, s := range strings.Split(*sfs, ",") {
		v, err := strconv.ParseFloat(strings.TrimSpace(s), 64)
		if err != nil {
			fatalf("bad -sf value %q: %v", s, err)
		}
		opts.SFs = append(opts.SFs, v)
	}
	for _, s := range strings.Split(*sites, ",") {
		v, err := strconv.Atoi(strings.TrimSpace(s))
		if err != nil {
			fatalf("bad -sites value %q: %v", s, err)
		}
		opts.Sites = append(opts.Sites, v)
	}

	// One dispatch table: the §6 tables and figures (paper; what -exp all
	// runs) print a harness report, the smoke experiments own their output
	// and exit code.
	type experiment struct {
		name  string
		paper bool
		run   func()
	}
	report := func(name string, build func(harness.Options) (*harness.Report, error)) experiment {
		return experiment{name, true, func() {
			rep, err := build(opts)
			if err != nil {
				fatalf("%s: %v", name, err)
			}
			fmt.Println(rep.Render())
		}}
	}
	experiments := []experiment{
		report("fig7", harness.Fig7),
		report("fig8", harness.Fig8),
		report("fig9", harness.Fig9),
		report("fig10", harness.Fig10),
		report("table3", harness.Table3),
		report("fig11", harness.Fig11),
		report("failures", harness.FailureMatrix),
		report("ablate", harness.Ablation),
		report("scaling", harness.Scaling),
		{"obs", false, func() { runObs(opts, ef.System, *queries, *metricsOut, *traceOut) }},
		{"filters", false, func() { runFilters(opts, *queries) }},
		{"overload", false, func() {
			runOverload(opts, ef.Admission, *clients, ef.MaxMem, ef.QueryMem, ef.Hedge, *metricsOut)
		}},
		{"adaptive", false, func() { runAdaptive(opts, ef.Misestimate, *queries, *metricsOut) }},
		{"plancache", false, func() { runPlanCache(opts, *queries, *metricsOut) }},
		{"benchgate", false, func() { runBenchGate(opts, *baseline, *metricsOut, *updateBaseline) }},
		{"serve", false, func() { runServe(opts, *metricsOut) }},
		{"serveaql", false, func() { runServeAQL(opts, *clients) }},
	}
	ran := false
	for _, e := range experiments {
		if *exp == e.name || (*exp == "all" && e.paper) {
			ran = true
			e.run()
		}
	}
	if !ran {
		fatalf("unknown experiment %q", *exp)
	}
}

// parseQueryIDs parses the -queries flag, a comma-separated list of known
// TPC-H query ids; an empty list selects the experiment's default set.
func parseQueryIDs(list string, def []int) []int {
	if list == "" {
		return def
	}
	var ids []int
	for _, s := range strings.Split(list, ",") {
		id, err := strconv.Atoi(strings.TrimSpace(s))
		if err != nil {
			fatalf("bad -queries value %q: %v", s, err)
		}
		if tpch.QueryByID(id) == nil {
			fatalf("bad -queries value %q: unknown TPC-H query", s)
		}
		ids = append(ids, id)
	}
	return ids
}

// runObs executes the observability experiment: run the selected TPC-H
// queries on one system, print the estimate-vs-actual report, and write
// the -metrics / -trace artifacts.
func runObs(opts harness.Options, system, queryList, metricsOut, traceOut string) {
	var sys harness.System
	switch strings.ToLower(system) {
	case "ic":
		sys = harness.IC
	case "ic+", "icplus":
		sys = harness.ICPlus
	case "ic+m", "icplusm":
		sys = harness.ICPM
	default:
		fatalf("unknown system %q", system)
	}
	ids := parseQueryIDs(queryList, nil)
	sf := opts.SFs[0]
	sites := opts.Sites[0]
	mf, traces, err := harness.CollectMetrics(opts.Env, sys, sites, sf, ids)
	if err != nil {
		fatalf("obs: %v", err)
	}
	ops := 0
	for _, q := range mf.Queries {
		fmt.Printf("%s: modeled=%.4fs rows=%d instances=%d retries=%d spans=%d digest=%s\n",
			q.Label, q.ModeledSecs, q.Rows, q.Instances, q.Retries, q.Spans, q.PlanDigest)
		for _, op := range q.Operators {
			fmt.Printf("  frag%d %-40s est=%-10.0f act=%-10d qerr=%.1fx\n",
				op.Frag, op.Op, op.EstRows, op.ActRows, op.QError)
			ops++
		}
	}
	if metricsOut != "" {
		writeJSON(metricsOut, mf)
	}
	if traceOut != "" {
		data, err := obs.ChromeTrace(traces)
		if err != nil {
			fatalf("obs: render trace: %v", err)
		}
		if err := os.WriteFile(traceOut, data, 0o644); err != nil {
			fatalf("obs: %v", err)
		}
		fmt.Fprintf(os.Stderr, "benchrunner: wrote trace to %s\n", traceOut)
	}
	if ops == 0 {
		fatalf("obs: estimate-vs-actual report is empty")
	}
}

// runFilters executes the runtime join-filter smoke check: each query
// runs with filters off and on against identically loaded engines, the
// two result sets must match byte for byte, and Q3 (always included)
// must ship fewer bytes with filters on.
func runFilters(opts harness.Options, queryList string) {
	ids := parseQueryIDs(queryList, []int{3, 5, 10})
	sf := opts.SFs[0]
	sites := opts.Sites[0]
	env := opts.Env
	env.Filters = false
	off, err := env.Engine(harness.TPCH, harness.ICPlus, sites, sf)
	if err != nil {
		fatalf("filters: %v", err)
	}
	env.Filters = true
	on, err := env.Engine(harness.TPCH, harness.ICPlus, sites, sf)
	if err != nil {
		fatalf("filters: %v", err)
	}
	fmt.Printf("runtime join-filter smoke: IC+ sf=%g sites=%d\n", sf, sites)
	fmt.Printf("%-5s %8s %14s %14s %12s %12s %8s %8s\n",
		"query", "rows", "bytes_off", "bytes_on", "modeled_off", "modeled_on", "filters", "pruned")
	sk := &smoke{name: "filters"}
	for _, id := range ids {
		q := tpch.QueryByID(id)
		base, err := off.Query(q.SQL)
		if err != nil {
			fatalf("filters: Q%d off: %v", id, err)
		}
		res, err := on.Query(q.SQL)
		if err != nil {
			fatalf("filters: Q%d on: %v", id, err)
		}
		fmt.Printf("Q%-4d %8d %14.0f %14.0f %12v %12v %8d %8d\n",
			id, len(res.Rows), base.Stats.BytesShipped, res.Stats.BytesShipped,
			base.Modeled.Round(time.Microsecond), res.Modeled.Round(time.Microsecond),
			res.Stats.FiltersBuilt, res.Stats.RowsPruned)
		if rowsText(base.Rows) != rowsText(res.Rows) {
			sk.failf("Q%d results diverge with filters on (%d vs %d rows)",
				id, len(base.Rows), len(res.Rows))
		}
		if id == 3 && res.Stats.BytesShipped >= base.Stats.BytesShipped {
			sk.failf("Q3 shipped bytes did not drop (%.0f -> %.0f)",
				base.Stats.BytesShipped, res.Stats.BytesShipped)
		}
	}
	sk.exit()
}

// runOverload is the resource-governance smoke check (DESIGN.md §14). It
// drives three phases and exits non-zero on any violation:
//
//	A (shed): `clients` goroutines race TPC-H queries into an engine that
//	  admits `admission` at a time over a memory pool sized for about two
//	  queries, with a short admission timeout. Every rejection must be
//	  ErrOverloaded, at least one query must get through, and every
//	  admitted result must be byte-identical to the ungoverned run. No
//	  query may crash or hang.
//	B (queue): same offered load with a generous admission timeout — every
//	  query must queue, admit and return identical rows.
//	C (hedge): one site slowed 8x with a backup replica: hedging must cut
//	  the modeled makespan versus waiting the straggler out, win at least
//	  one race, and leave the rows byte-identical.
func runOverload(opts harness.Options, admission, clients int, maxmem, querymem int64, hedge float64, metricsOut string) {
	sf := opts.SFs[0]
	sites := opts.Sites[0]
	ids := []int{1, 3}

	x := expEnv{name: "overload", sys: harness.ICPlus, sites: sites, sf: sf, par: opts.Env.Parallelism}
	open := x.open

	// Reference run: an effectively ungoverned engine (the huge per-query
	// budget only turns memory accounting on) provides the expected rows
	// and the per-query peaks used to size the shared pool.
	ref := open(func(cfg *gignite.Config) { cfg.QueryMemLimitBytes = 1 << 40 })
	want := make(map[int]string)
	var maxPeak int64
	for _, id := range ids {
		res, err := ref.Query(tpch.QueryByID(id).SQL)
		if err != nil {
			fatalf("overload: reference Q%d: %v", id, err)
		}
		want[id] = rowsText(res.Rows)
		if res.Stats.MemPeakBytes > maxPeak {
			maxPeak = res.Stats.MemPeakBytes
		}
	}
	pool := maxmem
	if pool == 0 {
		// Room for about two in-flight queries' estimated operator state.
		pool = 2*maxPeak + 1<<20
	}
	fmt.Printf("overload smoke: IC+ sf=%g sites=%d admission=%d clients=%d pool=%d bytes (max query peak %d)\n",
		sf, sites, admission, clients, pool, maxPeak)

	// offered load: client i runs one TPC-H query against e; returns are
	// collected so crashes surface as test failure, not a lost goroutine.
	race := func(e *gignite.Engine) (succ, shed int, errs []error) {
		type outcome struct {
			id   int
			rows string
			err  error
		}
		out := make(chan outcome, clients)
		for i := 0; i < clients; i++ {
			go func(i int) {
				id := ids[i%len(ids)]
				res, err := e.Query(tpch.QueryByID(id).SQL)
				if err != nil {
					out <- outcome{id: id, err: err}
					return
				}
				out <- outcome{id: id, rows: rowsText(res.Rows)}
			}(i)
		}
		for i := 0; i < clients; i++ {
			o := <-out
			switch {
			case o.err == nil:
				succ++
				if o.rows != want[o.id] {
					errs = append(errs, fmt.Errorf("admitted Q%d rows differ from the ungoverned run", o.id))
				}
			case errors.Is(o.err, gignite.ErrOverloaded):
				shed++
			default:
				errs = append(errs, fmt.Errorf("Q%d failed outside the shed taxonomy: %w", o.id, o.err))
			}
		}
		return succ, shed, errs
	}

	sk := &smoke{name: "overload"}
	report := func(phase string, errs []error) {
		for _, err := range errs {
			sk.failf("phase %s: %v", phase, err)
		}
	}

	// Phase A: short admission timeout — excess load sheds cleanly.
	govA := open(func(cfg *gignite.Config) {
		cfg.MaxConcurrentQueries = admission
		cfg.MemoryBudgetBytes = pool
		cfg.QueryMemLimitBytes = querymem
		cfg.AdmissionTimeout = 50 * time.Millisecond
	})
	succ, shed, errs := race(govA)
	report("A", errs)
	if succ == 0 {
		sk.failf("phase A admitted nothing")
	}
	fmt.Printf("phase A (shed):  %d/%d admitted, %d shed with ErrOverloaded\n", succ, clients, shed)

	// Phase B: generous timeout — the queue drains and everyone succeeds.
	govB := open(func(cfg *gignite.Config) {
		cfg.MaxConcurrentQueries = admission
		cfg.MemoryBudgetBytes = pool
		cfg.QueryMemLimitBytes = querymem
		cfg.AdmissionTimeout = 60 * time.Second
	})
	succ, shed, errs = race(govB)
	report("B", errs)
	if succ != clients {
		sk.failf("phase B: %d/%d admitted (%d shed); all must queue and succeed",
			succ, clients, shed)
	}
	fmt.Printf("phase B (queue): %d/%d admitted through the FIFO queue\n", succ, clients)

	// Phase C: straggler hedging on the modeled clock.
	slowPlan, err := gignite.ParseFaults("slow=1x8")
	if err != nil {
		fatalf("overload: %v", err)
	}
	waitOut := open(func(cfg *gignite.Config) {
		cfg.Backups = 1
		cfg.Faults = slowPlan
	})
	hedged := open(func(cfg *gignite.Config) {
		cfg.Backups = 1
		cfg.Faults = slowPlan
		cfg.HedgeAfter = hedge
	})
	var modeledBase, modeledHedge time.Duration
	hedgesWon := 0
	for _, id := range ids {
		base, err := waitOut.Query(tpch.QueryByID(id).SQL)
		if err != nil {
			fatalf("overload: phase C baseline Q%d: %v", id, err)
		}
		res, err := hedged.Query(tpch.QueryByID(id).SQL)
		if err != nil {
			fatalf("overload: phase C hedged Q%d: %v", id, err)
		}
		if rowsText(res.Rows) != rowsText(base.Rows) {
			sk.failf("phase C: Q%d rows differ with hedging on", id)
		}
		modeledBase += base.Modeled
		modeledHedge += res.Modeled
		hedgesWon += res.Stats.HedgesWon
	}
	if hedgesWon < 1 {
		sk.failf("phase C: no hedge won its race")
	}
	if modeledHedge >= modeledBase {
		sk.failf("phase C: hedging did not cut the modeled makespan (%v vs %v)",
			modeledHedge, modeledBase)
	}
	fmt.Printf("phase C (hedge): modeled %v -> %v, %d hedge race(s) won\n",
		modeledBase.Round(time.Microsecond), modeledHedge.Round(time.Microsecond), hedgesWon)

	if metricsOut != "" {
		writeJSON(metricsOut, map[string]interface{}{
			"pool_bytes":       pool,
			"max_query_peak":   maxPeak,
			"governed_queue":   govB.Metrics(),
			"governed_shed":    govA.Metrics(),
			"hedged":           hedged.Metrics(),
			"modeled_baseline": modeledBase.Seconds(),
			"modeled_hedged":   modeledHedge.Seconds(),
		})
	}
	sk.exit()
}

// smoke owns the exit-code convention shared by the CI smoke experiments
// (filters, overload, plancache, benchgate): every violation is reported
// to stderr prefixed with the experiment name, the experiment keeps
// running so one invocation surfaces all failures, and exit() terminates
// the process non-zero when anything was reported.
type smoke struct {
	name   string
	failed bool
}

func (s *smoke) failf(format string, args ...interface{}) {
	fmt.Fprintf(os.Stderr, "benchrunner: %s: %s\n", s.name, fmt.Sprintf(format, args...))
	s.failed = true
}

// exit must be the experiment's last call.
func (s *smoke) exit() {
	if s.failed {
		os.Exit(1)
	}
}

// rowsText renders a result set (row order included) for comparison.
func rowsText(rows []gignite.Row) string {
	var sb strings.Builder
	for _, r := range rows {
		sb.WriteString(r.String())
		sb.WriteByte('\n')
	}
	return sb.String()
}

func fatalf(format string, args ...interface{}) {
	fmt.Fprintf(os.Stderr, "benchrunner: "+format+"\n", args...)
	os.Exit(1)
}
