package harness

import (
	"errors"
	"fmt"
	"time"

	"gignite"
	"gignite/internal/ssb"
	"gignite/internal/tpch"
)

// Options configures the experiment drivers. No field has a default:
// benchrunner sets each from its flags, and an experiment reads the ones
// it needs. Scale factors are relative to TPC-H SF 1 (the paper runs
// 0.5–3; this laptop-scale reproduction runs 0.005 and 0.01 by default,
// preserving relative table sizes).
type Options struct {
	SFs   []float64
	Sites []int
	// Clients are ServeAQL's concurrent terminal counts.
	Clients []int
	Env     *Env
}

// paperExcluded is the TPC-H query set the paper's Figures 7/8 and the
// AQL experiment exclude: Q15/Q20 disabled, Q2/Q5/Q9/Q17/Q19/Q21 not
// runnable on the baseline.
var paperExcluded = map[int]bool{
	2: true, 5: true, 9: true, 15: true, 17: true, 19: true, 20: true, 21: true,
}

// tpchComparable returns the queries included in Figures 7 and 8.
func tpchComparable() []tpch.Query {
	var out []tpch.Query
	for _, q := range tpch.Queries() {
		if !paperExcluded[q.ID] {
			out = append(out, q)
		}
	}
	return out
}

// meanSpeedup runs query on base and improved at every site count × scale
// factor of opts and returns the mean base/improved response-time ratio
// over the points where improved took time (0 when none did).
func meanSpeedup(opts Options, w Workload, base, improved System, label, query string) (float64, error) {
	var sum float64
	var n int
	for _, sites := range opts.Sites {
		for _, sf := range opts.SFs {
			tb, err := opts.Env.ResponseTime(w, base, sites, sf, query)
			if err != nil {
				return 0, fmt.Errorf("%s on %s: %w", label, base, err)
			}
			ti, err := opts.Env.ResponseTime(w, improved, sites, sf, query)
			if err != nil {
				return 0, fmt.Errorf("%s on %s: %w", label, improved, err)
			}
			if ti > 0 {
				sum += float64(tb) / float64(ti)
				n++
			}
		}
	}
	if n == 0 {
		return 0, nil
	}
	return sum / float64(n), nil
}

// Fig7 reproduces Figure 7: per-query TPC-H speedup of IC+ over IC at each
// site count (join optimizations + query planner improvements).
func Fig7(opts Options) (*Report, error) {
	return tpchSpeedupFigure(opts, "Figure 7: IC+ speedup over IC (TPC-H)", IC, ICPlus)
}

// Fig8 reproduces Figure 8: per-query TPC-H speedup of IC+M over IC.
func Fig8(opts Options) (*Report, error) {
	return tpchSpeedupFigure(opts, "Figure 8: IC+M speedup over IC (TPC-H)", IC, ICPM)
}

func tpchSpeedupFigure(opts Options, title string, base, improved System) (*Report, error) {
	rep := NewReport(title)
	for _, sites := range opts.Sites {
		rep.Columns = append(rep.Columns, fmt.Sprintf("%d sites", sites))
	}
	for _, q := range tpchComparable() {
		label := fmt.Sprintf("Q%d", q.ID)
		var cells []string
		for _, sites := range opts.Sites {
			at := Options{SFs: opts.SFs, Sites: []int{sites}, Env: opts.Env}
			s, err := meanSpeedup(at, TPCH, base, improved, label, q.SQL)
			if err != nil {
				return nil, err
			}
			cells = append(cells, fmtSpeedup(s))
		}
		rep.Add(label, cells...)
	}
	rep.Note("excluded per the paper's protocol: Q15, Q20 (disabled) and Q2, Q5, Q9, Q17, Q19, Q21 (not runnable on the IC baseline)")
	rep.Note("values average scale factors %v", opts.SFs)
	return rep, nil
}

// Fig9 reproduces Figure 9: the incremental effect of multithreading —
// IC+M vs IC+ at 4 sites, shown as a relative performance difference
// (positive = IC+M faster).
func Fig9(opts Options) (*Report, error) { return multithreadingFigure(opts, 4) }

// Fig10 is Figure 10: the same at 8 sites.
func Fig10(opts Options) (*Report, error) { return multithreadingFigure(opts, 8) }

func multithreadingFigure(opts Options, sites int) (*Report, error) {
	title := fmt.Sprintf("Figure %d: multithreading incremental difference, IC+ vs IC+M (%d sites)",
		map[int]int{4: 9, 8: 10}[sites], sites)
	rep := NewReport(title, "IC+ (ms)", "IC+M (ms)", "delta")
	for _, q := range tpch.Queries() {
		if q.RequiresViews || q.ID == 20 {
			continue
		}
		var sumPlus, sumM time.Duration
		var n int
		for _, sf := range opts.SFs {
			tp, errPlus := opts.Env.ResponseTime(TPCH, ICPlus, sites, sf, q.SQL)
			tm, errM := opts.Env.ResponseTime(TPCH, ICPM, sites, sf, q.SQL)
			if err := errors.Join(errPlus, errM); err != nil {
				if errors.As(err, new(loadError)) {
					return nil, err
				}
				continue
			}
			sumPlus += tp
			sumM += tm
			n++
		}
		if n == 0 {
			rep.Add(fmt.Sprintf("Q%d", q.ID), "n/a", "n/a", "n/a")
			continue
		}
		tp := sumPlus / time.Duration(n)
		tm := sumM / time.Duration(n)
		delta := (float64(tp) - float64(tm)) / float64(tp)
		rep.Add(fmt.Sprintf("Q%d", q.ID),
			fmt.Sprintf("%.2f", float64(tp)/1e6),
			fmt.Sprintf("%.2f", float64(tm)/1e6),
			fmtPct(delta))
	}
	rep.Note("positive delta: multithreading helped; negative: variant overhead dominated")
	return rep, nil
}

// aqlSeconds is the §6.3 measurement window per test.
const aqlSeconds = 300

// aqlContention models service-time dilation under concurrent clients.
// Two components, per the paper's §6.3 analysis:
//
//   - a load term that grows with every additional client (coordination,
//     queueing, network sharing) and affects every system equally;
//   - a CPU-contention term that applies only once the concurrent thread
//     demand exceeds the per-site cores — which is what makes IC+M (double
//     threads per query) win at 2 clients but lose at 4 and 8 ("the number
//     (2×) of concurrent processing threads surpasses the CPU core count").
func aqlContention(sys System, clients int) float64 {
	const (
		alpha           = 0.15 // per-client load growth
		gamma           = 0.5  // over-core contention slope
		coresPerSite    = 24.0
		threadsPerQuery = 3.5 // avg concurrently active threads per site
	)
	threads := threadsPerQuery
	if sys == ICPM {
		threads *= 2
	}
	demand := float64(clients) * threads
	over := 0.0
	if demand > coresPerSite {
		over = gamma * (demand - coresPerSite) / coresPerSite
	}
	return 1 + alpha*float64(clients-1) + over
}

// Table3 reproduces the AQL experiment: {2,4,8} clients × {4,8} sites ×
// {IC, IC+, IC+M}, with clients submitting randomized queries for 300
// simulated seconds.
func Table3(opts Options) (*Report, error) {
	sf := opts.SFs[len(opts.SFs)-1]
	rep := NewReport("Table 3: average query latency (modeled seconds)")
	for _, sites := range opts.Sites {
		for _, sys := range Systems() {
			rep.Columns = append(rep.Columns, fmt.Sprintf("%s/%d sites", sys, sites))
		}
	}
	// Base per-query times per (system, sites).
	type key struct {
		sys   System
		sites int
	}
	base := make(map[key][]time.Duration)
	for _, sites := range opts.Sites {
		for _, sys := range Systems() {
			var times []time.Duration
			for _, q := range tpchComparable() {
				d, err := opts.Env.ResponseTime(TPCH, sys, sites, sf, q.SQL)
				if err != nil {
					return nil, fmt.Errorf("AQL %s Q%d: %w", sys, q.ID, err)
				}
				times = append(times, d)
			}
			base[key{sys, sites}] = times
		}
	}
	for _, clients := range []int{2, 4, 8} {
		var cells []string
		for _, sites := range opts.Sites {
			for _, sys := range Systems() {
				times := base[key{sys, sites}]
				cells = append(cells, fmt.Sprintf("%.3f",
					simulateAQL(times, clients, aqlContention(sys, clients))))
			}
		}
		rep.Add(fmt.Sprintf("%d clients", clients), cells...)
	}
	rep.Note("terminals submit randomized queries sequentially for %d simulated seconds (five-run averages)", aqlSeconds)
	rep.Note("scale factor %g; excluded queries as in the paper's §6.3", sf)
	return rep, nil
}

// simulateAQL runs the terminal protocol: k clients draw random queries
// back-to-back until the window elapses; AQL is the mean latency of all
// completed requests. Five seeded repetitions are averaged (§6.3).
func simulateAQL(baseTimes []time.Duration, clients int, contention float64) float64 {
	if len(baseTimes) == 0 {
		return 0
	}
	var totalAQL float64
	for run := 0; run < 5; run++ {
		var latencySum float64
		var completed int
		seed := uint64(run)*2654435761 + uint64(clients)
		for c := 0; c < clients; c++ {
			elapsed := 0.0
			state := seed + uint64(c)*0x9E3779B97F4A7C15
			for elapsed < aqlSeconds {
				state = state*6364136223846793005 + 1442695040888963407
				q := baseTimes[(state>>33)%uint64(len(baseTimes))]
				lat := q.Seconds() * contention
				elapsed += lat
				latencySum += lat
				completed++
			}
		}
		totalAQL += latencySum / float64(completed)
	}
	return totalAQL / 5
}

// Fig11 reproduces Figure 11: SSB per-query response time multiplier of
// IC+M relative to IC, averaged over scale factors and site counts, for
// the paper-included flights (QS1 and QS3).
func Fig11(opts Options) (*Report, error) {
	rep := NewReport("Figure 11: SSB per-query performance, IC vs IC+M", "speedup")
	excluded := ssb.ExcludedFlights()
	for _, q := range ssb.Queries() {
		if excluded[q.Flight] {
			continue
		}
		s, err := meanSpeedup(opts, SSB, IC, ICPM, q.ID, q.SQL)
		if err != nil {
			return nil, err
		}
		rep.Add(q.ID, fmtSpeedup(s))
	}
	rep.Note("QS2 and QS4 excluded per the paper's §6.4 protocol (Calcite planner search-space timeouts; this reproduction's planner handles them — see the failure-matrix experiment)")
	return rep, nil
}

// FailureMatrix reproduces the §1/§6 baseline failure analysis: the status
// of every TPC-H query on the IC baseline, next to the paper's reported
// status.
func FailureMatrix(opts Options) (*Report, error) {
	sf := opts.SFs[0]
	e, err := opts.Env.Engine(TPCH, IC, 4, sf)
	if err != nil {
		return nil, err
	}
	paper := map[int]string{
		2: "no plan", 5: "no plan", 9: "no plan",
		15: "views unsupported", 20: "planner exception",
		17: "timeout (>4h)", 19: "timeout (>4h)", 21: "timeout (>4h)",
	}
	rep := NewReport("Baseline (IC) failure matrix", "this reproduction", "paper")
	for _, q := range tpch.Queries() {
		label := fmt.Sprintf("Q%d", q.ID)
		paperStatus, ok := paper[q.ID]
		if !ok {
			paperStatus = "ok"
		}
		if q.RequiresViews {
			rep.Add(label, "views unsupported", paperStatus)
			continue
		}
		_, err := e.Query(q.SQL)
		status := "ok"
		switch {
		case errors.Is(err, gignite.ErrQueryTimeout):
			status = "timeout (work limit)"
		case errors.Is(err, gignite.ErrPlanBudget):
			status = "no plan (budget)"
		case err != nil:
			status = "error: " + err.Error()
		}
		rep.Add(label, status, paperStatus)
	}
	rep.Note("scale factor %g, work limit %.2g", sf, WorkLimitFor(sf))
	rep.Note("deviations: this reproduction's DP join-order search plans Q2/Q5/Q9 (Calcite's memo did not); the mis-planned queries fail at execution instead where their nested-loop work exceeds the limit")
	return rep, nil
}

// AblationFlag names one independently togglable IC+ improvement.
type AblationFlag struct {
	Name    string
	Disable gignite.Option
}

// AblationFlags lists the §4/§5 improvements for one-at-a-time ablation.
func AblationFlags() []AblationFlag {
	return []AblationFlag{
		{"swami-schiefer-estimation", func(c *gignite.Config) { c.SwamiSchieferEstimation = false }},
		{"filter-correlate", func(c *gignite.Config) { c.FilterCorrelate = false }},
		{"exchange-penalty-fix", func(c *gignite.Config) { c.FixExchangePenalty = false }},
		{"standard-cost-units", func(c *gignite.Config) { c.StandardCostUnits = false }},
		{"distribution-factor", func(c *gignite.Config) { c.DistributionFactor = false }},
		{"two-phase-optimization", func(c *gignite.Config) { c.TwoPhaseOptimization = false }},
		{"hash-join", func(c *gignite.Config) { c.HashJoin = false }},
		{"fully-distributed-joins", func(c *gignite.Config) { c.FullyDistributedJoins = false }},
		{"join-condition-simplification", func(c *gignite.Config) { c.JoinConditionSimplification = false }},
	}
}

// ablationQueries is a representative TPC-H subset exercising each
// improvement, including the baseline-failing Q17/Q21 whose health depends
// on the estimation and FILTER_CORRELATE fixes (they re-appear as
// work-limit failures when the responsible improvement is disabled).
var ablationQueries = []int{3, 4, 7, 10, 12, 14, 16, 17, 18, 19, 21, 22}

// Ablation measures IC+ with each improvement disabled one at a time: the
// total modeled time over the ablation query subset, relative to full IC+.
func Ablation(opts Options) (*Report, error) {
	sf := opts.SFs[0]
	const sites = 4

	run := func(cfg gignite.Config) (time.Duration, int, error) {
		e := opts.Env.open(cfg)
		if err := TPCH.Setup(e, sf); err != nil {
			return 0, 0, err
		}
		var total time.Duration
		failures := 0
		for _, id := range ablationQueries {
			q := tpch.QueryByID(id)
			d, err := ResponseTime(e, q.SQL)
			if err != nil {
				failures++
				continue
			}
			total += d
		}
		return total, failures, nil
	}

	baseCfg := ConfigFor(ICPlus, sites, sf)
	baseTotal, baseFail, err := run(baseCfg)
	if err != nil {
		return nil, err
	}
	rep := NewReport("Ablation: IC+ with one improvement disabled (TPC-H subset)",
		"total (ms)", "vs IC+", "failures")
	rep.Add("IC+ (all enabled)", fmt.Sprintf("%.2f", float64(baseTotal)/1e6), "1.00x",
		fmt.Sprintf("%d", baseFail))
	for _, f := range AblationFlags() {
		cfg := ConfigFor(ICPlus, sites, sf)
		f.Disable(&cfg)
		total, failures, err := run(cfg)
		if err != nil {
			return nil, fmt.Errorf("ablation %s: %w", f.Name, err)
		}
		ratio := "n/a"
		if total > 0 && baseTotal > 0 {
			ratio = fmt.Sprintf("%.2fx", float64(total)/float64(baseTotal))
		}
		rep.Add("without "+f.Name, fmt.Sprintf("%.2f", float64(total)/1e6), ratio,
			fmt.Sprintf("%d", failures))
	}
	rep.Note("queries: %v at SF %g, %d sites; failures are work-limit timeouts", ablationQueries, sf, sites)
	return rep, nil
}

// Scaling reports per-query response time across scale factors for each
// system — the §6.2 methodology's inner loop ("every combination of scale
// factor and system configuration"), which the per-query figures average
// away. It makes growth trends visible: baseline NLJ plans grow
// quadratically while the improved plans grow roughly linearly.
func Scaling(opts Options) (*Report, error) {
	const sites = 4
	queryIDs := []int{1, 3, 6, 12, 14}
	rep := NewReport("Scaling: modeled response time (ms) by scale factor, 4 sites")
	for _, sys := range Systems() {
		for _, sf := range opts.SFs {
			rep.Columns = append(rep.Columns, fmt.Sprintf("%s@%g", sys, sf))
		}
	}
	for _, id := range queryIDs {
		q := tpch.QueryByID(id)
		var cells []string
		for _, sys := range Systems() {
			for _, sf := range opts.SFs {
				d, err := opts.Env.ResponseTime(TPCH, sys, sites, sf, q.SQL)
				if errors.As(err, new(loadError)) {
					return nil, err
				}
				if err != nil {
					cells = append(cells, "fail")
					continue
				}
				cells = append(cells, fmt.Sprintf("%.2f", float64(d)/1e6))
			}
		}
		rep.Add(fmt.Sprintf("Q%d", id), cells...)
	}
	return rep, nil
}

// Sweep runs every TPC-H query but Q15, then the 13 SSB queries, once on
// each system at one scale factor and site count, side by side with the
// speedup ratios — the quick-look diagnostic behind Figures 7, 8 and 11.
func Sweep(env *Env, sf float64, sites int) (*Report, error) {
	type spec struct {
		w          Workload
		label, sql string
	}
	var queries []spec
	for _, q := range tpch.Queries() {
		if !q.RequiresViews {
			queries = append(queries, spec{TPCH, fmt.Sprintf("Q%d", q.ID), q.SQL})
		}
	}
	for _, q := range ssb.Queries() {
		queries = append(queries, spec{SSB, q.ID, q.SQL})
	}
	rep := NewReport(fmt.Sprintf("Sweep: modeled response time (ms), SF %g, %d sites", sf, sites),
		"IC", "IC+", "IC+M", "IC+/IC", "IC+M/IC", "IC+M/IC+")
	for _, q := range queries {
		times := map[System]time.Duration{} // absent: the query failed
		var cells []string
		for _, sys := range Systems() {
			e, err := env.Engine(q.w, sys, sites, sf)
			if err != nil {
				return nil, err
			}
			res, err := e.Query(q.sql)
			if err != nil {
				cells = append(cells, "FAIL")
				continue
			}
			times[sys] = res.Modeled
			cells = append(cells, fmt.Sprintf("%.2f", float64(res.Modeled)/1e6))
		}
		ratio := func(a, b System) string {
			ta, okA := times[a]
			tb, okB := times[b]
			if !okA || !okB || tb == 0 {
				return "-"
			}
			return fmt.Sprintf("%.2fx", float64(ta)/float64(tb))
		}
		rep.Add(q.label, append(cells, ratio(IC, ICPlus), ratio(IC, ICPM), ratio(ICPlus, ICPM))...)
	}
	rep.Note("rows Q1-Q22 are TPC-H, Q1.1-Q4.3 SSB; one execution per query and system")
	return rep, nil
}
