// Package harness is the reproduction's Benchbase equivalent: it loads the
// benchmark datasets, runs the paper's measurement protocols (per-query
// response time with warm-up, §6.2; terminal-based average query latency,
// §6.3), and drives one experiment per figure/table of the evaluation.
//
// Response times are the simnet cost clock's modeled times on the paper's
// testbed profile (see DESIGN.md §2): real executions of real plans,
// clocked analytically, so runs are deterministic and host-independent.
package harness

import (
	"fmt"
	"sync"
	"time"

	"gignite"
	"gignite/internal/ssb"
	"gignite/internal/tpch"
)

// System identifies one of the paper's system variants.
type System string

// The three evaluated systems.
const (
	IC     System = "IC"
	ICPlus System = "IC+"
	ICPM   System = "IC+M"
)

// Systems lists the variants in presentation order.
func Systems() []System { return []System{IC, ICPlus, ICPM} }

// ConfigFor builds the engine configuration of a system variant with the
// execution work limit scaled to the scale factor (the analogue of the
// paper's fixed four-hour limit across its SF range).
func ConfigFor(sys System, sites int, sf float64) gignite.Config {
	var cfg gignite.Config
	switch sys {
	case IC:
		cfg = gignite.IC(sites)
	case ICPlus:
		cfg = gignite.ICPlus(sites)
	case ICPM:
		cfg = gignite.ICPlusM(sites)
	default:
		panic(fmt.Sprintf("harness: unknown system %q", sys))
	}
	cfg.ExecWorkLimit = WorkLimitFor(sf)
	// The row limit scales with the work limit (one row of join emission
	// charges ~100 work units), matching the calibration of the baseline
	// failure matrix.
	cfg.ExecRowLimit = int64(WorkLimitFor(sf) / 100)
	return cfg
}

// WorkLimitFor scales the execution work limit linearly with the scale
// factor; at SF 0.002 it matches the limit under which the baseline
// failure matrix was calibrated.
func WorkLimitFor(sf float64) float64 { return 5e10 * sf }

// Workload selects the benchmark.
type Workload uint8

// The two benchmarks of §6.
const (
	TPCH Workload = iota
	SSB
)

func (w Workload) String() string {
	if w == SSB {
		return "SSB"
	}
	return "TPC-H"
}

// Env caches loaded engines so experiments over many (system, sites, SF)
// combinations pay data generation and loading once each. Its engine
// options are fixed at construction, so the cache key is the experiment
// point alone and two Engine calls can never disagree about a knob. An
// Env is safe for concurrent use (the multi-client AQL drivers share one).
type Env struct {
	opts    []gignite.Option
	mu      sync.Mutex
	engines map[string]*gignite.Engine
}

// NewEnv creates an empty environment. opts are layered over the
// ConfigFor configuration of every engine the Env opens (benchrunner
// passes its engine flags here); the experiment still picks the system,
// site count and scale factor per point.
func NewEnv(opts ...gignite.Option) *Env {
	return &Env{opts: opts, engines: make(map[string]*gignite.Engine)}
}

// Engine returns (loading on first use) the engine for a combination.
func (env *Env) Engine(w Workload, sys System, sites int, sf float64) (*gignite.Engine, error) {
	key := fmt.Sprintf("%s/%s/%d/%g", w, sys, sites, sf)
	env.mu.Lock()
	defer env.mu.Unlock()
	if e, ok := env.engines[key]; ok {
		return e, nil
	}
	opts := append([]gignite.Option{gignite.WithConfig(ConfigFor(sys, sites, sf))}, env.opts...)
	e := gignite.Open(opts...)
	var err error
	if w == SSB {
		err = ssb.Setup(e, sf)
	} else {
		err = tpch.Setup(e, sf)
	}
	if err != nil {
		return nil, err
	}
	env.engines[key] = e
	return e, nil
}

// measuredRuns is the paper's per-query protocol: one warm-up execution
// followed by three measured executions (§6.2).
const measuredRuns = 3

// ResponseTime runs the §6.2 protocol for one query and returns the mean
// modeled response time of the measured executions.
func ResponseTime(e *gignite.Engine, query string) (time.Duration, error) {
	if _, err := e.Query(query); err != nil { // warm-up
		return 0, err
	}
	var total time.Duration
	for i := 0; i < measuredRuns; i++ {
		res, err := e.Query(query)
		if err != nil {
			return 0, err
		}
		total += res.Modeled
	}
	return total / measuredRuns, nil
}

// QueryTimes measures every query of a workload on one engine. Failures
// (planning errors, work-limit timeouts) are reported as negative
// durations with the error retained.
type QueryTime struct {
	Label string
	Time  time.Duration
	Err   error
}

// TPCHTimes measures the TPC-H queries (skipping Q15, which requires
// views, and Q20 when skipPaperDisabled is set — the paper disables both).
func TPCHTimes(e *gignite.Engine, skipPaperDisabled bool) []QueryTime {
	var out []QueryTime
	for _, q := range tpch.Queries() {
		if q.RequiresViews {
			continue
		}
		if skipPaperDisabled && q.ID == 20 {
			continue
		}
		d, err := ResponseTime(e, q.SQL)
		out = append(out, QueryTime{Label: fmt.Sprintf("Q%d", q.ID), Time: d, Err: err})
	}
	return out
}

// SSBTimes measures the SSB queries, optionally restricted to the
// paper-included flights (1 and 3).
func SSBTimes(e *gignite.Engine, paperFlightsOnly bool) []QueryTime {
	excluded := ssb.ExcludedFlights()
	var out []QueryTime
	for _, q := range ssb.Queries() {
		if paperFlightsOnly && excluded[q.Flight] {
			continue
		}
		d, err := ResponseTime(e, q.SQL)
		out = append(out, QueryTime{Label: q.ID, Time: d, Err: err})
	}
	return out
}
