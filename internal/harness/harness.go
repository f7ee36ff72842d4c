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
	"strings"
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

// PresetFor resolves a system name to the variant and its Config
// constructor — the one name → preset table, shared with the commands'
// -system flag. Matching is case-insensitive and accepts the spelled-out
// icplus/icplusm aliases; ok is false for any other name.
func PresetFor(name string) (sys System, preset func(sites int) gignite.Config, ok bool) {
	switch strings.ToLower(name) {
	case "ic":
		return IC, gignite.IC, true
	case "ic+", "icplus":
		return ICPlus, gignite.ICPlus, true
	case "ic+m", "icplusm":
		return ICPM, gignite.ICPlusM, true
	}
	return "", nil, false
}

// ConfigFor builds the engine configuration of a system variant with the
// execution work limit scaled to the scale factor (the analogue of the
// paper's fixed four-hour limit across its SF range).
func ConfigFor(sys System, sites int, sf float64) gignite.Config {
	_, preset, ok := PresetFor(string(sys))
	if !ok {
		panic(fmt.Sprintf("harness: unknown system %q", sys))
	}
	cfg := preset(sites)
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

// ParseWorkload resolves a benchmark name (tpch or ssb, in any case): the
// shell's and the daemon's -load flag.
func ParseWorkload(name string) (Workload, error) {
	switch strings.ToLower(name) {
	case "tpch":
		return TPCH, nil
	case "ssb":
		return SSB, nil
	}
	return 0, fmt.Errorf("unknown benchmark %q", name)
}

// Setup creates the benchmark's schema in e, loads its data at scale
// factor sf and collects statistics — the one benchmark loader.
func (w Workload) Setup(e *gignite.Engine, sf float64) error {
	if w == SSB {
		return ssb.Setup(e, sf)
	}
	return tpch.Setup(e, sf)
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
	e := env.open(ConfigFor(sys, sites, sf))
	if err := w.Setup(e, sf); err != nil {
		return nil, err
	}
	env.engines[key] = e
	return e, nil
}

// open builds an uncached, empty engine: cfg, then the Env's options.
func (env *Env) open(cfg gignite.Config) *gignite.Engine {
	return gignite.Open(append([]gignite.Option{gignite.WithConfig(cfg)}, env.opts...)...)
}

// loadError is a point's engine failing to load, which aborts an
// experiment; a query's own failure may instead become a report cell.
type loadError struct{ error }

// ResponseTime runs the §6.2 protocol for one query on the point's engine.
func (env *Env) ResponseTime(w Workload, sys System, sites int, sf float64, query string) (time.Duration, error) {
	e, err := env.Engine(w, sys, sites, sf)
	if err != nil {
		return 0, loadError{err}
	}
	return ResponseTime(e, query)
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
