// Package engineflags is the shared flag registry behind the gignite
// command-line tools (cmd/gignite, cmd/gignited, cmd/benchrunner).
//
// Every engine knob a CLI exposes is declared exactly once here — name,
// usage string and the gignite.Config field it sets — so the three
// binaries stay flag-compatible by construction: "-plancache 64" or
// "-adaptive" mean the same thing to the interactive shell, the network
// daemon and the benchmark runner. Commands bind the registry into their
// own flag.FlagSet (the one per-command default, the plan-cache capacity,
// is Bind's argument), add their command-specific flags (addresses,
// scale-factor lists, ...), and resolve the bound values with
// Values.Options. The resource-governance flags are bound separately
// (BindGovernance) by the commands that serve queries; benchrunner's
// experiments run ungoverned and do not bind them.
package engineflags

import (
	"flag"
	"fmt"

	"gignite"
	"gignite/internal/harness"
)

// Values holds the bound values of the shared engine flags after flag
// parsing.
type Values struct {
	// System selects the paper's system variant: ic, ic+ or ic+m.
	System string
	// Backups is the per-partition backup replica count.
	Backups int
	// Parallelism is the host execution parallelism (0 = GOMAXPROCS).
	Parallelism int
	// Faults is the deterministic fault-plan spec ("" = none).
	Faults string
	// Admission, MaxMem and QueryMem are the resource-governance
	// group: bound by BindGovernance, zero (ungoverned) otherwise.
	// Admission bounds concurrent queries (0 = unbounded).
	Admission int
	// MaxMem is the engine memory budget in bytes (0 = no pool).
	MaxMem int64
	// QueryMem is the per-query memory cap in bytes (0 = unlimited).
	QueryMem int64
	// PlanCache is the plan-cache capacity in plans (0 = off).
	PlanCache int
	// Adaptive toggles mid-query re-optimization from runtime sketches.
	Adaptive bool
	// Misestimate multiplies the planner's join estimates (0 or 1 =
	// accurate stats).
	Misestimate float64
}

// Bind registers the shared engine flags on fs and returns the value
// struct they parse into. planCache is the command's -plancache default.
func Bind(fs *flag.FlagSet, planCache int) *Values {
	v := &Values{}
	fs.StringVar(&v.System, "system", "ic+m", "system variant: ic, ic+ or ic+m")
	fs.IntVar(&v.Backups, "backups", 0, "backup replicas per partition (0 = none)")
	fs.IntVar(&v.Parallelism, "par", 0, "host execution parallelism (0 = GOMAXPROCS, 1 = sequential)")
	fs.StringVar(&v.Faults, "faults", "", `deterministic fault plan, e.g. "seed=1;crash=2@5;slow=1x4;sendfail=0.01"`)
	fs.IntVar(&v.PlanCache, "plancache", planCache, "plan cache capacity in plans (0 = off)")
	fs.BoolVar(&v.Adaptive, "adaptive", false, "enable adaptive mid-query re-optimization (DESIGN.md §17)")
	fs.Float64Var(&v.Misestimate, "misestimate", 0, "multiply the planner's join estimates by this factor (stats fault injection)")
	return v
}

// BindGovernance registers the resource-governance flags (DESIGN.md §14)
// on fs. Unbound, they stay zero: ungoverned.
func (v *Values) BindGovernance(fs *flag.FlagSet) {
	fs.IntVar(&v.Admission, "admission", 0, "max concurrent queries (0 = unbounded)")
	fs.Int64Var(&v.MaxMem, "maxmem", 0, "engine-wide memory budget in bytes (0 = no pool)")
	fs.Int64Var(&v.QueryMem, "querymem", 0, "per-query memory cap in bytes (0 = unlimited)")
}

// Preset resolves the -system flag to the system variant
// (harness.PresetFor's name matching).
func (v *Values) Preset() (harness.System, error) {
	sys, _, ok := harness.PresetFor(v.System)
	if !ok {
		return "", fmt.Errorf("unknown -system %q (want ic, ic+ or ic+m)", v.System)
	}
	return sys, nil
}

// Options resolves the bound values into functional options for a
// cluster of the given size loading data at scale factor sf: the -system
// variant's harness.ConfigFor configuration (execution limits scaled to
// sf) first, so command-specific options appended after them still win.
func (v *Values) Options(sites int, sf float64) ([]gignite.Option, error) {
	sys, err := v.Preset()
	if err != nil {
		return nil, err
	}
	rest, err := v.EngineOptions()
	if err != nil {
		return nil, err
	}
	return []gignite.Option{gignite.WithConfig(harness.ConfigFor(sys, sites, sf)), rest}, nil
}

// EngineOptions resolves every bound flag except -system into one option
// assigning each flag's value to its Config field: what a caller layers
// over a configuration whose variant and site count it picked itself
// (benchrunner's experiments choose the system per point).
func (v *Values) EngineOptions() (gignite.Option, error) {
	fp, err := gignite.ParseFaults(v.Faults)
	if err != nil {
		return nil, fmt.Errorf("-faults: %w", err)
	}
	bound := *v
	return func(c *gignite.Config) {
		c.Backups = bound.Backups
		c.ExecParallelism = bound.Parallelism
		c.Faults = fp
		c.MaxConcurrentQueries = bound.Admission
		c.MemoryBudgetBytes = bound.MaxMem
		c.QueryMemLimitBytes = bound.QueryMem
		c.PlanCacheSize = bound.PlanCache
		c.AdaptiveExec = bound.Adaptive
		c.StatsMisestimate = bound.Misestimate
	}, nil
}
