package gignite

import "time"

// Option mutates the engine configuration during Open. Options are
// applied in order, so later options win over earlier ones. Grouped
// options (WithCluster, WithGovernance, ...) apply their whole group:
// zero-valued fields inside the group mean "the engine default", not
// "keep the previous value".
type Option func(*Config)

// WithConfig replaces the entire configuration with cfg. Use it as the
// first option to layer further options over a hand-built Config (for
// example one produced by a harness).
func WithConfig(cfg Config) Option {
	return func(c *Config) { *c = cfg }
}

// WithPreset replaces the configuration with preset(sites), where preset
// is one of the paper's system constructors: IC, ICPlus or ICPlusM. Use
// it as the first option.
func WithPreset(preset func(sites int) Config, sites int) Option {
	return func(c *Config) { *c = preset(sites) }
}

// ClusterOptions groups the simulated-cluster topology knobs.
type ClusterOptions struct {
	// Sites is the number of processing sites; 0 keeps the current value
	// (a topology without sites is never meaningful).
	Sites int
	// Backups is the per-partition backup replica count (Config.Backups).
	Backups int
	// Parallelism bounds concurrent fragment instances on host
	// goroutines (Config.ExecParallelism); 0 uses GOMAXPROCS, 1 forces
	// the deterministic sequential path.
	Parallelism int
	// Faults is an optional deterministic fault-injection plan (see
	// ParseFaults).
	Faults *FaultPlan
}

// WithCluster applies the topology group.
func WithCluster(o ClusterOptions) Option {
	return func(c *Config) {
		if o.Sites > 0 {
			c.Sites = o.Sites
		}
		c.Backups = o.Backups
		c.ExecParallelism = o.Parallelism
		c.Faults = o.Faults
	}
}

// GovernanceOptions groups the resource-governance knobs of DESIGN.md
// §14. The zero value means "ungoverned": no admission bound, no memory
// pool, no per-query cap, no hedging, no wall-clock timeout.
type GovernanceOptions struct {
	// MaxConcurrentQueries bounds admitted SELECT executions (0 =
	// unbounded).
	MaxConcurrentQueries int
	// MemoryBudgetBytes is the engine-wide reservation pool (0 = none).
	MemoryBudgetBytes int64
	// QueryMemLimitBytes caps one query's estimated charge (0 =
	// unlimited).
	QueryMemLimitBytes int64
	// AdmissionTimeout bounds the admission-queue wait (0 = the
	// governor's default).
	AdmissionTimeout time.Duration
	// HedgeAfter enables hedged straggler attempts past the given
	// multiple of the wave median (0 = off; requires backups).
	HedgeAfter float64
	// QueryTimeout bounds each query's wall-clock time (0 = none).
	QueryTimeout time.Duration
}

// WithGovernance applies the resource-governance group.
func WithGovernance(o GovernanceOptions) Option {
	return func(c *Config) {
		c.MaxConcurrentQueries = o.MaxConcurrentQueries
		c.MemoryBudgetBytes = o.MemoryBudgetBytes
		c.QueryMemLimitBytes = o.QueryMemLimitBytes
		c.AdmissionTimeout = o.AdmissionTimeout
		c.HedgeAfter = o.HedgeAfter
		c.QueryTimeout = o.QueryTimeout
	}
}

// WithPlanCache sets the LRU plan-cache capacity in cached plans
// (DESIGN.md §15). 0 disables caching.
func WithPlanCache(size int) Option {
	return func(c *Config) { c.PlanCacheSize = size }
}

// AdaptiveOptions groups the adaptive-execution knobs of DESIGN.md §17.
type AdaptiveOptions struct {
	// Misestimate, when not 0 or 1, multiplies the planner's join-output
	// estimates — a fault-injection knob for demonstrating adaptivity
	// against controlled misestimation (Config.StatsMisestimate).
	Misestimate float64
}

// WithAdaptive enables mid-query re-optimization from runtime sketches
// and applies the adaptive group. Results stay byte-identical to the
// static plan; only the modeled time and the adaptive counters change.
func WithAdaptive(o AdaptiveOptions) Option {
	return func(c *Config) {
		c.AdaptiveExec = true
		c.StatsMisestimate = o.Misestimate
	}
}

// ObservabilityOptions groups the logging knobs.
type ObservabilityOptions struct {
	// SlowQueryThreshold logs queries whose modeled response time
	// reaches it (0 = off).
	SlowQueryThreshold time.Duration
	// Logger receives engine log lines (nil = no-op).
	Logger LogFunc
}

// WithObservability applies the observability group.
func WithObservability(o ObservabilityOptions) Option {
	return func(c *Config) {
		c.SlowQueryThreshold = o.SlowQueryThreshold
		c.Logger = o.Logger
	}
}

// WithRuntimeFilters toggles runtime join-filter pushdown (DESIGN.md
// §13).
func WithRuntimeFilters(on bool) Option {
	return func(c *Config) { c.RuntimeFilters = on }
}

// WithExecLimits sets the modeled work limit and per-instance row limit
// (Config.ExecWorkLimit / Config.ExecRowLimit). Zero keeps the engine
// defaults; negative work means unlimited.
func WithExecLimits(workLimit float64, rowLimit int64) Option {
	return func(c *Config) {
		if workLimit != 0 {
			c.ExecWorkLimit = workLimit
		}
		if rowLimit != 0 {
			c.ExecRowLimit = rowLimit
		}
	}
}
