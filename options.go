package gignite

// Option sets fields of the engine configuration during Open. Options
// apply in order, field by field: a later option wins over an earlier one
// on the fields both set, and nothing is reset that no option named.
// Config is the one configuration surface, so any func(*Config) is an
// Option:
//
//	gignite.Open(gignite.WithPreset(gignite.ICPlusM, 4),
//	        func(c *gignite.Config) { c.Backups = 1; c.AdaptiveExec = true })
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

// WithPlanCache sets the LRU plan-cache capacity in cached plans
// (DESIGN.md §15). 0 disables caching.
func WithPlanCache(size int) Option {
	return func(c *Config) { c.PlanCacheSize = size }
}
