package gignite

import (
	"testing"
	"time"
)

// TestOptionsApplyInOrder pins the one rule of the option layer: options
// apply in order, field by field, and nothing is reset that no option
// named.
func TestOptionsApplyInOrder(t *testing.T) {
	backups := func(c *Config) { c.Backups = 1 }
	governed := func(c *Config) { c.MaxConcurrentQueries = 3 }

	cfg := Open(WithPreset(ICPlusM, 4), backups, governed, WithPlanCache(8)).Config()
	if cfg.Backups != 1 || cfg.MaxConcurrentQueries != 3 || cfg.PlanCacheSize != 8 || cfg.VariantFragments != 2 {
		t.Errorf("a later option reset an earlier option's field: %+v", cfg)
	}
	// A later option wins on the field both set.
	if got := Open(WithPlanCache(8), WithPlanCache(2)).Config().PlanCacheSize; got != 2 {
		t.Errorf("PlanCacheSize = %d, want the later option's 2", got)
	}
	// WithPreset (like WithConfig) replaces the whole configuration.
	cfg = Open(backups, WithPreset(IC, 2)).Config()
	if cfg.Backups != 0 || cfg.Sites != 2 || cfg.HashJoin {
		t.Errorf("WithPreset kept earlier fields: %+v", cfg)
	}

	// The zero Config is a usable engine: the IC baseline on one site,
	// clocked on the default hardware profile.
	e := setupEmployees(t, Config{})
	res := mustExec(t, e, `SELECT dept_id, COUNT(*) FROM emp GROUP BY dept_id`)
	if len(res.Rows) != 4 {
		t.Errorf("zero Config: %d groups, want 4", len(res.Rows))
	}
	// An infinite or NaN makespan converts to a negative or huge Duration.
	if res.Modeled <= 0 || res.Modeled > time.Minute {
		t.Errorf("zero Config: modeled time %v, want finite and positive", res.Modeled)
	}
}
