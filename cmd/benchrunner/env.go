package main

import (
	"gignite"
	"gignite/internal/harness"
	"gignite/internal/tpch"
)

// expEnv is the shared experiment-environment builder: one experiment
// point (system, sites, scale factor, host parallelism) from which the
// smoke experiments derive identically loaded engines that differ only
// in the knobs under test. Loading goes through tpch.Setup so every
// engine sees the same deterministic dataset; a load failure is fatal
// under the experiment's name.
type expEnv struct {
	name  string
	sys   harness.System
	sites int
	sf    float64
	par   int
}

// open builds and loads one engine, applying mut (which may be nil) to
// the point's base configuration before opening.
func (x expEnv) open(mut func(*gignite.Config)) *gignite.Engine {
	cfg := harness.ConfigFor(x.sys, x.sites, x.sf)
	cfg.ExecParallelism = x.par
	if mut != nil {
		mut(&cfg)
	}
	e := gignite.Open(gignite.WithConfig(cfg))
	if err := tpch.Setup(e, x.sf); err != nil {
		fatalf("%s: %v", x.name, err)
	}
	return e
}
