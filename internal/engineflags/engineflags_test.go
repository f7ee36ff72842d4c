package engineflags

import (
	"flag"
	"io"
	"reflect"
	"strings"
	"testing"

	"gignite"
)

// resolve parses one flag line the way cmd/gignite and cmd/gignited bind
// the registry (plan cache 64, governance flags bound) and applies the
// options resolved for 4 sites at SF 0.01 to a zero Config.
func resolve(line string) (gignite.Config, error) {
	fs := flag.NewFlagSet("test", flag.ContinueOnError)
	fs.SetOutput(io.Discard)
	v := Bind(fs, 64)
	v.BindGovernance(fs)
	if err := fs.Parse(strings.Fields(line)); err != nil {
		return gignite.Config{}, err
	}
	opts, err := v.Options(4, 0.01)
	if err != nil {
		return gignite.Config{}, err
	}
	var cfg gignite.Config
	for _, opt := range opts {
		opt(&cfg)
	}
	return cfg, nil
}

// TestFlagLinesResolveToConfig pins flag → Config: each flag sets exactly
// its field over the -system preset with its execution limits scaled to
// the scale factor, and nothing else moves.
func TestFlagLinesResolveToConfig(t *testing.T) {
	crash, err := gignite.ParseFaults("seed=7;crash=2@4")
	if err != nil {
		t.Fatal(err)
	}
	for _, tc := range []struct {
		line   string
		preset func(int) gignite.Config
		want   func(*gignite.Config)
	}{
		{"", gignite.ICPlusM, func(c *gignite.Config) {}},
		{"-system ic", gignite.IC, func(c *gignite.Config) {}},
		{"-system ic -backups 1 -par 2", gignite.IC, func(c *gignite.Config) {
			c.Backups, c.ExecParallelism = 1, 2
		}},
		{"-system ICPlus -plancache 0", gignite.ICPlus, func(c *gignite.Config) {
			c.PlanCacheSize = 0
		}},
		{"-adaptive -misestimate 10", gignite.ICPlusM, func(c *gignite.Config) {
			c.AdaptiveExec, c.StatsMisestimate = true, 10
		}},
		{"-misestimate 10", gignite.ICPlusM, func(c *gignite.Config) {
			c.StatsMisestimate = 10
		}},
		{"-admission 3 -maxmem 1048576 -querymem 4096", gignite.ICPlusM, func(c *gignite.Config) {
			c.MaxConcurrentQueries, c.MemoryBudgetBytes, c.QueryMemLimitBytes = 3, 1<<20, 4096
		}},
		{"-backups 1 -faults seed=7;crash=2@4", gignite.ICPlusM, func(c *gignite.Config) {
			c.Backups, c.Faults = 1, crash
		}},
	} {
		want := tc.preset(4)
		want.PlanCacheSize = 64
		// harness.ConfigFor's limits at SF 0.01: both scale, the row limit
		// from the presets' 25,000,000 down to 5,000,000.
		want.ExecWorkLimit, want.ExecRowLimit = 5e8, 5e6
		tc.want(&want)
		got, err := resolve(tc.line)
		if err != nil {
			t.Errorf("%q: %v", tc.line, err)
		} else if !reflect.DeepEqual(got, want) {
			t.Errorf("%q resolved to\n %+v\nwant\n %+v", tc.line, got, want)
		}
	}
}

func TestBadFlagValues(t *testing.T) {
	for line, want := range map[string]string{
		"-faults crash=oops": "-faults:",
		"-system ic++":       `unknown -system "ic++" (want ic, ic+ or ic+m)`,
	} {
		if _, err := resolve(line); err == nil || !strings.Contains(err.Error(), want) {
			t.Errorf("%q: error %v, want one containing %q", line, err, want)
		}
	}
}
