package harness

import (
	"fmt"
	"strings"
	"testing"
	"time"

	"gignite"
)

// Harness tests run at a tiny scale factor and a single site pair to stay
// fast; the full protocol is exercised by cmd/benchrunner.
func tinyOpts() Options {
	return Options{SFs: []float64{0.002}, Sites: []int{4}, Clients: []int{2}, Env: NewEnv()}
}

// Value returns a cell.
func (r *Report) Value(label, column string) (string, bool) {
	for _, row := range r.rows {
		if row.label == label {
			v, ok := row.values[column]
			return v, ok
		}
	}
	return "", false
}

// Labels returns the row labels in order.
func (r *Report) Labels() []string {
	out := make([]string, len(r.rows))
	for i, row := range r.rows {
		out[i] = row.label
	}
	return out
}

func TestConfigForVariants(t *testing.T) {
	ic := ConfigFor(IC, 4, 0.01)
	if ic.HashJoin || ic.TwoPhaseOptimization || ic.SwamiSchieferEstimation {
		t.Error("IC config has improvements enabled")
	}
	icp := ConfigFor(ICPlus, 4, 0.01)
	if !icp.HashJoin || !icp.TwoPhaseOptimization || icp.VariantFragments > 1 {
		t.Error("IC+ config wrong")
	}
	icpm := ConfigFor(ICPM, 4, 0.01)
	if icpm.VariantFragments != 2 {
		t.Error("IC+M should run 2 variant fragments")
	}
	if ic.ExecWorkLimit != WorkLimitFor(0.01) {
		t.Error("work limit not scaled")
	}
}

func TestEnvCachesEngines(t *testing.T) {
	env := NewEnv()
	a, err := env.Engine(TPCH, ICPlus, 4, 0.002)
	if err != nil {
		t.Fatal(err)
	}
	b, err := env.Engine(TPCH, ICPlus, 4, 0.002)
	if err != nil {
		t.Fatal(err)
	}
	if a != b {
		t.Error("engine not cached")
	}
	c, err := env.Engine(TPCH, IC, 4, 0.002)
	if err != nil {
		t.Fatal(err)
	}
	if a == c {
		t.Error("different systems share an engine")
	}
	// Engine options are fixed per Env, so the same point under different
	// options is a different engine in a different Env — never a stale one
	// built before a knob changed.
	backed := NewEnv(func(c *gignite.Config) { c.Backups = 1 })
	d, err := backed.Engine(TPCH, ICPlus, 4, 0.002)
	if err != nil {
		t.Fatal(err)
	}
	if d == a || d.Config().Backups != 1 || a.Config().Backups != 0 {
		t.Errorf("Envs with different options share an engine or its configuration (backups %d and %d)",
			a.Config().Backups, d.Config().Backups)
	}
	if d2, _ := backed.Engine(TPCH, ICPlus, 4, 0.002); d2 != d {
		t.Error("engine not cached in the second Env")
	}
}

func TestResponseTimeProtocol(t *testing.T) {
	env := NewEnv()
	e, err := env.Engine(TPCH, ICPlus, 4, 0.002)
	if err != nil {
		t.Fatal(err)
	}
	d, err := ResponseTime(e, "SELECT COUNT(*) FROM region")
	if err != nil {
		t.Fatal(err)
	}
	if d <= 0 {
		t.Errorf("response time = %v", d)
	}
}

func TestReportRendering(t *testing.T) {
	rep := NewReport("Demo", "a", "b")
	rep.Add("Q1", "1.00x", "2.00x")
	rep.Add("Q2", "3.00x", "4.00x")
	rep.Note("hello %d", 42)
	out := rep.Render()
	for _, want := range []string{"Demo", "Q1", "2.00x", "note: hello 42"} {
		if !strings.Contains(out, want) {
			t.Errorf("render missing %q:\n%s", want, out)
		}
	}
	if v, ok := rep.Value("Q2", "b"); !ok || v != "4.00x" {
		t.Errorf("Value = %q, %v", v, ok)
	}
	if labels := rep.Labels(); len(labels) != 2 || labels[0] != "Q1" {
		t.Errorf("labels = %v", labels)
	}
}

func TestSimulateAQLShape(t *testing.T) {
	base := []time.Duration{time.Second, 2 * time.Second}
	one := simulateAQL(base, 1, 1.0)
	if one < 1.0 || one > 2.0 {
		t.Errorf("AQL with no contention = %v, want within base range", one)
	}
	// Contention scales latency linearly.
	contended := simulateAQL(base, 1, 2.0)
	if contended < 2*one*0.9 {
		t.Errorf("contended AQL = %v vs %v", contended, one)
	}
	if got := simulateAQL(nil, 2, 1); got != 0 {
		t.Errorf("empty AQL = %v", got)
	}
}

func TestAQLContentionShape(t *testing.T) {
	// The Table 3 mechanism: at 2 clients IC+M's doubled threads still fit
	// within the cores (no extra penalty); at 4 and 8 clients they exceed
	// the core count and IC+M degrades faster than IC/IC+.
	if aqlContention(ICPM, 2) != aqlContention(IC, 2) {
		t.Errorf("2 clients: IC+M %v vs IC %v — threads fit, no penalty expected",
			aqlContention(ICPM, 2), aqlContention(IC, 2))
	}
	for _, clients := range []int{4, 8} {
		ic := aqlContention(IC, clients)
		icpm := aqlContention(ICPM, clients)
		if icpm <= ic {
			t.Errorf("%d clients: IC+M contention %v <= IC %v", clients, icpm, ic)
		}
	}
	if aqlContention(IC, 8) <= aqlContention(IC, 2) {
		t.Error("contention must grow with clients")
	}
	// 8 clients x 3.5 threads exceeds 24 cores: even IC pays a little.
	if aqlContention(IC, 8) <= 1+0.15*7 {
		t.Error("over-core term missing for IC at 8 clients")
	}
}

// TestFig11Shape runs the SSB figure at tiny scale and checks the paper's
// qualitative result: every included query improves, and flight 3's mean
// improvement exceeds flight 1's.
func TestFig11Shape(t *testing.T) {
	if testing.Short() {
		t.Skip("loads SSB twice")
	}
	rep, err := Fig11(tinyOpts())
	if err != nil {
		t.Fatal(err)
	}
	var f1, f3 []float64
	for _, label := range rep.Labels() {
		cell, _ := rep.Value(label, "speedup")
		var v float64
		if _, err := fmt.Sscanf(cell, "%fx", &v); err != nil {
			t.Fatalf("%s: bad cell %q", label, cell)
		}
		if v < 0.9 {
			t.Errorf("%s regressed: %v", label, cell)
		}
		if strings.HasPrefix(label, "Q1.") {
			f1 = append(f1, v)
		} else {
			f3 = append(f3, v)
		}
	}
	if mean(f3) <= mean(f1) {
		t.Errorf("flight 3 mean (%v) should exceed flight 1 mean (%v)", mean(f3), mean(f1))
	}
}

func mean(vs []float64) float64 {
	if len(vs) == 0 {
		return 0
	}
	var s float64
	for _, v := range vs {
		s += v
	}
	return s / float64(len(vs))
}

// TestFig7Shape pins the headline reproduction claims at a tiny scale:
// IC+ is at least as fast as IC (within noise) on every comparable query,
// strictly faster on several, and exactly equal-plan (≈1.0x) on Q1/Q6/Q12.
func TestFig7Shape(t *testing.T) {
	if testing.Short() {
		t.Skip("loads four TPC-H engines")
	}
	// SF 0.005 is the smallest scale where data volume dominates the fixed
	// network/thread constants; below it the distributed plans' message
	// overheads drown their gains (DESIGN.md §8.5).
	rep, err := Fig7(Options{SFs: []float64{0.005}, Sites: []int{4}, Env: NewEnv()})
	if err != nil {
		t.Fatal(err)
	}
	var big int
	for _, label := range rep.Labels() {
		cell, _ := rep.Value(label, "4 sites")
		var v float64
		if _, err := fmt.Sscanf(cell, "%fx", &v); err != nil {
			t.Fatalf("%s: bad cell %q", label, cell)
		}
		if v < 0.90 {
			t.Errorf("%s regressed under IC+: %s", label, cell)
		}
		if v > 1.3 {
			big++
		}
		switch label {
		case "Q1", "Q6", "Q12":
			if v < 0.95 || v > 1.1 {
				t.Errorf("%s should produce the same plan as IC (≈1.0x), got %s", label, cell)
			}
		}
	}
	if big < 4 {
		t.Errorf("only %d queries improved >1.3x; the paper's large-gain set is missing", big)
	}
}

// checkShape fails unless rep has exactly the given columns and row
// labels and every cell passes ok.
func checkShape(t *testing.T, rep *Report, columns, labels []string, ok func(cell string) bool) {
	t.Helper()
	if strings.Join(rep.Columns, "|") != strings.Join(columns, "|") {
		t.Errorf("columns %q, want %q", rep.Columns, columns)
	}
	if strings.Join(rep.Labels(), "|") != strings.Join(labels, "|") {
		t.Errorf("rows %q, want %q", rep.Labels(), labels)
	}
	for _, label := range rep.Labels() {
		for _, c := range rep.Columns {
			if cell, _ := rep.Value(label, c); !ok(cell) {
				t.Errorf("%s/%s: cell %q", label, c, cell)
			}
		}
	}
}

// positive reports whether cell is a number (with an optional x suffix)
// above zero.
func positive(cell string) bool {
	var v float64
	_, err := fmt.Sscanf(strings.TrimSuffix(cell, "x"), "%g", &v)
	return err == nil && v > 0
}

// queryLabels returns "Q<id>" for each id.
func queryLabels(ids ...int) []string {
	out := make([]string, len(ids))
	for i, id := range ids {
		out[i] = fmt.Sprintf("Q%d", id)
	}
	return out
}

// TestFig8ColumnsFollowSites: the speedup figures head one column per
// requested site count, so an 8-site run is not printed under "4 sites".
func TestFig8ColumnsFollowSites(t *testing.T) {
	if testing.Short() {
		t.Skip("loads two 8-site TPC-H engines")
	}
	rep, err := Fig8(Options{SFs: []float64{0.002}, Sites: []int{8}, Env: NewEnv()})
	if err != nil {
		t.Fatal(err)
	}
	checkShape(t, rep, []string{"8 sites"}, queryLabels(1, 3, 4, 6, 7, 8, 10, 11, 12, 13, 14, 16, 18, 22), positive)
}

func TestFig9Shape(t *testing.T) {
	if testing.Short() {
		t.Skip("loads two TPC-H engines")
	}
	rep, err := Fig9(tinyOpts())
	if err != nil {
		t.Fatal(err)
	}
	checkShape(t, rep, []string{"IC+ (ms)", "IC+M (ms)", "delta"},
		queryLabels(1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12, 13, 14, 16, 17, 18, 19, 21, 22),
		func(cell string) bool { return cell != "n/a" && cell != "" })
}

func TestTable3Shape(t *testing.T) {
	if testing.Short() {
		t.Skip("loads three TPC-H engines")
	}
	rep, err := Table3(tinyOpts())
	if err != nil {
		t.Fatal(err)
	}
	checkShape(t, rep, []string{"IC/4 sites", "IC+/4 sites", "IC+M/4 sites"},
		[]string{"2 clients", "4 clients", "8 clients"}, positive)
}

func TestScalingShape(t *testing.T) {
	if testing.Short() {
		t.Skip("loads three TPC-H engines")
	}
	rep, err := Scaling(tinyOpts())
	if err != nil {
		t.Fatal(err)
	}
	checkShape(t, rep, []string{"IC@0.002", "IC+@0.002", "IC+M@0.002"}, queryLabels(1, 3, 6, 12, 14), positive)
}

// TestServeAQLShape drives two database/sql clients over loopback TCP:
// every submitted query must come back without an error.
func TestServeAQLShape(t *testing.T) {
	if testing.Short() {
		t.Skip("loads a TPC-H engine and serves it over TCP")
	}
	rep, err := ServeAQL(tinyOpts())
	if err != nil {
		t.Fatal(err)
	}
	checkShape(t, rep, []string{"AQL", "queries", "errors"}, []string{"2 clients"},
		func(cell string) bool { return cell != "" })
	if v, _ := rep.Value("2 clients", "queries"); v != fmt.Sprint(2*queriesPerClient) {
		t.Errorf("completed queries %q, want %d", v, 2*queriesPerClient)
	}
	if v, _ := rep.Value("2 clients", "errors"); v != "0" {
		t.Errorf("errors %q", v)
	}
}

// TestAblationOpensEnginesThroughEnv: the ablation's engines take the
// Env's options like every other experiment's. The option here runs once
// per engine and sets a work limit no query fits in, so every ablation
// row must count every query as a failure.
func TestAblationOpensEnginesThroughEnv(t *testing.T) {
	if testing.Short() {
		t.Skip("loads ten TPC-H engines")
	}
	opened := 0
	env := NewEnv(func(c *gignite.Config) {
		opened++
		c.ExecWorkLimit = 1
	})
	rep, err := Ablation(Options{SFs: []float64{0.002}, Env: env})
	if err != nil {
		t.Fatal(err)
	}
	if want := 1 + len(AblationFlags()); opened != want {
		t.Errorf("the Env option ran %d times, want once for each of %d engines", opened, want)
	}
	for _, label := range rep.Labels() {
		if v, _ := rep.Value(label, "failures"); v != fmt.Sprint(len(ablationQueries)) {
			t.Errorf("%s: %s failures, want all %d queries over the work limit", label, v, len(ablationQueries))
		}
	}
}
