package volcano_test

import (
	"flag"
	"fmt"
	"hash/fnv"
	"os"
	"strings"
	"sync"
	"testing"
	"time"

	"gignite"
	"gignite/internal/empdb"
	"gignite/internal/harness"
	"gignite/internal/logical"
	"gignite/internal/ssb"
	"gignite/internal/tpch"
	"gignite/internal/volcano"
)

// updatePlans makes TestPlanGolden rewrite the golden file from the
// current planner instead of comparing against it.
var updatePlans = flag.Bool("update-plans", false, "TestPlanGolden: rewrite testdata/plans.golden from the current planner")

// The plan golden pins the planner's observable output — EXPLAIN text and
// ticket count — for the paper's whole query set: 22 TPC-H + 13 SSB
// queries under IC, IC+ and IC+M at SF 0.002 on 4 sites.
const (
	plansGolden = "../../testdata/plans.golden"
	plansSF     = 0.002
	plansSites  = 4
)

var (
	plansEnvOnce sync.Once
	plansEnv     *harness.Env
)

// planEngine returns the loaded engine for one (benchmark, system) pair;
// the package's tests share the six of them.
func planEngine(tb testing.TB, w harness.Workload, sys harness.System) *gignite.Engine {
	tb.Helper()
	plansEnvOnce.Do(func() { plansEnv = harness.NewEnv() })
	e, err := plansEnv.Engine(w, sys, plansSites, plansSF)
	if err != nil {
		tb.Fatal(err)
	}
	return e
}

// planStatement is one (label, SQL) pair of the golden's query set.
type planStatement struct {
	workload harness.Workload
	label    string
	sql      string
}

func planStatements() []planStatement {
	var out []planStatement
	for _, q := range tpch.Queries() {
		out = append(out, planStatement{harness.TPCH, fmt.Sprintf("tpch/Q%d", q.ID), q.SQL})
	}
	for _, q := range ssb.Queries() {
		out = append(out, planStatement{harness.SSB, "ssb/" + q.ID, q.SQL})
	}
	return out
}

// explainLine explains one statement and renders its golden line: the
// FNV-64a hash of the EXPLAIN text (which ends in its `planner tickets:`
// line) plus the ticket count in clear, or the error text of a statement
// that does not plan (Q15 needs views). It also returns the tickets.
func explainLine(tb testing.TB, e *gignite.Engine, label, query string) (string, int) {
	tb.Helper()
	text, err := e.Explain(query)
	if err != nil {
		return fmt.Sprintf("%s error: %v\n", label, err), 0
	}
	h := fnv.New64a()
	h.Write([]byte(text))
	lines := strings.Split(strings.TrimSpace(text), "\n")
	last := lines[len(lines)-1]
	var n int
	if _, err := fmt.Sscanf(last, "planner tickets: %d", &n); err != nil {
		tb.Fatalf("%s: EXPLAIN ends in %q, not its ticket line", label, last)
	}
	return fmt.Sprintf("%s %016x %s\n", label, h.Sum64(), last), n
}

// renderPlanGolden explains every statement on every system and renders
// one explainLine per pair.
func renderPlanGolden(tb testing.TB) string {
	tb.Helper()
	var sb strings.Builder
	wall := make(map[harness.System]time.Duration)
	tickets := make(map[harness.System]int)
	for _, st := range planStatements() {
		for _, sys := range harness.Systems() {
			e := planEngine(tb, st.workload, sys)
			start := time.Now()
			line, n := explainLine(tb, e, fmt.Sprintf("%s %s", st.label, sys), st.sql)
			wall[sys] += time.Since(start)
			sb.WriteString(line)
			tickets[sys] += n
		}
	}
	// The §4.3 comparison in both currencies (EXPERIMENTS.md E13).
	for _, sys := range harness.Systems() {
		tb.Logf("%-4s planned the set in %v wall, %d tickets", sys, wall[sys].Round(time.Millisecond), tickets[sys])
	}
	return sb.String()
}

// checkPlanGolden compares the rendered golden with the committed one,
// line by line so a failure names the (query, system) pairs that moved.
func checkPlanGolden(t *testing.T, path, got string) {
	t.Helper()
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	want := strings.Split(string(data), "\n")
	have := strings.Split(got, "\n")
	if len(want) != len(have) {
		t.Fatalf("golden has %d lines, planner rendered %d", len(want), len(have))
	}
	for i := range want {
		if want[i] != have[i] {
			t.Errorf("plan changed:\n  golden:  %s\n  planner: %s", want[i], have[i])
		}
	}
}

// TestPlanGolden fails when any of the 105 (query, system) plans or its
// ticket count differs from testdata/plans.golden. The file is only ever
// regenerated (-update-plans) by a PR that means to change plans.
func TestPlanGolden(t *testing.T) {
	got := renderPlanGolden(t)
	if *updatePlans {
		if err := os.WriteFile(plansGolden, []byte(got), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	checkPlanGolden(t, plansGolden, got)
}

// TestPlanGoldenUnderHashCollisions plans the whole golden set with every
// structural hash forced to one value: interning then rests on the
// structural comparison alone, and must still find exactly the same
// groups — same plans, same tickets.
func TestPlanGoldenUnderHashCollisions(t *testing.T) {
	defer volcano.SetConstantHash()()
	checkPlanGolden(t, plansGolden, renderPlanGolden(t))
}

// plansCornersGolden pins the planner away from the presets: every
// TPC-H/SSB statement on IC+M with one planner setting flipped from its
// IC+M value, and on IC+M at 1 and at 8 sites. Rewritten with
// -update-plans, like plans.golden.
const plansCornersGolden = "../../testdata/plans_corners.golden"

// planCorners are the corners: a label, the site count and the one edit
// applied to the IC+M configuration.
var planCorners = []struct {
	label string
	sites int
	edit  func(*gignite.Config)
}{
	{"misestimate10", plansSites, func(c *gignite.Config) { c.StatsMisestimate = 10 }},
	{"legacy-estimator", plansSites, func(c *gignite.Config) { c.SwamiSchieferEstimation = false }},
	{"legacy-units", plansSites, func(c *gignite.Config) { c.StandardCostUnits = false }},
	{"exchange-penalty-bug", plansSites, func(c *gignite.Config) { c.FixExchangePenalty = false }},
	{"no-df", plansSites, func(c *gignite.Config) { c.DistributionFactor = false }},
	{"no-hashjoin", plansSites, func(c *gignite.Config) { c.HashJoin = false }},
	{"no-bcast", plansSites, func(c *gignite.Config) { c.FullyDistributedJoins = false }},
	{"sites1", 1, func(*gignite.Config) {}},
	{"sites8", 8, func(*gignite.Config) {}},
}

// TestPlanCornersGolden fails when any (corner, query) plan or its ticket
// count differs from testdata/plans_corners.golden.
func TestPlanCornersGolden(t *testing.T) {
	var sb strings.Builder
	for _, c := range planCorners {
		cfg := harness.ConfigFor(harness.ICPM, c.sites, plansSF)
		c.edit(&cfg)
		engines := make(map[harness.Workload]*gignite.Engine)
		for _, st := range planStatements() {
			e := engines[st.workload]
			if e == nil {
				e = gignite.Open(gignite.WithConfig(cfg))
				if err := st.workload.Setup(e, plansSF); err != nil {
					t.Fatal(err)
				}
				engines[st.workload] = e
			}
			line, _ := explainLine(t, e, fmt.Sprintf("%s %s", st.label, c.label), st.sql)
			sb.WriteString(line)
		}
	}
	if *updatePlans {
		if err := os.WriteFile(plansCornersGolden, []byte(sb.String()), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	checkPlanGolden(t, plansCornersGolden, sb.String())
}

// empEngine loads the differential tests' emp/dept/sales fixture.
func empEngine(t *testing.T, sys harness.System) *gignite.Engine {
	t.Helper()
	e := gignite.Open(gignite.WithConfig(harness.ConfigFor(sys, plansSites, plansSF)))
	for _, ddl := range empdb.DDL {
		if _, err := e.Exec(ddl); err != nil {
			t.Fatal(err)
		}
	}
	for _, tbl := range empdb.Tables() {
		if err := e.LoadTable(tbl.Name, tbl.Rows); err != nil {
			t.Fatal(err)
		}
	}
	if err := e.Analyze(); err != nil {
		t.Fatal(err)
	}
	return e
}

// internedGroups plans one statement and returns, for every logical node
// the planner interned, its group, keyed by the node's Digest().
func internedGroups(t *testing.T, e *gignite.Engine, query string) (byDigest map[string][]int) {
	t.Helper()
	byDigest = make(map[string][]int)
	byGroup := make(map[int]string)
	defer volcano.ObserveInterning(func(n logical.Node, group int) {
		d := n.Digest()
		if prev, ok := byGroup[group]; ok && prev != d {
			t.Errorf("group %d holds two digests:\n  %s\n  %s", group, prev, d)
		}
		byGroup[group] = d
		for _, g := range byDigest[d] {
			if g == group {
				return
			}
		}
		byDigest[d] = append(byDigest[d], group)
	})()
	// A statement that does not plan (Q15) interns nothing of interest.
	_, _ = e.Explain(query)
	return byDigest
}

// TestGroupsCoincideWithDigests: interning by structure must group
// exactly as the digest-keyed memo did wherever the digest is faithful —
// over the golden's statements and the differential generator's queries,
// every group has one digest and every digest one group. Where the digest
// is lossy the memo must be the stricter of the two: `e.id + 1` and
// `e.id + 1.0` render alike and are different plans.
func TestGroupsCoincideWithDigests(t *testing.T) {
	check := func(e *gignite.Engine, label, query string) {
		for d, groups := range internedGroups(t, e, query) {
			if len(groups) != 1 {
				t.Errorf("%s: digest spread over groups %v: %s", label, groups, d)
			}
		}
	}
	for _, sys := range harness.Systems() {
		for _, st := range planStatements() {
			check(planEngine(t, st.workload, sys), fmt.Sprintf("%s %s", st.label, sys), st.sql)
		}
		emp := empEngine(t, sys)
		gen := empdb.NewGen(0xD1FF)
		for i := 0; i < 120; i++ {
			check(emp, fmt.Sprintf("generated query %d %s", i, sys), gen.Query())
		}

		lossy := internedGroups(t, emp, `SELECT a.v, b.v
			FROM (SELECT e.id AS k, e.id + 1 AS v FROM emp e) a
			JOIN (SELECT e.id AS k, e.id + 1.0 AS v FROM emp e) b ON a.k = b.k`)
		split := 0
		for _, groups := range lossy {
			if len(groups) > 1 {
				split++
			}
		}
		if split == 0 {
			t.Errorf("%s: BIGINT and DOUBLE projections rendering alike share a group", sys)
		}
	}
}
