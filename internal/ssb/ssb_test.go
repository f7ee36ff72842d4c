package ssb

import (
	"fmt"
	"sort"
	"strings"
	"testing"

	"gignite"
	"gignite/internal/types"
)

const testSF = 0.002

func TestGeneratorShapes(t *testing.T) {
	g := NewGen(testSF)
	dates, _ := g.Table("ddate")
	// 1992-01-01 .. 1998-12-31 is 2557 days.
	if len(dates) != 2557 {
		t.Errorf("ddate rows = %d, want 2557", len(dates))
	}
	seen := map[int64]bool{}
	for _, r := range dates {
		k := r[0].Int()
		if seen[k] {
			t.Fatalf("duplicate datekey %d", k)
		}
		seen[k] = true
		y := r[3].Int()
		if y < 1992 || y > 1998 {
			t.Fatalf("d_year out of range: %d", y)
		}
		if r[4].Int() != y*100+int64(monthIndex(r[2].Str())) {
			t.Fatalf("yearmonthnum inconsistent: %v", r)
		}
	}
	lo, _ := g.Table("lineorder")
	counts := g.Counts()
	if int64(len(lo)) != counts["lineorder"] {
		t.Errorf("lineorder rows = %d", len(lo))
	}
	for _, r := range lo {
		if !seen[r[5].Int()] {
			t.Fatalf("lo_orderdate %d not in ddate", r[5].Int())
		}
		if r[2].Int() < 1 || r[2].Int() > counts["customer"] {
			t.Fatalf("lo_custkey out of range")
		}
		if r[11].Int() < 0 || r[11].Int() > 10 {
			t.Fatalf("lo_discount out of range")
		}
	}
}

func monthIndex(name string) int {
	for i, m := range months {
		if m == name {
			return i + 1
		}
	}
	return 0
}

func TestGeneratorDeterminism(t *testing.T) {
	a, _ := NewGen(testSF).Table("lineorder")
	b, _ := NewGen(testSF).Table("lineorder")
	if len(a) != len(b) {
		t.Fatal("nondeterministic size")
	}
	for i := range a {
		if a[i].String() != b[i].String() {
			t.Fatalf("row %d differs", i)
		}
	}
}

func canonical(rows []gignite.Row) []string {
	out := make([]string, len(rows))
	for i, r := range rows {
		parts := make([]string, len(r))
		for j, v := range r {
			if v.K == types.KindFloat {
				parts[j] = fmt.Sprintf("%.2f", v.F)
			} else {
				parts[j] = v.String()
			}
		}
		out[i] = strings.Join(parts, "|")
	}
	sort.Strings(out)
	return out
}

// TestAllSSBQueriesMatchReference runs all 13 queries (including the
// paper-excluded flights — this reproduction's planner handles them) on
// IC+M/4 sites and cross-checks against the reference interpreter.
func TestAllSSBQueriesMatchReference(t *testing.T) {
	e := gignite.Open(gignite.WithPreset(gignite.ICPlusM, 4))
	if err := Setup(e, testSF); err != nil {
		t.Fatal(err)
	}
	for _, q := range Queries() {
		t.Run(q.ID, func(t *testing.T) {
			got, err := e.Query(q.SQL)
			if err != nil {
				t.Fatalf("%s: %v", q.ID, err)
			}
			want, err := e.ReferenceQuery(q.SQL)
			if err != nil {
				t.Fatalf("%s reference: %v", q.ID, err)
			}
			cg, cw := canonical(got.Rows), canonical(want)
			if len(cg) != len(cw) {
				t.Fatalf("%s: %d rows vs reference %d", q.ID, len(cg), len(cw))
			}
			for i := range cg {
				if cg[i] != cw[i] {
					t.Fatalf("%s row %d:\n  engine:    %s\n  reference: %s", q.ID, i, cg[i], cw[i])
				}
			}
		})
	}
}

// TestSSBBaselineRunsIncludedFlights: the flights the paper's §6.4
// evaluation includes (QS1 and QS3) plan and run on the IC baseline under
// the scaled runtime limit. The excluded flights (QS2, QS4) are allowed
// to fail: the paper drops them for Calcite planner timeouts, and this
// reproduction's baseline mis-plans several of them into over-limit
// nested-loop joins (see EXPERIMENTS.md).
func TestSSBBaselineRunsIncludedFlights(t *testing.T) {
	cfg := gignite.IC(4)
	cfg.ExecWorkLimit = 5e10 * testSF
	e := gignite.Open(gignite.WithConfig(cfg))
	if err := Setup(e, testSF); err != nil {
		t.Fatal(err)
	}
	excluded := ExcludedFlights()
	for _, q := range Queries() {
		if excluded[q.Flight] {
			continue
		}
		if _, err := e.Query(q.SQL); err != nil {
			t.Errorf("%s failed on IC: %v", q.ID, err)
		}
	}
}

func TestExcludedFlights(t *testing.T) {
	ex := ExcludedFlights()
	if !ex[2] || !ex[4] || ex[1] || ex[3] {
		t.Errorf("excluded flights = %v", ex)
	}
	var flights [5]int
	for _, q := range Queries() {
		flights[q.Flight]++
	}
	if flights[1] != 3 || flights[2] != 3 || flights[3] != 4 || flights[4] != 3 {
		t.Errorf("flight sizes = %v", flights)
	}
}

// TestRandomSSBQueryDifferential fuzzes star-schema query shapes against
// the reference interpreter.
func TestRandomSSBQueryDifferential(t *testing.T) {
	if testing.Short() {
		t.Skip("loads SSB")
	}
	e := gignite.Open(gignite.WithPreset(gignite.ICPlusM, 4))
	if err := Setup(e, testSF); err != nil {
		t.Fatal(err)
	}
	state := uint64(0x55B)
	next := func() uint64 {
		state = state*6364136223846793005 + 1442695040888963407
		return state >> 33
	}
	intn := func(n int) int { return int(next() % uint64(n)) }
	pick := func(opts ...string) string { return opts[next()%uint64(len(opts))] }

	genQuery := func() string {
		switch intn(4) {
		case 0:
			return fmt.Sprintf(`SELECT d_year, SUM(lo_revenue) FROM lineorder, ddate
				WHERE lo_orderdate = d_datekey AND lo_discount BETWEEN %d AND %d
				GROUP BY d_year ORDER BY d_year`, intn(4), 4+intn(6))
		case 1:
			return fmt.Sprintf(`SELECT c_region, COUNT(*) AS n FROM lineorder, customer
				WHERE lo_custkey = c_custkey AND lo_quantity < %d
				GROUP BY c_region ORDER BY n DESC, c_region`, 5+intn(45))
		case 2:
			return fmt.Sprintf(`SELECT s_nation, SUM(lo_revenue - lo_supplycost) AS profit
				FROM lineorder, supplier, ddate
				WHERE lo_suppkey = s_suppkey AND lo_orderdate = d_datekey
				AND d_year = %d AND s_region = '%s'
				GROUP BY s_nation ORDER BY profit DESC, s_nation`,
				1992+intn(7), pick("ASIA", "AMERICA", "EUROPE"))
		default:
			return fmt.Sprintf(`SELECT p_mfgr, COUNT(*), MAX(lo_extendedprice)
				FROM lineorder, part
				WHERE lo_partkey = p_partkey AND p_size BETWEEN %d AND %d
				GROUP BY p_mfgr ORDER BY p_mfgr`, 1+intn(20), 25+intn(25))
		}
	}
	for i := 0; i < 40; i++ {
		q := genQuery()
		got, err := e.Query(q)
		if err != nil {
			t.Fatalf("fuzz %d: %v\n%s", i, err, q)
		}
		want, err := e.ReferenceQuery(q)
		if err != nil {
			t.Fatalf("fuzz %d reference: %v\n%s", i, err, q)
		}
		cg, cw := canonical(got.Rows), canonical(want)
		if len(cg) != len(cw) {
			t.Fatalf("fuzz %d: %d vs %d rows\n%s", i, len(cg), len(cw), q)
		}
		for r := range cg {
			if cg[r] != cw[r] {
				t.Fatalf("fuzz %d row %d:\n  %s\n  %s\n%s", i, r, cg[r], cw[r], q)
			}
		}
	}
}
