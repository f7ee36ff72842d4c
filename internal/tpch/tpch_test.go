package tpch

import (
	"errors"
	"fmt"
	"sort"
	"strings"
	"testing"

	"gignite"
	"gignite/internal/types"
)

const testSF = 0.002

func setupEngine(t *testing.T, cfg gignite.Config) *gignite.Engine {
	t.Helper()
	e := gignite.Open(gignite.WithConfig(cfg))
	if err := Setup(e, testSF); err != nil {
		t.Fatal(err)
	}
	return e
}

func TestGeneratorDeterministicAndSized(t *testing.T) {
	g1, g2 := NewGen(testSF), NewGen(testSF)
	for _, table := range TableNames() {
		r1, err := g1.Table(table)
		if err != nil {
			t.Fatal(err)
		}
		r2, _ := g2.Table(table)
		if len(r1) != len(r2) {
			t.Fatalf("%s: nondeterministic row count", table)
		}
		for i := range r1 {
			if r1[i].String() != r2[i].String() {
				t.Fatalf("%s row %d differs", table, i)
			}
		}
	}
	counts := g1.Counts()
	if counts["region"] != 5 || counts["nation"] != 25 {
		t.Errorf("fixed tables sized wrong: %v", counts)
	}
	if counts["orders"] < counts["customer"] {
		t.Errorf("orders (%d) should exceed customers (%d)", counts["orders"], counts["customer"])
	}
	line, _ := g1.Table("lineitem")
	perOrder := float64(len(line)) / float64(counts["orders"])
	if perOrder < 3 || perOrder > 5 {
		t.Errorf("lineitem per order = %.2f, want ~4", perOrder)
	}
}

func TestGeneratorDistributions(t *testing.T) {
	g := NewGen(testSF)
	line, _ := g.Table("lineitem")
	var promo, shipped int
	for _, r := range line {
		ship := r[10]
		commit := r[11]
		receipt := r[12]
		if receipt.I <= ship.I {
			t.Fatal("receiptdate before shipdate")
		}
		if commit.IsNull() || ship.IsNull() {
			t.Fatal("null dates")
		}
		if r[4].Float() < 1 || r[4].Float() > 50 {
			t.Fatalf("quantity out of range: %v", r[4])
		}
		if r[6].Float() < 0 || r[6].Float() > 0.10 {
			t.Fatalf("discount out of range: %v", r[6])
		}
		shipped++
	}
	parts, _ := g.Table("part")
	for _, r := range parts {
		typ := r[4].Str()
		if strings.HasPrefix(typ, "PROMO") {
			promo++
		}
		if r[5].Int() < 1 || r[5].Int() > 50 {
			t.Fatalf("p_size out of range: %v", r[5])
		}
	}
	if promo == 0 {
		t.Error("no PROMO parts generated (Q14 would be trivial)")
	}
	// Q22 needs customers in the named country codes; codes are 10..34.
	cust, _ := g.Table("customer")
	codes := map[string]bool{}
	for _, r := range cust {
		codes[r[4].Str()[:2]] = true
	}
	if !codes["13"] && !codes["17"] && !codes["23"] {
		t.Error("no customers in Q22 country codes")
	}
}

func TestPartsuppReferentialIntegrity(t *testing.T) {
	g := NewGen(testSF)
	counts := g.Counts()
	ps, _ := g.Table("partsupp")
	if int64(len(ps)) != counts["part"]*4 {
		t.Fatalf("partsupp rows = %d, want %d", len(ps), counts["part"]*4)
	}
	for _, r := range ps {
		if r[0].Int() < 1 || r[0].Int() > counts["part"] {
			t.Fatalf("ps_partkey out of range: %v", r[0])
		}
		if r[1].Int() < 1 || r[1].Int() > counts["supplier"] {
			t.Fatalf("ps_suppkey out of range: %v", r[1])
		}
	}
	// lineitem (partkey, suppkey) pairs must exist in partsupp.
	valid := map[[2]int64]bool{}
	for _, r := range ps {
		valid[[2]int64{r[0].Int(), r[1].Int()}] = true
	}
	line, _ := g.Table("lineitem")
	for _, r := range line {
		if !valid[[2]int64{r[1].Int(), r[2].Int()}] {
			t.Fatalf("lineitem references missing partsupp (%d, %d)", r[1].Int(), r[2].Int())
		}
	}
}

// icFailures is the set of queries that fail on THIS reproduction's IC
// baseline at testSF with the matching work limit: Q2 (nested-loop chains
// from the §4.1 estimation collapse), Q17 and Q21 (NLJ plans for the
// correlated subqueries). The paper's baseline additionally fails Q5, Q9
// (Calcite memo blowup our DP search does not reproduce) and Q19 (whose
// quadratic NLJ only exceeds the limit at larger scale factors); see
// EXPERIMENTS.md §failure-matrix for the comparison.
var icFailures = map[int]bool{2: true, 17: true, 21: true}

// icWorkLimit is the execution work limit equivalent to the paper's
// four-hour cap at testSF (the harness scales it linearly with SF).
const icWorkLimit = 1e8

// canonical renders rows order-insensitively. Floats are rounded to two
// decimals: distributed partial aggregation sums floats in a different
// order than the reference interpreter, so the last bits can differ.
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

// approxEqualRows compares canonical row strings, allowing float fields a
// relative tolerance (re-parsed from the canonical encoding).
func approxEqualRows(a, b string) bool {
	if a == b {
		return true
	}
	fa, fb := strings.Split(a, "|"), strings.Split(b, "|")
	if len(fa) != len(fb) {
		return false
	}
	for i := range fa {
		if fa[i] == fb[i] {
			continue
		}
		var x, y float64
		if _, err := fmt.Sscanf(fa[i], "%f", &x); err != nil {
			return false
		}
		if _, err := fmt.Sscanf(fb[i], "%f", &y); err != nil {
			return false
		}
		diff := x - y
		if diff < 0 {
			diff = -diff
		}
		scale := 1.0
		if x > 1 || x < -1 {
			if x < 0 {
				scale = -x
			} else {
				scale = x
			}
		}
		if diff/scale > 1e-6 && diff > 0.011 {
			return false
		}
	}
	return true
}

// TestAllQueriesICPlusMatchReference is the headline integration test:
// every runnable TPC-H query planned and executed by IC+ on a 4-site
// cluster must return the same rows as the naive reference interpreter.
func TestAllQueriesICPlusMatchReference(t *testing.T) {
	e := setupEngine(t, gignite.ICPlus(4))
	for _, q := range Queries() {
		if q.RequiresViews {
			continue
		}
		t.Run(fmt.Sprintf("Q%d", q.ID), func(t *testing.T) {
			got, err := e.Query(q.SQL)
			if err != nil {
				t.Fatalf("Q%d: %v", q.ID, err)
			}
			want, err := e.ReferenceQuery(q.SQL)
			if err != nil {
				t.Fatalf("Q%d reference: %v", q.ID, err)
			}
			cg, cw := canonical(got.Rows), canonical(want)
			if len(cg) != len(cw) {
				t.Fatalf("Q%d: %d rows vs reference %d", q.ID, len(cg), len(cw))
			}
			for i := range cg {
				if !approxEqualRows(cg[i], cw[i]) {
					t.Fatalf("Q%d row %d:\n  engine:    %s\n  reference: %s", q.ID, i, cg[i], cw[i])
				}
			}
		})
	}
}

// TestICPlusMAgreesWithICPlus checks that multithreading changes no
// results.
func TestICPlusMAgreesWithICPlus(t *testing.T) {
	a := setupEngine(t, gignite.ICPlus(4))
	b := setupEngine(t, gignite.ICPlusM(4))
	for _, q := range Queries() {
		if q.RequiresViews {
			continue
		}
		ra, err := a.Query(q.SQL)
		if err != nil {
			t.Fatalf("Q%d IC+: %v", q.ID, err)
		}
		rb, err := b.Query(q.SQL)
		if err != nil {
			t.Fatalf("Q%d IC+M: %v", q.ID, err)
		}
		ca, cb := canonical(ra.Rows), canonical(rb.Rows)
		if len(ca) != len(cb) {
			t.Fatalf("Q%d: IC+ %d rows, IC+M %d rows", q.ID, len(ca), len(cb))
		}
		for i := range ca {
			if !approxEqualRows(ca[i], cb[i]) {
				t.Fatalf("Q%d row %d differs between IC+ and IC+M:\n  %s\n  %s", q.ID, i, ca[i], cb[i])
			}
		}
	}
}

// TestQ15FailsWithViews reproduces the paper's Q15 exclusion.
func TestQ15FailsWithViews(t *testing.T) {
	e := setupEngine(t, gignite.ICPlus(4))
	q := QueryByID(15)
	if q == nil || !q.RequiresViews {
		t.Fatal("Q15 not marked as requiring views")
	}
	_, err := e.Exec(q.Setup[0])
	if !errors.Is(err, gignite.ErrViewsUnsupported) {
		t.Errorf("CREATE VIEW error = %v", err)
	}
}

// TestBaselineFailureMatrix pins the IC baseline's failure set: the
// mis-planned subquery/NLJ queries exceed the runtime limit, everything
// else plans and executes.
func TestBaselineFailureMatrix(t *testing.T) {
	cfg := gignite.IC(4)
	cfg.ExecWorkLimit = icWorkLimit
	e := gignite.Open(gignite.WithConfig(cfg))
	if err := Setup(e, testSF); err != nil {
		t.Fatal(err)
	}
	for _, q := range Queries() {
		if q.RequiresViews {
			continue
		}
		_, err := e.Query(q.SQL)
		switch {
		case icFailures[q.ID] && !errors.Is(err, gignite.ErrQueryTimeout):
			t.Errorf("Q%d should exceed the IC runtime limit, got %v", q.ID, err)
		case !icFailures[q.ID] && err != nil:
			t.Errorf("Q%d failed on IC: %v", q.ID, err)
		}
	}
}

// TestICPlusRunsAllBaselineFailures: every baseline-failing query plans
// and executes quickly on IC+ — the paper's headline §6.2.1 result.
func TestICPlusRunsAllBaselineFailures(t *testing.T) {
	cfg := gignite.ICPlus(4)
	cfg.ExecWorkLimit = icWorkLimit
	e := gignite.Open(gignite.WithConfig(cfg))
	if err := Setup(e, testSF); err != nil {
		t.Fatal(err)
	}
	for id := range icFailures {
		q := QueryByID(id)
		if _, err := e.Query(q.SQL); err != nil {
			t.Errorf("Q%d failed on IC+: %v", id, err)
		}
	}
}

// TestQ15WithExperimentalViews: the view-support extension (beyond the
// paper's system) lets Q15 plan and execute; its results must match the
// equivalent view-inlined query.
func TestQ15WithExperimentalViews(t *testing.T) {
	cfg := gignite.ICPlus(4)
	cfg.ExperimentalViews = true
	e := gignite.Open(gignite.WithConfig(cfg))
	if err := Setup(e, testSF); err != nil {
		t.Fatal(err)
	}
	q := QueryByID(15)
	for _, setup := range q.Setup {
		if _, err := e.Exec(setup); err != nil {
			t.Fatalf("view setup: %v", err)
		}
	}
	got, err := e.Query(q.SQL)
	if err != nil {
		t.Fatalf("Q15: %v", err)
	}
	// Inline the view by hand and compare.
	inlined := `
SELECT s_suppkey, s_name, s_address, s_phone, total_revenue
FROM supplier, (
    SELECT l_suppkey AS supplier_no,
           SUM(l_extendedprice * (1 - l_discount)) AS total_revenue
    FROM lineitem
    WHERE l_shipdate >= DATE '1996-01-01'
      AND l_shipdate < DATE '1996-01-01' + INTERVAL '3' MONTH
    GROUP BY l_suppkey) AS revenue0
WHERE s_suppkey = supplier_no
  AND total_revenue = (
      SELECT MAX(total_revenue) FROM (
          SELECT l_suppkey AS supplier_no,
                 SUM(l_extendedprice * (1 - l_discount)) AS total_revenue
          FROM lineitem
          WHERE l_shipdate >= DATE '1996-01-01'
            AND l_shipdate < DATE '1996-01-01' + INTERVAL '3' MONTH
          GROUP BY l_suppkey) AS revenue1)
ORDER BY s_suppkey`
	want, err := e.Query(inlined)
	if err != nil {
		t.Fatalf("inlined Q15: %v", err)
	}
	cg, cw := canonical(got.Rows), canonical(want.Rows)
	if len(cg) != len(cw) || len(cg) == 0 {
		t.Fatalf("rows: view %d vs inlined %d", len(cg), len(cw))
	}
	for i := range cg {
		if !approxEqualRows(cg[i], cw[i]) {
			t.Fatalf("row %d: %s vs %s", i, cg[i], cw[i])
		}
	}
	// Duplicate view names are rejected.
	if _, err := e.Exec(q.Setup[0]); err == nil {
		t.Error("duplicate view accepted")
	}
	// Default configurations still reject views (paper fidelity).
	plain := gignite.Open(gignite.WithPreset(gignite.ICPlus, 2))
	if _, err := plain.Exec(`CREATE VIEW v AS SELECT 1`); err == nil {
		t.Error("views accepted without the extension flag")
	}
}
