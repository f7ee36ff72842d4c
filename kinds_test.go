package gignite_test

import (
	"fmt"
	"math"
	"strings"
	"testing"

	"gignite"
	"gignite/internal/empdb"
	"gignite/internal/harness"
	"gignite/internal/ssb"
	"gignite/internal/tpch"
	"gignite/internal/types"
)

// The binder types every column, and the reference evaluator shares the
// binder with the engine: a binder that merges two expressions of
// different kinds makes both return the same wrong column, so no
// differential test sees it. These tests check the invariant instead —
// each non-NULL value a SELECT returns has its column's declared kind —
// and pin the kinds the regressions below once lost.

// checkKinds runs q on e and fails on any non-NULL cell whose kind is not
// the one its bound column declares.
func checkKinds(t *testing.T, e *gignite.Engine, label, q string) {
	t.Helper()
	lp, err := e.BindLogical(q)
	if err != nil {
		t.Fatalf("%s: bind: %v", label, err)
	}
	res, err := e.Query(q)
	if err != nil {
		t.Fatalf("%s: %v", label, err)
	}
	schema := lp.Schema()
	for i, row := range res.Rows {
		for c, v := range row {
			if !v.IsNull() && v.K != schema[c].Kind {
				t.Fatalf("%s: row %d column %s is %s, declared %s\n%s", label, i, schema[c].Name, v.K, schema[c].Kind, q)
			}
		}
	}
}

// TestResultKindsMatchDeclaredKinds checks the invariant over every
// non-view TPC-H query, every SSB query and the employee schema's random
// query generator.
func TestResultKindsMatchDeclaredKinds(t *testing.T) {
	const sf = 0.002
	for _, w := range []harness.Workload{harness.TPCH, harness.SSB} {
		e := gignite.Open(gignite.WithConfig(harness.ConfigFor(harness.ICPlus, 4, sf)))
		if err := w.Setup(e, sf); err != nil {
			t.Fatal(err)
		}
		if w == harness.TPCH {
			for _, q := range tpch.Queries() {
				if !q.RequiresViews {
					checkKinds(t, e, fmt.Sprintf("TPC-H Q%d", q.ID), q.SQL)
				}
			}
		} else {
			for _, q := range ssb.Queries() {
				checkKinds(t, e, "SSB "+q.ID, q.SQL)
			}
		}
	}

	e := openEmployees(t)
	gen := empdb.NewGen(0x6B1D)
	for i := 0; i < 200; i++ {
		checkKinds(t, e, fmt.Sprintf("empdb %d", i), gen.Query())
	}
}

// openEmployees loads the employee schema on IC+ at four sites.
func openEmployees(t *testing.T) *gignite.Engine {
	t.Helper()
	e := gignite.Open(gignite.WithConfig(harness.ConfigFor(harness.ICPlus, 4, 0.001)))
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

// TestAggregatesKeepLiteralKinds: `x*1` and `x*1.0` render alike, and an
// aggregate matched by its rendering computed the second as the first —
// a BIGINT where a DOUBLE was asked for, in the engine and the reference
// alike. Both columns must keep their own kind and value, in either order.
func TestAggregatesKeepLiteralKinds(t *testing.T) {
	e := gignite.Open(gignite.WithConfig(harness.ConfigFor(harness.ICPlus, 4, 0.001)))
	for _, s := range []string{
		`CREATE TABLE t (id INT, x INT, PRIMARY KEY (id))`,
		`INSERT INTO t VALUES (1, 1), (2, 2), (3, 3), (4, 4)`,
	} {
		if _, err := e.Exec(s); err != nil {
			t.Fatal(err)
		}
	}
	// The BIGINT sum of x·999999³ over x = 1..4 wraps; the DOUBLE one is
	// about 1e19.
	var wrapped int64
	big := int64(999999)
	for x := int64(1); x <= 4; x++ {
		wrapped += x * big * big * big
	}
	i, f := types.NewInt, types.NewFloat
	for _, c := range []struct {
		q    string
		want []types.Value
	}{
		{`SELECT SUM(x*1), SUM(x*1.0) FROM t`, []types.Value{i(10), f(10)}},
		{`SELECT SUM(x*1.0), SUM(x*1) FROM t`, []types.Value{f(10), i(10)}},
		{`SELECT MAX(x+1), MAX(x+1.0) FROM t`, []types.Value{i(5), f(5)}},
		{`SELECT SUM(x*999999*999999*999999), SUM(x*999999.0*999999*999999) FROM t`,
			[]types.Value{i(wrapped), f(10 * 999999.0 * 999999 * 999999)}},
		{`SELECT SUM(x*999999.0*999999*999999), SUM(x*999999*999999*999999) FROM t`,
			[]types.Value{f(10 * 999999.0 * 999999 * 999999), i(wrapped)}},
	} {
		res, err := e.Query(c.q)
		if err != nil {
			t.Fatalf("%s: %v", c.q, err)
		}
		ref, err := e.ReferenceQuery(c.q)
		if err != nil {
			t.Fatalf("reference %s: %v", c.q, err)
		}
		for _, rows := range [][]gignite.Row{res.Rows, ref} {
			if len(rows) != 1 || len(rows[0]) != len(c.want) {
				t.Fatalf("%s: got %v, want one row %v", c.q, rows, c.want)
			}
			for col, want := range c.want {
				got := rows[0][col]
				if got.K != want.K || got.I != want.I ||
					math.Abs(got.F-want.F) > 1e-12*math.Abs(want.F) {
					t.Errorf("%s: column %d = %v (%s), want %v (%s)", c.q, col, got, got.K, want, want.K)
				}
			}
		}
	}

	// A DOUBLE expression is not its BIGINT look-alike's group, so it is
	// neither grouped nor aggregated (PostgreSQL rejects it too).
	const q = `SELECT x+1.0 FROM t GROUP BY x+1`
	const msg = "must appear in the GROUP BY clause"
	if _, err := e.Query(q); err == nil || !strings.Contains(err.Error(), msg) {
		t.Errorf("%s: err = %v, want %q", q, err, msg)
	}
	if _, err := e.ReferenceQuery(q); err == nil || !strings.Contains(err.Error(), msg) {
		t.Errorf("reference %s: err = %v, want %q", q, err, msg)
	}
}
