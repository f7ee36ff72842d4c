package expr_test

import (
	"fmt"
	"testing"

	"gignite"
	"gignite/internal/empdb"
	"gignite/internal/expr"
	"gignite/internal/harness"
	"gignite/internal/ssb"
	"gignite/internal/tpch"
	"gignite/internal/types"
)

// TestKernelsCoverThePlans: every filter condition, projection, join
// residual and aggregate argument of the plan golden's 105 plans (22
// TPC-H + 13 SSB queries on IC, IC+ and IC+M) and of the differential
// generator's emp/dept/sales queries compiles to native kernels, with no
// Eval leaf but CASE and function calls. Prepare plans a statement and
// compiles its plan without running it.
func TestKernelsCoverThePlans(t *testing.T) {
	var leaves, allowed, prepared int
	defer expr.ObserveLeaves(func(e expr.Expr) {
		switch e.(type) {
		case *expr.Case, *expr.Func:
			allowed++
		default:
			leaves++
			t.Errorf("%T compiled to an Eval leaf: %s", e, e)
		}
	})()
	prepare := func(e *gignite.Engine, label, sql string) {
		if _, err := e.Prepare(sql); err == nil {
			prepared++
		} else if label != "tpch/Q15" {
			t.Errorf("%s: %v", label, err)
		}
	}
	env := harness.NewEnv()
	for _, sys := range harness.Systems() {
		te, err := env.Engine(harness.TPCH, sys, 4, 0.002)
		if err != nil {
			t.Fatal(err)
		}
		for _, q := range tpch.Queries() {
			prepare(te, fmt.Sprintf("tpch/Q%d", q.ID), q.SQL)
		}
		se, err := env.Engine(harness.SSB, sys, 4, 0.002)
		if err != nil {
			t.Fatal(err)
		}
		for _, q := range ssb.Queries() {
			prepare(se, "ssb/"+q.ID, q.SQL)
		}
		ee := gignite.Open(gignite.WithConfig(harness.ConfigFor(sys, 4, 0.002)))
		for _, ddl := range empdb.DDL {
			if _, err := ee.Exec(ddl); err != nil {
				t.Fatal(err)
			}
		}
		for _, tbl := range empdb.Tables() {
			if err := ee.LoadTable(tbl.Name, tbl.Rows); err != nil {
				t.Fatal(err)
			}
		}
		if err := ee.Analyze(); err != nil {
			t.Fatal(err)
		}
		g := empdb.NewGen(7)
		for i := 0; i < 100; i++ {
			q := g.Query()
			prepare(ee, q, q)
		}
	}
	// 34 of the 35 benchmark queries on three systems, 100 generated ones
	// on each; TPC-H's CASE expressions (Q8, Q12, Q14) prove the hook live.
	if prepared != 3*(34+100) || allowed == 0 {
		t.Errorf("prepared %d statements (want %d), saw %d CASE/function leaves", prepared, 3*(34+100), allowed)
	}
}

// lineitem column ordinals (internal/tpch/schema.go).
const (
	lQuantity      = 4
	lExtendedprice = 5
	lDiscount      = 6
	lTax           = 7
	lShipdate      = 10
	lShipinstruct  = 13
	lShipmode      = 14
)

// BenchmarkExprKernels times the TPC-H Q1, Q6 and Q19 (lineitem-side)
// predicates and Q1's projection over SF 0.01 lineitem in 128-row
// batches, interpreted (the Eval loops the executor ran before kernels)
// and compiled, in ns per row.
func BenchmarkExprKernels(b *testing.B) {
	rows, err := tpch.NewGen(0.01).Table("lineitem")
	if err != nil {
		b.Fatal(err)
	}
	c := func(i int, k types.Kind) expr.Expr { return expr.NewColRef(i, k, "") }
	f := func(i int) expr.Expr { return c(i, types.KindFloat) }
	lit := expr.NewLit
	date := func(s string) expr.Expr {
		d, err := types.ParseDate(s)
		if err != nil {
			b.Fatal(err)
		}
		return lit(d)
	}
	bin := expr.NewBinOp
	and := func(l, r expr.Expr) expr.Expr { return bin(expr.OpAnd, l, r) }
	shipdate := c(lShipdate, types.KindDate)
	one := lit(types.NewInt(1))
	disc := bin(expr.OpMul, f(lExtendedprice), bin(expr.OpSub, one, f(lDiscount)))
	q19 := func(lo, hi int64, modes ...string) expr.Expr {
		list := make([]expr.Expr, len(modes))
		for i, m := range modes {
			list[i] = lit(types.NewString(m))
		}
		return and(and(and(bin(expr.OpGe, f(lQuantity), lit(types.NewInt(lo))),
			bin(expr.OpLe, f(lQuantity), lit(types.NewInt(hi)))),
			expr.NewInList(c(lShipmode, types.KindString), list, false)),
			bin(expr.OpEq, c(lShipinstruct, types.KindString), lit(types.NewString("DELIVER IN PERSON"))))
	}
	preds := []struct {
		name string
		e    expr.Expr
	}{
		{"Q1", bin(expr.OpLe, shipdate, date("1998-09-02"))},
		{"Q6", and(and(and(bin(expr.OpGe, shipdate, date("1994-01-01")), bin(expr.OpLt, shipdate, date("1995-01-01"))),
			and(bin(expr.OpGe, f(lDiscount), lit(types.NewFloat(0.05))), bin(expr.OpLe, f(lDiscount), lit(types.NewFloat(0.07))))),
			bin(expr.OpLt, f(lQuantity), lit(types.NewInt(24))))},
		{"Q19", bin(expr.OpOr, bin(expr.OpOr, q19(1, 11, "AIR", "AIR REG"), q19(10, 20, "AIR", "AIR REG")),
			q19(20, 30, "AIR", "AIR REG"))},
	}
	proj := []expr.Expr{c(8, types.KindString), c(9, types.KindString), f(lQuantity), f(lExtendedprice),
		disc, bin(expr.OpMul, disc, bin(expr.OpAdd, one, f(lTax))), f(lDiscount)}

	const batch = 128
	perRow := func(b *testing.B) {
		b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N)/float64(len(rows)), "ns/row")
	}
	for _, p := range preds {
		b.Run(p.name+"/eval", func(b *testing.B) {
			out := make([]types.Row, 0, batch)
			for i := 0; i < b.N; i++ {
				for lo := 0; lo < len(rows); lo += batch {
					out = out[:0]
					for _, r := range rows[lo:min(lo+batch, len(rows))] {
						if v := p.e.Eval(r); v.K == types.KindBool && v.Bool() {
							out = append(out, r)
						}
					}
				}
			}
			perRow(b)
		})
		b.Run(p.name+"/kernel", func(b *testing.B) {
			k := expr.CompilePredicate(p.e)
			out := make([]types.Row, 0, batch)
			for i := 0; i < b.N; i++ {
				for lo := 0; lo < len(rows); lo += batch {
					out = k.Select(out[:0], rows[lo:min(lo+batch, len(rows))])
				}
			}
			perRow(b)
		})
	}
	w := len(proj)
	vals := make([]types.Value, batch*w)
	b.Run("Q1-project/eval", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			for lo := 0; lo < len(rows); lo += batch {
				for n, r := range rows[lo:min(lo+batch, len(rows))] {
					for j, e := range proj {
						vals[n*w+j] = e.Eval(r)
					}
				}
			}
		}
		perRow(b)
	})
	b.Run("Q1-project/kernel", func(b *testing.B) {
		ks := make([]*expr.Scalar, w)
		for j, e := range proj {
			ks[j] = expr.CompileScalar(e)
		}
		for i := 0; i < b.N; i++ {
			for lo := 0; lo < len(rows); lo += batch {
				for j, k := range ks {
					k.Fill(rows[lo:min(lo+batch, len(rows))], vals[j:], w)
				}
			}
		}
		perRow(b)
	})
}
