package hep

import (
	"strings"
	"testing"

	"gignite/internal/catalog"
	"gignite/internal/expr"
	"gignite/internal/logical"
	"gignite/internal/rules"
	"gignite/internal/types"
)

func scan(name string, cols ...string) *logical.Scan {
	t := &catalog.Table{Name: name, PrimaryKey: []string{cols[0]}}
	for _, c := range cols {
		t.Columns = append(t.Columns, catalog.Column{Name: c, Kind: types.KindInt})
	}
	return logical.NewScan(t, "")
}

func col(i int) expr.Expr { return expr.NewColRef(i, types.KindInt, "") }

func TestFilterPushesThroughJoin(t *testing.T) {
	// Filter(a.x > 5 AND a.x = b.y) over cross join → filter on left +
	// equi-join condition.
	a := scan("a", "x", "x2")
	b := scan("b", "y")
	join := logical.NewJoin(a, b, logical.JoinInner, expr.True)
	pred := expr.NewBinOp(expr.OpAnd,
		expr.NewBinOp(expr.OpGt, col(0), expr.NewLit(types.NewInt(5))),
		expr.NewBinOp(expr.OpEq, col(0), col(2)))
	plan := logical.NewFilter(join, pred)

	out := RunGroups(plan, rules.Stage1Groups(rules.Config{FilterCorrelate: true}))

	// Top node should now be the join (filter fully absorbed).
	j, ok := out.(*logical.Join)
	if !ok {
		t.Fatalf("top = %T\n%s", out, out.Digest())
	}
	if expr.IsLiteralTrue(j.Cond) {
		t.Errorf("join condition not installed:\n%s", out.Digest())
	}
	if _, ok := j.Left.(*logical.Filter); !ok {
		t.Errorf("left filter not pushed:\n%s", out.Digest())
	}
}

func TestFilterCorrelateGate(t *testing.T) {
	a := scan("a", "x")
	b := scan("b", "y")
	join := logical.NewJoin(a, b, logical.JoinSemi,
		expr.NewBinOp(expr.OpEq, col(0), col(1)))
	join.FromCorrelate = true
	pred := expr.NewBinOp(expr.OpGt, col(0), expr.NewLit(types.NewInt(5)))
	plan := logical.NewFilter(join, pred)

	// Without FILTER_CORRELATE (the IC baseline), the filter stays above.
	ic := RunGroups(plan, rules.Stage1Groups(rules.Config{}))
	if _, ok := ic.(*logical.Filter); !ok {
		t.Fatalf("baseline pushed past correlate:\n%s", ic.Digest())
	}
	// With the rule (IC+), it crosses into the left input.
	icplus := RunGroups(plan, rules.Stage1Groups(rules.Config{FilterCorrelate: true}))
	j, ok := icplus.(*logical.Join)
	if !ok {
		t.Fatalf("top = %T", icplus)
	}
	if _, ok := j.Left.(*logical.Filter); !ok {
		t.Errorf("filter not pushed into left:\n%s", icplus.Digest())
	}
}

func TestFilterMergesAndFolds(t *testing.T) {
	a := scan("a", "x")
	inner := logical.NewFilter(a, expr.NewBinOp(expr.OpGt, col(0), expr.NewLit(types.NewInt(1))))
	outer := logical.NewFilter(inner, expr.NewBinOp(expr.OpAnd, expr.True,
		expr.NewBinOp(expr.OpLt, col(0), expr.NewLit(types.NewInt(10)))))
	out := RunGroups(outer, rules.Stage1Groups(rules.Config{}))
	f, ok := out.(*logical.Filter)
	if !ok {
		t.Fatalf("top = %T", out)
	}
	if _, ok := f.Input.(*logical.Scan); !ok {
		t.Errorf("filters not merged:\n%s", out.Digest())
	}
	if strings.Contains(f.Cond.String(), "true") {
		t.Errorf("TRUE not folded: %s", f.Cond)
	}
}

func TestFilterThroughProjectAndSort(t *testing.T) {
	a := scan("a", "x", "y")
	proj := logical.NewProject(a, []expr.Expr{col(1), col(0)}, []string{"y", "x"})
	sorted := logical.NewSort(proj, []types.SortKey{{Col: 0}})
	plan := logical.NewFilter(sorted, expr.NewBinOp(expr.OpGt, col(1), expr.NewLit(types.NewInt(3))))
	out := RunGroups(plan, rules.Stage1Groups(rules.Config{}))
	// The filter must land directly on the scan, rewritten to x > 3 (col 0).
	var f *logical.Filter
	logical.Walk(out, func(n logical.Node) bool {
		if ff, ok := n.(*logical.Filter); ok {
			f = ff
		}
		return true
	})
	if f == nil {
		t.Fatalf("no filter:\n%s", out.Digest())
	}
	if _, ok := f.Input.(*logical.Scan); !ok {
		t.Errorf("filter not pushed to scan:\n%s", out.Digest())
	}
	if !strings.Contains(f.Cond.String(), "$0") {
		t.Errorf("filter not remapped through project: %s", f.Cond)
	}
}

func TestJoinConditionSimplification(t *testing.T) {
	// (c1∧c2) ∨ (c1∧c3) as join condition → c1 extracted and, being an
	// equi key, kept in the join while the residual OR remains.
	a := scan("a", "x", "p")
	b := scan("b", "y", "q")
	c1 := expr.NewBinOp(expr.OpEq, col(0), col(2))
	c2 := expr.NewBinOp(expr.OpGt, col(1), expr.NewLit(types.NewInt(1)))
	c3 := expr.NewBinOp(expr.OpGt, col(3), expr.NewLit(types.NewInt(2)))
	cond := expr.NewBinOp(expr.OpOr,
		expr.NewBinOp(expr.OpAnd, c1, c2),
		expr.NewBinOp(expr.OpAnd, c1, c3))
	join := logical.NewJoin(a, b, logical.JoinInner, cond)

	out := New(rules.LogicalPhaseRules(rules.Config{
		FilterCorrelate:             true,
		JoinConditionSimplification: true,
	})).Optimize(join)

	j, ok := out.(*logical.Join)
	if !ok {
		t.Fatalf("top = %T\n%s", out, out.Digest())
	}
	keys, _ := expr.SplitJoinCondition(j.Cond, 2)
	if len(keys) != 1 {
		t.Errorf("extracted equi key missing: cond = %s", j.Cond)
	}
	// Without the rule, the OR stays opaque: no equi keys.
	noRule := New(rules.LogicalPhaseRules(rules.Config{FilterCorrelate: true})).Optimize(join)
	jn := noRule.(*logical.Join)
	keys, _ = expr.SplitJoinCondition(jn.Cond, 2)
	if len(keys) != 0 {
		t.Errorf("baseline unexpectedly extracted keys: %s", jn.Cond)
	}
}

func TestJoinConditionLiteralBecomesFilter(t *testing.T) {
	// (c1∧c2) ∨ (c1∧c3) where c1 = literal condition on the left input:
	// after extraction it must end up as a filter on the left input.
	a := scan("a", "x", "p")
	b := scan("b", "y", "q")
	c1 := expr.NewBinOp(expr.OpEq, col(0), expr.NewLit(types.NewInt(123)))
	c2 := expr.NewBinOp(expr.OpGt, col(3), expr.NewLit(types.NewInt(1)))
	c3 := expr.NewBinOp(expr.OpLt, col(3), expr.NewLit(types.NewInt(9)))
	cond := expr.NewBinOp(expr.OpOr,
		expr.NewBinOp(expr.OpAnd, c1, c2),
		expr.NewBinOp(expr.OpAnd, c1, c3))
	join := logical.NewJoin(a, b, logical.JoinInner, cond)
	out := New(rules.LogicalPhaseRules(rules.Config{
		FilterCorrelate:             true,
		JoinConditionSimplification: true,
	})).Optimize(join)
	j := out.(*logical.Join)
	if _, ok := j.Left.(*logical.Filter); !ok {
		t.Errorf("literal condition not pushed to left input:\n%s", out.Digest())
	}
}

func TestTrivialProjectRemoved(t *testing.T) {
	a := scan("a", "x", "y")
	proj := logical.IdentityProject(a, []int{0, 1})
	out := RunGroups(proj, rules.Stage1Groups(rules.Config{}))
	if _, ok := out.(*logical.Scan); !ok {
		t.Errorf("identity project kept: %T", out)
	}
}

func TestFixpointTerminates(t *testing.T) {
	// A deep filter/project stack must converge well inside the pass bound.
	plan := logical.Node(scan("a", "x"))
	for i := 0; i < 20; i++ {
		plan = logical.NewFilter(plan, expr.NewBinOp(expr.OpGt, col(0), expr.NewLit(types.NewInt(int64(i)))))
	}
	p := New(rules.Stage1Groups(rules.Config{})[0])
	out := p.Optimize(plan)
	f, ok := out.(*logical.Filter)
	if !ok {
		t.Fatalf("top = %T", out)
	}
	if _, ok := f.Input.(*logical.Scan); !ok {
		t.Error("filters not fully merged")
	}
	if p.Fired == 0 {
		t.Error("no rules fired")
	}
}
