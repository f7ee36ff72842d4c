package rules

import (
	"testing"

	"gignite/internal/catalog"
	"gignite/internal/expr"
	"gignite/internal/logical"
	"gignite/internal/types"
)

func scan(name string, cols ...string) *logical.Scan {
	t := &catalog.Table{Name: name, PrimaryKey: []string{cols[0]}}
	for _, c := range cols {
		t.Columns = append(t.Columns, catalog.Column{Name: c, Kind: types.KindInt})
	}
	return logical.NewScan(t, "")
}

func col(i int) expr.Expr   { return expr.NewColRef(i, types.KindInt, "") }
func lit(v int64) expr.Expr { return expr.NewLit(types.NewInt(v)) }

func apply(t *testing.T, r Rule, n logical.Node) (logical.Node, bool) {
	t.Helper()
	out, changed := r.Apply(n)
	if changed && out.Digest() == n.Digest() {
		t.Errorf("%T reported change without changing the plan", r)
	}
	return out, changed
}

func TestFilterMergeRule(t *testing.T) {
	a := scan("a", "x")
	inner := logical.NewFilter(a, expr.NewBinOp(expr.OpGt, col(0), lit(1)))
	outer := logical.NewFilter(inner, expr.NewBinOp(expr.OpLt, col(0), lit(9)))
	out, changed := apply(t, filterMerge{}, outer)
	if !changed {
		t.Fatal("did not fire")
	}
	f := out.(*logical.Filter)
	if _, ok := f.Input.(*logical.Scan); !ok {
		t.Errorf("not merged: %s", out.Digest())
	}
	if len(expr.SplitConjuncts(f.Cond)) != 2 {
		t.Errorf("cond = %s", f.Cond)
	}
	// No inner filter: no change.
	if _, changed := apply(t, filterMerge{}, inner); changed {
		t.Error("fired without stacked filters")
	}
}

func TestProjectRemoveKeepsRenames(t *testing.T) {
	a := scan("a", "x", "y")
	ident := logical.IdentityProject(a, []int{0, 1})
	if _, changed := apply(t, projectRemove{}, ident); !changed {
		t.Error("identity projection kept")
	}
	renamed := logical.NewProject(a, []expr.Expr{
		expr.NewColRef(0, types.KindInt, "a.x"),
		expr.NewColRef(1, types.KindInt, "a.y"),
	}, []string{"renamed_x", "a.y"})
	if _, changed := apply(t, projectRemove{}, renamed); changed {
		t.Error("renaming projection removed (names would be lost)")
	}
}

func TestProjectMergeSubstitutes(t *testing.T) {
	a := scan("a", "x", "y")
	inner := logical.NewProject(a,
		[]expr.Expr{expr.NewBinOp(expr.OpAdd, col(0), col(1))}, []string{"s"})
	outer := logical.NewProject(inner,
		[]expr.Expr{expr.NewBinOp(expr.OpMul, col(0), lit(2))}, []string{"d"})
	out, changed := apply(t, projectMerge{}, outer)
	if !changed {
		t.Fatal("did not fire")
	}
	p := out.(*logical.Project)
	if _, ok := p.Input.(*logical.Scan); !ok {
		t.Fatalf("not merged")
	}
	// ($0+$1)*2 over the scan.
	row := types.Row{types.NewInt(3), types.NewInt(4)}
	if got := p.Exprs[0].Eval(row); got.Int() != 14 {
		t.Errorf("substituted expr evaluates to %v", got)
	}
}

func TestFilterIntoJoinSemiPushesLeftOnly(t *testing.T) {
	a := scan("a", "x")
	b := scan("b", "y")
	semi := logical.NewJoin(a, b, logical.JoinSemi,
		expr.NewBinOp(expr.OpEq, col(0), col(1)))
	pred := expr.NewBinOp(expr.OpGt, col(0), lit(5))
	f := logical.NewFilter(semi, pred)
	out, changed := apply(t, filterIntoJoin{filterCorrelate: true}, f)
	if !changed {
		t.Fatal("did not fire")
	}
	j := out.(*logical.Join)
	if _, ok := j.Left.(*logical.Filter); !ok {
		t.Errorf("left filter missing:\n%s", out.Digest())
	}
}

func TestFilterIntoJoinLeftOuterKeepsRightConjuncts(t *testing.T) {
	a := scan("a", "x")
	b := scan("b", "y")
	lj := logical.NewJoin(a, b, logical.JoinLeft,
		expr.NewBinOp(expr.OpEq, col(0), col(1)))
	// A right-side conjunct above a left join must NOT be pushed below
	// (it would change NULL-padding semantics).
	pred := expr.NewBinOp(expr.OpGt, col(1), lit(5))
	f := logical.NewFilter(lj, pred)
	_, changed := apply(t, filterIntoJoin{filterCorrelate: true}, f)
	if changed {
		t.Error("right-side conjunct pushed below a left join")
	}
}

func TestJoinPushConditions(t *testing.T) {
	a := scan("a", "x")
	b := scan("b", "y")
	cond := expr.Conjunction([]expr.Expr{
		expr.NewBinOp(expr.OpEq, col(0), col(1)),
		expr.NewBinOp(expr.OpGt, col(0), lit(3)), // left only
		expr.NewBinOp(expr.OpLt, col(1), lit(9)), // right only
	})
	j := logical.NewJoin(a, b, logical.JoinInner, cond)
	out, changed := apply(t, joinPushConditions{}, j)
	if !changed {
		t.Fatal("did not fire")
	}
	nj := out.(*logical.Join)
	if _, ok := nj.Left.(*logical.Filter); !ok {
		t.Error("left conjunct not pushed")
	}
	if _, ok := nj.Right.(*logical.Filter); !ok {
		t.Error("right conjunct not pushed")
	}
	keys, rest := expr.SplitJoinCondition(nj.Cond, 1)
	if len(keys) != 1 || len(rest) != 0 {
		t.Errorf("remaining cond = %s", nj.Cond)
	}
	// Left joins: only the right side is pushable from the ON clause.
	lj := logical.NewJoin(a, b, logical.JoinLeft, cond)
	out, _ = apply(t, joinPushConditions{}, lj)
	nlj := out.(*logical.Join)
	if _, ok := nlj.Left.(*logical.Filter); ok {
		t.Error("left conjunct pushed below preserved side of a left join")
	}
	if _, ok := nlj.Right.(*logical.Filter); !ok {
		t.Error("right conjunct not pushed below left join")
	}
}

func TestFilterAggregateTransposeRemaps(t *testing.T) {
	a := scan("a", "x", "y")
	agg := logical.NewAggregate(a, []int{1},
		[]expr.AggCall{{Func: expr.AggCount, Name: "n"}})
	// Filter on the group column (output 0 = input column 1).
	f := logical.NewFilter(agg, expr.NewBinOp(expr.OpEq, col(0), lit(7)))
	out, changed := apply(t, filterAggregateTranspose{}, f)
	if !changed {
		t.Fatal("did not fire")
	}
	na := out.(*logical.Aggregate)
	inner, ok := na.Input.(*logical.Filter)
	if !ok {
		t.Fatalf("no pushed filter:\n%s", out.Digest())
	}
	cols := expr.ColumnsUsed(inner.Cond)
	if _, ok := cols[1]; len(cols) != 1 || !ok {
		t.Errorf("pushed cond references %v, want input column 1", cols)
	}
	// Filter on the aggregate output must stay above.
	f2 := logical.NewFilter(agg, expr.NewBinOp(expr.OpGt, col(1), lit(3)))
	if _, changed := apply(t, filterAggregateTranspose{}, f2); changed {
		t.Error("aggregate-column filter pushed below the aggregate")
	}
}

func TestConstantFoldRule(t *testing.T) {
	a := scan("a", "x")
	f := logical.NewFilter(a, expr.NewBinOp(expr.OpAnd, expr.True,
		expr.NewBinOp(expr.OpGt, col(0), lit(1))))
	out, changed := apply(t, constantFold{}, f)
	if !changed {
		t.Fatal("did not fire")
	}
	if d := out.Digest(); len(d) >= len(f.Digest()) {
		t.Errorf("fold did not simplify: %s", d)
	}
}

func TestStage1GroupShapes(t *testing.T) {
	groups := Stage1Groups(Config{FilterCorrelate: true})
	if len(groups) != 3 {
		t.Fatalf("groups = %d", len(groups))
	}
	// The paper's first stage: 3, 7 and 5 rules.
	want := []int{3, 7, 5}
	for i, g := range groups {
		if len(g) != want[i] {
			t.Errorf("group %d has %d rules, want %d", i, len(g), want[i])
		}
	}
	logical := LogicalPhaseRules(Config{JoinConditionSimplification: true})
	without := LogicalPhaseRules(Config{})
	if len(logical) != len(without)+1 {
		t.Error("JoinConditionSimplification flag has no effect")
	}
}
