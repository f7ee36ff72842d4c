package expr

import (
	"sort"
	"testing"

	"gignite/internal/types"
)

func TestSplitConjunctsAndRebuild(t *testing.T) {
	a := NewBinOp(OpEq, col(0), intLit(1))
	b := NewBinOp(OpGt, col(1), intLit(2))
	c := NewBinOp(OpLt, col(2), intLit(3))
	e := NewBinOp(OpAnd, NewBinOp(OpAnd, a, b), c)
	parts := SplitConjuncts(e)
	if len(parts) != 3 {
		t.Fatalf("SplitConjuncts = %d parts", len(parts))
	}
	rebuilt := Conjunction(parts)
	if !Equal(rebuilt, e) {
		t.Errorf("Conjunction round trip: %s vs %s", rebuilt, e)
	}
	if got := Conjunction(nil); !IsLiteralTrue(got) {
		t.Errorf("Conjunction(nil) = %s", got)
	}
	if got := Disjunction(nil); !IsLiteralFalse(got) {
		t.Errorf("Disjunction(nil) = %s", got)
	}
}

func TestSplitDisjuncts(t *testing.T) {
	a := NewBinOp(OpEq, col(0), intLit(1))
	b := NewBinOp(OpEq, col(0), intLit(2))
	e := NewBinOp(OpOr, a, b)
	parts := SplitDisjuncts(e)
	if len(parts) != 2 {
		t.Fatalf("SplitDisjuncts = %d parts", len(parts))
	}
}

func TestColumnsUsed(t *testing.T) {
	e := NewBinOp(OpAnd,
		NewBinOp(OpEq, col(0), col(3)),
		NewBinOp(OpGt, col(5), intLit(1)))
	s := ColumnsUsed(e)
	want := []int{0, 3, 5}
	got := ordered(s)
	if len(got) != len(want) {
		t.Fatalf("ColumnsUsed = %v", got)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("ColumnsUsed = %v, want %v", got, want)
		}
	}
	if !s.AllBelow(6) || s.AllBelow(5) {
		t.Error("AllBelow wrong")
	}
	if !ColumnsUsed(intLit(1)).AllBelow(0) {
		t.Error("empty set AllBelow failed")
	}
}

// ordered lists a column set in ascending order.
func ordered(s ColumnSet) []int {
	out := make([]int, 0, len(s))
	for c := range s {
		out = append(out, c)
	}
	sort.Ints(out)
	return out
}

func TestRemapAndShift(t *testing.T) {
	e := NewBinOp(OpEq, col(1), col(3))
	mapped := Remap(e, []int{-1, 0, -1, 1})
	cols := ordered(ColumnsUsed(mapped))
	if len(cols) != 2 || cols[0] != 0 || cols[1] != 1 {
		t.Errorf("Remap produced columns %v", cols)
	}
	shifted := Shift(e, 2, 10)
	cols = ordered(ColumnsUsed(shifted))
	if len(cols) != 2 || cols[0] != 1 || cols[1] != 13 {
		t.Errorf("Shift produced columns %v", cols)
	}
}

func TestRemapUnmappedPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("Remap over unmapped column did not panic")
		}
	}()
	Remap(col(2), []int{0, 1})
}

func TestIsConstant(t *testing.T) {
	if !IsConstant(NewBinOp(OpAdd, intLit(1), intLit(2))) {
		t.Error("1+2 not constant")
	}
	if IsConstant(NewBinOp(OpAdd, col(0), intLit(2))) {
		t.Error("$0+2 reported constant")
	}
}

func TestFold(t *testing.T) {
	// Constant arithmetic folds.
	e := NewBinOp(OpMul, intLit(6), intLit(7))
	if f, ok := Fold(e).(*Lit); !ok || f.Val.Int() != 42 {
		t.Errorf("Fold(6*7) = %s", Fold(e))
	}
	// TRUE AND x folds to x.
	x := NewBinOp(OpGt, col(0), intLit(1))
	if got := Fold(NewBinOp(OpAnd, True, x)); !Equal(got, x) {
		t.Errorf("Fold(TRUE AND x) = %s", got)
	}
	// x AND FALSE folds to FALSE.
	if got := Fold(NewBinOp(OpAnd, x, False)); !IsLiteralFalse(got) {
		t.Errorf("Fold(x AND FALSE) = %s", got)
	}
	// FALSE OR x folds to x.
	if got := Fold(NewBinOp(OpOr, False, x)); !Equal(got, x) {
		t.Errorf("Fold(FALSE OR x) = %s", got)
	}
	// NOT NOT x folds to x.
	if got := Fold(NewNot(NewNot(x))); !Equal(got, x) {
		t.Errorf("Fold(NOT NOT x) = %s", got)
	}
	// Nested constant folding.
	nested := NewBinOp(OpAnd, NewBinOp(OpLt, intLit(1), intLit(2)), x)
	if got := Fold(nested); !Equal(got, x) {
		t.Errorf("Fold((1<2) AND x) = %s", got)
	}
}

func TestExtractCommonConjuncts(t *testing.T) {
	// (c1 AND c2) OR (c1 AND c3) -> c1 AND (c2 OR c3)
	c1 := NewBinOp(OpEq, col(0), col(4))
	c2 := NewBinOp(OpGt, col(1), intLit(5))
	c3 := NewBinOp(OpLt, col(2), intLit(9))
	pred := NewBinOp(OpOr,
		NewBinOp(OpAnd, c1, c2),
		NewBinOp(OpAnd, c1, c3))
	common, residual := ExtractCommonConjuncts(pred)
	if len(common) != 1 || !Equal(common[0], c1) {
		t.Fatalf("common = %v", common)
	}
	wantResidual := NewBinOp(OpOr, c2, c3)
	if !Equal(residual, wantResidual) {
		t.Errorf("residual = %s, want %s", residual, wantResidual)
	}
}

func TestExtractCommonConjunctsThreeWay(t *testing.T) {
	// The paper's Q19 shape: (c1∧c2∧c3) ∨ (c1∧c4∧c5) ∨ (c1∧c6∧c7).
	mk := func(i int) Expr { return NewBinOp(OpGt, col(i), intLit(int64(i))) }
	c1 := NewBinOp(OpEq, col(0), col(9))
	pred := Disjunction([]Expr{
		Conjunction([]Expr{c1, mk(2), mk(3)}),
		Conjunction([]Expr{c1, mk(4), mk(5)}),
		Conjunction([]Expr{c1, mk(6), mk(7)}),
	})
	common, residual := ExtractCommonConjuncts(pred)
	if len(common) != 1 || !Equal(common[0], c1) {
		t.Fatalf("common = %v", common)
	}
	if len(SplitDisjuncts(residual)) != 3 {
		t.Errorf("residual should stay a 3-way OR: %s", residual)
	}
}

func TestExtractCommonConjunctsNone(t *testing.T) {
	c2 := NewBinOp(OpGt, col(1), intLit(5))
	c3 := NewBinOp(OpLt, col(2), intLit(9))
	pred := NewBinOp(OpOr, c2, c3)
	common, residual := ExtractCommonConjuncts(pred)
	if common != nil {
		t.Errorf("common = %v on disjoint OR", common)
	}
	if !Equal(residual, pred) {
		t.Errorf("residual changed: %s", residual)
	}
	// Not an OR at all.
	common, residual = ExtractCommonConjuncts(c2)
	if common != nil || !Equal(residual, c2) {
		t.Error("non-OR input was rewritten")
	}
}

func TestExtractCommonConjunctsSemanticEquivalence(t *testing.T) {
	// The rewrite must preserve evaluation on all inputs.
	c1 := NewBinOp(OpGt, col(0), intLit(0))
	c2 := NewBinOp(OpGt, col(1), intLit(0))
	c3 := NewBinOp(OpGt, col(2), intLit(0))
	pred := NewBinOp(OpOr,
		NewBinOp(OpAnd, c1, c2),
		NewBinOp(OpAnd, c1, c3))
	common, residual := ExtractCommonConjuncts(pred)
	rewritten := NewBinOp(OpAnd, Conjunction(common), residual)
	for a := int64(-1); a <= 1; a++ {
		for b := int64(-1); b <= 1; b++ {
			for c := int64(-1); c <= 1; c++ {
				row := types.Row{types.NewInt(a), types.NewInt(b), types.NewInt(c)}
				v1, v2 := pred.Eval(row), rewritten.Eval(row)
				if v1.Bool() != v2.Bool() {
					t.Fatalf("mismatch at (%d,%d,%d): %v vs %v", a, b, c, v1, v2)
				}
			}
		}
	}
}

func TestSplitJoinCondition(t *testing.T) {
	// Over a 3+2 concatenated row: $0=$3 (equi), $1=$4 (equi), $2 > 5 (left
	// only), $0 < $4 (non-equi cross).
	cond := Conjunction([]Expr{
		NewBinOp(OpEq, col(0), col(3)),
		NewBinOp(OpEq, col(4), col(1)), // reversed operand order
		NewBinOp(OpGt, col(2), intLit(5)),
		NewBinOp(OpLt, col(0), col(4)),
	})
	keys, rest := SplitJoinCondition(cond, 3)
	if len(keys) != 2 {
		t.Fatalf("keys = %v", keys)
	}
	if keys[0] != (EquiKey{Left: 0, Right: 0}) {
		t.Errorf("key0 = %v", keys[0])
	}
	if keys[1] != (EquiKey{Left: 1, Right: 1}) {
		t.Errorf("key1 = %v", keys[1])
	}
	if len(rest) != 2 {
		t.Errorf("remaining = %v", rest)
	}
	// Same-side equality is not an equi key.
	keys, rest = SplitJoinCondition(NewBinOp(OpEq, col(0), col(1)), 3)
	if len(keys) != 0 || len(rest) != 1 {
		t.Errorf("same-side equality misclassified: keys=%v rest=%v", keys, rest)
	}
}

func TestClassifyPredicate(t *testing.T) {
	cases := []struct {
		e    Expr
		want string
	}{
		{NewBinOp(OpGt, col(0), intLit(1)), "left"},
		{NewBinOp(OpGt, col(5), intLit(1)), "right"},
		{NewBinOp(OpEq, col(0), col(5)), "both"},
		{intLit(1), "none"},
	}
	for _, c := range cases {
		if got := ClassifyPredicate(c.e, 3); got != c.want {
			t.Errorf("ClassifyPredicate(%s) = %s, want %s", c.e, got, c.want)
		}
	}
}
