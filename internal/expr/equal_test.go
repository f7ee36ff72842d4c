package expr

import (
	"testing"

	"gignite/internal/types"
)

// identified fails unless a and b are Equal and hash alike.
func identified(t *testing.T, what string, a, b Expr) {
	t.Helper()
	if !Equal(a, b) || !Equal(b, a) {
		t.Errorf("%s: %s and %s are not Equal", what, a, b)
	}
	if Hash(a) != Hash(b) {
		t.Errorf("%s: Equal expressions %s and %s hash apart", what, a, b)
	}
}

// separated fails unless a and b are unequal and — these being the cases
// the memo exists to keep apart — hash apart too.
func separated(t *testing.T, what string, a, b Expr) {
	t.Helper()
	if Equal(a, b) || Equal(b, a) {
		t.Errorf("%s: %s and %s are Equal", what, a, b)
	}
	if Hash(a) == Hash(b) {
		t.Errorf("%s: %s and %s hash alike", what, a, b)
	}
}

func TestEqualSeparatesWhatTheRenderingConflates(t *testing.T) {
	one := NewLit(types.NewInt(1))
	oneF := NewLit(types.NewFloat(1))
	if one.String() != oneF.String() {
		t.Fatalf("the lossy case moved: %s vs %s", one, oneF)
	}
	lits := []*Lit{one, oneF, NewLit(types.NewBool(true)), NewLit(types.NewString("1")),
		NewLit(types.NewDate(1)), NewLit(types.Null)}
	for i, a := range lits {
		for _, b := range lits[i+1:] {
			separated(t, "literal kinds", a, b)
		}
	}
	id := NewColRef(0, types.KindInt, "e.id")
	separated(t, "literal kind under an operator",
		NewBinOp(OpAdd, id, one), NewBinOp(OpAdd, id, oneF))
	separated(t, "column kind", id, NewColRef(0, types.KindFloat, "e.id"))
	separated(t, "parameter kind hint", NewParam(0, types.KindInt), NewParam(0, types.KindString))
}

func TestEqualSeparatesDifferentExpressions(t *testing.T) {
	a := NewColRef(0, types.KindInt, "a")
	b := NewColRef(1, types.KindInt, "b")
	s := NewColRef(2, types.KindString, "s")
	lit := func(v int64) Expr { return NewLit(types.NewInt(v)) }
	cases := []struct {
		what string
		x, y Expr
	}{
		{"column ordinal", a, NewColRef(1, types.KindInt, "a")},
		{"column label", a, NewColRef(0, types.KindInt, "x.a")},
		{"operator", NewBinOp(OpAdd, a, b), NewBinOp(OpSub, a, b)},
		{"operand order", NewBinOp(OpSub, a, b), NewBinOp(OpSub, b, a)},
		{"NOT vs negation", NewNot(a), NewNeg(a)},
		{"IS NULL polarity", NewIsNull(a, false), NewIsNull(a, true)},
		{"IN polarity", NewInList(a, []Expr{lit(1)}, false), NewInList(a, []Expr{lit(1)}, true)},
		{"IN list", NewInList(a, []Expr{lit(1), lit(2)}, false), NewInList(a, []Expr{lit(1), lit(3)}, false)},
		{"IN list length", NewInList(a, []Expr{lit(1)}, false), NewInList(a, []Expr{lit(1), lit(1)}, false)},
		{"CASE arm", NewCase([]When{{Cond: NewBinOp(OpGt, a, b), Result: lit(1)}}, lit(0)),
			NewCase([]When{{Cond: NewBinOp(OpGt, a, b), Result: lit(2)}}, lit(0))},
		{"CASE else", NewCase([]When{{Cond: NewBinOp(OpGt, a, b), Result: lit(1)}}, lit(0)),
			NewCase([]When{{Cond: NewBinOp(OpGt, a, b), Result: lit(1)}}, nil)},
		{"cast target", NewCast(a, types.KindFloat), NewCast(a, types.KindString)},
		{"LIKE pattern", NewLike(s, "a%", false), NewLike(s, "b%", false)},
		{"LIKE polarity", NewLike(s, "a%", false), NewLike(s, "a%", true)},
		{"function", MustFunc(FuncUpper, s), MustFunc(FuncLower, s)},
		{"function argument", MustFunc(FuncSubstring, s, lit(1), lit(2)), MustFunc(FuncSubstring, s, lit(1), lit(3))},
		{"parameter ordinal", NewParam(0, types.KindInt), NewParam(1, types.KindInt)},
		{"node type", a, lit(0)},
	}
	for _, c := range cases {
		separated(t, c.what, c.x, c.y)
	}
	if Equal(a, nil) || Equal(nil, a) || !Equal(nil, nil) {
		t.Error("nil is Equal to nil and to nothing else")
	}
}

// TestEqualIdentifiesSeparatelyBuiltExpressions: equality is structural —
// two trees built from the same parts by different hands are one
// expression, whatever their pointers.
func TestEqualIdentifiesSeparatelyBuiltExpressions(t *testing.T) {
	build := func() []Expr {
		a := NewColRef(0, types.KindInt, "t.a")
		s := NewColRef(1, types.KindString, "t.s")
		sum := NewBinOp(OpAdd, a, NewLit(types.NewInt(1)))
		return []Expr{
			a,
			sum,
			NewBinOp(OpAnd, NewBinOp(OpLt, sum, NewLit(types.NewFloat(2.5))), NewNot(NewIsNull(s, true))),
			NewNeg(a),
			NewInList(a, []Expr{NewLit(types.NewInt(1)), NewParam(0, types.KindInt)}, true),
			NewCase([]When{{Cond: NewBinOp(OpEq, a, sum), Result: s}}, NewLit(types.NewString("x"))),
			NewCase([]When{{Cond: NewBinOp(OpEq, a, sum), Result: s}}, nil),
			NewCast(a, types.KindFloat),
			NewLike(s, "%green%", true),
			MustFunc(FuncSubstring, s, NewLit(types.NewInt(1)), NewLit(types.NewInt(2))),
		}
	}
	x, y := build(), build()
	for i := range x {
		identified(t, "rebuilt", x[i], y[i])
	}
	if !EqualAll(x, y) || EqualAll(x, y[1:]) {
		t.Error("EqualAll compares element-wise and by length")
	}
}

func TestAggCallEqualAndHash(t *testing.T) {
	arg := func() Expr { return NewColRef(3, types.KindFloat, "l.price") }
	sum := AggCall{Func: AggSum, Arg: arg(), Name: "revenue"}
	same := AggCall{Func: AggSum, Arg: arg(), Name: "other_label"}
	if !sum.Equal(same) || sum.Hash() != same.Hash() {
		t.Error("calls built separately from the same parts must be identified; the label takes no part")
	}
	for what, other := range map[string]AggCall{
		"function": {Func: AggAvg, Arg: arg()},
		"DISTINCT": {Func: AggSum, Arg: arg(), Distinct: true},
		"argument": {Func: AggSum, Arg: NewColRef(4, types.KindFloat, "l.price")},
		"COUNT(*)": {Func: AggSum},
	} {
		if sum.Equal(other) || sum.Hash() == other.Hash() {
			t.Errorf("calls differing in %s are identified", what)
		}
	}
	star := AggCall{Func: AggCount}
	if !star.Equal(AggCall{Func: AggCount}) || star.Hash() != (AggCall{Func: AggCount}).Hash() {
		t.Error("COUNT(*) differs from itself")
	}
}

// foreignExpr stands in for an Expr implementation outside the package
// (the binder has one).
type foreignExpr struct{ Lit }

func TestEqualTreatsForeignImplementationsAsOpaque(t *testing.T) {
	a, b := &foreignExpr{}, &foreignExpr{}
	if !Equal(a, a) || Equal(a, b) {
		t.Error("a foreign implementation is Equal to itself and to nothing else")
	}
}
