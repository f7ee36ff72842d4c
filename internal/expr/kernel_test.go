package expr

import (
	"fmt"
	"math"
	"testing"

	"gignite/internal/types"
)

// The kernel fuzz target decodes bytes into a well-typed expression over a
// fixed schema of six columns — c0 BIGINT, c1 DOUBLE, c2 VARCHAR,
// c3 BOOLEAN, c4 DATE, c5 DOUBLE — and checks the compiled kernel against
// Eval on a batch that holds every awkward value: NULL in every column,
// NaN, ±Inf, -0.0, MinInt64, zero and fractional divisors.

// fuzzCols lists the columns of each kind the decoder may reference.
var fuzzCols = map[types.Kind][]int{
	types.KindInt:    {0},
	types.KindFloat:  {1, 5},
	types.KindString: {2},
	types.KindBool:   {3},
	types.KindDate:   {4},
}

func date(s string) types.Value {
	d, err := types.ParseDate(s)
	if err != nil {
		panic(err)
	}
	return d
}

// fuzzLits are the literals of each kind the decoder may use (the seeds'
// constants included).
var fuzzLits = map[types.Kind][]types.Value{
	types.KindInt: {types.Null, types.NewInt(0), types.NewInt(1), types.NewInt(-1), types.NewInt(24),
		types.NewInt(math.MinInt64), types.NewInt(math.MaxInt64), types.NewInt(11), types.NewInt(3)},
	types.KindFloat: {types.Null, types.NewFloat(0), types.NewFloat(math.Copysign(0, -1)),
		types.NewFloat(0.5), types.NewFloat(-0.25), types.NewFloat(0.05), types.NewFloat(0.07),
		types.NewFloat(math.NaN()), types.NewFloat(math.Inf(1)), types.NewFloat(math.Inf(-1)),
		types.NewFloat(1.5), types.NewFloat(1e300)},
	types.KindString: {types.Null, types.NewString(""), types.NewString("AIR"), types.NewString("AIR REG"),
		types.NewString("MAIL"), types.NewString("DELIVER IN PERSON"), types.NewString("ab%c")},
	types.KindBool: {types.Null, types.NewBool(true), types.NewBool(false)},
	types.KindDate: {types.Null, date("1994-01-01"), date("1995-01-01"), date("1998-09-02"), types.NewDate(0)},
}

var fuzzPatterns = []string{"%", "", "A%", "%R%", "_IR", "AIR%REG", "M_I%", "%%_"}

// fuzzBatch is the batch every decoded expression runs on: column j of
// row i cycles through its values at a different rate per column, so the
// awkward values meet each other.
var fuzzBatch = func() []types.Row {
	cols := [][]types.Value{
		{types.Null, types.NewInt(0), types.NewInt(1), types.NewInt(-7), types.NewInt(24),
			types.NewInt(math.MinInt64), types.NewInt(math.MaxInt64), types.NewInt(3), types.NewInt(12)},
		{types.Null, types.NewFloat(0), types.NewFloat(math.Copysign(0, -1)), types.NewFloat(0.5),
			types.NewFloat(-0.25), types.NewFloat(math.NaN()), types.NewFloat(math.Inf(1)),
			types.NewFloat(math.Inf(-1)), types.NewFloat(23.5), types.NewFloat(0.06), types.NewFloat(7)},
		{types.Null, types.NewString(""), types.NewString("AIR"), types.NewString("AIR REG"),
			types.NewString("MAIL"), types.NewString("DELIVER IN PERSON")},
		{types.Null, types.NewBool(true), types.NewBool(false)},
		{types.Null, date("1994-03-15"), date("1998-09-02"), date("1999-01-01"), types.NewDate(-3)},
		{types.Null, types.NewFloat(0.05), types.NewFloat(0.5), types.NewFloat(-0.75),
			types.NewFloat(0), types.NewFloat(0.07), types.NewFloat(math.NaN()), types.NewFloat(2)},
	}
	rows := make([]types.Row, 96)
	for i := range rows {
		r := make(types.Row, len(cols))
		for j, vals := range cols {
			r[j] = vals[(i*(j+1)+i/len(vals))%len(vals)]
		}
		rows[i] = r
	}
	return rows
}()

// fuzzDepth bounds the decoded tree; below it only leaves are decoded.
const fuzzDepth = 5

// decoder turns bytes into decisions; exhausted input decides 0, which
// always picks a leaf.
type decoder struct{ data []byte }

func (d *decoder) next() int {
	if len(d.data) == 0 {
		return 0
	}
	b := d.data[0]
	d.data = d.data[1:]
	return int(b)
}

var valueKinds = [...]types.Kind{types.KindInt, types.KindFloat, types.KindString, types.KindBool, types.KindDate}

// cmpClasses are the operand kind pairs a comparison may take.
var cmpClasses = [...][2]types.Kind{
	{types.KindInt, types.KindInt}, {types.KindFloat, types.KindFloat}, {types.KindInt, types.KindFloat},
	{types.KindFloat, types.KindInt}, {types.KindString, types.KindString}, {types.KindDate, types.KindDate},
}

var (
	intOps   = [...]Op{OpAdd, OpSub, OpMul, OpMod}
	floatOps = [...]Op{OpAdd, OpSub, OpMul, OpDiv, OpMod}
)

// Tags per kind; tag 0 is always a leaf.
var fuzzTags = map[types.Kind]int{
	types.KindBool: 9, types.KindInt: 6, types.KindFloat: 6, types.KindString: 4, types.KindDate: 4,
}

func (d *decoder) expr(k types.Kind, depth int) Expr {
	tag := 0
	if depth < fuzzDepth {
		tag = d.next() % fuzzTags[k]
	}
	if tag == 0 {
		b := d.next()
		if cols := fuzzCols[k]; b%2 == 0 {
			return NewColRef(cols[b/2%len(cols)], k, "")
		}
		lits := fuzzLits[k]
		return NewLit(lits[b/2%len(lits)])
	}
	if tag == 5 && k != types.KindBool || tag == 3 && (k == types.KindString || k == types.KindDate) {
		// CASE, an Eval leaf of the kernels, of every kind.
		return NewCase([]When{{Cond: d.expr(types.KindBool, depth+1), Result: d.expr(k, depth+1)}},
			d.expr(k, depth+1))
	}
	switch k {
	case types.KindBool:
		switch tag {
		case 1:
			b := d.next()
			c := cmpClasses[b%len(cmpClasses)]
			op := OpEq + Op(b/len(cmpClasses)%6)
			return NewBinOp(op, d.expr(c[0], depth+1), d.expr(c[1], depth+1))
		case 2:
			return NewBinOp(OpAnd, d.expr(k, depth+1), d.expr(k, depth+1))
		case 3:
			return NewBinOp(OpOr, d.expr(k, depth+1), d.expr(k, depth+1))
		case 4:
			return NewNot(d.expr(k, depth+1))
		case 5:
			b := d.next()
			return NewIsNull(d.expr(valueKinds[b%5], depth+1), b/5%2 == 1)
		case 6:
			b := d.next()
			ek := valueKinds[b%5]
			e := d.expr(ek, depth+1)
			list := make([]Expr, 1+b/10%4)
			for i := range list {
				lits := fuzzLits[ek]
				list[i] = NewLit(lits[d.next()%len(lits)])
			}
			return NewInList(e, list, b/5%2 == 1)
		case 7:
			b := d.next()
			return NewLike(d.expr(types.KindString, depth+1), fuzzPatterns[b/2%len(fuzzPatterns)], b%2 == 1)
		default:
			return NewCase([]When{{Cond: d.expr(k, depth+1), Result: d.expr(k, depth+1)}}, nil)
		}
	case types.KindInt:
		switch tag {
		case 1:
			return NewBinOp(intOps[d.next()%len(intOps)], d.expr(k, depth+1), d.expr(k, depth+1))
		case 2:
			return NewNeg(d.expr(k, depth+1))
		case 3:
			return NewCast(d.expr(types.KindFloat, depth+1), types.KindInt)
		default:
			return MustFunc(FuncAbs, d.expr(k, depth+1))
		}
	case types.KindFloat:
		switch tag {
		case 1:
			// One operand at least is a float, so the result is.
			b := d.next()
			l, r := types.KindFloat, types.KindFloat
			switch b / len(floatOps) % 3 {
			case 1:
				r = types.KindInt
			case 2:
				l = types.KindInt
			}
			return NewBinOp(floatOps[b%len(floatOps)], d.expr(l, depth+1), d.expr(r, depth+1))
		case 2:
			return NewNeg(d.expr(k, depth+1))
		case 3:
			return NewCast(d.expr(types.KindInt, depth+1), types.KindFloat)
		default:
			return MustFunc(FuncAbs, d.expr(k, depth+1))
		}
	case types.KindString:
		if tag == 1 {
			return MustFunc(FuncUpper, d.expr(k, depth+1))
		}
		return NewCast(d.expr(types.KindInt, depth+1), types.KindString)
	default: // KindDate
		if tag == 1 {
			op := OpAdd
			if d.next()%2 == 1 {
				op = OpSub
			}
			return NewBinOp(op, d.expr(k, depth+1), d.expr(types.KindInt, depth+1))
		}
		return NewCast(d.expr(types.KindString, depth+1), types.KindDate)
	}
}

// fuzzKinds indexes the result kind by the input's first byte.
var fuzzKinds = [...]types.Kind{types.KindBool, types.KindBool, types.KindInt, types.KindFloat, types.KindString, types.KindDate}

func decodeExpr(data []byte) Expr {
	d := &decoder{data: data}
	return d.expr(fuzzKinds[d.next()%len(fuzzKinds)], 0)
}

// encoder is the decoder's inverse for the seeds: it emits the decisions
// that decode back into the given tree.
type encoder struct{ out []byte }

func (en *encoder) emit(b int) { en.out = append(en.out, byte(b)) }

func indexOf[T comparable](list []T, x T) int {
	for i, y := range list {
		if x == y {
			return i
		}
	}
	panic(fmt.Sprintf("encoder: %v not in %v", x, list))
}

func litIndex(k types.Kind, v types.Value) int {
	for i, l := range fuzzLits[k] {
		if l.K == v.K && l.I == v.I && math.Float64bits(l.F) == math.Float64bits(v.F) && l.S == v.S {
			return i
		}
	}
	panic(fmt.Sprintf("encoder: no %s literal %v", k, v))
}

// expr encodes e as the decoder's kind-k decisions at depth.
func (en *encoder) expr(e Expr, k types.Kind, depth int) {
	leaf := func() {
		switch n := e.(type) {
		case *ColRef:
			en.emit(2 * indexOf(fuzzCols[k], n.Index))
		case *Lit:
			en.emit(2*litIndex(k, n.Val) + 1)
		default:
			panic(fmt.Sprintf("encoder: %s is not a leaf", e))
		}
	}
	if depth >= fuzzDepth {
		leaf()
		return
	}
	b, ok := e.(*BinOp)
	switch {
	case !ok:
		if _, isLeaf := e.(*ColRef); isLeaf {
			en.emit(0)
			leaf()
			return
		}
		if _, isLeaf := e.(*Lit); isLeaf {
			en.emit(0)
			leaf()
			return
		}
		n := e.(*InList)
		ek := n.E.Kind()
		en.emit(6)
		neg := 0
		if n.Negate {
			neg = 1
		}
		en.emit(indexOf(valueKinds[:], ek) + 5*neg + 10*(len(n.List)-1))
		en.expr(n.E, ek, depth+1)
		for _, item := range n.List {
			en.emit(litIndex(ek, item.(*Lit).Val))
		}
	case b.Op == OpAnd || b.Op == OpOr:
		en.emit(2 + int(b.Op-OpAnd))
		en.expr(b.L, types.KindBool, depth+1)
		en.expr(b.R, types.KindBool, depth+1)
	case b.Op.IsComparison():
		en.emit(1)
		c := indexOf(cmpClasses[:], [2]types.Kind{b.L.Kind(), b.R.Kind()})
		en.emit(c + len(cmpClasses)*int(b.Op-OpEq))
		en.expr(b.L, b.L.Kind(), depth+1)
		en.expr(b.R, b.R.Kind(), depth+1)
	default: // float arithmetic
		en.emit(1)
		shape := 0
		if b.R.Kind() == types.KindInt {
			shape = 1
		} else if b.L.Kind() == types.KindInt {
			shape = 2
		}
		en.emit(indexOf(floatOps[:], b.Op) + len(floatOps)*shape)
		en.expr(b.L, b.L.Kind(), depth+1)
		en.expr(b.R, b.R.Kind(), depth+1)
	}
}

func encodeExpr(e Expr) []byte {
	en := &encoder{}
	switch e.Kind() {
	case types.KindBool:
		en.emit(0)
	case types.KindFloat:
		en.emit(3)
	default:
		panic("encoder: seeds are conditions and float expressions")
	}
	en.expr(e, e.Kind(), 0)
	return en.out
}

// Seed expressions over the fuzz schema, shaped like the queries the
// kernels exist for: c1 plays l_quantity and l_extendedprice, c5
// l_discount and l_tax, c4 l_shipdate, c2 l_shipmode.
func fuzzSeeds() map[string]Expr {
	c0 := NewColRef(0, types.KindInt, "")
	c1 := NewColRef(1, types.KindFloat, "")
	c2 := NewColRef(2, types.KindString, "")
	c4 := NewColRef(4, types.KindDate, "")
	c5 := NewColRef(5, types.KindFloat, "")
	lit := func(v types.Value) Expr { return NewLit(v) }
	and := func(l, r Expr) Expr { return NewBinOp(OpAnd, l, r) }
	cmp := func(op Op, l, r Expr) Expr { return NewBinOp(op, l, r) }
	i, f, s := types.NewInt, types.NewFloat, types.NewString
	q19 := func(lo, hi int64, modes ...string) Expr {
		list := make([]Expr, len(modes))
		for k, m := range modes {
			list[k] = lit(s(m))
		}
		return and(and(cmp(OpGe, c1, lit(i(lo))), cmp(OpLe, c1, lit(i(hi)))),
			NewInList(c2, list, false))
	}
	one := lit(i(1))
	return map[string]Expr{
		"q1-filter":       cmp(OpLe, c4, lit(date("1998-09-02"))),
		"q1-disc":         NewBinOp(OpMul, c1, NewBinOp(OpSub, one, c5)),
		"q1-charge":       NewBinOp(OpMul, NewBinOp(OpMul, c1, NewBinOp(OpSub, one, c5)), NewBinOp(OpAdd, one, c5)),
		"q6-filter":       and(and(and(cmp(OpGe, c4, lit(date("1994-01-01"))), cmp(OpLt, c4, lit(date("1995-01-01")))), and(cmp(OpGe, c5, lit(f(0.05))), cmp(OpLe, c5, lit(f(0.07))))), cmp(OpLt, c1, lit(i(24)))),
		"q19-filter":      NewBinOp(OpOr, NewBinOp(OpOr, q19(1, 11, "AIR", "AIR REG"), q19(0, 24, "MAIL")), q19(3, 11, "AIR", "MAIL")),
		"mod-half":        NewBinOp(OpMod, c1, lit(f(0.5))),
		"mod-half-filter": cmp(OpEq, NewBinOp(OpMod, c0, lit(f(0.5))), lit(f(0))),
	}
}

// sameValue is bit equality: kind, payloads and float bits.
func sameValue(a, b types.Value) bool {
	return a.K == b.K && a.I == b.I && math.Float64bits(a.F) == math.Float64bits(b.F) && a.S == b.S
}

func condTrue(e Expr, row types.Row) bool {
	v := e.Eval(row)
	return v.K == types.KindBool && v.Bool()
}

// panics reports whether fn panics.
func panics(fn func()) (p bool) {
	defer func() { p = recover() != nil }()
	fn()
	return false
}

// checkKernel compiles e and compares every way the executor runs it with
// Eval over the batch. Where Eval panics on a row — a NULL literal can
// give an operator another kind than the decoder aimed for, and comparing
// a BIGINT with a DATE is a binder bug Eval panics on — the kernel must
// panic on that row too.
func checkKernel(t *testing.T, e Expr, rows []types.Row) {
	t.Helper()
	s := CompileScalar(e)
	for _, r := range rows {
		if panics(func() { e.Eval(r) }) {
			if !panics(func() { s.At(r) }) {
				t.Fatalf("%s\nrow %v: Eval panics, the kernel does not", e, r)
			}
			return
		}
	}
	const stride = 3
	filled := make([]types.Value, len(rows)*stride)
	s.Fill(rows, filled[1:], stride)
	for i, r := range rows {
		want := e.Eval(r)
		if got := s.At(r); !sameValue(got, want) {
			t.Fatalf("%s\nrow %v: At = %#v, Eval = %#v", e, r, got, want)
		}
		if got := filled[1+i*stride]; !sameValue(got, want) {
			t.Fatalf("%s\nrow %v: Fill = %#v, Eval = %#v", e, r, got, want)
		}
	}
	if e.Kind() != types.KindBool {
		return
	}
	p := CompilePredicate(e)
	var want []types.Row
	for _, r := range rows {
		if condTrue(e, r) {
			want = append(want, r)
		}
		if p.Holds(r) != condTrue(e, r) {
			t.Fatalf("%s\nrow %v: Holds = %v, Eval = %v", e, r, p.Holds(r), e.Eval(r))
		}
	}
	got := p.Select(nil, rows)
	if len(got) != len(want) {
		t.Fatalf("%s\nSelect kept %d rows, Eval %d", e, len(got), len(want))
	}
	for i := range got {
		if &got[i][0] != &want[i][0] {
			t.Fatalf("%s\nSelect row %d is %v, Eval's is %v", e, i, got[i], want[i])
		}
	}
}

// FuzzKernelMatchesEval: a compiled kernel returns exactly what Eval
// returns, row by row and bit for bit, and a compiled predicate selects
// exactly the rows whose condition Eval makes TRUE, in order.
func FuzzKernelMatchesEval(f *testing.F) {
	for _, e := range fuzzSeeds() {
		f.Add(encodeExpr(e))
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		checkKernel(t, decodeExpr(data), fuzzBatch)
	})
}

// TestFuzzSeedsDecode: the seeds decode back into the expressions they
// were encoded from, so the committed corpus covers what it claims to.
func TestFuzzSeedsDecode(t *testing.T) {
	for name, e := range fuzzSeeds() {
		if got := decodeExpr(encodeExpr(e)); got.String() != e.String() {
			t.Errorf("%s: decodes to %s, want %s", name, got, e)
		}
	}
}

// TestModuloByFractionIsNull: a float %-divisor that truncates to 0 is a
// zero divisor — NULL, not a panic — in Eval, in folding and in kernels.
func TestModuloByFractionIsNull(t *testing.T) {
	row := types.Row{types.NewFloat(7), types.NewFloat(0.5), types.NewFloat(-0.9), types.NewFloat(2.5)}
	for _, d := range []int{1, 2} {
		e := NewBinOp(OpMod, NewColRef(0, types.KindFloat, ""), NewColRef(d, types.KindFloat, ""))
		if v := e.Eval(row); !v.IsNull() {
			t.Errorf("%s = %v, want NULL", e, v)
		}
		checkKernel(t, e, []types.Row{row})
	}
	if v := NewBinOp(OpMod, NewColRef(0, types.KindFloat, ""), NewColRef(3, types.KindFloat, "")).Eval(row); v.F != 1 {
		t.Errorf("7 %% 2.5 = %v, want 1 (truncating)", v)
	}
	if l, ok := Fold(NewBinOp(OpMod, intLit(7), floatLit(0.5))).(*Lit); !ok || !l.Val.IsNull() {
		t.Errorf("7 %% 0.5 folds to %v, want NULL", l)
	}
}

// TestSelectNarrowsWithoutAllocating: a batch nothing passes allocates
// nothing, and once sized the scratch serves every later batch, however
// many conjuncts narrow it.
func TestSelectNarrowsWithoutAllocating(t *testing.T) {
	p := CompilePredicate(fuzzSeeds()["q6-filter"])
	none := []types.Row{{types.Null, types.Null, types.Null, types.Null, types.Null, types.Null}}
	if n := testing.AllocsPerRun(10, func() { p.Select(nil, none) }); n != 0 {
		t.Errorf("a batch nothing passes allocated %v times", n)
	}
	dst := make([]types.Row, 0, len(fuzzBatch))
	if n := testing.AllocsPerRun(10, func() { dst = p.Select(dst[:0], fuzzBatch) }); n != 0 {
		t.Errorf("selecting into sized scratch allocated %v times", n)
	}
}
