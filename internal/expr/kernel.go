package expr

import (
	"strings"

	"gignite/internal/types"
)

// Kernels. The executor does not walk expression trees row by row: every
// filter condition, projection, join residual and aggregate argument of a
// plan is compiled once, when the plan is split (physical.Compile), into
// a kernel — a tree of kind-specialised nodes that runs over a whole
// batch of rows. A predicate narrows the batch (AND conjunct by conjunct,
// in place); a comparison of a column with a constant is one loop over
// the batch; arithmetic writes a projection column with the operands read
// in place. Eval stays the reference semantics: a kernel returns, bit for
// bit, what Eval returns, and the node kinds the compiler does not
// specialise (Case, Func) are compiled to a leaf that calls Eval.
//
// Kernels are immutable once built, so one kernel serves every fragment
// instance of every execution of a cached plan concurrently.

// Predicate is a compiled condition.
type Predicate struct{ p pred }

// CompilePredicate compiles a condition.
func CompilePredicate(e Expr) *Predicate { return &Predicate{p: compilePred(e)} }

// Select appends to dst, in order, the rows of rows for which the
// condition is TRUE (NULL and FALSE drop the row). dst must not share
// rows' backing array. The first row kept sizes dst for a whole batch of
// len(rows), so one batch never regrows it and a batch nothing passes
// allocates nothing.
func (p *Predicate) Select(dst, rows []types.Row) []types.Row { return sel(p.p, dst, rows, true) }

// Holds reports whether the condition is TRUE for row.
func (p *Predicate) Holds(row types.Row) bool { return p.p.test(row) == isTrue }

// Scalar is a compiled value expression.
type Scalar struct{ o operand }

// CompileScalar compiles a value expression.
func CompileScalar(e Expr) *Scalar { return &Scalar{o: compileOperand(e)} }

// At returns the value for one row. A column reference is a direct index.
func (s *Scalar) At(row types.Row) types.Value { return s.o.at(row) }

// Fill writes the value for rows[i] to out[i*stride], for every row.
func (s *Scalar) Fill(rows []types.Row, out []types.Value, stride int) { s.o.fill(rows, out, stride) }

// tri is a three-valued truth value.
type tri uint8

const (
	isFalse tri = iota
	isTrue
	isNull
)

// truth is a boolean value's truth; anything but TRUE or FALSE is neither.
func truth(v types.Value) tri {
	if v.K != types.KindBool {
		return isNull
	}
	if v.I != 0 {
		return isTrue
	}
	return isFalse
}

func truthOf(b bool) tri {
	if b {
		return isTrue
	}
	return isFalse
}

func (t tri) value() types.Value {
	if t == isNull {
		return types.Null
	}
	return types.NewBool(t == isTrue)
}

// pred is a compiled condition node: test is one row's value.
type pred interface {
	test(row types.Row) tri
}

// selector is a pred with a batch loop of its own.
type selector interface {
	pred
	sel(dst, rows []types.Row, want bool) []types.Row
}

// sel appends to dst, in order, the rows whose value under p is want
// (TRUE or FALSE; NULL is neither). dst may be rows[:0]: a node reads row
// i before it writes position i.
func sel(p pred, dst, rows []types.Row, want bool) []types.Row {
	if s, ok := p.(selector); ok {
		return s.sel(dst, rows, want)
	}
	return selEach(p, dst, rows, want)
}

// keep appends r to dst, first making room for a batch of n more rows
// when dst is full.
func keep(dst []types.Row, r types.Row, n int) []types.Row {
	if len(dst) == cap(dst) {
		grown := make([]types.Row, len(dst), len(dst)+n)
		copy(grown, dst)
		dst = grown
	}
	return append(dst, r)
}

// selEach is sel one test at a time.
func selEach(p pred, dst, rows []types.Row, want bool) []types.Row {
	w := truthOf(want)
	for _, r := range rows {
		if p.test(r) == w {
			dst = keep(dst, r, len(rows))
		}
	}
	return dst
}

// scalar is a compiled value node: eval is one row's value.
type scalar interface {
	eval(row types.Row) types.Value
}

// operand is a kernel's input: a column or a constant, read in place, or
// any other compiled expression.
type operand struct {
	col int         // >= 0: the row's column
	val types.Value // the constant, when col < 0 and s is nil
	s   scalar
}

func compileOperand(e Expr) operand {
	switch n := e.(type) {
	case *ColRef:
		return operand{col: n.Index}
	case *Lit:
		return operand{col: -1, val: n.Val}
	}
	return operand{col: -1, s: compileScalar(e)}
}

func (o *operand) constant() bool { return o.col < 0 && o.s == nil }

func (o *operand) at(row types.Row) types.Value {
	if o.col >= 0 {
		return row[o.col]
	}
	return o.other(row)
}

// other is at for anything but a column, kept out of line so that at
// inlines.
//
//go:noinline
func (o *operand) other(row types.Row) types.Value {
	if o.s == nil {
		return o.val
	}
	return o.s.eval(row)
}

// fill writes the value for rows[i] to out[i*stride]: columns and
// constants are copied, arithmetic runs its own batch loop, any other node
// is evaluated row by row.
func (o *operand) fill(rows []types.Row, out []types.Value, stride int) {
	switch a, batch := o.s.(*arith); {
	case o.col >= 0:
		for i, r := range rows {
			out[i*stride] = r[o.col]
		}
	case o.s == nil:
		for i := range rows {
			out[i*stride] = o.val
		}
	case batch:
		a.fill(rows, out, stride)
	default:
		for i, r := range rows {
			out[i*stride] = o.s.eval(r)
		}
	}
}

// testHooks lets this package's tests observe the compiler.
var testHooks struct {
	// leaf, when set, sees every expression compiled to an Eval leaf.
	leaf func(Expr)
}

func compilePred(e Expr) pred {
	switch n := e.(type) {
	case *BinOp:
		switch {
		case n.Op == OpAnd:
			return &andPred{compilePred(n.L), compilePred(n.R)}
		case n.Op == OpOr:
			return &orPred{compilePred(n.L), compilePred(n.R)}
		case n.Op.IsComparison():
			return newCmp(n)
		}
	case *Not:
		return &notPred{compilePred(n.E)}
	case *IsNull:
		return &isNullPred{e: compileOperand(n.E), negate: n.Negate}
	case *InList:
		if p := newInList(n); p != nil {
			return p
		}
	case *Like:
		return &likePred{e: compileOperand(n.E), m: n.matcher, negate: n.Negate}
	}
	return &truthPred{compileOperand(e)}
}

func compileScalar(e Expr) scalar {
	switch n := e.(type) {
	case *BinOp:
		if n.Op.IsArithmetic() {
			return &arith{op: n.Op, typ: n.typ, l: compileOperand(n.L), r: compileOperand(n.R)}
		}
		return &boolOf{compilePred(n)}
	case *Not, *IsNull, *Like:
		return &boolOf{compilePred(n)}
	case *InList:
		if p := newInList(n); p != nil {
			return &boolOf{p}
		}
	case *Neg:
		return &negScalar{compileOperand(n.E)}
	case *Cast:
		return &castScalar{e: compileOperand(n.E), to: n.To}
	}
	if testHooks.leaf != nil {
		testHooks.leaf(e)
	}
	return evalLeaf{e}
}

// ---------------------------------------------------------------------------
// Predicate nodes

// andPred narrows: the rows the left conjunct keeps are the right one's
// whole input.
type andPred struct{ l, r pred }

func (k *andPred) sel(dst, rows []types.Row, want bool) []types.Row {
	if !want {
		return selEach(k, dst, rows, want)
	}
	n := len(dst)
	dst = sel(k.l, dst, rows, true)
	return sel(k.r, dst[:n], dst[n:], true)
}

func (k *andPred) test(row types.Row) tri {
	l := k.l.test(row)
	if l == isFalse {
		return isFalse
	}
	r := k.r.test(row)
	if r == isFalse {
		return isFalse
	}
	if l == isNull || r == isNull {
		return isNull
	}
	return isTrue
}

// orPred narrows the rows it is FALSE for, the way AND narrows TRUE.
type orPred struct{ l, r pred }

func (k *orPred) sel(dst, rows []types.Row, want bool) []types.Row {
	if want {
		return selEach(k, dst, rows, want)
	}
	n := len(dst)
	dst = sel(k.l, dst, rows, false)
	return sel(k.r, dst[:n], dst[n:], false)
}

func (k *orPred) test(row types.Row) tri {
	l := k.l.test(row)
	if l == isTrue {
		return isTrue
	}
	r := k.r.test(row)
	if r == isTrue {
		return isTrue
	}
	if l == isNull || r == isNull {
		return isNull
	}
	return isFalse
}

type notPred struct{ e pred }

func (k *notPred) sel(dst, rows []types.Row, want bool) []types.Row {
	return sel(k.e, dst, rows, !want)
}

func (k *notPred) test(row types.Row) tri {
	switch k.e.test(row) {
	case isTrue:
		return isFalse
	case isFalse:
		return isTrue
	}
	return isNull
}

// cmpPred is a comparison. Its batch loop reads a column against a
// constant with the same-kind comparison inline; every other kind pair
// goes through types.Compare.
type cmpPred struct {
	l, r operand
	// holds is whether the operator holds, by three-way result + 1.
	holds [3]bool
}

var opHolds = [...][3]bool{
	OpEq: {false, true, false},
	OpNe: {true, false, true},
	OpLt: {true, false, false},
	OpLe: {true, true, false},
	OpGt: {false, false, true},
	OpGe: {false, true, true},
}

func newCmp(n *BinOp) *cmpPred {
	l, r, op := n.L, n.R, n.Op
	// A constant on the left is commuted to the right, where the batch
	// loop looks for it: types.Compare is antisymmetric, so the result is
	// the same.
	if _, lit := l.(*Lit); lit {
		if _, col := r.(*ColRef); col {
			l, r, op = r, l, op.Commute()
		}
	}
	return &cmpPred{l: compileOperand(l), r: compileOperand(r), holds: opHolds[op]}
}

func (k *cmpPred) test(row types.Row) tri {
	lv, rv := k.l.at(row), k.r.at(row)
	if lv.K == types.KindNull || rv.K == types.KindNull {
		return isNull
	}
	return truthOf(k.holds[compare3(&lv, &rv)+1])
}

func (k *cmpPred) sel(dst, rows []types.Row, want bool) []types.Row {
	h := k.holds
	if !want {
		h = [3]bool{!h[0], !h[1], !h[2]}
	}
	if k.l.col >= 0 && k.r.constant() {
		return selConst(dst, rows, k.l.col, &k.r.val, h)
	}
	for _, row := range rows {
		lv, rv := k.l.at(row), k.r.at(row)
		if lv.K == types.KindNull || rv.K == types.KindNull {
			continue
		}
		if h[compare3(&lv, &rv)+1] {
			dst = keep(dst, row, len(rows))
		}
	}
	return dst
}

// selConst keeps the rows whose column col compares with c as h says:
// compare3 with the same-kind cases inline.
func selConst(dst, rows []types.Row, col int, c *types.Value, h [3]bool) []types.Row {
	if c.K == types.KindNull {
		// A comparison with NULL is NULL: no row is TRUE or FALSE.
		return dst
	}
	for _, row := range rows {
		v := &row[col]
		var r int
		switch {
		case v.K != c.K:
			if v.K == types.KindNull {
				continue
			}
			r = types.Compare(*v, *c)
		case c.K == types.KindFloat:
			r = cmpF(v.F, c.F)
		case c.K == types.KindString:
			r = strings.Compare(v.S, c.S)
		default:
			r = cmp64(v.I, c.I)
		}
		if h[r+1] {
			dst = keep(dst, row, len(rows))
		}
	}
	return dst
}

// compare3 is types.Compare of two non-NULL values, with the same-kind
// cases inline.
func compare3(a, b *types.Value) int {
	if a.K == b.K {
		switch a.K {
		case types.KindInt, types.KindDate, types.KindBool:
			return cmp64(a.I, b.I)
		case types.KindFloat:
			return cmpF(a.F, b.F)
		case types.KindString:
			return strings.Compare(a.S, b.S)
		}
	}
	return types.Compare(*a, *b)
}

func cmp64(a, b int64) int {
	switch {
	case a < b:
		return -1
	case a > b:
		return 1
	}
	return 0
}

// cmpF orders floats as types.Compare does: NaN compares equal to
// everything.
func cmpF(a, b float64) int {
	switch {
	case a < b:
		return -1
	case a > b:
		return 1
	}
	return 0
}

type isNullPred struct {
	e      operand
	negate bool
}

func (k *isNullPred) test(row types.Row) tri {
	return truthOf((k.e.at(row).K == types.KindNull) != k.negate)
}

// inListPred is an IN list of constants.
type inListPred struct {
	e       operand
	vals    []types.Value // the non-NULL items
	hasNull bool
	negate  bool
}

// newInList compiles an IN list whose items are all literals; it returns
// nil for any other.
func newInList(n *InList) *inListPred {
	k := &inListPred{negate: n.Negate}
	for _, item := range n.List {
		l, ok := item.(*Lit)
		if !ok {
			return nil
		}
		if l.Val.IsNull() {
			k.hasNull = true
			continue
		}
		k.vals = append(k.vals, l.Val)
	}
	k.e = compileOperand(n.E)
	return k
}

func (k *inListPred) test(row types.Row) tri {
	v := k.e.at(row)
	if v.K == types.KindNull {
		return isNull
	}
	for _, item := range k.vals {
		if types.Equal(v, item) {
			return truthOf(!k.negate)
		}
	}
	if k.hasNull {
		return isNull
	}
	return truthOf(k.negate)
}

type likePred struct {
	e      operand
	m      likeMatcher
	negate bool
}

func (k *likePred) test(row types.Row) tri {
	v := k.e.at(row)
	if v.K == types.KindNull {
		return isNull
	}
	return truthOf(k.m.match(v.Str()) != k.negate)
}

// truthPred is any other boolean expression used as a condition.
type truthPred struct{ e operand }

func (k *truthPred) test(row types.Row) tri { return truth(k.e.at(row)) }

// ---------------------------------------------------------------------------
// Value nodes

// arith is an arithmetic operator. Its fill computes one operand into the
// output column and combines the other into it in place.
type arith struct {
	op   Op
	typ  types.Kind
	l, r operand
}

func (k *arith) eval(row types.Row) types.Value {
	lv, rv := k.l.at(row), k.r.at(row)
	return k.apply(&lv, &rv)
}

func (k *arith) fill(rows []types.Row, out []types.Value, stride int) {
	switch {
	case k.r.s == nil:
		k.l.fill(rows, out, stride)
		for i, row := range rows {
			p := &out[i*stride]
			rv := k.r.at(row)
			*p = k.apply(p, &rv)
		}
	case k.l.s == nil:
		k.r.fill(rows, out, stride)
		for i, row := range rows {
			p := &out[i*stride]
			lv := k.l.at(row)
			*p = k.apply(&lv, p)
		}
	default:
		k.l.fill(rows, out, stride)
		for i, row := range rows {
			p := &out[i*stride]
			rv := k.r.s.eval(row)
			*p = k.apply(p, &rv)
		}
	}
}

// apply is evalArith behind the NULL check, with the common cases inline:
// float arithmetic over float or integer operands (widened as
// Value.Float widens them) and integer arithmetic over integers.
func (k *arith) apply(lv, rv *types.Value) types.Value {
	switch {
	case k.typ == types.KindFloat && numeric(lv) && numeric(rv):
		l, r := lv.F, rv.F
		if lv.K == types.KindInt {
			l = float64(lv.I)
		}
		if rv.K == types.KindInt {
			r = float64(rv.I)
		}
		switch k.op {
		case OpAdd:
			return types.NewFloat(l + r)
		case OpSub:
			return types.NewFloat(l - r)
		case OpMul:
			return types.NewFloat(l * r)
		case OpDiv:
			if r == 0 {
				return types.Null
			}
			return types.NewFloat(l / r)
		}
	case lv.K == types.KindNull || rv.K == types.KindNull:
		return types.Null
	case k.typ == types.KindInt && lv.K == types.KindInt && rv.K == types.KindInt:
		switch k.op {
		case OpAdd:
			return types.NewInt(lv.I + rv.I)
		case OpSub:
			return types.NewInt(lv.I - rv.I)
		case OpMul:
			return types.NewInt(lv.I * rv.I)
		case OpMod:
			if rv.I == 0 {
				return types.Null
			}
			return types.NewInt(lv.I % rv.I)
		}
	}
	return evalArith(k.op, *lv, *rv, k.typ)
}

func numeric(v *types.Value) bool { return v.K == types.KindFloat || v.K == types.KindInt }

type negScalar struct{ e operand }

func (k *negScalar) eval(row types.Row) types.Value { return negValue(k.e.at(row)) }

type castScalar struct {
	e  operand
	to types.Kind
}

func (k *castScalar) eval(row types.Row) types.Value { return castValue(k.e.at(row), k.to) }

// boolOf is a condition used as a value.
type boolOf struct{ p pred }

func (k *boolOf) eval(row types.Row) types.Value { return k.p.test(row).value() }

// evalLeaf runs a node the compiler does not specialise through Eval.
type evalLeaf struct{ e Expr }

func (k evalLeaf) eval(row types.Row) types.Value { return k.e.Eval(row) }
