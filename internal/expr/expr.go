// Package expr implements the scalar expression trees used in filters,
// projections, join conditions and aggregate arguments. Expressions are the
// gignite analogue of Calcite's RexNode layer: fully resolved (column
// references are positional), typed at construction time, and evaluated
// against a single flat row (join operators concatenate their inputs'
// rows, so a join condition sees left columns followed by right columns).
//
// Predicate evaluation follows SQL three-valued logic: comparisons with
// NULL yield NULL, AND/OR/NOT propagate unknowns, and filter operators
// treat a non-TRUE result as "drop the row".
package expr

import (
	"fmt"
	"strings"

	"gignite/internal/types"
)

// Expr is a scalar expression. Implementations are immutable after
// construction; planner rewrites build new trees.
type Expr interface {
	// Kind is the statically determined result kind of the expression.
	Kind() types.Kind
	// Eval evaluates the expression against a row.
	Eval(row types.Row) types.Value
	// String renders the expression for plan digests and EXPLAIN output.
	String() string
	// Children returns the direct sub-expressions.
	Children() []Expr
	// WithChildren returns a copy with the children replaced, in order.
	WithChildren(children []Expr) Expr
}

// ---------------------------------------------------------------------------
// Column references and literals

// ColRef is a positional reference into the input row.
type ColRef struct {
	Index int
	Typ   types.Kind
	// Name is advisory (for EXPLAIN); resolution is purely positional.
	Name string
}

// NewColRef constructs a column reference.
func NewColRef(index int, typ types.Kind, name string) *ColRef {
	return &ColRef{Index: index, Typ: typ, Name: name}
}

func (c *ColRef) Kind() types.Kind { return c.Typ }

func (c *ColRef) Eval(row types.Row) types.Value { return row[c.Index] }

func (c *ColRef) String() string {
	if c.Name != "" {
		return fmt.Sprintf("$%d:%s", c.Index, c.Name)
	}
	return fmt.Sprintf("$%d", c.Index)
}

func (c *ColRef) Children() []Expr { return nil }

func (c *ColRef) WithChildren(children []Expr) Expr {
	mustArity("ColRef", children, 0)
	return c
}

// Lit is a constant.
type Lit struct {
	Val types.Value
}

// NewLit constructs a literal expression.
func NewLit(v types.Value) *Lit { return &Lit{Val: v} }

func (l *Lit) Kind() types.Kind             { return l.Val.K }
func (l *Lit) Eval(_ types.Row) types.Value { return l.Val }
func (l *Lit) Children() []Expr             { return nil }
func (l *Lit) WithChildren(children []Expr) Expr {
	mustArity("Lit", children, 0)
	return l
}

func (l *Lit) String() string {
	if l.Val.K == types.KindString {
		return "'" + l.Val.S + "'"
	}
	return l.Val.String()
}

// ---------------------------------------------------------------------------
// Binary operators

// Op enumerates binary operators.
type Op uint8

const (
	OpAdd Op = iota
	OpSub
	OpMul
	OpDiv
	OpMod
	OpEq
	OpNe
	OpLt
	OpLe
	OpGt
	OpGe
	OpAnd
	OpOr
)

var opNames = [...]string{
	OpAdd: "+", OpSub: "-", OpMul: "*", OpDiv: "/", OpMod: "%",
	OpEq: "=", OpNe: "<>", OpLt: "<", OpLe: "<=", OpGt: ">", OpGe: ">=",
	OpAnd: "AND", OpOr: "OR",
}

// String returns the SQL spelling of the operator.
func (o Op) String() string { return opNames[o] }

// IsComparison reports whether the operator is a comparison.
func (o Op) IsComparison() bool { return o >= OpEq && o <= OpGe }

// IsArithmetic reports whether the operator is arithmetic.
func (o Op) IsArithmetic() bool { return o <= OpMod }

// Commute returns the comparison with operands logically swapped
// (a < b  ≡  b > a). It panics for non-comparison operators.
func (o Op) Commute() Op {
	switch o {
	case OpEq:
		return OpEq
	case OpNe:
		return OpNe
	case OpLt:
		return OpGt
	case OpLe:
		return OpGe
	case OpGt:
		return OpLt
	case OpGe:
		return OpLe
	default:
		panic(fmt.Sprintf("expr: Commute on non-comparison %s", o))
	}
}

// BinOp applies Op to two operands.
type BinOp struct {
	Op   Op
	L, R Expr
	typ  types.Kind
}

// NewBinOp constructs a binary expression, computing its result kind.
func NewBinOp(op Op, l, r Expr) *BinOp {
	return &BinOp{Op: op, L: l, R: r, typ: binOpKind(op, l.Kind(), r.Kind())}
}

func binOpKind(op Op, l, r types.Kind) types.Kind {
	switch {
	case op.IsComparison(), op == OpAnd, op == OpOr:
		return types.KindBool
	case op.IsArithmetic():
		if l == types.KindDate || r == types.KindDate {
			return types.KindDate
		}
		if l == types.KindFloat || r == types.KindFloat || op == OpDiv {
			return types.KindFloat
		}
		if l == types.KindNull {
			return r
		}
		return l
	default:
		return types.KindNull
	}
}

func (b *BinOp) Kind() types.Kind { return b.typ }

func (b *BinOp) Eval(row types.Row) types.Value {
	switch b.Op {
	case OpAnd:
		return evalAnd(b.L, b.R, row)
	case OpOr:
		return evalOr(b.L, b.R, row)
	}
	lv := b.L.Eval(row)
	rv := b.R.Eval(row)
	if lv.IsNull() || rv.IsNull() {
		return types.Null
	}
	if b.Op.IsComparison() {
		return evalComparison(b.Op, lv, rv)
	}
	return evalArith(b.Op, lv, rv, b.typ)
}

// evalAnd implements three-valued AND with short-circuiting on FALSE.
func evalAnd(l, r Expr, row types.Row) types.Value {
	lv := l.Eval(row)
	if lv.K == types.KindBool && !lv.Bool() {
		return types.NewBool(false)
	}
	rv := r.Eval(row)
	if rv.K == types.KindBool && !rv.Bool() {
		return types.NewBool(false)
	}
	if lv.IsNull() || rv.IsNull() {
		return types.Null
	}
	return types.NewBool(lv.Bool() && rv.Bool())
}

// evalOr implements three-valued OR with short-circuiting on TRUE.
func evalOr(l, r Expr, row types.Row) types.Value {
	lv := l.Eval(row)
	if lv.K == types.KindBool && lv.Bool() {
		return types.NewBool(true)
	}
	rv := r.Eval(row)
	if rv.K == types.KindBool && rv.Bool() {
		return types.NewBool(true)
	}
	if lv.IsNull() || rv.IsNull() {
		return types.Null
	}
	return types.NewBool(lv.Bool() || rv.Bool())
}

func evalComparison(op Op, lv, rv types.Value) types.Value {
	c := types.Compare(lv, rv)
	switch op {
	case OpEq:
		return types.NewBool(c == 0)
	case OpNe:
		return types.NewBool(c != 0)
	case OpLt:
		return types.NewBool(c < 0)
	case OpLe:
		return types.NewBool(c <= 0)
	case OpGt:
		return types.NewBool(c > 0)
	case OpGe:
		return types.NewBool(c >= 0)
	default:
		panic("expr: not a comparison")
	}
}

func evalArith(op Op, lv, rv types.Value, typ types.Kind) types.Value {
	// Date arithmetic: date ± integer days.
	if typ == types.KindDate {
		l, r := lv.Int(), rv.Int()
		switch op {
		case OpAdd:
			return types.NewDate(l + r)
		case OpSub:
			return types.NewDate(l - r)
		default:
			panic(fmt.Sprintf("expr: %s on dates", op))
		}
	}
	if typ == types.KindInt {
		l, r := lv.Int(), rv.Int()
		switch op {
		case OpAdd:
			return types.NewInt(l + r)
		case OpSub:
			return types.NewInt(l - r)
		case OpMul:
			return types.NewInt(l * r)
		case OpMod:
			if r == 0 {
				return types.Null
			}
			return types.NewInt(l % r)
		}
	}
	l, r := lv.Float(), rv.Float()
	switch op {
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
	case OpMod:
		// Float modulo truncates both operands to integers, so a divisor
		// that truncates to 0 — anything in (-1, 1), and NaN where the
		// conversion yields 0 — is a zero divisor: NULL.
		d := int64(r)
		if d == 0 {
			return types.Null
		}
		return types.NewFloat(float64(int64(l) % d))
	default:
		panic(fmt.Sprintf("expr: unhandled arithmetic %s", op))
	}
}

func (b *BinOp) String() string {
	return fmt.Sprintf("(%s %s %s)", b.L, b.Op, b.R)
}

func (b *BinOp) Children() []Expr { return []Expr{b.L, b.R} }

func (b *BinOp) WithChildren(children []Expr) Expr {
	mustArity("BinOp", children, 2)
	return NewBinOp(b.Op, children[0], children[1])
}

// ---------------------------------------------------------------------------
// Unary operators

// Not negates a boolean expression under three-valued logic.
type Not struct {
	E Expr
}

// NewNot constructs a logical negation.
func NewNot(e Expr) *Not { return &Not{E: e} }

func (n *Not) Kind() types.Kind { return types.KindBool }

func (n *Not) Eval(row types.Row) types.Value {
	v := n.E.Eval(row)
	if v.IsNull() {
		return types.Null
	}
	return types.NewBool(!v.Bool())
}

func (n *Not) String() string   { return fmt.Sprintf("NOT %s", n.E) }
func (n *Not) Children() []Expr { return []Expr{n.E} }

func (n *Not) WithChildren(children []Expr) Expr {
	mustArity("Not", children, 1)
	return NewNot(children[0])
}

// Neg is arithmetic negation.
type Neg struct {
	E Expr
}

// NewNeg constructs an arithmetic negation.
func NewNeg(e Expr) *Neg { return &Neg{E: e} }

func (n *Neg) Kind() types.Kind { return n.E.Kind() }

func (n *Neg) Eval(row types.Row) types.Value { return negValue(n.E.Eval(row)) }

func negValue(v types.Value) types.Value {
	switch v.K {
	case types.KindNull:
		return types.Null
	case types.KindInt:
		return types.NewInt(-v.I)
	case types.KindFloat:
		return types.NewFloat(-v.F)
	default:
		panic(fmt.Sprintf("expr: negate %s", v.K))
	}
}

func (n *Neg) String() string   { return fmt.Sprintf("-(%s)", n.E) }
func (n *Neg) Children() []Expr { return []Expr{n.E} }

func (n *Neg) WithChildren(children []Expr) Expr {
	mustArity("Neg", children, 1)
	return NewNeg(children[0])
}

// IsNull tests nullness (IS NULL / IS NOT NULL).
type IsNull struct {
	E      Expr
	Negate bool
}

// NewIsNull constructs an IS [NOT] NULL test.
func NewIsNull(e Expr, negate bool) *IsNull { return &IsNull{E: e, Negate: negate} }

func (i *IsNull) Kind() types.Kind { return types.KindBool }

func (i *IsNull) Eval(row types.Row) types.Value {
	isNull := i.E.Eval(row).IsNull()
	return types.NewBool(isNull != i.Negate)
}

func (i *IsNull) String() string {
	if i.Negate {
		return fmt.Sprintf("%s IS NOT NULL", i.E)
	}
	return fmt.Sprintf("%s IS NULL", i.E)
}

func (i *IsNull) Children() []Expr { return []Expr{i.E} }

func (i *IsNull) WithChildren(children []Expr) Expr {
	mustArity("IsNull", children, 1)
	return NewIsNull(children[0], i.Negate)
}

// ---------------------------------------------------------------------------
// IN-list, CASE, CAST

// InList tests membership in a list of expressions (usually literals).
type InList struct {
	E      Expr
	List   []Expr
	Negate bool
}

// NewInList constructs an IN-list membership test.
func NewInList(e Expr, list []Expr, negate bool) *InList {
	return &InList{E: e, List: list, Negate: negate}
}

func (in *InList) Kind() types.Kind { return types.KindBool }

func (in *InList) Eval(row types.Row) types.Value {
	v := in.E.Eval(row)
	if v.IsNull() {
		return types.Null
	}
	sawNull := false
	for _, item := range in.List {
		iv := item.Eval(row)
		if iv.IsNull() {
			sawNull = true
			continue
		}
		if types.Equal(v, iv) {
			return types.NewBool(!in.Negate)
		}
	}
	if sawNull {
		return types.Null
	}
	return types.NewBool(in.Negate)
}

func (in *InList) String() string {
	items := make([]string, len(in.List))
	for i, e := range in.List {
		items[i] = e.String()
	}
	not := ""
	if in.Negate {
		not = "NOT "
	}
	return fmt.Sprintf("%s %sIN (%s)", in.E, not, strings.Join(items, ", "))
}

func (in *InList) Children() []Expr {
	out := make([]Expr, 0, len(in.List)+1)
	out = append(out, in.E)
	out = append(out, in.List...)
	return out
}

func (in *InList) WithChildren(children []Expr) Expr {
	mustArity("InList", children, len(in.List)+1)
	list := make([]Expr, len(in.List))
	copy(list, children[1:])
	return NewInList(children[0], list, in.Negate)
}

// When is one arm of a CASE expression.
type When struct {
	Cond   Expr
	Result Expr
}

// Case is a searched CASE expression.
type Case struct {
	Whens []When
	Else  Expr // may be nil (yields NULL)
	typ   types.Kind
}

// NewCase constructs a searched CASE expression.
func NewCase(whens []When, els Expr) *Case {
	typ := types.KindNull
	for _, w := range whens {
		if k := w.Result.Kind(); k != types.KindNull {
			typ = k
			break
		}
	}
	if typ == types.KindNull && els != nil {
		typ = els.Kind()
	}
	return &Case{Whens: whens, Else: els, typ: typ}
}

func (c *Case) Kind() types.Kind { return c.typ }

func (c *Case) Eval(row types.Row) types.Value {
	for _, w := range c.Whens {
		v := w.Cond.Eval(row)
		if v.K == types.KindBool && v.Bool() {
			return w.Result.Eval(row)
		}
	}
	if c.Else != nil {
		return c.Else.Eval(row)
	}
	return types.Null
}

func (c *Case) String() string {
	var sb strings.Builder
	sb.WriteString("CASE")
	for _, w := range c.Whens {
		fmt.Fprintf(&sb, " WHEN %s THEN %s", w.Cond, w.Result)
	}
	if c.Else != nil {
		fmt.Fprintf(&sb, " ELSE %s", c.Else)
	}
	sb.WriteString(" END")
	return sb.String()
}

func (c *Case) Children() []Expr {
	out := make([]Expr, 0, 2*len(c.Whens)+1)
	for _, w := range c.Whens {
		out = append(out, w.Cond, w.Result)
	}
	if c.Else != nil {
		out = append(out, c.Else)
	}
	return out
}

func (c *Case) WithChildren(children []Expr) Expr {
	want := 2 * len(c.Whens)
	if c.Else != nil {
		want++
	}
	mustArity("Case", children, want)
	whens := make([]When, len(c.Whens))
	for i := range whens {
		whens[i] = When{Cond: children[2*i], Result: children[2*i+1]}
	}
	var els Expr
	if c.Else != nil {
		els = children[len(children)-1]
	}
	return NewCase(whens, els)
}

// Cast converts a value to another kind.
type Cast struct {
	E  Expr
	To types.Kind
}

// NewCast constructs a cast.
func NewCast(e Expr, to types.Kind) *Cast { return &Cast{E: e, To: to} }

func (c *Cast) Kind() types.Kind { return c.To }

func (c *Cast) Eval(row types.Row) types.Value { return castValue(c.E.Eval(row), c.To) }

func castValue(v types.Value, to types.Kind) types.Value {
	if v.IsNull() {
		return types.Null
	}
	switch to {
	case types.KindInt:
		return types.NewInt(v.Int())
	case types.KindFloat:
		return types.NewFloat(v.Float())
	case types.KindString:
		return types.NewString(v.String())
	case types.KindDate:
		if v.K == types.KindString {
			d, err := types.ParseDate(v.S)
			if err != nil {
				return types.Null
			}
			return d
		}
		return types.NewDate(v.Int())
	case types.KindBool:
		if v.K == types.KindBool {
			return v
		}
		return types.NewBool(v.Int() != 0)
	default:
		return types.Null
	}
}

func (c *Cast) String() string   { return fmt.Sprintf("CAST(%s AS %s)", c.E, c.To) }
func (c *Cast) Children() []Expr { return []Expr{c.E} }

func (c *Cast) WithChildren(children []Expr) Expr {
	mustArity("Cast", children, 1)
	return NewCast(children[0], c.To)
}

func mustArity(node string, children []Expr, want int) {
	if len(children) != want {
		panic(fmt.Sprintf("expr: %s.WithChildren got %d children, want %d",
			node, len(children), want))
	}
}
