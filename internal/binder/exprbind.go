package binder

import (
	"fmt"
	"slices"
	"strconv"
	"strings"

	"gignite/internal/expr"
	"gignite/internal/sql"
	"gignite/internal/types"
)

// exprBinder converts AST expressions into typed expr trees.
//
// Name resolution is two-phase: the inner scope first, then (when set) the
// outer scope — the fallback marks correlation. When an outer scope is
// present, the produced column references address the concatenated
// [outer ++ inner] row: outer columns keep their indices and inner columns
// are shifted by the outer width.
//
// When aggs is non-nil, aggregate function calls are permitted: their
// arguments are bound against the input scope, the calls are collected
// (deduplicated by AggCall.Equal), and a placeholder node stands in for the
// value until rewritePostAggRec maps it to the aggregate operator's output.
type exprBinder struct {
	b     *Binder
	inner *scope
	outer *scope
	aggs  *aggCollector
}

// aggCollector accumulates aggregate calls found while binding.
type aggCollector struct {
	calls []expr.AggCall
}

// add returns call's index, collecting it unless an AggCall.Equal call is
// already there.
func (c *aggCollector) add(call expr.AggCall) int {
	if i := slices.IndexFunc(c.calls, call.Equal); i >= 0 {
		return i
	}
	c.calls = append(c.calls, call)
	return len(c.calls) - 1
}

// aggPlaceholder stands in for the value of collected aggregate call i
// until the aggregate operator is built. It must never be evaluated.
type aggPlaceholder struct {
	idx  int
	kind types.Kind
}

func (a *aggPlaceholder) Kind() types.Kind { return a.kind }

func (a *aggPlaceholder) Eval(types.Row) types.Value {
	panic("binder: aggregate placeholder evaluated; rewritePostAggRec was not applied")
}

func (a *aggPlaceholder) String() string        { return fmt.Sprintf("#agg%d", a.idx) }
func (a *aggPlaceholder) Children() []expr.Expr { return nil }

func (a *aggPlaceholder) WithChildren(children []expr.Expr) expr.Expr {
	if len(children) != 0 {
		panic("binder: aggPlaceholder has no children")
	}
	return a
}

// bind converts one AST node.
func (eb *exprBinder) bind(n sql.Node) (expr.Expr, error) {
	switch e := n.(type) {
	case *sql.Ident:
		return eb.bindIdent(e)
	case *sql.NumberLit:
		if e.IsInt {
			v, err := strconv.ParseInt(e.Text, 10, 64)
			if err != nil {
				return nil, fmt.Errorf("binder: bad integer literal %q", e.Text)
			}
			return expr.NewLit(types.NewInt(v)), nil
		}
		v, err := strconv.ParseFloat(e.Text, 64)
		if err != nil {
			return nil, fmt.Errorf("binder: bad numeric literal %q", e.Text)
		}
		return expr.NewLit(types.NewFloat(v)), nil
	case *sql.StringLit:
		return expr.NewLit(types.NewString(e.Val)), nil
	case *sql.NullLit:
		return expr.NewLit(types.Null), nil
	case *sql.DateLit:
		v, err := types.ParseDate(e.Val)
		if err != nil {
			return nil, err
		}
		return expr.NewLit(v), nil
	case *sql.IntervalLit:
		return nil, fmt.Errorf("binder: interval literal outside date arithmetic")
	case *sql.ParamExpr:
		if eb.b == nil {
			return nil, fmt.Errorf("binder: parameters are not supported here")
		}
		// The placeholder starts untyped; bindBinary/BETWEEN/IN contexts
		// upgrade the hint from the sibling operand via hintParam.
		eb.b.noteParam(e.Ordinal, types.KindNull)
		return expr.NewParam(e.Ordinal, types.KindNull), nil
	case *sql.BinaryExpr:
		return eb.bindBinary(e)
	case *sql.UnaryExpr:
		inner, err := eb.bind(e.E)
		if err != nil {
			return nil, err
		}
		if strings.EqualFold(e.Op, "NOT") {
			return expr.NewNot(inner), nil
		}
		return expr.NewNeg(inner), nil
	case *sql.FuncCall:
		return eb.bindFunc(e)
	case *sql.CaseExpr:
		whens := make([]expr.When, len(e.Whens))
		for i, w := range e.Whens {
			cond, err := eb.bind(w.Cond)
			if err != nil {
				return nil, err
			}
			res, err := eb.bind(w.Result)
			if err != nil {
				return nil, err
			}
			whens[i] = expr.When{Cond: cond, Result: res}
		}
		var els expr.Expr
		if e.Else != nil {
			var err error
			els, err = eb.bind(e.Else)
			if err != nil {
				return nil, err
			}
		}
		return expr.NewCase(whens, els), nil
	case *sql.InExpr:
		if e.Select != nil {
			return nil, fmt.Errorf("binder: IN subqueries are only supported as top-level WHERE/HAVING conjuncts")
		}
		lhs, err := eb.bind(e.E)
		if err != nil {
			return nil, err
		}
		list := make([]expr.Expr, len(e.List))
		for i, item := range e.List {
			list[i], err = eb.bind(item)
			if err != nil {
				return nil, err
			}
			list[i] = eb.hintParam(list[i], lhs.Kind())
			lhs = eb.hintParam(lhs, list[i].Kind())
		}
		return expr.NewInList(lhs, list, e.Negate), nil
	case *sql.BetweenExpr:
		// Desugar to lo <= e AND e <= hi (negated: e < lo OR e > hi).
		v, err := eb.bind(e.E)
		if err != nil {
			return nil, err
		}
		lo, err := eb.bind(e.Lo)
		if err != nil {
			return nil, err
		}
		hi, err := eb.bind(e.Hi)
		if err != nil {
			return nil, err
		}
		lo = eb.hintParam(lo, v.Kind())
		hi = eb.hintParam(hi, v.Kind())
		v = eb.hintParam(v, lo.Kind())
		v = eb.hintParam(v, hi.Kind())
		if e.Negate {
			return expr.NewBinOp(expr.OpOr,
				expr.NewBinOp(expr.OpLt, v, lo),
				expr.NewBinOp(expr.OpGt, v, hi)), nil
		}
		return expr.NewBinOp(expr.OpAnd,
			expr.NewBinOp(expr.OpGe, v, lo),
			expr.NewBinOp(expr.OpLe, v, hi)), nil
	case *sql.LikeExpr:
		v, err := eb.bind(e.E)
		if err != nil {
			return nil, err
		}
		pat, err := eb.bind(e.Pattern)
		if err != nil {
			return nil, err
		}
		lit, ok := expr.Fold(pat).(*expr.Lit)
		if !ok || lit.Val.K != types.KindString {
			return nil, fmt.Errorf("binder: LIKE pattern must be a constant string")
		}
		return expr.NewLike(v, lit.Val.S, e.Negate), nil
	case *sql.IsNullExpr:
		v, err := eb.bind(e.E)
		if err != nil {
			return nil, err
		}
		return expr.NewIsNull(v, e.Negate), nil
	case *sql.CastExpr:
		v, err := eb.bind(e.E)
		if err != nil {
			return nil, err
		}
		k, err := KindOfTypeName(e.Type)
		if err != nil {
			return nil, err
		}
		return expr.NewCast(v, k), nil
	case *sql.ExtractExpr:
		v, err := eb.bind(e.E)
		if err != nil {
			return nil, err
		}
		switch e.Field {
		case "YEAR":
			return expr.MustFunc(expr.FuncExtractYear, v), nil
		case "MONTH":
			return expr.MustFunc(expr.FuncExtractMonth, v), nil
		default:
			return nil, fmt.Errorf("binder: unsupported EXTRACT field %s", e.Field)
		}
	case *sql.SubstringExpr:
		s, err := eb.bind(e.S)
		if err != nil {
			return nil, err
		}
		from, err := eb.bind(e.From)
		if err != nil {
			return nil, err
		}
		forN, err := eb.bind(e.For)
		if err != nil {
			return nil, err
		}
		return expr.MustFunc(expr.FuncSubstring, s, from, forN), nil
	case *sql.SubqueryExpr:
		return nil, fmt.Errorf("binder: scalar subqueries are only supported as top-level WHERE/HAVING comparison operands")
	case *sql.ExistsExpr:
		return nil, fmt.Errorf("binder: EXISTS is only supported as a top-level WHERE conjunct")
	default:
		return nil, fmt.Errorf("binder: unsupported expression %T", n)
	}
}

func (eb *exprBinder) bindIdent(id *sql.Ident) (expr.Expr, error) {
	idx, f, err := eb.inner.resolve(id.Qualifier, id.Name)
	if err == nil {
		if eb.outer != nil {
			idx += len(eb.outer.fields)
		}
		return expr.NewColRef(idx, f.Kind, f.Name), nil
	}
	if !isUnresolved(err) {
		return nil, err
	}
	if eb.outer != nil {
		oidx, of, oerr := eb.outer.resolve(id.Qualifier, id.Name)
		if oerr == nil {
			return expr.NewColRef(oidx, of.Kind, of.Name), nil
		}
	}
	return nil, err
}

func (eb *exprBinder) bindBinary(e *sql.BinaryExpr) (expr.Expr, error) {
	// Date ± interval arithmetic folds to a date literal.
	if iv, ok := e.R.(*sql.IntervalLit); ok {
		return eb.bindIntervalArith(e.L, e.Op, iv)
	}
	if iv, ok := e.L.(*sql.IntervalLit); ok {
		if e.Op != "+" {
			return nil, fmt.Errorf("binder: interval must be the right operand of -")
		}
		return eb.bindIntervalArith(e.R, e.Op, iv)
	}
	l, err := eb.bind(e.L)
	if err != nil {
		return nil, err
	}
	r, err := eb.bind(e.R)
	if err != nil {
		return nil, err
	}
	op, err := opOf(e.Op)
	if err != nil {
		return nil, err
	}
	l = eb.hintParam(l, r.Kind())
	r = eb.hintParam(r, l.Kind())
	return expr.NewBinOp(op, l, r), nil
}

// hintParam retypes an untyped placeholder with a kind inferred from its
// sibling operand, recording the hint on the binder so execution can
// coerce arguments accordingly. Non-params and already-typed params pass
// through.
func (eb *exprBinder) hintParam(e expr.Expr, kind types.Kind) expr.Expr {
	p, ok := e.(*expr.Param)
	if !ok || p.Typ != types.KindNull || kind == types.KindNull || eb.b == nil {
		return e
	}
	eb.b.noteParam(p.Ordinal, kind)
	return expr.NewParam(p.Ordinal, kind)
}

func (eb *exprBinder) bindIntervalArith(dateNode sql.Node, op string, iv *sql.IntervalLit) (expr.Expr, error) {
	d, err := eb.bind(dateNode)
	if err != nil {
		return nil, err
	}
	lit, ok := expr.Fold(d).(*expr.Lit)
	if !ok || lit.Val.K != types.KindDate {
		return nil, fmt.Errorf("binder: interval arithmetic requires a constant date operand")
	}
	n := iv.N
	switch op {
	case "+":
	case "-":
		n = -n
	default:
		return nil, fmt.Errorf("binder: unsupported interval operator %q", op)
	}
	v, err := expr.AddInterval(lit.Val, n, iv.Unit)
	if err != nil {
		return nil, err
	}
	return expr.NewLit(v), nil
}

func opOf(op string) (expr.Op, error) {
	switch strings.ToUpper(op) {
	case "+":
		return expr.OpAdd, nil
	case "-":
		return expr.OpSub, nil
	case "*":
		return expr.OpMul, nil
	case "/":
		return expr.OpDiv, nil
	case "%":
		return expr.OpMod, nil
	case "=":
		return expr.OpEq, nil
	case "<>":
		return expr.OpNe, nil
	case "<":
		return expr.OpLt, nil
	case "<=":
		return expr.OpLe, nil
	case ">":
		return expr.OpGt, nil
	case ">=":
		return expr.OpGe, nil
	case "AND":
		return expr.OpAnd, nil
	case "OR":
		return expr.OpOr, nil
	default:
		return 0, fmt.Errorf("binder: unsupported operator %q", op)
	}
}

func (eb *exprBinder) bindFunc(f *sql.FuncCall) (expr.Expr, error) {
	if sql.IsAggregateName(f.Name) {
		return eb.bindAggCall(f)
	}
	switch strings.ToUpper(f.Name) {
	case "UPPER", "LOWER", "ABS", "CHAR_LENGTH", "LENGTH":
		if len(f.Args) != 1 {
			return nil, fmt.Errorf("binder: %s expects one argument", f.Name)
		}
		arg, err := eb.bind(f.Args[0])
		if err != nil {
			return nil, err
		}
		var name expr.FuncName
		switch strings.ToUpper(f.Name) {
		case "UPPER":
			name = expr.FuncUpper
		case "LOWER":
			name = expr.FuncLower
		case "ABS":
			name = expr.FuncAbs
		default:
			name = expr.FuncLength
		}
		return expr.MustFunc(name, arg), nil
	default:
		return nil, fmt.Errorf("binder: unknown function %s", f.Name)
	}
}

func (eb *exprBinder) bindAggCall(f *sql.FuncCall) (expr.Expr, error) {
	if eb.aggs == nil {
		return nil, fmt.Errorf("binder: aggregate %s is not allowed here", f.Name)
	}
	call := expr.AggCall{Distinct: f.Distinct}
	switch strings.ToUpper(f.Name) {
	case "COUNT":
		call.Func = expr.AggCount
	case "SUM":
		call.Func = expr.AggSum
	case "AVG":
		call.Func = expr.AggAvg
	case "MIN":
		call.Func = expr.AggMin
	case "MAX":
		call.Func = expr.AggMax
	}
	if f.Star {
		if call.Func != expr.AggCount {
			return nil, fmt.Errorf("binder: %s(*) is not valid", f.Name)
		}
	} else {
		if len(f.Args) != 1 {
			return nil, fmt.Errorf("binder: %s expects one argument", f.Name)
		}
		// Aggregate arguments bind over the input scope; nested aggregates
		// are invalid.
		saved := eb.aggs
		eb.aggs = nil
		arg, err := eb.bind(f.Args[0])
		eb.aggs = saved
		if err != nil {
			return nil, err
		}
		call.Arg = arg
	}
	idx := eb.aggs.add(call)
	return &aggPlaceholder{idx: idx, kind: call.Kind()}, nil
}

// containsAggregate reports whether a query uses aggregate functions in
// its SELECT items or HAVING clause.
func containsAggregate(sel *sql.SelectStmt) bool {
	for _, item := range sel.Items {
		if item.Expr != nil && nodeHasAggregate(item.Expr) {
			return true
		}
	}
	return sel.Having != nil && nodeHasAggregate(sel.Having)
}

func nodeHasAggregate(n sql.Node) bool {
	switch e := n.(type) {
	case *sql.FuncCall:
		if sql.IsAggregateName(e.Name) {
			return true
		}
		for _, a := range e.Args {
			if nodeHasAggregate(a) {
				return true
			}
		}
	case *sql.BinaryExpr:
		return nodeHasAggregate(e.L) || nodeHasAggregate(e.R)
	case *sql.UnaryExpr:
		return nodeHasAggregate(e.E)
	case *sql.CaseExpr:
		for _, w := range e.Whens {
			if nodeHasAggregate(w.Cond) || nodeHasAggregate(w.Result) {
				return true
			}
		}
		if e.Else != nil {
			return nodeHasAggregate(e.Else)
		}
	case *sql.InExpr:
		if nodeHasAggregate(e.E) {
			return true
		}
		for _, item := range e.List {
			if nodeHasAggregate(item) {
				return true
			}
		}
	case *sql.BetweenExpr:
		return nodeHasAggregate(e.E) || nodeHasAggregate(e.Lo) || nodeHasAggregate(e.Hi)
	case *sql.LikeExpr:
		return nodeHasAggregate(e.E)
	case *sql.IsNullExpr:
		return nodeHasAggregate(e.E)
	case *sql.CastExpr:
		return nodeHasAggregate(e.E)
	case *sql.ExtractExpr:
		return nodeHasAggregate(e.E)
	case *sql.SubstringExpr:
		return nodeHasAggregate(e.S) || nodeHasAggregate(e.From) || nodeHasAggregate(e.For)
	}
	return false
}
