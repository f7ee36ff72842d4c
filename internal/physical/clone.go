package physical

import (
	"fmt"

	"gignite/internal/expr"
)

// CloneTree deep-copies a physical plan through Copy, rewriting every
// scalar expression through rewrite (nil keeps expressions shared). The
// copy preserves DAG shape exactly: a subtree shared between two
// consumers is cloned once and both clones point at the same copy.
//
// Its last caller is bench's staged mirror of Engine.run; the engine
// splits a plan once, when it plans it, and binds arguments into a copy
// of the split's kernel table (Bind), never into a copy of the plan.
func CloneTree(root Node, rewrite func(expr.Expr) expr.Expr) Node {
	memo := make(map[Node]Node)
	var clone func(n Node) Node
	clone = func(n Node) Node {
		if m, ok := memo[n]; ok {
			return m
		}
		out := Copy(n, rewrite)
		memo[n] = out
		if ins := n.Inputs(); len(ins) > 0 {
			newIns := make([]Node, len(ins))
			for i, in := range ins {
				newIns[i] = clone(in)
			}
			out.SetInputs(newIns)
		}
		return out
	}
	return clone(root)
}

// Copy returns a shallow copy of one operator: a fresh node that shares
// the original's inputs and properties. Its scalar expressions are
// rewritten through rewrite (expr.Transform), or shared when rewrite is
// nil — expressions are immutable. Copy panics on a node type it does not
// know, so a new operator cannot be silently shared.
func Copy(n Node, rewrite func(expr.Expr) expr.Expr) Node {
	switch t := n.(type) {
	case *TableScan:
		return shallow(t)
	case *IndexScan:
		return shallow(t)
	case *Values:
		return shallow(t)
	case *Filter:
		t = shallow(t)
		t.Cond = rewriteExpr(t.Cond, rewrite)
		return t
	case *Project:
		t = shallow(t)
		if rewrite != nil {
			t.Exprs = rewriteAll(t.Exprs, func(e *expr.Expr) { *e = rewriteExpr(*e, rewrite) })
		}
		return t
	case *Sort:
		return shallow(t)
	case *Limit:
		return shallow(t)
	case *HashAggregate:
		t = shallow(t)
		if rewrite != nil {
			t.Aggs = rewriteAll(t.Aggs, func(a *expr.AggCall) { a.Arg = rewriteExpr(a.Arg, rewrite) })
		}
		return t
	case *SortAggregate:
		t = shallow(t)
		if rewrite != nil {
			t.Aggs = rewriteAll(t.Aggs, func(a *expr.AggCall) { a.Arg = rewriteExpr(a.Arg, rewrite) })
		}
		return t
	case *Join:
		t = shallow(t)
		t.Cond = rewriteExpr(t.Cond, rewrite)
		return t
	case *Exchange:
		return shallow(t)
	case *Sender:
		return shallow(t)
	case *Receiver:
		return shallow(t)
	default:
		panic(fmt.Sprintf("physical: Copy: unhandled node type %T", n))
	}
}

func shallow[T any](t *T) *T {
	cp := *t
	return &cp
}

func rewriteExpr(e expr.Expr, rewrite func(expr.Expr) expr.Expr) expr.Expr {
	if e == nil || rewrite == nil {
		return e
	}
	return expr.Transform(e, rewrite)
}

// rewriteAll returns a fresh copy of items with fn applied to each
// element, leaving the shared original slice untouched.
func rewriteAll[T any](items []T, fn func(*T)) []T {
	out := make([]T, len(items))
	copy(out, items)
	for i := range out {
		fn(&out[i])
	}
	return out
}
