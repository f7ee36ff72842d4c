package physical

import (
	"fmt"

	"gignite/internal/expr"
)

// CloneTree deep-copies a physical plan, optionally rewriting every scalar
// expression through rewrite (nil keeps expressions shared — they are
// immutable, so sharing is safe). The copy preserves DAG shape exactly: a
// subtree the optimizer shares between two consumers is cloned once and
// both clones point at the same copy, because fragmentation's
// multi-consumer wave scheduling depends on that sharing.
//
// Cloning exists for the plan cache: fragment.Split rewires trees in place
// and the executor keys per-query state by node pointer, so a cached plan
// is never executed directly — each execution runs a fresh clone (with
// parameter placeholders substituted via rewrite) while the pristine plan
// stays in the cache.
func CloneTree(root Node, rewrite func(expr.Expr) expr.Expr) Node {
	c := &cloner{memo: make(map[Node]Node), rewrite: rewrite}
	return c.clone(root)
}

type cloner struct {
	memo    map[Node]Node
	rewrite func(expr.Expr) expr.Expr
}

func (c *cloner) expr(e expr.Expr) expr.Expr {
	if e == nil || c.rewrite == nil {
		return e
	}
	return expr.Transform(e, c.rewrite)
}

func (c *cloner) exprs(es []expr.Expr) []expr.Expr {
	if c.rewrite == nil {
		return es
	}
	out := make([]expr.Expr, len(es))
	for i, e := range es {
		out[i] = c.expr(e)
	}
	return out
}

func (c *cloner) aggs(as []expr.AggCall) []expr.AggCall {
	if c.rewrite == nil {
		return as
	}
	out := make([]expr.AggCall, len(as))
	copy(out, as)
	for i := range out {
		out[i].Arg = c.expr(out[i].Arg)
	}
	return out
}

// Copy returns a shallow copy of one operator: a fresh node that shares
// the original's inputs, expressions and properties. It panics on a node
// type it does not know, so a new operator cannot be silently shared.
func Copy(n Node) Node {
	switch t := n.(type) {
	case *TableScan:
		return shallow(t)
	case *IndexScan:
		return shallow(t)
	case *Values:
		return shallow(t)
	case *Filter:
		return shallow(t)
	case *Project:
		return shallow(t)
	case *Sort:
		return shallow(t)
	case *Limit:
		return shallow(t)
	case *HashAggregate:
		return shallow(t)
	case *SortAggregate:
		return shallow(t)
	case *Join:
		return shallow(t)
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

func (c *cloner) clone(n Node) Node {
	if n == nil {
		return nil
	}
	if m, ok := c.memo[n]; ok {
		return m
	}
	out := Copy(n)
	switch t := out.(type) {
	case *Filter:
		t.Cond = c.expr(t.Cond)
	case *Project:
		t.Exprs = c.exprs(t.Exprs)
	case *HashAggregate:
		t.Aggs = c.aggs(t.Aggs)
	case *SortAggregate:
		t.Aggs = c.aggs(t.Aggs)
	case *Join:
		t.Cond = c.expr(t.Cond)
	}
	c.memo[n] = out
	ins := n.Inputs()
	if len(ins) == 0 {
		out.SetInputs(nil)
		return out
	}
	// Always allocate a fresh input slice: fragmentation mutates input
	// slices in place, and the original may still be cached.
	newIns := make([]Node, len(ins))
	for i, in := range ins {
		newIns[i] = c.clone(in)
	}
	out.SetInputs(newIns)
	return out
}
