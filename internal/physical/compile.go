package physical

import (
	"slices"

	"gignite/internal/expr"
	"gignite/internal/types"
)

// Kernels are one operator's compiled expressions (expr.CompilePredicate,
// expr.CompileScalar): what the executor evaluates per row. A split plan
// keeps them beside its operators, each fragment's in a table indexed by
// operator id (fragment.Fragment.Kernels); plan nodes hold none.
type Kernels struct {
	// Pred is a Filter's condition or a Join's residual (nil: nothing
	// left to test).
	Pred *expr.Predicate
	// Cols are a Project's expressions or an aggregate's arguments (nil
	// for COUNT(*)).
	Cols []*expr.Scalar
}

// Compile appends the kernels of ops to table, one entry per operator in
// order, and returns the extended table: a Filter's condition, a
// Project's expressions, a join's residual condition and an aggregate's
// arguments, each compiled; an operator that evaluates no expression has
// none. It writes nothing reachable from ops. Placeholders compile as
// they are, and an execution runs the entries that hold one bound to its
// arguments (Bind).
func Compile(table []Kernels, ops []Node) []Kernels {
	for _, n := range ops {
		var k Kernels
		switch t := n.(type) {
		case *Filter:
			k.Pred = expr.CompilePredicate(t.Cond)
		case *Join:
			if r := t.ResidualCond(); r != nil {
				k.Pred = expr.CompilePredicate(r)
			}
		case *Project:
			k.Cols = compileAll(t.Exprs, self)
		case *HashAggregate:
			k.Cols = compileAll(t.Aggs, aggArg)
		case *SortAggregate:
			k.Cols = compileAll(t.Aggs, aggArg)
		}
		table = append(table, k)
	}
	return table
}

// HoldsParam reports whether an expression of n holds a placeholder: only
// such an operator has kernels an execution must Bind. An aggregate never
// does: its arguments are columns of the projection below it (the binder
// plans every aggregate that way).
func HoldsParam(n Node) bool {
	switch t := n.(type) {
	case *Filter:
		return expr.HasParam(t.Cond)
	case *Join:
		return expr.HasParam(t.Cond)
	case *Project:
		return slices.ContainsFunc(t.Exprs, expr.HasParam)
	}
	return false
}

// Bind returns a copy of table, the kernels Compile made for ops, whose
// entries for the operators params names (those HoldsParam reports) are
// compiled again with every placeholder replaced by its argument,
// args[ordinal], and how many expressions it compiled: only those holding
// a placeholder. The copy shares every other kernel with table, and Bind
// writes nothing reachable from ops or table, so one split plan serves
// every execution, each with kernels of its own.
func Bind(table []Kernels, ops []Node, params []int, args []types.Value) ([]Kernels, int) {
	bind := func(e expr.Expr) expr.Expr {
		return expr.Transform(e, func(e expr.Expr) expr.Expr {
			if p, ok := e.(*expr.Param); ok {
				return expr.NewLit(args[p.Ordinal])
			}
			return e
		})
	}
	bound, k := slices.Clone(table), 0
	for _, id := range params {
		switch t := ops[id].(type) {
		case *Filter:
			bound[id].Pred = expr.CompilePredicate(bind(t.Cond))
			k++
		case *Join:
			// A placeholder is never an equi key, so it is in the
			// residual, and binding the residual binds the condition.
			bound[id].Pred = expr.CompilePredicate(bind(t.ResidualCond()))
			k++
		case *Project:
			cols := slices.Clone(table[id].Cols)
			for i, e := range t.Exprs {
				if expr.HasParam(e) {
					cols[i] = expr.CompileScalar(bind(e))
					k++
				}
			}
			bound[id].Cols = cols
		}
	}
	return bound, k
}

func self(e expr.Expr) expr.Expr      { return e }
func aggArg(a expr.AggCall) expr.Expr { return a.Arg }

// compileAll returns the kernels of the expressions of items (nil for a
// nil expression).
func compileAll[T any](items []T, exprOf func(T) expr.Expr) []*expr.Scalar {
	out := make([]*expr.Scalar, len(items))
	for i, it := range items {
		if e := exprOf(it); e != nil {
			out[i] = expr.CompileScalar(e)
		}
	}
	return out
}

// ResidualCond is what the join still tests of its condition once its
// algorithm has matched a candidate's keys. A hash probe (EqualOn) and a
// merge (equal keys) verify every equi key, so when SplitJoinCondition
// turns the condition into exactly the join's Keys, the conjuncts it took
// them from are dropped — nil means nothing is left to test. A nested
// loop verifies nothing and tests the whole condition.
func (j *Join) ResidualCond() expr.Expr {
	if j.Algo != NestedLoop {
		keys, rest := expr.SplitJoinCondition(j.Cond, len(j.inputs[0].Schema()))
		if slices.Equal(keys, j.Keys) {
			if len(rest) == 0 {
				return nil
			}
			return expr.Conjunction(rest)
		}
	}
	return j.Cond
}
