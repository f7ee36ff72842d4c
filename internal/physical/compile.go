package physical

import (
	"fmt"
	"slices"

	"gignite/internal/expr"
	"gignite/internal/types"
)

// Compile gives the operators of the plan rooted at n the compiled form of
// every expression the executor evaluates per row: a Filter's condition, a
// Project's expressions, a join's residual condition and an aggregate's
// arguments (expr.CompilePredicate, expr.CompileScalar). It compiles only
// what is missing or stale — a copy (Copy) shares its original's kernels,
// and recompiles only the expressions its rewrite replaced — and returns
// how many expressions it compiled.
//
// Compile writes the operators, so it runs before a plan is shared: on the
// plan a cache or a prepared statement keeps, and in cluster.Run before
// any instance starts, where a plan that came compiled is only read. The
// executor refuses an operator it was not run on.
func Compile(n Node) int {
	k := compileNode(n)
	for _, in := range n.Inputs() {
		k += Compile(in)
	}
	return k
}

// compileNode is Compile for one operator, leaving its inputs alone.
func compileNode(n Node) int {
	k := 0
	switch t := n.(type) {
	case *Filter:
		if t.pred.Source() != t.Cond {
			t.pred = expr.CompilePredicate(t.Cond)
			k++
		}
	case *Project:
		if stale(t.cols, t.Exprs, self) {
			t.cols, k = compileScalars(t.cols, t.Exprs, self)
		}
	case *Join:
		if t.residualOf != t.Cond {
			t.residual, t.residualOf = residual(t), t.Cond
			k++
		}
	case *HashAggregate:
		if stale(t.args, t.Aggs, aggArg) {
			t.args, k = compileScalars(t.args, t.Aggs, aggArg)
		}
	case *SortAggregate:
		if stale(t.args, t.Aggs, aggArg) {
			t.args, k = compileScalars(t.args, t.Aggs, aggArg)
		}
	}
	return k
}

// Kernels are one operator's compiled expressions with an execution's
// arguments bound (Bind).
type Kernels struct {
	// Pred is a Filter's condition or a Join's residual (nil: nothing
	// left to test).
	Pred *expr.Predicate
	// Cols are a Project's expressions.
	Cols []*expr.Scalar
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

// Bind compiles n's expressions with every placeholder replaced by its
// argument, args[ordinal], and returns them with how many expressions it
// compiled: only those holding a placeholder, since the rest keep n's own
// kernels. It writes nothing reachable from n, so one shared plan serves
// every execution, each with kernels of its own.
func Bind(n Node, args []types.Value) (*Kernels, int) {
	cp := Copy(n, func(e expr.Expr) expr.Expr {
		if p, ok := e.(*expr.Param); ok {
			return expr.NewLit(args[p.Ordinal])
		}
		return e
	})
	k := compileNode(cp)
	switch t := cp.(type) {
	case *Filter:
		return &Kernels{Pred: t.pred}, k
	case *Join:
		return &Kernels{Pred: t.residual}, k
	case *Project:
		return &Kernels{Cols: t.cols}, k
	}
	return nil, 0
}

func self(e expr.Expr) expr.Expr      { return e }
func aggArg(a expr.AggCall) expr.Expr { return a.Arg }

// stale reports whether have are not the kernels of the expressions of
// items.
func stale[T any](have []*expr.Scalar, items []T, exprOf func(T) expr.Expr) bool {
	if len(have) != len(items) {
		return true
	}
	for i, it := range items {
		if have[i].Source() != exprOf(it) {
			return true
		}
	}
	return false
}

// compileScalars returns fresh kernels of the expressions of items (nil
// for a nil expression), reusing those of have that were compiled from
// the same expression, and how many it compiled. It never writes into
// have, which a copied operator shares with its original. Its callers
// call it only for stale kernels, so that a compiled operator, which
// executions share, is never written.
func compileScalars[T any](have []*expr.Scalar, items []T, exprOf func(T) expr.Expr) ([]*expr.Scalar, int) {
	out := make([]*expr.Scalar, len(items))
	k := 0
	for i, it := range items {
		e := exprOf(it)
		switch {
		case i < len(have) && have[i].Source() == e:
			out[i] = have[i]
		case e != nil:
			out[i] = expr.CompileScalar(e)
			k++
		}
	}
	return out, k
}

// residual is what a join still tests of its condition once its algorithm
// has matched a candidate's keys. A hash probe (EqualOn) and a merge
// (equal keys) verify every equi key, so when SplitJoinCondition turns the
// condition into exactly the join's Keys, the conjuncts it took them from
// are dropped — nil means nothing is left to test. A nested loop verifies
// nothing and tests the whole condition.
func residual(j *Join) *expr.Predicate {
	if j.Algo != NestedLoop {
		keys, rest := expr.SplitJoinCondition(j.Cond, len(j.inputs[0].Schema()))
		if slices.Equal(keys, j.Keys) {
			if len(rest) == 0 {
				return nil
			}
			return expr.CompilePredicate(expr.Conjunction(rest))
		}
	}
	return expr.CompilePredicate(j.Cond)
}

// Predicate returns the compiled condition.
func (f *Filter) Predicate() *expr.Predicate {
	if f.pred.Source() != f.Cond {
		panic(notCompiled(f))
	}
	return f.pred
}

// Kernels returns the compiled expressions, in output order.
func (p *Project) Kernels() []*expr.Scalar {
	if stale(p.cols, p.Exprs, self) {
		panic(notCompiled(p))
	}
	return p.cols
}

// Residual returns what the join tests of its condition per candidate
// once the keys matched; nil when nothing is left.
func (j *Join) Residual() *expr.Predicate {
	if j.residualOf != j.Cond {
		panic(notCompiled(j))
	}
	return j.residual
}

// Args returns the compiled aggregate arguments (nil for COUNT(*)).
func (a *HashAggregate) Args() []*expr.Scalar { return compiledArgs(a, a.args, a.Aggs) }

// Args returns the compiled aggregate arguments (nil for COUNT(*)).
func (a *SortAggregate) Args() []*expr.Scalar { return compiledArgs(a, a.args, a.Aggs) }

func compiledArgs(n Node, args []*expr.Scalar, aggs []expr.AggCall) []*expr.Scalar {
	if stale(args, aggs, aggArg) {
		panic(notCompiled(n))
	}
	return args
}

func notCompiled(n Node) string {
	return fmt.Sprintf("physical: %s was not compiled (physical.Compile)", n.Describe())
}
