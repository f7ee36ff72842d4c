package binder

import (
	"fmt"
	"slices"
	"strings"

	"gignite/internal/expr"
	"gignite/internal/logical"
	"gignite/internal/sql"
)

// bindAggregation plans GROUP BY / aggregate queries:
//
//	input → buildAggregate → [HAVING filters and scalar-subquery joins] →
//	(select items become the caller's final projection)
//
// It returns the plan under the final projection and the rewritten select
// item expressions over that plan's schema.
func (b *Binder) bindAggregation(plan logical.Node, sc *scope, sel *sql.SelectStmt) (
	logical.Node, []expr.Expr, []string, error) {

	collector := &aggCollector{}

	// Bind GROUP BY expressions over the input scope.
	groupExprs := make([]expr.Expr, 0, len(sel.GroupBy))
	groupNames := make([]string, 0, len(sel.GroupBy))
	for _, g := range sel.GroupBy {
		eb := &exprBinder{b: b, inner: sc}
		e, err := eb.bind(g)
		if err != nil && isUnresolved(err) {
			// GROUP BY may reference a select-item alias.
			if e2, ok := b.groupByAlias(g, sel, sc); ok {
				e, err = e2, nil
			}
		}
		if err != nil {
			return nil, nil, nil, err
		}
		groupExprs = append(groupExprs, e)
		groupNames = append(groupNames, groupExprName(e))
	}

	// Pass A: bind select items and HAVING with aggregate collection.
	boundItems := make([]expr.Expr, len(sel.Items))
	itemNames := make([]string, len(sel.Items))
	for i, item := range sel.Items {
		if item.Star {
			return nil, nil, nil, fmt.Errorf("binder: SELECT * cannot be combined with GROUP BY or aggregates")
		}
		eb := &exprBinder{b: b, inner: sc, aggs: collector}
		e, err := eb.bind(item.Expr)
		if err != nil {
			return nil, nil, nil, err
		}
		boundItems[i] = e
		itemNames[i] = itemName(item)
	}

	// HAVING conjuncts: a scalar-subquery comparison binds its left
	// operand now and keeps its subquery for later expansion; anything
	// else binds whole (a scalarCompare with no subquery).
	type havingConjunct struct {
		e   expr.Expr // the predicate, or cmp's left operand
		cmp scalarCompare
	}
	var having []havingConjunct
	if sel.Having != nil {
		for _, conj := range splitASTConjuncts(sel.Having) {
			cmp, ok := asScalarCompare(conj)
			if !ok {
				cmp = scalarCompare{lhs: conj}
			}
			eb := &exprBinder{b: b, inner: sc, aggs: collector}
			e, err := eb.bind(cmp.lhs)
			if err != nil {
				return nil, nil, nil, err
			}
			having = append(having, havingConjunct{e: e, cmp: cmp})
		}
	}

	var out logical.Node = buildAggregate(plan, groupExprs, groupNames, collector.calls)

	// Apply HAVING.
	for _, h := range having {
		e, err := rewritePostAggRec(h.e, groupExprs)
		if err != nil {
			return nil, nil, nil, err
		}
		if h.cmp.sub == nil {
			out = logical.NewFilter(out, e)
			continue
		}
		out, err = b.bindScalarCompare(out, newScope(out.Schema()), e, h.cmp)
		if err != nil {
			return nil, nil, nil, err
		}
	}

	// Rewrite the select items over the aggregate output.
	itemExprs := make([]expr.Expr, len(boundItems))
	for i, e := range boundItems {
		r, err := rewritePostAggRec(e, groupExprs)
		if err != nil {
			return nil, nil, nil, err
		}
		itemExprs[i] = r
	}
	return out, itemExprs, itemNames, nil
}

// buildAggregate is the one place an aggregate is planned:
//
//	input → Project(groups ++ distinct call arguments) → Aggregate
//
// The group expressions lead the projection and are the aggregate's group
// columns; each distinct argument (by expr.Equal) follows once, and call i
// reads it as a column and is named __agg<i>. The output is the groups
// then the calls in order, which rewritePostAggRec addresses.
func buildAggregate(input logical.Node, groups []expr.Expr, groupNames []string, calls []expr.AggCall) *logical.Aggregate {
	var args []expr.Expr
	var argNames []string
	out := make([]expr.AggCall, len(calls))
	for i, call := range calls {
		out[i] = call
		out[i].Name = fmt.Sprintf("__agg%d", i)
		if call.Arg == nil { // COUNT(*)
			continue
		}
		a := slices.IndexFunc(args, func(e expr.Expr) bool { return expr.Equal(e, call.Arg) })
		if a < 0 {
			a = len(args)
			args = append(args, call.Arg)
			argNames = append(argNames, fmt.Sprintf("__aggarg%d", i))
		}
		out[i].Arg = expr.NewColRef(len(groups)+a, call.Arg.Kind(), argNames[a])
	}
	pre := logical.NewProject(input, append(slices.Clone(groups), args...),
		append(slices.Clone(groupNames), argNames...))
	return logical.NewAggregate(pre, seq(len(groups)), out)
}

// groupByAlias resolves a GROUP BY item that names a select-item alias.
func (b *Binder) groupByAlias(g sql.Node, sel *sql.SelectStmt, sc *scope) (expr.Expr, bool) {
	id, ok := g.(*sql.Ident)
	if !ok || id.Qualifier != "" {
		return nil, false
	}
	for _, item := range sel.Items {
		if item.Alias != "" && strings.EqualFold(item.Alias, id.Name) {
			eb := &exprBinder{b: b, inner: sc}
			e, err := eb.bind(item.Expr)
			if err == nil {
				return e, true
			}
		}
	}
	return nil, false
}

// groupExprName names a pre-projection group column: plain column
// references keep their qualified name so later resolution still works.
func groupExprName(e expr.Expr) string {
	if c, ok := e.(*expr.ColRef); ok && c.Name != "" {
		return c.Name
	}
	return ""
}

// rewritePostAggRec rewrites a bound expression (which may contain
// aggregate placeholders and references to input columns) into an
// expression over the output of buildAggregate(…, groups, …). It matches
// group expressions top-down by expr.Equal so that a grouped expression
// like EXTRACT(YEAR FROM d) maps to its group column as a whole.
func rewritePostAggRec(e expr.Expr, groups []expr.Expr) (expr.Expr, error) {
	if p, ok := e.(*aggPlaceholder); ok {
		return expr.NewColRef(len(groups)+p.idx, p.kind, ""), nil
	}
	if g := slices.IndexFunc(groups, func(g expr.Expr) bool { return expr.Equal(g, e) }); g >= 0 {
		name := ""
		if c, ok := e.(*expr.ColRef); ok {
			name = c.Name
		}
		return expr.NewColRef(g, e.Kind(), name), nil
	}
	if _, ok := e.(*expr.ColRef); ok {
		return nil, fmt.Errorf("binder: column %s must appear in the GROUP BY clause or be used in an aggregate", e)
	}
	children := e.Children()
	if len(children) == 0 {
		return e, nil
	}
	newChildren := make([]expr.Expr, len(children))
	for i, ch := range children {
		r, err := rewritePostAggRec(ch, groups)
		if err != nil {
			return nil, err
		}
		newChildren[i] = r
	}
	return e.WithChildren(newChildren), nil
}
