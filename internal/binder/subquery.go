package binder

import (
	"fmt"

	"gignite/internal/expr"
	"gignite/internal/logical"
	"gignite/internal/sql"
)

// This file implements subquery planning by decorrelation into joins:
//
//	[NOT] EXISTS (sub)          → semi/anti join on the correlation conjuncts
//	x [NOT] IN (SELECT c ...)   → semi/anti join on x = c
//	x op (SELECT agg ...)       → join against the (grouped) aggregate and a
//	                              filter x op <scalar column>
//
// Joins produced this way are marked FromCorrelate; the paper's missing
// FILTER_CORRELATE rule governs whether later filter pushdown may cross
// them (IC lacks the rule, IC+ has it).

// bindExists expands a [NOT] EXISTS conjunct into a semi or anti join.
func (b *Binder) bindExists(plan logical.Node, sc *scope, ex *sql.ExistsExpr, negate bool) (logical.Node, error) {
	jt := logical.JoinSemi
	if negate {
		jt = logical.JoinAnti
	}
	// Uncorrelated EXISTS: a semi join on TRUE (no correlation, so filter
	// pushdown does not need FILTER_CORRELATE to cross it).
	inner, _, err := b.bindQuery(ex.Select, nil)
	if err == nil {
		return logical.NewJoin(plan, inner, jt, expr.True), nil
	}
	if !isUnresolved(err) {
		return nil, err
	}
	innerPlan, corr, _, err := b.bindCorrelated(ex.Select, sc)
	if err != nil {
		return nil, err
	}
	j := logical.NewJoin(plan, innerPlan, jt, expr.Conjunction(corr))
	j.FromCorrelate = true
	return j, nil
}

// bindInSubquery expands x [NOT] IN (SELECT ...) into a semi/anti join.
// The subquery must be uncorrelated (the benchmark workloads never use
// correlated IN).
func (b *Binder) bindInSubquery(plan logical.Node, sc *scope, in *sql.InExpr) (logical.Node, error) {
	eb := &exprBinder{b: b, inner: sc}
	lhs, err := eb.bind(in.E)
	if err != nil {
		return nil, err
	}
	inner, _, err := b.bindQuery(in.Select, nil)
	if err != nil {
		if isUnresolved(err) {
			return nil, fmt.Errorf("binder: correlated IN subqueries are not supported: %w", err)
		}
		return nil, err
	}
	innerSchema := inner.Schema()
	if len(innerSchema) != 1 {
		return nil, fmt.Errorf("binder: IN subquery must return one column, got %d", len(innerSchema))
	}
	jt := logical.JoinSemi
	if in.Negate {
		jt = logical.JoinAnti
	}
	leftW := len(plan.Schema())
	cond := expr.NewBinOp(expr.OpEq, lhs,
		expr.NewColRef(leftW, innerSchema[0].Kind, innerSchema[0].Name))
	return logical.NewJoin(plan, inner, jt, cond), nil
}

// scalarCompare is a `lhs op (SELECT …)` conjunct, or with reversed set
// the `(SELECT …) op lhs` form.
type scalarCompare struct {
	lhs      sql.Node
	op       string
	sub      *sql.SelectStmt
	reversed bool
}

// asScalarCompare recognises a comparison with a scalar subquery on
// either side.
func asScalarCompare(n sql.Node) (scalarCompare, bool) {
	cmp, ok := n.(*sql.BinaryExpr)
	if !ok || !isComparisonOp(cmp.Op) {
		return scalarCompare{}, false
	}
	if sub, ok := cmp.R.(*sql.SubqueryExpr); ok {
		return scalarCompare{lhs: cmp.L, op: cmp.Op, sub: sub.Select}, true
	}
	if sub, ok := cmp.L.(*sql.SubqueryExpr); ok {
		return scalarCompare{lhs: cmp.R, op: cmp.Op, sub: sub.Select, reversed: true}, true
	}
	return scalarCompare{}, false
}

// bindScalarCompare expands a scalar-subquery comparison whose left
// operand is already bound (HAVING rewrites it over the aggregate first)
// by joining the subquery result and filtering on the comparison.
func (b *Binder) bindScalarCompare(plan logical.Node, sc *scope, lhs expr.Expr, cmp scalarCompare) (logical.Node, error) {
	joined, scalarCol, err := b.joinScalarSubquery(plan, sc, cmp.sub)
	if err != nil {
		return nil, err
	}
	opE, err := opOf(cmp.op)
	if err != nil {
		return nil, err
	}
	schema := joined.Schema()
	ref := expr.NewColRef(scalarCol, schema[scalarCol].Kind, "")
	if cmp.reversed {
		return logical.NewFilter(joined, expr.NewBinOp(opE, ref, lhs)), nil
	}
	return logical.NewFilter(joined, expr.NewBinOp(opE, lhs, ref)), nil
}

// joinScalarSubquery joins the scalar subquery's result onto plan and
// returns the widened plan plus the scalar value's column. A correlated
// subquery is aggregated by buildAggregate, grouped by its correlation
// columns, and joined on them.
func (b *Binder) joinScalarSubquery(plan logical.Node, sc *scope, sub *sql.SelectStmt) (logical.Node, int, error) {
	leftW := len(plan.Schema())

	// Uncorrelated: plan the subquery independently and cross-join its
	// single row.
	inner, _, err := b.bindQuery(sub, nil)
	if err == nil {
		if w := len(inner.Schema()); w != 1 {
			return nil, 0, fmt.Errorf("binder: scalar subquery must return one column, got %d", w)
		}
		return logical.NewJoin(plan, inner, logical.JoinInner, expr.True), leftW, nil
	}
	if !isUnresolved(err) {
		return nil, 0, err
	}

	// Correlated: supported form is a single aggregate select item with
	// equi-correlation conjuncts (the TPC-H Q2/Q17/Q20 pattern).
	if len(sub.Items) != 1 || sub.Items[0].Star {
		return nil, 0, fmt.Errorf("binder: correlated scalar subquery must select a single expression")
	}
	innerPlan, corr, innerSc, err := b.bindCorrelated(sub, sc)
	if err != nil {
		return nil, 0, err
	}
	outerW := len(sc.fields)
	type pair struct{ outer, inner int }
	pairs := make([]pair, 0, len(corr))
	for _, c := range corr {
		bo, ok := c.(*expr.BinOp)
		if !ok || bo.Op != expr.OpEq {
			return nil, 0, fmt.Errorf("binder: correlated scalar subquery requires equality correlation, got %s", c)
		}
		lc, lok := bo.L.(*expr.ColRef)
		rc, rok := bo.R.(*expr.ColRef)
		if !lok || !rok {
			return nil, 0, fmt.Errorf("binder: correlated scalar subquery requires column-to-column correlation, got %s", c)
		}
		switch {
		case lc.Index < outerW && rc.Index >= outerW:
			pairs = append(pairs, pair{outer: lc.Index, inner: rc.Index - outerW})
		case rc.Index < outerW && lc.Index >= outerW:
			pairs = append(pairs, pair{outer: rc.Index, inner: lc.Index - outerW})
		default:
			return nil, 0, fmt.Errorf("binder: correlation conjunct %s does not cross scopes", c)
		}
	}
	if len(pairs) == 0 {
		return nil, 0, fmt.Errorf("binder: correlated scalar subquery has no correlation conjuncts")
	}

	// Bind the aggregate select item over the inner scope and aggregate
	// it grouped by the correlation columns.
	collector := &aggCollector{}
	eb := &exprBinder{b: b, inner: innerSc, aggs: collector}
	item, err := eb.bind(sub.Items[0].Expr)
	if err != nil {
		return nil, 0, err
	}
	if len(collector.calls) == 0 {
		return nil, 0, fmt.Errorf("binder: correlated scalar subquery must aggregate")
	}
	innerSchema := innerPlan.Schema()
	groups := make([]expr.Expr, len(pairs))
	groupNames := make([]string, len(pairs))
	for i, p := range pairs {
		groups[i] = expr.NewColRef(p.inner, innerSchema[p.inner].Kind, innerSchema[p.inner].Name)
		groupNames[i] = innerSchema[p.inner].Name
	}
	agg := buildAggregate(innerPlan, groups, groupNames, collector.calls)

	// Post-project: group columns plus the scalar expression.
	scalar, err := rewritePostAggRec(item, groups)
	if err != nil {
		return nil, 0, err
	}
	k := len(pairs)
	aggSchema := agg.Schema()
	postExprs := make([]expr.Expr, 0, k+1)
	postNames := make([]string, 0, k+1)
	for i := 0; i < k; i++ {
		postExprs = append(postExprs, expr.NewColRef(i, aggSchema[i].Kind, aggSchema[i].Name))
		postNames = append(postNames, fmt.Sprintf("__corr%d", i))
	}
	postExprs = append(postExprs, scalar)
	postNames = append(postNames, "__scalar")
	post := logical.NewProject(agg, postExprs, postNames)

	// Join on the correlation columns.
	conds := make([]expr.Expr, len(pairs))
	outerSchema := plan.Schema()
	for i, p := range pairs {
		conds[i] = expr.NewBinOp(expr.OpEq,
			expr.NewColRef(p.outer, outerSchema[p.outer].Kind, outerSchema[p.outer].Name),
			expr.NewColRef(leftW+i, aggSchema[i].Kind, ""))
	}
	j := logical.NewJoin(plan, post, logical.JoinInner, expr.Conjunction(conds))
	j.FromCorrelate = true
	return j, leftW + k, nil
}

// bindCorrelated binds a correlated subquery body: its FROM and WHERE,
// with outer names resolving against the enclosing scope. It returns the
// locally-filtered inner plan, the correlation conjuncts over the
// [outer ++ inner] concatenated row, and the inner scope.
//
// Conjuncts that are themselves subquery patterns are expanded recursively
// against the inner plan (one more nesting level), which covers TPC-H Q20.
func (b *Binder) bindCorrelated(sub *sql.SelectStmt, outerSc *scope) (logical.Node, []expr.Expr, *scope, error) {
	if len(sub.GroupBy) > 0 || sub.Having != nil || len(sub.OrderBy) > 0 ||
		sub.Limit >= 0 || sub.Distinct {
		return nil, nil, nil, fmt.Errorf("binder: correlated subquery form is too complex (GROUP BY/HAVING/ORDER BY/LIMIT/DISTINCT)")
	}
	plan, innerSc, err := b.bindFrom(sub.From)
	if err != nil {
		return nil, nil, nil, err
	}
	visible := innerSc.visible
	var corr []expr.Expr
	if sub.Where != nil {
		for _, conj := range splitASTConjuncts(sub.Where) {
			// Purely-inner predicates and nested subquery patterns apply to
			// the inner plan directly.
			innerEB := &exprBinder{b: b, inner: innerSc}
			if e, err := innerEB.bind(conj); err == nil {
				plan = logical.NewFilter(plan, e)
				continue
			} else if !isUnresolved(err) {
				// Could be a nested subquery conjunct.
				if isSubqueryConjunct(conj) {
					plan, err = b.bindConjunct(plan, innerSc, conj)
					if err != nil {
						return nil, nil, nil, err
					}
					innerSc = newScope(plan.Schema())
					innerSc.visible = visible
					continue
				}
				return nil, nil, nil, err
			}
			// Unresolved locally: try with the outer scope → correlation.
			eb := &exprBinder{b: b, inner: innerSc, outer: outerSc}
			e, err := eb.bind(conj)
			if err != nil {
				return nil, nil, nil, err
			}
			outerW := len(outerSc.fields)
			if expr.ColumnsUsed(e).AllAtOrAbove(outerW) {
				// Bound entirely against inner after all: shift down.
				mapping := make([]int, outerW+len(innerSc.fields))
				for i := range mapping {
					mapping[i] = i - outerW
				}
				plan = logical.NewFilter(plan, expr.Remap(e, mapping))
				continue
			}
			corr = append(corr, e)
		}
	}
	return plan, corr, innerSc, nil
}

// isSubqueryConjunct reports whether a conjunct is one of the recognized
// subquery patterns.
func isSubqueryConjunct(n sql.Node) bool {
	if _, _, ok := asExists(n); ok {
		return true
	}
	if in, ok := n.(*sql.InExpr); ok && in.Select != nil {
		return true
	}
	_, ok := asScalarCompare(n)
	return ok
}
