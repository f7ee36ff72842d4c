// Package rules implements the logical rewrite rules applied by the
// HepPlanner stage and by the VolcanoPlanner's logical phase. A rule
// consumes one operator and produces a semantically equivalent operator
// (§3.1); the planner engines drive them to a fixpoint.
//
// The rule set reproduces the paper's planner analysis:
//
//   - the filter pushdown family, including FILTER_CORRELATE — the rule
//     §4.1 found missing from Ignite's first optimization stage. Without
//     it, filters cannot cross joins produced by subquery decorrelation
//     and execute near the root instead of near the leaves.
//   - join-condition simplification (§5.2): common conjuncts are pulled
//     out of OR-of-AND join predicates so they can become cheap filters or
//     equi-join keys.
package rules

import (
	"gignite/internal/expr"
	"gignite/internal/logical"
)

// Rule is one rewrite. Apply returns the (possibly) rewritten node and
// whether anything changed. Rules fire on single nodes; the planner
// engines walk the tree.
type Rule interface {
	Apply(n logical.Node) (logical.Node, bool)
}

// Config gates the optional rules, mirroring the IC / IC+ system variants.
type Config struct {
	// FilterCorrelate enables pushing filters past decorrelated joins —
	// the missing-rule fix of §4.1. The IC baseline runs without it.
	FilterCorrelate bool
	// JoinConditionSimplification enables the §5.2 rewrite.
	JoinConditionSimplification bool
}

// Stage1Groups returns the three HepPlanner rule groups of Ignite's first
// optimization stage (§3.2.1): guaranteed-win logical transformations.
func Stage1Groups(cfg Config) [][]Rule {
	groupA := []Rule{
		constantFold{},
		filterMerge{},
		projectRemove{},
	}
	groupB := []Rule{
		filterProjectTranspose{},
		filterIntoJoin{filterCorrelate: cfg.FilterCorrelate},
		joinPushConditions{},
		filterSortTranspose{},
		filterAggregateTranspose{},
		projectMerge{},
		filterMerge{},
	}
	groupC := []Rule{
		filterMerge{},
		filterIntoJoin{filterCorrelate: cfg.FilterCorrelate},
		joinPushConditions{},
		projectRemove{},
		constantFold{},
	}
	return [][]Rule{groupA, groupB, groupC}
}

// LogicalPhaseRules returns the VolcanoPlanner logical-phase rule list
// (the IC+ two-phase split of §4.3 puts 20 logical rules here; the §5.2
// simplification rule was added to this phase).
func LogicalPhaseRules(cfg Config) []Rule {
	rs := []Rule{
		constantFold{},
		filterMerge{},
		filterProjectTranspose{},
		filterIntoJoin{filterCorrelate: cfg.FilterCorrelate},
		joinPushConditions{},
		filterSortTranspose{},
		filterAggregateTranspose{},
		projectMerge{},
		projectRemove{},
	}
	if cfg.JoinConditionSimplification {
		rs = append(rs, joinConditionSimplify{})
	}
	return rs
}

// ---------------------------------------------------------------------------
// constantFold

type constantFold struct{}

func (constantFold) Apply(n logical.Node) (logical.Node, bool) {
	switch t := n.(type) {
	case *logical.Filter:
		folded := expr.Fold(t.Cond)
		if !expr.Equal(folded, t.Cond) {
			return logical.NewFilter(t.Input, folded), true
		}
	case *logical.Join:
		folded := expr.Fold(t.Cond)
		if !expr.Equal(folded, t.Cond) {
			nj := logical.NewJoin(t.Left, t.Right, t.Type, folded)
			nj.FromCorrelate = t.FromCorrelate
			return nj, true
		}
	case *logical.Project:
		changed := false
		exprs := make([]expr.Expr, len(t.Exprs))
		for i, e := range t.Exprs {
			exprs[i] = expr.Fold(e)
			if !expr.Equal(exprs[i], e) {
				changed = true
			}
		}
		if changed {
			return logical.NewProject(t.Input, exprs, t.Names), true
		}
	}
	return n, false
}

// ---------------------------------------------------------------------------
// filterMerge: Filter(Filter(x, a), b) → Filter(x, a AND b)

type filterMerge struct{}

func (filterMerge) Apply(n logical.Node) (logical.Node, bool) {
	f, ok := n.(*logical.Filter)
	if !ok {
		return n, false
	}
	inner, ok := f.Input.(*logical.Filter)
	if !ok {
		return n, false
	}
	return logical.NewFilter(inner.Input, expr.NewBinOp(expr.OpAnd, inner.Cond, f.Cond)), true
}

// ---------------------------------------------------------------------------
// projectRemove: drop identity projections

type projectRemove struct{}

func (projectRemove) Apply(n logical.Node) (logical.Node, bool) {
	p, ok := n.(*logical.Project)
	if !ok || !p.IsTrivial() {
		return n, false
	}
	// Only drop when the names also survive (the top-level projection
	// carries user-facing names that must not vanish).
	in := p.Input.Schema()
	for i, f := range p.Schema() {
		if f.Name != in[i].Name {
			return n, false
		}
	}
	return p.Input, true
}

// ---------------------------------------------------------------------------
// projectMerge: Project(Project(x)) → Project(x) with substituted exprs

type projectMerge struct{}

func (projectMerge) Apply(n logical.Node) (logical.Node, bool) {
	p, ok := n.(*logical.Project)
	if !ok {
		return n, false
	}
	inner, ok := p.Input.(*logical.Project)
	if !ok {
		return n, false
	}
	exprs := make([]expr.Expr, len(p.Exprs))
	for i, e := range p.Exprs {
		exprs[i] = substituteCols(e, inner.Exprs)
	}
	return logical.NewProject(inner.Input, exprs, p.Names), true
}

// substituteCols replaces each column reference with the corresponding
// expression from defs.
func substituteCols(e expr.Expr, defs []expr.Expr) expr.Expr {
	return expr.Transform(e, func(n expr.Expr) expr.Expr {
		if c, ok := n.(*expr.ColRef); ok {
			return defs[c.Index]
		}
		return n
	})
}

// ---------------------------------------------------------------------------
// filterProjectTranspose: Filter(Project(x), c) → Project(Filter(x, c'))

type filterProjectTranspose struct{}

func (filterProjectTranspose) Apply(n logical.Node) (logical.Node, bool) {
	f, ok := n.(*logical.Filter)
	if !ok {
		return n, false
	}
	p, ok := f.Input.(*logical.Project)
	if !ok {
		return n, false
	}
	pushed := substituteCols(f.Cond, p.Exprs)
	return logical.NewProject(logical.NewFilter(p.Input, pushed), p.Exprs, p.Names), true
}

// ---------------------------------------------------------------------------
// filterSortTranspose: Filter(Sort(x)) → Sort(Filter(x)); also hoists
// filters above Limit never (unsound), so only Sort is handled.

type filterSortTranspose struct{}

func (filterSortTranspose) Apply(n logical.Node) (logical.Node, bool) {
	f, ok := n.(*logical.Filter)
	if !ok {
		return n, false
	}
	s, ok := f.Input.(*logical.Sort)
	if !ok {
		return n, false
	}
	return logical.NewSort(logical.NewFilter(s.Input, f.Cond), s.Keys), true
}

// ---------------------------------------------------------------------------
// filterAggregateTranspose: push conjuncts that reference only group
// columns below the aggregate.

type filterAggregateTranspose struct{}

func (filterAggregateTranspose) Apply(n logical.Node) (logical.Node, bool) {
	f, ok := n.(*logical.Filter)
	if !ok {
		return n, false
	}
	a, ok := f.Input.(*logical.Aggregate)
	if !ok {
		return n, false
	}
	var pushable, kept []expr.Expr
	for _, c := range expr.SplitConjuncts(f.Cond) {
		if expr.ColumnsUsed(c).AllBelow(len(a.GroupBy)) {
			pushable = append(pushable, c)
		} else {
			kept = append(kept, c)
		}
	}
	if len(pushable) == 0 {
		return n, false
	}
	// Output group column i is input column a.GroupBy[i].
	mapping := make([]int, len(a.GroupBy))
	copy(mapping, a.GroupBy)
	pushed := make([]expr.Expr, len(pushable))
	for i, c := range pushable {
		pushed[i] = expr.Remap(c, mapping)
	}
	newAgg := logical.NewAggregate(
		logical.NewFilter(a.Input, expr.Conjunction(pushed)), a.GroupBy, a.Aggs)
	if len(kept) == 0 {
		return newAgg, true
	}
	return logical.NewFilter(newAgg, expr.Conjunction(kept)), true
}

// ---------------------------------------------------------------------------
// filterIntoJoin: classify filter conjuncts against the join inputs and
// push them down / into the join condition.

type filterIntoJoin struct {
	// filterCorrelate permits crossing decorrelated joins (§4.1's
	// FILTER_CORRELATE). Without it the rule does not fire on such joins.
	filterCorrelate bool
}

func (r filterIntoJoin) Apply(n logical.Node) (logical.Node, bool) {
	f, ok := n.(*logical.Filter)
	if !ok {
		return n, false
	}
	j, ok := f.Input.(*logical.Join)
	if !ok {
		return n, false
	}
	if j.FromCorrelate && !r.filterCorrelate {
		// The missing-rule baseline: the filter stays above the
		// correlation.
		return n, false
	}
	leftW := len(j.Left.Schema())
	var toLeft, toRight, toJoin, kept []expr.Expr
	for _, c := range expr.SplitConjuncts(f.Cond) {
		switch expr.ClassifyPredicate(c, leftW) {
		case "left":
			toLeft = append(toLeft, c)
		case "right":
			if j.Type == logical.JoinInner {
				toRight = append(toRight, expr.Shift(c, 0, -leftW))
			} else {
				// Right-side conjuncts cannot cross left/semi/anti joins
				// from above (they would change NULL-padding semantics or
				// reference non-existent columns).
				kept = append(kept, c)
			}
		case "both":
			if j.Type == logical.JoinInner {
				toJoin = append(toJoin, c)
			} else {
				kept = append(kept, c)
			}
		default: // constant
			kept = append(kept, c)
		}
	}
	if len(toLeft) == 0 && len(toRight) == 0 && len(toJoin) == 0 {
		return n, false
	}
	left := j.Left
	if len(toLeft) > 0 {
		left = logical.NewFilter(left, expr.Conjunction(toLeft))
	}
	right := j.Right
	if len(toRight) > 0 {
		right = logical.NewFilter(right, expr.Conjunction(toRight))
	}
	cond := j.Cond
	if len(toJoin) > 0 {
		cond = expr.Fold(expr.NewBinOp(expr.OpAnd, cond, expr.Conjunction(toJoin)))
	}
	nj := logical.NewJoin(left, right, j.Type, cond)
	nj.FromCorrelate = j.FromCorrelate
	if len(kept) == 0 {
		return nj, true
	}
	return logical.NewFilter(nj, expr.Conjunction(kept)), true
}

// ---------------------------------------------------------------------------
// joinConditionSimplify (§5.2)

type joinConditionSimplify struct{}

func (joinConditionSimplify) Apply(n logical.Node) (logical.Node, bool) {
	j, ok := n.(*logical.Join)
	if !ok {
		return n, false
	}
	changed := false
	var conjuncts []expr.Expr
	for _, c := range expr.SplitConjuncts(j.Cond) {
		common, residual := expr.ExtractCommonConjuncts(c)
		if len(common) == 0 {
			conjuncts = append(conjuncts, c)
			continue
		}
		changed = true
		conjuncts = append(conjuncts, common...)
		if !expr.IsLiteralTrue(residual) {
			conjuncts = append(conjuncts, residual)
		}
	}
	if !changed {
		return n, false
	}
	nj := logical.NewJoin(j.Left, j.Right, j.Type, expr.Conjunction(conjuncts))
	nj.FromCorrelate = j.FromCorrelate
	// Single-sided conjuncts among the extracted ones are picked up by
	// joinPushConditions on a later pass.
	return nj, true
}

// ---------------------------------------------------------------------------
// joinPushConditions: join-condition conjuncts that reference only one
// input become filters on that input. For inner joins both sides are
// pushable; for left/semi/anti joins only right-side conjuncts are (they
// restrict which rows can match without changing the preserved side).

type joinPushConditions struct{}

func (joinPushConditions) Apply(n logical.Node) (logical.Node, bool) {
	j, ok := n.(*logical.Join)
	if !ok {
		return n, false
	}
	leftW := len(j.Left.Schema())
	var toLeft, toRight, kept []expr.Expr
	for _, c := range expr.SplitConjuncts(j.Cond) {
		switch expr.ClassifyPredicate(c, leftW) {
		case "left":
			if j.Type == logical.JoinInner {
				toLeft = append(toLeft, c)
			} else {
				kept = append(kept, c)
			}
		case "right":
			toRight = append(toRight, expr.Shift(c, 0, -leftW))
		default:
			kept = append(kept, c)
		}
	}
	if len(toLeft) == 0 && len(toRight) == 0 {
		return n, false
	}
	left := j.Left
	if len(toLeft) > 0 {
		left = logical.NewFilter(left, expr.Conjunction(toLeft))
	}
	right := j.Right
	if len(toRight) > 0 {
		right = logical.NewFilter(right, expr.Conjunction(toRight))
	}
	nj := logical.NewJoin(left, right, j.Type, expr.Conjunction(kept))
	nj.FromCorrelate = j.FromCorrelate
	return nj, true
}
