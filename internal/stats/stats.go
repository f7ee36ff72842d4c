// Package stats implements cardinality and selectivity estimation over
// logical plans — the provider-hook layer Ignite injects into Calcite.
//
// Two join-size estimators are provided, reproducing §4.1 of the paper:
//
//   - Legacy: Ignite's original algorithm, including its edge case where a
//     very small input cardinality collapses the join estimate to 1 row.
//     Nested joins then chain N×1 estimates, which later makes the planner
//     pick nested-loop joins for what are really N×M joins.
//   - SwamiSchiefer (Equation 3): |A⋈B| = |A|·|B| / max(d_A, d_B), where
//     d_A and d_B are the distinct-value counts of the join columns.
package stats

import (
	"math"

	"gignite/internal/catalog"
	"gignite/internal/expr"
	"gignite/internal/logical"
	"gignite/internal/types"
)

// Default selectivities used when no statistics apply; they follow
// Calcite's RelMdUtil conventions.
const (
	defaultEqSel    = 0.15
	defaultRangeSel = 0.5
	defaultLikeSel  = 0.25
	defaultOtherSel = 0.25
	// defaultRowCount stands in for an unknown base-table cardinality —
	// the NO-OP provider fallback.
	defaultRowCount = 1000
	// legacySmallInput is the "very small" input threshold that triggers
	// the legacy estimator's collapse-to-1 edge case.
	legacySmallInput = 1.5
)

// Estimator derives row counts and distinct-value counts for logical
// plans.
//
// An Estimator belongs to one planning run and one goroutine: RowCount
// and NDV remember every answer by node pointer, so each estimate is
// computed once however many alternatives the planner costs on top of it.
// That is sound because logical nodes are immutable once built and the
// estimates are pure functions of the node, the provider's statistics and
// the fields below — build a fresh Estimator (New) after changing any of
// those, and one per concurrent planner.
type Estimator struct {
	Provider catalog.StatsProvider
	// LegacyJoin selects Ignite's original join-size estimation with the
	// collapse-to-1 edge case (the IC baseline). When false, Equation 3
	// is used.
	LegacyJoin bool
	// Misestimate, when non-zero and not 1, scales every join-size
	// estimate by the factor — the misestimation-injection knob for the
	// adaptive-execution experiments (DESIGN.md §17). Values below 1 make
	// the planner under-estimate join outputs (the failure mode that
	// under-partitions or over-broadcasts big intermediates); values
	// above 1 over-estimate them. Base-table cardinalities stay exact,
	// matching the paper's finding that join-size estimation is where the
	// plans go wrong.
	Misestimate float64

	rows map[logical.Node]float64
	ndvs map[ndvKey]float64
}

// ndvKey identifies one output column of one plan node.
type ndvKey struct {
	node logical.Node
	col  int
}

// New returns an estimator backed by the given provider.
func New(p catalog.StatsProvider, legacyJoin bool) *Estimator {
	return &Estimator{Provider: p, LegacyJoin: legacyJoin}
}

// RowCount estimates the output cardinality of a plan node.
func (e *Estimator) RowCount(n logical.Node) float64 {
	if v, ok := e.rows[n]; ok {
		return v
	}
	v := e.rowCount(n)
	if e.rows == nil {
		e.rows = make(map[logical.Node]float64)
	}
	e.rows[n] = v
	return v
}

func (e *Estimator) rowCount(n logical.Node) float64 {
	switch t := n.(type) {
	case *logical.Scan:
		rc := e.Provider.RowCount(t.Table.Name)
		if rc <= 0 {
			return defaultRowCount
		}
		return float64(rc)
	case *logical.Values:
		return float64(len(t.Rows))
	case *logical.Filter:
		in := e.RowCount(t.Input)
		return clampRows(in * e.Selectivity(t.Cond, t.Input))
	case *logical.Project:
		return e.RowCount(t.Input)
	case *logical.Limit:
		return math.Min(float64(t.N), e.RowCount(t.Input))
	case *logical.Sort:
		return e.RowCount(t.Input)
	case *logical.Aggregate:
		return e.aggregateRows(t)
	case *logical.Join:
		return e.joinRows(t)
	default:
		return defaultRowCount
	}
}

func clampRows(v float64) float64 {
	if v < 1 {
		return 1
	}
	return v
}

func (e *Estimator) aggregateRows(a *logical.Aggregate) float64 {
	if len(a.GroupBy) == 0 {
		return 1
	}
	in := e.RowCount(a.Input)
	groups := 1.0
	for _, g := range a.GroupBy {
		groups *= math.Max(1, e.NDV(a.Input, g))
	}
	// Groups cannot exceed the input cardinality.
	return clampRows(math.Min(groups, in))
}

// misScale applies the misestimation-injection factor to a join-size
// estimate (identity when the knob is unset).
func (e *Estimator) misScale(rows float64) float64 {
	if e.Misestimate > 0 && e.Misestimate != 1 {
		return rows * e.Misestimate
	}
	return rows
}

// joinRows dispatches between the legacy and Equation 3 estimators.
func (e *Estimator) joinRows(j *logical.Join) float64 {
	left := e.RowCount(j.Left)
	right := e.RowCount(j.Right)
	switch j.Type {
	case logical.JoinSemi:
		return clampRows(e.misScale(left * defaultRangeSel))
	case logical.JoinAnti:
		return clampRows(e.misScale(left * (1 - defaultRangeSel)))
	}

	keys, rest := expr.SplitJoinCondition(j.Cond, len(j.Left.Schema()))
	var out float64
	if e.LegacyJoin {
		out = e.legacyJoinRows(left, right, keys, j)
	} else {
		out = e.swamiSchieferRows(left, right, keys, j)
	}
	// Residual non-equi conjuncts scale the estimate down.
	for range rest {
		out *= defaultRangeSel
	}
	out = e.misScale(out)
	if j.Type == logical.JoinLeft {
		out = math.Max(out, left)
	}
	return clampRows(out)
}

// legacyJoinRows reproduces the IC baseline behaviour. The paper found
// the original Ignite estimator "as good or better" than Equation 3 in
// general — its defect was a single edge case: when either input of an
// equi-join is estimated as very small, the join result collapses to
// exactly 1 row (§4.1). Chains of joins each inherit this 1, steering the
// planner toward N×1 nested-loop joins that are really N×M at runtime.
func (e *Estimator) legacyJoinRows(left, right float64, keys []expr.EquiKey, j *logical.Join) float64 {
	if len(keys) == 0 {
		return left * right
	}
	if left <= legacySmallInput || right <= legacySmallInput {
		return 1
	}
	return e.swamiSchieferRows(left, right, keys, j)
}

// swamiSchieferRows implements Equation 3 over the first equi key (extra
// keys multiply in as independent 1/max(d) factors).
func (e *Estimator) swamiSchieferRows(left, right float64, keys []expr.EquiKey, j *logical.Join) float64 {
	if len(keys) == 0 {
		return left * right
	}
	out := left * right
	for _, k := range keys {
		dA := e.NDV(j.Left, k.Left)
		dB := e.NDV(j.Right, k.Right)
		d := math.Max(dA, dB)
		if d < 1 {
			d = 1
		}
		out /= d
	}
	return out
}

// NDV estimates the number of distinct values of an output column.
func (e *Estimator) NDV(n logical.Node, col int) float64 {
	key := ndvKey{node: n, col: col}
	if v, ok := e.ndvs[key]; ok {
		return v
	}
	v := e.ndv(n, col)
	if e.ndvs == nil {
		e.ndvs = make(map[ndvKey]float64)
	}
	e.ndvs[key] = v
	return v
}

func (e *Estimator) ndv(n logical.Node, col int) float64 {
	switch t := n.(type) {
	case *logical.Scan:
		ndv := e.Provider.NDV(t.Table.Name, t.Table.Columns[col].Name)
		if ndv <= 0 {
			// NO-OP fallback: assume the column is close to unique.
			return e.RowCount(n)
		}
		return float64(ndv)
	case *logical.Filter:
		// Filtering can only reduce distinct counts; cap by output rows.
		return math.Min(e.NDV(t.Input, col), e.RowCount(t))
	case *logical.Project:
		if c, ok := t.Exprs[col].(*expr.ColRef); ok {
			return e.NDV(t.Input, c.Index)
		}
		return e.RowCount(t)
	case *logical.Join:
		leftW := len(t.Left.Schema())
		var base float64
		if col < leftW {
			base = e.NDV(t.Left, col)
		} else if !t.Type.ProjectsLeftOnly() {
			base = e.NDV(t.Right, col-leftW)
		} else {
			base = e.RowCount(t)
		}
		return math.Min(base, e.RowCount(t))
	case *logical.Aggregate:
		if col < len(t.GroupBy) {
			return math.Min(e.NDV(t.Input, t.GroupBy[col]), e.RowCount(t))
		}
		return e.RowCount(t)
	case *logical.Sort:
		return e.NDV(t.Input, col)
	case *logical.Limit:
		return math.Min(e.NDV(t.Input, col), float64(t.N))
	case *logical.Values:
		return float64(len(t.Rows))
	default:
		return e.RowCount(n)
	}
}

// Selectivity estimates the fraction of input rows a predicate keeps.
func (e *Estimator) Selectivity(pred expr.Expr, input logical.Node) float64 {
	if expr.IsLiteralTrue(pred) {
		return 1
	}
	if expr.IsLiteralFalse(pred) {
		return 0
	}
	switch p := pred.(type) {
	case *expr.BinOp:
		switch p.Op {
		case expr.OpAnd:
			return e.conjunctionSelectivity(expr.SplitConjuncts(pred), input)
		case expr.OpOr:
			l, r := e.Selectivity(p.L, input), e.Selectivity(p.R, input)
			return math.Min(1, l+r-l*r)
		case expr.OpEq:
			return e.eqSelectivity(p, input)
		case expr.OpNe:
			return 1 - e.eqSelectivity(p, input)
		case expr.OpLt, expr.OpLe, expr.OpGt, expr.OpGe:
			return e.rangeSelectivity(p, input)
		default:
			return defaultOtherSel
		}
	case *expr.Not:
		return 1 - e.Selectivity(p.E, input)
	case *expr.Like:
		return defaultLikeSel
	case *expr.InList:
		// Each list item behaves like an equality.
		col, ok := p.E.(*expr.ColRef)
		per := defaultEqSel
		if ok {
			if ndv := e.NDV(input, col.Index); ndv >= 1 {
				per = 1 / ndv
			}
		}
		sel := math.Min(1, per*float64(len(p.List)))
		if p.Negate {
			return 1 - sel
		}
		return sel
	case *expr.IsNull:
		if p.Negate {
			return 0.9
		}
		return 0.1
	default:
		return defaultOtherSel
	}
}

// conjunctionSelectivity multiplies conjunct selectivities, but first
// pairs opposite-direction range bounds on the same column into window
// estimates: `d >= a AND d < b` over a known [min, max] is (b-a)/(max-min),
// which the independence assumption would wildly overestimate (the TPC-H
// date windows are ~1/84 of the span, not 0.25).
func (e *Estimator) conjunctionSelectivity(conjuncts []expr.Expr, input logical.Node) float64 {
	type bounds struct {
		col          int
		lower, upper float64
		scale        float64 // max-min
	}
	// In order of first appearance: the product below must multiply in
	// the same order every time for the estimate to be the same float.
	var windows []bounds
	var rest []expr.Expr
	for _, c := range conjuncts {
		b, ok := c.(*expr.BinOp)
		if !ok || !(b.Op == expr.OpLt || b.Op == expr.OpLe || b.Op == expr.OpGt || b.Op == expr.OpGe) {
			rest = append(rest, c)
			continue
		}
		col, lit, op := asColLit(b)
		if col == nil || lit.IsNull() {
			rest = append(rest, c)
			continue
		}
		mn, mx, ok := e.minMaxOf(input, col.Index)
		if !ok || !comparableRange(mn, lit) || mx.Float() <= mn.Float() {
			rest = append(rest, c)
			continue
		}
		var w *bounds
		for i := range windows {
			if windows[i].col == col.Index {
				w = &windows[i]
				break
			}
		}
		if w == nil {
			// Initialize to the column's full range.
			windows = append(windows, bounds{col: col.Index, lower: mn.Float(), upper: mx.Float(),
				scale: mx.Float() - mn.Float()})
			w = &windows[len(windows)-1]
		}
		v := lit.Float()
		switch op {
		case expr.OpGe, expr.OpGt:
			if v > w.lower {
				w.lower = v
			}
		default:
			if v < w.upper {
				w.upper = v
			}
		}
	}
	sel := 1.0
	for _, w := range windows {
		frac := (w.upper - w.lower) / w.scale
		if frac < 0.001 {
			frac = 0.001
		}
		if frac > 1 {
			frac = 1
		}
		sel *= frac
	}
	for _, c := range rest {
		sel *= e.Selectivity(c, input)
	}
	return sel
}

// rangeSelectivity refines comparison selectivity using min/max column
// statistics (interpolation under a uniformity assumption) when one side
// is a plain column reference and the other a constant. This is what
// statistics-enabled Ignite does; without statistics the Calcite default
// of 0.5 applies.
func (e *Estimator) rangeSelectivity(p *expr.BinOp, input logical.Node) float64 {
	col, lit, op := asColLit(p)
	if col == nil {
		return defaultRangeSel
	}
	mn, mx, ok := e.minMaxOf(input, col.Index)
	if !ok || lit.IsNull() || !comparableRange(mn, lit) {
		return defaultRangeSel
	}
	lo, hi, v := mn.Float(), mx.Float(), lit.Float()
	if hi <= lo {
		return defaultRangeSel
	}
	frac := (v - lo) / (hi - lo)
	if frac < 0 {
		frac = 0
	}
	if frac > 1 {
		frac = 1
	}
	// "col < v" keeps frac; "col > v" keeps 1-frac.
	var sel float64
	switch op {
	case expr.OpLt, expr.OpLe:
		sel = frac
	default:
		sel = 1 - frac
	}
	// Keep a floor so chained range conjuncts never hit exactly zero.
	if sel < 0.001 {
		sel = 0.001
	}
	return sel
}

// asColLit matches `col op const` or `const op col` (commuting the
// operator), returning nil when the shape does not match.
func asColLit(p *expr.BinOp) (*expr.ColRef, types.Value, expr.Op) {
	if c, ok := p.L.(*expr.ColRef); ok && expr.IsConstant(p.R) {
		return c, expr.Fold(p.R).(*expr.Lit).Val, p.Op
	}
	if c, ok := p.R.(*expr.ColRef); ok && expr.IsConstant(p.L) {
		return c, expr.Fold(p.L).(*expr.Lit).Val, p.Op.Commute()
	}
	return nil, types.Null, p.Op
}

func comparableRange(a, b types.Value) bool {
	if a.IsNull() || b.IsNull() {
		return false
	}
	switch a.K {
	case types.KindInt, types.KindFloat, types.KindDate:
		return b.K == types.KindInt || b.K == types.KindFloat || b.K == types.KindDate
	default:
		return false
	}
}

// minMaxOf resolves a column's value range through the plan, mirroring
// NDV's provenance tracking.
func (e *Estimator) minMaxOf(n logical.Node, col int) (types.Value, types.Value, bool) {
	switch t := n.(type) {
	case *logical.Scan:
		return e.Provider.MinMax(t.Table.Name, t.Table.Columns[col].Name)
	case *logical.Filter:
		return e.minMaxOf(t.Input, col)
	case *logical.Project:
		if c, ok := t.Exprs[col].(*expr.ColRef); ok {
			return e.minMaxOf(t.Input, c.Index)
		}
	case *logical.Join:
		leftW := len(t.Left.Schema())
		if col < leftW {
			return e.minMaxOf(t.Left, col)
		}
		if !t.Type.ProjectsLeftOnly() {
			return e.minMaxOf(t.Right, col-leftW)
		}
	case *logical.Sort:
		return e.minMaxOf(t.Input, col)
	case *logical.Limit:
		return e.minMaxOf(t.Input, col)
	case *logical.Aggregate:
		if col < len(t.GroupBy) {
			return e.minMaxOf(t.Input, t.GroupBy[col])
		}
	}
	return types.Null, types.Null, false
}

// eqSelectivity refines equality selectivity with column NDV when one side
// is a plain column reference.
func (e *Estimator) eqSelectivity(p *expr.BinOp, input logical.Node) float64 {
	if c, ok := p.L.(*expr.ColRef); ok && expr.IsConstant(p.R) {
		if ndv := e.NDV(input, c.Index); ndv >= 1 {
			return 1 / ndv
		}
	}
	if c, ok := p.R.(*expr.ColRef); ok && expr.IsConstant(p.L) {
		if ndv := e.NDV(input, c.Index); ndv >= 1 {
			return 1 / ndv
		}
	}
	return defaultEqSel
}
