package volcano

import (
	"math"

	"gignite/internal/expr"
	"gignite/internal/logical"
	"gignite/internal/physical"
	"gignite/internal/types"
)

// This file generates the physical alternatives per logical operator. Each
// generator returns candidate plans; optimize() charges tickets for them,
// enforces the caller's requirement and keeps the cheapest.

func widthOf(n physical.Node) float64 { return float64(len(n.Schema())) }

// scanAlternatives offers the table scan and, when a collation is wanted,
// index scans that can provide it.
func (p *Planner) scanAlternatives(t *logical.Scan, req Req) ([]physical.Node, error) {
	var alts []physical.Node

	ts := physical.NewTableScan(t.Table, t.Schema())
	rows := p.cfg.Est.RowCount(t)
	dfScan := float64(p.cfg.Sites)
	if t.Table.Replicated {
		dfScan = 1
	}
	p.finish(ts, t, p.cfg.CostParams.Scan(rows, float64(len(t.Schema())), dfScan))
	alts = append(alts, ts)

	if len(req.Coll) > 0 {
		for i := range t.Table.Indexes {
			idx := &t.Table.Indexes[i]
			is := physical.NewIndexScan(t.Table, idx, t.Schema())
			if !physical.CollationSatisfies(is.Collation(), req.Coll) {
				continue
			}
			// Index traversal costs slightly more CPU than a heap scan but
			// delivers the collation for free.
			c := p.cfg.CostParams.Scan(rows, float64(len(t.Schema())), dfScan)
			c.CPU *= 1.2
			p.finish(is, t, c)
			alts = append(alts, is)
		}
	}
	return alts, nil
}

// filterAlternatives pushes the requirement through (filters preserve
// traits) and also tries the unconstrained input.
func (p *Planner) filterAlternatives(t *logical.Filter, req Req) ([]physical.Node, error) {
	var alts []physical.Node
	reqs := []Req{anyReq}
	if req.Dist != nil || len(req.Coll) > 0 {
		reqs = append(reqs, req)
	}
	for _, r := range reqs {
		in, err := p.optimize(t.Input, r)
		if err != nil {
			return nil, err
		}
		f := physical.NewFilter(in, t.Cond)
		p.finish(f, t, p.cfg.CostParams.Filter(in.Props().EstRows, p.df(in)))
		alts = append(alts, f)
	}
	return alts, nil
}

// projectAlternatives translates the requirement through the projection
// when possible.
func (p *Planner) projectAlternatives(t *logical.Project, req Req) ([]physical.Node, error) {
	var reqs []Req
	if translated, ok := translateReqThroughProject(req, t); ok {
		reqs = append(reqs, translated)
	}
	reqs = append(reqs, anyReq)
	var alts []physical.Node
	for _, r := range reqs {
		in, err := p.optimize(t.Input, r)
		if err != nil {
			return nil, err
		}
		proj := physical.NewProject(in, t.Exprs, t.Schema())
		p.finish(proj, t, p.cfg.CostParams.Project(
			in.Props().EstRows, float64(len(t.Schema())), p.df(in)))
		alts = append(alts, proj)
	}
	return alts, nil
}

// translateReqThroughProject maps output-column requirements to input
// columns. Only pass-through column references translate.
func translateReqThroughProject(req Req, t *logical.Project) (Req, bool) {
	if req.Dist == nil && len(req.Coll) == 0 {
		return req, false
	}
	mapOut := func(out int) (int, bool) {
		c, ok := t.Exprs[out].(*expr.ColRef)
		if !ok {
			return 0, false
		}
		return c.Index, true
	}
	var out Req
	if req.Dist != nil {
		if req.Dist.Type == physical.Hash && len(req.Dist.Keys) > 0 {
			keys := make([]int, len(req.Dist.Keys))
			for i, k := range req.Dist.Keys {
				in, ok := mapOut(k)
				if !ok {
					return Req{}, false
				}
				keys[i] = in
			}
			d := physical.HashDist(keys...)
			out.Dist = &d
		} else {
			out.Dist = req.Dist
		}
	}
	if len(req.Coll) > 0 {
		coll := make([]types.SortKey, len(req.Coll))
		for i, k := range req.Coll {
			in, ok := mapOut(k.Col)
			if !ok {
				return Req{}, false
			}
			coll[i] = types.SortKey{Col: in, Desc: k.Desc, NullsLast: k.NullsLast}
		}
		out.Coll = coll
	}
	return out, true
}

// sortAlternatives: collation is handled as an enforced requirement on the
// input, so a Sort logical node physicalizes to its input optimized for
// {Single, keys} — the enforcer inserts the physical sort exactly when the
// input cannot deliver the order (index scans can).
func (p *Planner) sortAlternatives(t *logical.Sort, req Req) ([]physical.Node, error) {
	dist := physical.SingleDist
	if req.Dist != nil {
		dist = *req.Dist
	}
	in, err := p.optimize(t.Input, Req{Dist: &dist, Coll: t.Keys})
	if err != nil {
		return nil, err
	}
	return []physical.Node{in}, nil
}

// limitAlternatives: a limit needs the complete stream at one site.
func (p *Planner) limitAlternatives(t *logical.Limit, req Req) ([]physical.Node, error) {
	in, err := p.optimize(t.Input, Req{Dist: &physical.SingleDist, Coll: req.Coll})
	if err != nil {
		return nil, err
	}
	l := physical.NewLimit(in, t.N)
	p.finish(l, t, p.cfg.CostParams.Limit(math.Min(float64(t.N), in.Props().EstRows)))
	return []physical.Node{l}, nil
}

// aggregateAlternatives generates the aggregation strategies:
//
//	(a) single-site hash aggregation
//	(b) single-site sort-based aggregation (input collated on groups)
//	(c) two-phase map/reduce aggregation (non-DISTINCT only)
//	(d) co-located per-partition aggregation when the input is hash
//	    distributed on a subset of the group columns
func (p *Planner) aggregateAlternatives(t *logical.Aggregate, req Req) ([]physical.Node, error) {
	var alts []physical.Node
	est := p.cfg.Est
	inRows := est.RowCount(t.Input)
	outRows := est.RowCount(t)
	width := float64(len(t.Schema()))

	// (a) single-site hash aggregation.
	inSingle, err := p.optimize(t.Input, Req{Dist: &physical.SingleDist})
	if err != nil {
		return nil, err
	}
	ha := physical.NewHashAggregate(inSingle, t.GroupBy, t.Aggs, physical.AggSinglePhase, t.Schema())
	p.finish(ha, t, p.cfg.CostParams.HashAggregate(inRows, outRows, width, p.df(inSingle)))
	alts = append(alts, ha)

	// (b) single-site sort-based aggregation.
	if len(t.GroupBy) > 0 {
		coll := make([]types.SortKey, len(t.GroupBy))
		for i, g := range t.GroupBy {
			coll[i] = types.SortKey{Col: g}
		}
		inSorted, err := p.optimize(t.Input, Req{Dist: &physical.SingleDist, Coll: coll})
		if err != nil {
			return nil, err
		}
		sa := physical.NewSortAggregate(inSorted, t.GroupBy, t.Aggs, physical.AggSinglePhase, t.Schema())
		p.finish(sa, t, p.cfg.CostParams.SortAggregate(inRows, p.df(inSorted)))
		alts = append(alts, sa)
	}

	// (c) two-phase map/reduce.
	if !t.HasDistinct() && p.cfg.Sites > 1 {
		if split, err2 := physical.SplitAggCalls(len(t.GroupBy), t.Aggs, t.Schema()); err2 == nil {
			inAny, err := p.optimize(t.Input, anyReq)
			if err != nil {
				return nil, err
			}
			if inAny.Dist().Type != physical.Single {
				alts = append(alts, p.buildTwoPhaseAgg(t, inAny, split, inRows, outRows))
			}
		}
	}

	// (d) co-located complete aggregation.
	if len(t.GroupBy) > 0 {
		inAny, err := p.optimize(t.Input, anyReq)
		if err != nil {
			return nil, err
		}
		d := inAny.Dist()
		if d.Type == physical.Hash && len(d.Keys) > 0 && keysSubset(d.Keys, t.GroupBy) {
			la := physical.NewHashAggregate(inAny, t.GroupBy, t.Aggs, physical.AggSinglePhase, t.Schema())
			p.finish(la, t, p.cfg.CostParams.HashAggregate(inRows, outRows, width, p.df(inAny)))
			alts = append(alts, la)
		}
	}
	return alts, nil
}

func keysSubset(keys, groupBy []int) bool {
	for _, k := range keys {
		found := false
		for _, g := range groupBy {
			if g == k {
				found = true
				break
			}
		}
		if !found {
			return false
		}
	}
	return true
}

// buildTwoPhaseAgg assembles MapAgg → Exchange(single) → ReduceAgg
// [→ finalize Project].
func (p *Planner) buildTwoPhaseAgg(t *logical.Aggregate, in physical.Node,
	split *physical.AggSplit, inRows, outRows float64) physical.Node {

	sites := float64(p.cfg.Sites)
	mapRows := math.Min(inRows, outRows*sites)

	mapAgg := physical.NewHashAggregate(in, t.GroupBy, split.MapCalls, physical.AggMap, split.MapFields)
	setCost(mapAgg, mapRows, p.cfg.CostParams.HashAggregate(inRows, mapRows, float64(len(split.MapFields)), p.df(in)))

	ex := p.newExchange(mapAgg, physical.SingleDist)

	groupCols := make([]int, len(t.GroupBy))
	for i := range groupCols {
		groupCols[i] = i
	}
	reduce := physical.NewHashAggregate(ex, groupCols, split.ReduceCalls, physical.AggReduce, split.ReduceFields)
	setCost(reduce, outRows, p.cfg.CostParams.HashAggregate(mapRows, outRows, float64(len(split.ReduceFields)), 1))

	if split.Finalize == nil {
		return reduce
	}
	proj := physical.NewProject(reduce, split.Finalize, t.Schema())
	setCost(proj, outRows, p.cfg.CostParams.Project(outRows, float64(len(t.Schema())), 1))
	return proj
}

// joinAlternatives enumerates algorithm × distribution-mapping ×
// orientation alternatives for one join.
func (p *Planner) joinAlternatives(t *logical.Join, req Req) ([]physical.Node, error) {
	leftW := len(t.Left.Schema())
	keys, _ := expr.SplitJoinCondition(t.Cond, leftW)

	var alts []physical.Node
	add, err := p.orientationAlternatives(t, t.Left, t.Right, t.Type, t.Cond, keys)
	if err != nil {
		return nil, err
	}
	alts = append(alts, add...)

	// §5.1.3: the commuted orientation (hash-join input swap and friends).
	if p.allowCommute && t.Type == logical.JoinInner {
		swKeys := make([]expr.EquiKey, len(keys))
		for i, k := range keys {
			swKeys[i] = expr.EquiKey{Left: k.Right, Right: k.Left}
		}
		swCond := commuteCond(t.Cond, leftW, len(t.Right.Schema()))
		add, err = p.orientationAlternativesSwapped(t, swCond, swKeys)
		if err != nil {
			return nil, err
		}
		alts = append(alts, add...)
	}
	return alts, nil
}

// commuteCond rewrites a condition over [L ++ R] to the [R ++ L] layout.
func commuteCond(cond expr.Expr, leftW, rightW int) expr.Expr {
	return expr.Transform(cond, func(n expr.Expr) expr.Expr {
		c, ok := n.(*expr.ColRef)
		if !ok {
			return n
		}
		if c.Index < leftW {
			return expr.NewColRef(c.Index+rightW, c.Typ, c.Name)
		}
		return expr.NewColRef(c.Index-leftW, c.Typ, c.Name)
	})
}

// orientationAlternativesSwapped builds the commuted join and restores the
// original column order with a projection.
func (p *Planner) orientationAlternativesSwapped(t *logical.Join, swCond expr.Expr,
	swKeys []expr.EquiKey) ([]physical.Node, error) {

	raw, err := p.orientationAlternatives(t, t.Right, t.Left, t.Type, swCond, swKeys)
	if err != nil {
		return nil, err
	}
	leftW := len(t.Left.Schema())
	rightW := len(t.Right.Schema())
	fields := t.Schema()
	out := make([]physical.Node, 0, len(raw))
	// The restore-projection expressions depend only on the commuted
	// join's schema, which the alternatives share (see joinSchema): build
	// them once per distinct schema, not once per alternative.
	var exprs []expr.Expr
	var exprsFor types.Fields
	for _, j := range raw {
		if js := j.Schema(); exprs == nil || !sameFields(js, exprsFor) {
			// Restore [L ++ R] order.
			exprs = make([]expr.Expr, 0, leftW+rightW)
			for i := 0; i < leftW; i++ {
				exprs = append(exprs, expr.NewColRef(rightW+i, js[rightW+i].Kind, js[rightW+i].Name))
			}
			for i := 0; i < rightW; i++ {
				exprs = append(exprs, expr.NewColRef(i, js[i].Kind, js[i].Name))
			}
			exprsFor = js
		}
		proj := physical.NewProject(j, exprs, fields)
		rows := j.Props().EstRows
		setCost(proj, rows, p.cfg.CostParams.Project(rows, float64(len(fields)), 1))
		out = append(out, proj)
	}
	return out, nil
}

// joinSchema hands out the output schema of one join's alternatives,
// rebuilding it only when an alternative's inputs carry schemas other
// than the ones it was last built from. Alternatives differ in traits,
// not in schema — except that two subplans differing only in column
// labels share a memo group, so an input can arrive under either label
// set; comparing by content keeps every plan's schema exactly what a
// concatenation of its own inputs would give.
type joinSchema struct {
	left, right, out types.Fields
}

func (s *joinSchema) of(jt logical.JoinType, left, right types.Fields) types.Fields {
	if s.out == nil || !sameFields(left, s.left) || !sameFields(right, s.right) {
		s.left, s.right = left, right
		s.out = jt.Fields(left, right)
	}
	return s.out
}

// orientationAlternatives enumerates algorithm × mapping for one input
// orientation. t carries the estimates; left/right/cond/keys describe the
// (possibly swapped) orientation.
func (p *Planner) orientationAlternatives(t *logical.Join, left, right logical.Node,
	jt logical.JoinType, cond expr.Expr, keys []expr.EquiKey) ([]physical.Node, error) {

	leftW := len(left.Schema())
	leftNat, err := p.optimize(left, anyReq)
	if err != nil {
		return nil, err
	}
	rightNat, err := p.optimize(right, anyReq)
	if err != nil {
		return nil, err
	}
	mappings := physical.DeriveJoinDistributions(jt, keys, leftW,
		leftNat.Dist(), rightNat.Dist(), p.cfg.FullyDistributedJoins)

	// What no alternative changes is built once: the algorithm list, the
	// merge-join input collations and (through schema) the output fields.
	algos := make([]physical.JoinAlgo, 1, 3)
	algos[0] = physical.NestedLoop
	var lc, rc []types.SortKey
	if len(keys) > 0 {
		algos = append(algos, physical.Merge)
		if p.cfg.EnableHashJoin {
			algos = append(algos, physical.HashAlgo)
		}
		lc = make([]types.SortKey, len(keys))
		rc = make([]types.SortKey, len(keys))
		for i, k := range keys {
			lc[i] = types.SortKey{Col: k.Left}
			rc[i] = types.SortKey{Col: k.Right}
		}
	}
	// In t's own orientation the logical join already holds the schema.
	var schema joinSchema
	if left == t.Left {
		schema = joinSchema{left: left.Schema(), right: right.Schema(), out: t.Schema()}
	}

	est := p.cfg.Est
	outRows := est.RowCount(t)

	alts := make([]physical.Node, 0, len(mappings)*len(algos))
	for i := range mappings {
		m := &mappings[i]
		for _, algo := range algos {
			lReq := Req{Dist: &m.Left}
			rReq := Req{Dist: &m.Right}
			if algo == physical.Merge {
				lReq.Coll, rReq.Coll = lc, rc
			}
			lp, err := p.optimize(left, lReq)
			if err != nil {
				return nil, err
			}
			rp, err := p.optimize(right, rReq)
			if err != nil {
				return nil, err
			}
			j := physical.NewJoin(lp, rp, algo, jt, cond, keys, m.Target, m.Name,
				schema.of(jt, lp.Schema(), rp.Schema()))
			lRows, rRows := lp.Props().EstRows, rp.Props().EstRows
			var self = p.cfg.CostParams.NestedLoopJoin(lRows, rRows, widthOf(rp), p.df(lp))
			switch algo {
			case physical.Merge:
				self = p.cfg.CostParams.MergeJoin(lRows, rRows, p.df(lp), p.df(rp))
			case physical.HashAlgo:
				self = p.cfg.CostParams.HashJoin(lRows, rRows, widthOf(rp), p.df(rp))
			}
			setCost(j, outRows, self)
			alts = append(alts, j)
		}
	}
	return alts, nil
}
