package volcano

import (
	"math"

	"gignite/internal/cost"
	"gignite/internal/expr"
	"gignite/internal/logical"
	"gignite/internal/physical"
	"gignite/internal/types"
)

// This file generates the physical alternatives per logical operator as
// priced values (alt): estimated rows, subtree cost and output traits.
// optimizeImpl charges a ticket per alternative, prices the enforcers the
// caller's requirement needs on each and builds only the cheapest. A
// non-join alternative is one node over memo winners and arrives built; a
// join alternative — algorithm, distribution mapping, orientation and its
// two input winners — is built only when it wins. A join group's
// alternatives do not depend on the requirement, so they are derived and
// priced once per group (joinGroup) and every requirement re-prices only
// its enforcers.

// plan is a memo winner: a built physical subtree and its reach, the
// least partition-site count over the base-table scans its root reaches
// without crossing an Exchange (0 when it reaches none) — what
// Algorithm 2's distribution factor of an operator above it is (dfOf).
type plan struct {
	node  physical.Node
	reach float64
}

// alt is one priced physical alternative.
type alt struct {
	// node is a built (non-join) alternative.
	node physical.Node
	// A join alternative (o != nil) is built by buildJoin from these.
	o           *orientation
	m           *physical.DistMapping
	algo        physical.JoinAlgo
	left, right plan

	rows  float64
	total cost.Cost
	dist  physical.Distribution
	coll  []types.SortKey
	width int
	reach float64
}

// add pushes a built alternative of the given reach.
func (p *Planner) add(n physical.Node, reach float64) {
	pr := n.Props()
	p.alts = append(p.alts, alt{node: n, rows: pr.EstRows, total: pr.Total,
		dist: pr.Dist, coll: pr.Coll, width: len(pr.Fields), reach: reach})
}

func widthOf(n physical.Node) float64 { return float64(len(n.Schema())) }

// minReach is the reach of an operator over two subtrees.
func minReach(a, b float64) float64 {
	if a == 0 || b != 0 && b < a {
		return b
	}
	return a
}

// scanAlternatives offers the table scan and, when a collation is wanted,
// index scans that can provide it.
func (p *Planner) scanAlternatives(t *logical.Scan, req Req) {
	ts := physical.NewTableScan(t.Table, t.Schema())
	rows := p.cfg.Est.RowCount(t)
	dfScan := float64(p.cfg.Sites)
	if t.Table.Replicated {
		dfScan = 1
	}
	p.finish(ts, t, p.cfg.CostParams.Scan(rows, float64(len(t.Schema())), dfScan))
	p.add(ts, dfScan)

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
			p.add(is, dfScan)
		}
	}
}

// filterAlternatives pushes the requirement through (filters preserve
// traits) and also tries the unconstrained input.
func (p *Planner) filterAlternatives(t *logical.Filter, req Req) error {
	reqs := []Req{anyReq, req}
	if req.Dist == nil && len(req.Coll) == 0 {
		reqs = reqs[:1]
	}
	for _, r := range reqs {
		in, err := p.optimize(t.Input, r)
		if err != nil {
			return err
		}
		f := physical.NewFilter(in.node, t.Cond)
		p.finish(f, t, p.cfg.CostParams.Filter(in.node.Props().EstRows, p.dfOf(in.reach)))
		p.add(f, in.reach)
	}
	return nil
}

// projectAlternatives translates the requirement through the projection
// when possible.
func (p *Planner) projectAlternatives(t *logical.Project, req Req) error {
	translated, ok := translateReqThroughProject(req, t)
	reqs := []Req{translated, anyReq}
	if !ok {
		reqs = reqs[1:]
	}
	for _, r := range reqs {
		in, err := p.optimize(t.Input, r)
		if err != nil {
			return err
		}
		proj := physical.NewProject(in.node, t.Exprs, t.Schema())
		p.finish(proj, t, p.cfg.CostParams.Project(
			in.node.Props().EstRows, float64(len(t.Schema())), p.dfOf(in.reach)))
		p.add(proj, in.reach)
	}
	return nil
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
func (p *Planner) sortAlternatives(t *logical.Sort, req Req) error {
	dist := physical.SingleDist
	if req.Dist != nil {
		dist = *req.Dist
	}
	in, err := p.optimize(t.Input, Req{Dist: &dist, Coll: t.Keys})
	if err != nil {
		return err
	}
	p.add(in.node, in.reach)
	return nil
}

// limitAlternatives: a limit needs the complete stream at one site.
func (p *Planner) limitAlternatives(t *logical.Limit, req Req) error {
	in, err := p.optimize(t.Input, Req{Dist: &physical.SingleDist, Coll: req.Coll})
	if err != nil {
		return err
	}
	l := physical.NewLimit(in.node, t.N)
	p.finish(l, t, p.cfg.CostParams.Limit(math.Min(float64(t.N), in.node.Props().EstRows)))
	p.add(l, in.reach)
	return nil
}

// aggregateAlternatives generates the aggregation strategies:
//
//	(a) single-site hash aggregation
//	(b) single-site sort-based aggregation (input collated on groups)
//	(c) two-phase map/reduce aggregation (non-DISTINCT only)
//	(d) co-located per-partition aggregation when the input is hash
//	    distributed on a subset of the group columns
func (p *Planner) aggregateAlternatives(t *logical.Aggregate) error {
	est := p.cfg.Est
	inRows := est.RowCount(t.Input)
	outRows := est.RowCount(t)
	width := float64(len(t.Schema()))

	// (a) single-site hash aggregation.
	inSingle, err := p.optimize(t.Input, Req{Dist: &physical.SingleDist})
	if err != nil {
		return err
	}
	ha := physical.NewHashAggregate(inSingle.node, t.GroupBy, t.Aggs, physical.AggSinglePhase, t.Schema())
	p.finish(ha, t, p.cfg.CostParams.HashAggregate(inRows, outRows, width, p.dfOf(inSingle.reach)))
	p.add(ha, inSingle.reach)

	// (b) single-site sort-based aggregation.
	if len(t.GroupBy) > 0 {
		coll := make([]types.SortKey, len(t.GroupBy))
		for i, g := range t.GroupBy {
			coll[i] = types.SortKey{Col: g}
		}
		inSorted, err := p.optimize(t.Input, Req{Dist: &physical.SingleDist, Coll: coll})
		if err != nil {
			return err
		}
		sa := physical.NewSortAggregate(inSorted.node, t.GroupBy, t.Aggs, physical.AggSinglePhase, t.Schema())
		p.finish(sa, t, p.cfg.CostParams.SortAggregate(inRows, p.dfOf(inSorted.reach)))
		p.add(sa, inSorted.reach)
	}

	// (c) two-phase map/reduce.
	if !t.HasDistinct() && p.cfg.Sites > 1 {
		if split, err2 := physical.SplitAggCalls(len(t.GroupBy), t.Aggs, t.Schema()); err2 == nil {
			inAny, err := p.optimize(t.Input, anyReq)
			if err != nil {
				return err
			}
			if inAny.node.Dist().Type != physical.Single {
				// The reduce side reads an Exchange: it reaches no scan.
				p.add(p.buildTwoPhaseAgg(t, inAny, split, inRows, outRows), 0)
			}
		}
	}

	// (d) co-located complete aggregation.
	if len(t.GroupBy) > 0 {
		inAny, err := p.optimize(t.Input, anyReq)
		if err != nil {
			return err
		}
		d := inAny.node.Dist()
		if d.Type == physical.Hash && len(d.Keys) > 0 && keysSubset(d.Keys, t.GroupBy) {
			la := physical.NewHashAggregate(inAny.node, t.GroupBy, t.Aggs, physical.AggSinglePhase, t.Schema())
			p.finish(la, t, p.cfg.CostParams.HashAggregate(inRows, outRows, width, p.dfOf(inAny.reach)))
			p.add(la, inAny.reach)
		}
	}
	return nil
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
func (p *Planner) buildTwoPhaseAgg(t *logical.Aggregate, in plan,
	split *physical.AggSplit, inRows, outRows float64) physical.Node {

	sites := float64(p.cfg.Sites)
	mapRows := math.Min(inRows, outRows*sites)

	mapAgg := physical.NewHashAggregate(in.node, t.GroupBy, split.MapCalls, physical.AggMap, split.MapFields)
	setCost(mapAgg, mapRows, p.cfg.CostParams.HashAggregate(inRows, mapRows, float64(len(split.MapFields)), p.dfOf(in.reach)))

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

// joinGroup is what a join group's search derives without looking at the
// requirement: its orientations and its priced alternatives in both.
type joinGroup struct {
	alts   []alt
	orient [2]orientation
}

// orientation is one input order of a join: the condition and equi-keys
// over that order's layout, its distribution mappings and its output
// schema. The commuted one also keeps the expressions of its restore
// projection, built for the join schema restoreFor.
type orientation struct {
	swapped    bool
	cond       expr.Expr
	keys       []expr.EquiKey
	mappings   []physical.DistMapping
	schema     joinSchema
	restore    []expr.Expr
	restoreFor types.Fields
}

// joinAlternatives returns a join group's alternatives, enumerating and
// pricing them on the group's first search: algorithm × distribution
// mapping × orientation, with the §5.1.3 commuted orientation (hash-join
// input swap and friends) restored to the original column order by a
// projection.
func (p *Planner) joinAlternatives(t *logical.Join, g int) ([]alt, error) {
	if jg := p.groups[g].join; jg != nil {
		return jg.alts, nil
	}
	leftW, rightW := len(t.Left.Schema()), len(t.Right.Schema())
	jg := &joinGroup{}
	o := &jg.orient[0]
	o.cond = t.Cond
	o.keys, _ = expr.SplitJoinCondition(t.Cond, leftW)
	o.schema = joinSchema{left: t.Left.Schema(), right: t.Right.Schema(), out: t.Schema()}
	if err := p.orientationAlternatives(t, jg, o); err != nil {
		return nil, err
	}
	if p.allowCommute && t.Type == logical.JoinInner {
		sw := &jg.orient[1]
		sw.swapped = true
		sw.keys = make([]expr.EquiKey, len(o.keys))
		for i, k := range o.keys {
			sw.keys[i] = expr.EquiKey{Left: k.Right, Right: k.Left}
		}
		sw.cond = commuteCond(t.Cond, leftW, rightW)
		if err := p.orientationAlternatives(t, jg, sw); err != nil {
			return nil, err
		}
	}
	p.groups[g].join = jg
	return jg.alts, nil
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

// orientationAlternatives prices algorithm × mapping for one input
// orientation and appends them to the group's alternatives. t carries the
// estimates; o describes the (possibly swapped) orientation.
func (p *Planner) orientationAlternatives(t *logical.Join, jg *joinGroup, o *orientation) error {
	left, right := t.Left, t.Right
	if o.swapped {
		left, right = right, left
	}
	leftW, rightW := len(left.Schema()), len(right.Schema())
	leftNat, err := p.optimize(left, anyReq)
	if err != nil {
		return err
	}
	rightNat, err := p.optimize(right, anyReq)
	if err != nil {
		return err
	}
	o.mappings = physical.DeriveJoinDistributions(t.Type, o.keys, leftW,
		leftNat.node.Dist(), rightNat.node.Dist(), p.cfg.FullyDistributedJoins)

	// What no alternative changes is built once: the algorithm list and
	// the merge-join input collations.
	algos := make([]physical.JoinAlgo, 1, 3)
	algos[0] = physical.NestedLoop
	var lc, rc []types.SortKey
	if len(o.keys) > 0 {
		algos = append(algos, physical.Merge)
		if p.cfg.EnableHashJoin {
			algos = append(algos, physical.HashAlgo)
		}
		lc = make([]types.SortKey, len(o.keys))
		rc = make([]types.SortKey, len(o.keys))
		for i, k := range o.keys {
			lc[i] = types.SortKey{Col: k.Left}
			rc[i] = types.SortKey{Col: k.Right}
		}
	}
	// The commuted orientation's restore projection moves every column of
	// the [R ++ L] layout (here left = R): R's columns after L's, L's to
	// the front.
	var restore []int
	if o.swapped {
		restore = make([]int, leftW+rightW)
		for i := range restore {
			if i < leftW {
				restore[i] = rightW + i
			} else {
				restore[i] = i - leftW
			}
		}
	}

	outRows := p.cfg.Est.RowCount(t)
	width := len(t.Schema())
	if jg.alts == nil {
		jg.alts = make([]alt, 0, 2*len(o.mappings)*len(algos))
	}
	for i := range o.mappings {
		m := &o.mappings[i]
		var restDist physical.Distribution
		if o.swapped {
			restDist = m.Target.RemapKeys(restore)
		}
		for _, algo := range algos {
			lReq := Req{Dist: &m.Left}
			rReq := Req{Dist: &m.Right}
			if algo == physical.Merge {
				lReq.Coll, rReq.Coll = lc, rc
			}
			lp, err := p.optimize(left, lReq)
			if err != nil {
				return err
			}
			rp, err := p.optimize(right, rReq)
			if err != nil {
				return err
			}
			a := alt{o: o, m: m, algo: algo, left: lp, right: rp, rows: outRows,
				total: p.joinCost(algo, lp, rp).Plus(lp.node.Props().Total).Plus(rp.node.Props().Total),
				dist:  m.Target, width: width, reach: minReach(lp.reach, rp.reach)}
			if algo == physical.Merge {
				a.coll = lp.node.Collation()
			}
			if o.swapped {
				a.total = p.cfg.CostParams.Project(outRows, float64(width), 1).Plus(a.total)
				a.dist = restDist
				a.coll = physical.RemapCollation(a.coll, restore)
			}
			jg.alts = append(jg.alts, a)
		}
	}
	return nil
}

// joinCost is a join's own cost over its two input winners.
func (p *Planner) joinCost(algo physical.JoinAlgo, lp, rp plan) cost.Cost {
	lRows, rRows := lp.node.Props().EstRows, rp.node.Props().EstRows
	switch algo {
	case physical.Merge:
		return p.cfg.CostParams.MergeJoin(lRows, rRows, p.dfOf(lp.reach), p.dfOf(rp.reach))
	case physical.HashAlgo:
		return p.cfg.CostParams.HashJoin(lRows, rRows, widthOf(rp.node), p.dfOf(rp.reach))
	}
	return p.cfg.CostParams.NestedLoopJoin(lRows, rRows, widthOf(rp.node), p.dfOf(lp.reach))
}

// buildJoin materializes a winning join alternative at the rows and cost
// it was priced at; the commuted orientation gets its restore projection.
func (p *Planner) buildJoin(t *logical.Join, a *alt) physical.Node {
	o := a.o
	lp, rp := a.left.node, a.right.node
	j := physical.NewJoin(lp, rp, a.algo, t.Type, o.cond, o.keys, a.m.Target, a.m.Name,
		o.schema.of(t.Type, lp.Schema(), rp.Schema()))
	setCost(j, a.rows, p.joinCost(a.algo, a.left, a.right))
	if !o.swapped {
		return j
	}
	js := j.Schema()
	if o.restore == nil || !sameFields(js, o.restoreFor) {
		// Restore [L ++ R] order.
		leftW, rightW := len(t.Left.Schema()), len(t.Right.Schema())
		o.restore = make([]expr.Expr, 0, leftW+rightW)
		for i := 0; i < leftW; i++ {
			o.restore = append(o.restore, expr.NewColRef(rightW+i, js[rightW+i].Kind, js[rightW+i].Name))
		}
		for i := 0; i < rightW; i++ {
			o.restore = append(o.restore, expr.NewColRef(i, js[i].Kind, js[i].Name))
		}
		o.restoreFor = js
	}
	fields := t.Schema()
	proj := physical.NewProject(j, o.restore, fields)
	setCost(proj, a.rows, p.cfg.CostParams.Project(a.rows, float64(len(fields)), 1))
	return proj
}
