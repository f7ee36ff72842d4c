package exec

import (
	"fmt"
	"sort"

	"gignite/internal/cost"
	"gignite/internal/expr"
	"gignite/internal/logical"
	"gignite/internal/physical"
	"gignite/internal/types"
)

// runHashAggregate groups rows with a hash table. A scalar aggregate (no
// group columns) always emits exactly one row, even on empty input.
func runHashAggregate(node physical.Node, groupBy []int, aggs []expr.AggCall, in []types.Row, ctx *Context) ([]types.Row, error) {
	ctx.work(float64(len(in)) * (cost.RPTC + cost.HAC + cost.RCC))
	type group struct {
		key  types.Row
		accs []expr.Accumulator
	}
	newGroup := func(r types.Row) *group {
		g := &group{key: make(types.Row, len(groupBy)), accs: make([]expr.Accumulator, len(aggs))}
		for i, c := range groupBy {
			g.key[i] = r[c]
		}
		for i, a := range aggs {
			g.accs[i] = a.NewAccumulator()
		}
		return g
	}
	// Size the table for the common grouping ratio so the map does not
	// rehash its way up from empty on every aggregation.
	groups := make(map[uint64][]*group, len(in)/4+1)
	order := make([]*group, 0, len(in)/4+1)
	// Group state accrues for the whole input scan; charge it against the
	// query's memory budget as the table grows, using the input row width
	// as the per-group estimate (key + accumulators are built from one row).
	var stateW int64
	if len(in) > 0 {
		stateW = in[0].Width()
	}
	charged := 0
	for i, r := range in {
		if i%4096 == 4095 {
			if err := ctx.cancelled(); err != nil {
				return nil, err
			}
			if len(order) > charged {
				if err := ctx.ReserveMem(node, int64(len(order)-charged)*stateW); err != nil {
					return nil, err
				}
				charged = len(order)
			}
		}
		h := r.Hash(groupBy)
		var g *group
		for _, cand := range groups[h] {
			if keyMatches(cand.key, r, groupBy) {
				g = cand
				break
			}
		}
		if g == nil {
			g = newGroup(r)
			groups[h] = append(groups[h], g)
			order = append(order, g)
		}
		for _, acc := range g.accs {
			acc.Add(r)
		}
	}
	if len(order) > charged {
		if err := ctx.ReserveMem(node, int64(len(order)-charged)*stateW); err != nil {
			return nil, err
		}
	}
	if len(groupBy) == 0 && len(order) == 0 {
		g := &group{accs: make([]expr.Accumulator, len(aggs))}
		for i, a := range aggs {
			g.accs[i] = a.NewAccumulator()
		}
		order = append(order, g)
	}
	out := make([]types.Row, 0, len(order))
	for _, g := range order {
		row := make(types.Row, 0, len(groupBy)+len(aggs))
		row = append(row, g.key...)
		for _, acc := range g.accs {
			row = append(row, acc.Result())
		}
		out = append(out, row)
	}
	return out, nil
}

func keyMatches(key types.Row, r types.Row, groupBy []int) bool {
	for i, c := range groupBy {
		if !types.Equal(key[i], r[c]) {
			return false
		}
	}
	return true
}

// runSortAggregate streams over input sorted by the group columns. It
// holds one group's state at a time, so unlike the hash variant it charges
// no memory beyond its (input-bounded) output.
func runSortAggregate(node physical.Node, groupBy []int, aggs []expr.AggCall, in []types.Row, ctx *Context) ([]types.Row, error) {
	ctx.work(float64(len(in)) * (cost.RPTC + cost.RCC))
	if len(groupBy) == 0 {
		return runHashAggregate(node, groupBy, aggs, in, ctx)
	}
	var out []types.Row
	var accs []expr.Accumulator
	var key types.Row
	flush := func() {
		if accs == nil {
			return
		}
		row := make(types.Row, 0, len(groupBy)+len(aggs))
		row = append(row, key...)
		for _, acc := range accs {
			row = append(row, acc.Result())
		}
		out = append(out, row)
	}
	for _, r := range in {
		if accs == nil || !keyMatches(key, r, groupBy) {
			flush()
			key = make(types.Row, len(groupBy))
			for i, c := range groupBy {
				key[i] = r[c]
			}
			accs = make([]expr.Accumulator, len(aggs))
			for i, a := range aggs {
				accs[i] = a.NewAccumulator()
			}
		}
		for _, acc := range accs {
			acc.Add(r)
		}
	}
	flush()
	return out, nil
}

// sortCancelled is the sentinel panic that aborts a sort comparator when
// the query is cancelled mid-sort.
type sortCancelled struct{ err error }

// sortRowsCancellable stably sorts rows under keys, observing the query's
// cancellation signal every 64Ki comparisons. A comparator cannot return
// early, so the abort travels out of sort.SliceStable as a sentinel panic
// recovered here; big sorts stop promptly instead of running to
// completion after a deadline fires.
func sortRowsCancellable(rows []types.Row, keys []types.SortKey, ctx *Context) (err error) {
	defer func() {
		if p := recover(); p != nil {
			sc, ok := p.(sortCancelled)
			if !ok {
				panic(p)
			}
			err = sc.err
		}
	}()
	cmps := 0
	sort.SliceStable(rows, func(a, b int) bool {
		cmps++
		if cmps&0xFFFF == 0 {
			if cerr := ctx.cancelled(); cerr != nil {
				panic(sortCancelled{err: cerr})
			}
		}
		return types.CompareRows(rows[a], rows[b], keys) < 0
	})
	return nil
}

// runJoin dispatches on the physical algorithm.
func runJoin(j *physical.Join, left, right []types.Row, ctx *Context) ([]types.Row, error) {
	switch j.Algo {
	case physical.HashAlgo:
		return runHashJoin(j, left, right, ctx)
	case physical.Merge:
		return runMergeJoin(j, left, right, ctx)
	default:
		return runNestedLoopJoin(j, left, right, ctx)
	}
}

// condTrue evaluates a join condition over the concatenated row.
func condTrue(cond expr.Expr, row types.Row) bool {
	v := cond.Eval(row)
	return v.K == types.KindBool && v.Bool()
}

// emitGuard charges work and estimated memory per emitted join row and
// aborts runaway outputs (a join can produce quadratically many rows from
// linear inputs, so input-based charging alone cannot bound it). Memory is
// charged in the same 4096-row chunks as work, so a mis-planned join trips
// its query's budget long before the host allocator feels it.
type emitGuard struct {
	ctx  *Context
	node physical.Node
	// width is the estimated bytes per output row, sampled from the first
	// emitted row (joins emit uniformly shaped rows).
	width   int64
	pending int
}

func (g *emitGuard) addRow(row types.Row) error {
	if g.width == 0 {
		g.width = row.Width()
	}
	g.pending++
	if g.pending >= 4096 {
		g.ctx.work(float64(g.pending) * cost.RPTC)
		g.ctx.rowsEmitted += int64(g.pending)
		if err := g.ctx.ReserveMem(g.node, int64(g.pending)*g.width); err != nil {
			return err
		}
		g.pending = 0
		if g.ctx.overLimit() {
			return ErrWorkLimit
		}
		if g.ctx.RowLimit > 0 && g.ctx.rowsEmitted > g.ctx.RowLimit {
			return ErrWorkLimit
		}
		if err := g.ctx.cancelled(); err != nil {
			return err
		}
	}
	return nil
}

func (g *emitGuard) flush() error {
	g.ctx.work(float64(g.pending) * cost.RPTC)
	err := g.ctx.ReserveMem(g.node, int64(g.pending)*g.width)
	g.pending = 0
	return err
}

// joinEmitter is the per-left-row core every join algorithm shares. The
// algorithms differ only in how they find a left row's candidate right
// rows; what a candidate must still satisfy, what each join type emits
// for it, and what an unmatched left row becomes is decided here, once.
type joinEmitter struct {
	j *physical.Join
	// leftCols/rightCols split the equi keys by input side.
	leftCols, rightCols []int
	// pairs: inner and left joins emit one l⧺r row per match; semi and
	// anti joins emit at most l itself, so the first match decides them.
	pairs bool
	// rightW is the right input's width, for a left join's NULL padding.
	rightW int
	out    []types.Row
	guard  emitGuard
	// evals counts condition evaluations. Candidates may fail for long
	// stretches, so the emit guard alone cannot observe cancellation; it
	// is checked every 64Ki evaluations too.
	evals int
}

func newJoinEmitter(j *physical.Join, right []types.Row, ctx *Context) joinEmitter {
	em := joinEmitter{
		j:         j,
		leftCols:  make([]int, len(j.Keys)),
		rightCols: make([]int, len(j.Keys)),
		pairs:     j.Type == logical.JoinInner || j.Type == logical.JoinLeft,
		rightW:    len(j.Inputs()[1].Schema()),
		guard:     emitGuard{ctx: ctx, node: j},
	}
	for i, k := range j.Keys {
		em.leftCols[i] = k.Left
		em.rightCols[i] = k.Right
	}
	if len(right) > 0 {
		em.rightW = len(right[0])
	}
	return em
}

// joinRow emits left row l against its candidate right rows, in candidate
// order. A candidate matches when it agrees with l on the equi keys
// (checked only with verify: hash candidates share a hash, not
// necessarily a key) and the concatenated row satisfies the condition.
func (e *joinEmitter) joinRow(l types.Row, cands []types.Row, verify bool) error {
	matched := false
	for _, r := range cands {
		e.evals++
		if e.evals&0xFFFF == 0 {
			if err := e.guard.ctx.cancelled(); err != nil {
				return err
			}
		}
		if verify && !types.EqualOn(l, e.leftCols, r, e.rightCols) {
			continue
		}
		row := l.Concat(r)
		if !condTrue(e.j.Cond, row) {
			continue
		}
		matched = true
		if !e.pairs {
			break
		}
		e.out = append(e.out, row)
		if err := e.guard.addRow(row); err != nil {
			return err
		}
	}
	switch e.j.Type {
	case logical.JoinLeft:
		if !matched {
			row := make(types.Row, 0, len(l)+e.rightW)
			row = append(row, l...)
			for i := 0; i < e.rightW; i++ {
				row = append(row, types.Null)
			}
			e.out = append(e.out, row)
		}
	case logical.JoinSemi:
		if matched {
			e.out = append(e.out, l)
		}
	case logical.JoinAnti:
		if !matched {
			e.out = append(e.out, l)
		}
	}
	return nil
}

// finish settles the emit guard and returns the join's output.
func (e *joinEmitter) finish() ([]types.Row, error) {
	if err := e.guard.flush(); err != nil {
		return nil, err
	}
	return e.out, nil
}

// runNestedLoopJoin is the fallback for arbitrary conditions: every right
// row is a candidate for every left row. It is the operator that makes
// the IC baseline's mis-planned N×M joins exceed the work limit.
func runNestedLoopJoin(j *physical.Join, left, right []types.Row, ctx *Context) ([]types.Row, error) {
	ctx.work((float64(len(left)) + float64(len(left))*float64(len(right))) * (cost.RPTC + cost.RCC))
	if ctx.overLimit() {
		return nil, ErrWorkLimit
	}
	em := newJoinEmitter(j, right, ctx)
	for _, l := range left {
		if err := em.joinRow(l, right, false); err != nil {
			return nil, err
		}
	}
	return em.finish()
}

// hashRows buckets rows by the hash of their key columns, in input order,
// skipping rows with a NULL key (they never equi-match) and — when hits is
// non-nil — rows whose hash no bucket of hits carries.
func hashRows(rows []types.Row, cols []int, hits map[uint64][]types.Row, ctx *Context) (map[uint64][]types.Row, error) {
	size := len(rows)
	if hits != nil {
		size = len(hits)
	}
	table := make(map[uint64][]types.Row, size)
	for i, r := range rows {
		if i%4096 == 4095 {
			if err := ctx.cancelled(); err != nil {
				return nil, err
			}
		}
		if r.HasNull(cols) {
			continue
		}
		h := r.Hash(cols)
		if hits != nil && len(hits[h]) == 0 {
			continue
		}
		table[h] = append(table[h], r)
	}
	return table, nil
}

// runHashJoin implements §5.1.2: build a hash table on the right input,
// probe it with the left, emitting in left-input order.
//
// When the adaptive re-planner set BuildLeft (DESIGN.md §17) the table is
// built on the left input instead: the right input streams past it, only
// the right rows whose hash hits the table are retained, and the same
// left-order emission runs over those. Either way a left row's
// candidates are the right rows sharing its key hash, in right-input
// order, so the output is byte-identical for both build sides — which is
// what lets the re-planner flip the side mid-query without breaking the
// determinism contract. Only the work split and the memory charge move.
func runHashJoin(j *physical.Join, left, right []types.Row, ctx *Context) ([]types.Row, error) {
	if len(j.Keys) == 0 {
		return nil, fmt.Errorf("exec: hash join without equi keys")
	}
	em := newJoinEmitter(j, right, ctx)
	build, buildCols, probe := right, em.rightCols, left
	if j.BuildLeft {
		build, buildCols, probe = left, em.leftCols, right
	}
	// Asymmetric hash charge, mirroring cost.HashJoin: a probe row
	// computes the hash and looks up (HAC/2), a build row also pays the
	// insert's allocation (3·HAC/2).
	ctx.work(float64(len(probe))*(cost.RCC+cost.RPTC+cost.HAC/2) +
		float64(len(build))*(cost.RCC+cost.RPTC+1.5*cost.HAC))
	ctx.opstat(j).addBuild(int64(len(build)))
	// The build table pins the whole build input for the probe's duration.
	if err := ctx.ReserveMem(j, estRowBytes(build)); err != nil {
		return nil, err
	}
	table, err := hashRows(build, buildCols, nil, ctx)
	if err == nil && j.BuildLeft {
		table, err = hashRows(right, em.rightCols, table, ctx)
	}
	if err != nil {
		return nil, err
	}
	// Equi-joins on key-ish columns emit about one row per probe row.
	em.out = make([]types.Row, 0, len(left))
	for i, l := range left {
		if i%4096 == 4095 {
			if err := ctx.cancelled(); err != nil {
				return nil, err
			}
		}
		var cands []types.Row
		if !l.HasNull(em.leftCols) {
			cands = table[l.Hash(em.leftCols)]
		}
		if err := em.joinRow(l, cands, true); err != nil {
			return nil, err
		}
	}
	return em.finish()
}

// runMergeJoin merges two inputs sorted on the equi keys: a left row's
// candidates are the run of right rows with an equal key.
func runMergeJoin(j *physical.Join, left, right []types.Row, ctx *Context) ([]types.Row, error) {
	if len(j.Keys) == 0 {
		return nil, fmt.Errorf("exec: merge join without equi keys")
	}

	ctx.work((float64(len(left)) + float64(len(right))) * (cost.RCC + cost.RPTC + cost.HAC))
	em := newJoinEmitter(j, right, ctx)
	cmp := func(l, r types.Row) int {
		for i := range em.leftCols {
			c := types.Compare(l[em.leftCols[i]], r[em.rightCols[i]])
			if c != 0 {
				return c
			}
		}
		return 0
	}
	ri := 0
	for li, l := range left {
		if li%4096 == 4095 {
			if err := ctx.cancelled(); err != nil {
				return nil, err
			}
		}
		re := ri
		if !l.HasNull(em.leftCols) {
			// Advance the right side to the first candidate.
			for ri < len(right) && (right[ri].HasNull(em.rightCols) || cmp(l, right[ri]) > 0) {
				ri++
				if ri%4096 == 4095 {
					if err := ctx.cancelled(); err != nil {
						return nil, err
					}
				}
			}
			// The group of equal right rows. ri stays put afterwards: the
			// next left row may share the key group.
			for re = ri; re < len(right) && cmp(l, right[re]) == 0; {
				re++
			}
		}
		if err := em.joinRow(l, right[ri:re], false); err != nil {
			return nil, err
		}
	}
	return em.finish()
}
