package exec

import (
	"fmt"
	"math"
	"sort"

	"gignite/internal/cost"
	"gignite/internal/expr"
	"gignite/internal/logical"
	"gignite/internal/physical"
	"gignite/internal/types"
)

// group is one aggregation group: its key values and accumulators.
type group struct {
	key  types.Row
	accs []expr.Accumulator
}

func newGroup(r types.Row, groupBy []int, aggs []expr.AggCall) *group {
	g := &group{key: make(types.Row, len(groupBy)), accs: make([]expr.Accumulator, len(aggs))}
	for i, c := range groupBy {
		g.key[i] = r[c]
	}
	for i, a := range aggs {
		g.accs[i] = a.NewAccumulator()
	}
	return g
}

// add feeds r's argument values, read through the compiled arguments,
// to the accumulators.
func (g *group) add(r types.Row, args []*expr.Scalar) {
	for i, acc := range g.accs {
		var v types.Value
		if a := args[i]; a != nil {
			v = a.At(r)
		}
		acc.Add(v)
	}
}

// result appends the group's output row (key, then aggregates) to row.
func (g *group) result(row types.Row) types.Row {
	row = append(row, g.key...)
	for _, acc := range g.accs {
		row = append(row, acc.Result())
	}
	return row
}

func keyMatches(key types.Row, r types.Row, groupBy []int) bool {
	for i, c := range groupBy {
		if !types.Equal(key[i], r[c]) {
			return false
		}
	}
	return true
}

// hashAggOp groups rows with a hash table, a breaker that keeps only its
// group state. A scalar aggregate (no group columns) always emits exactly
// one row, even on empty input.
type hashAggOp struct {
	op
	groupBy []int
	aggs    []expr.AggCall
	args    []*expr.Scalar
	// perRow is the modeled work charged per input row.
	perRow float64
	groups map[uint64][]*group
	order  []*group
	// Group state accrues for the whole input; it is charged against the
	// query's memory budget as the table grows, batch by batch, using the
	// first input row's width as the per-group estimate (key and
	// accumulators are built from one row).
	stateW  int64
	charged int
}

func newHashAgg(groupBy []int, aggs []expr.AggCall, args []*expr.Scalar, perRow float64) *hashAggOp {
	return &hashAggOp{groupBy: groupBy, aggs: aggs, args: args, perRow: perRow, groups: make(map[uint64][]*group)}
}

func (a *hashAggOp) push(rows []types.Row, _ bool) error {
	a.st.addIn(len(rows))
	a.work(float64(len(rows)) * a.perRow)
	if a.stateW == 0 && len(rows) > 0 {
		a.stateW = rows[0].Width()
	}
	for _, r := range rows {
		h := r.Hash(a.groupBy)
		var g *group
		for _, cand := range a.groups[h] {
			if keyMatches(cand.key, r, a.groupBy) {
				g = cand
				break
			}
		}
		if g == nil {
			g = newGroup(r, a.groupBy, a.aggs)
			a.groups[h] = append(a.groups[h], g)
			a.order = append(a.order, g)
		}
		g.add(r, a.args)
	}
	if len(a.order) > a.charged {
		grown := len(a.order) - a.charged
		a.charged = len(a.order)
		return a.ctx.ReserveMem(a.node, int64(grown)*a.stateW)
	}
	return nil
}

func (a *hashAggOp) finish() error {
	if len(a.groupBy) == 0 && len(a.order) == 0 {
		a.order = append(a.order, newGroup(nil, nil, a.aggs))
	}
	a.st.held(len(a.order))
	w := len(a.groupBy) + len(a.aggs)
	out := make([]types.Row, len(a.order))
	vals := make([]types.Value, 0, len(a.order)*w)
	for i, g := range a.order {
		vals = g.result(vals)
		out[i] = vals[len(vals)-w : len(vals) : len(vals)]
	}
	return a.emitAll(out)
}

// sortAggOp streams over input sorted by the group columns. It holds one
// group's state at a time, so unlike the hash variant it charges no
// memory.
type sortAggOp struct {
	op
	groupBy []int
	aggs    []expr.AggCall
	args    []*expr.Scalar
	cur     *group
	out     []types.Row
}

func (a *sortAggOp) push(rows []types.Row, _ bool) error {
	a.st.addIn(len(rows))
	a.work(float64(len(rows)) * (cost.RPTC + cost.RCC))
	for _, r := range rows {
		if a.cur == nil || !keyMatches(a.cur.key, r, a.groupBy) {
			if err := a.flushGroup(); err != nil {
				return err
			}
			a.cur = newGroup(r, a.groupBy, a.aggs)
		}
		a.cur.add(r, a.args)
	}
	return nil
}

// flushGroup moves the finished group's row to the output batch, emitting
// the batch when it is full. Output rows are freshly allocated, so they
// are stable.
func (a *sortAggOp) flushGroup() error {
	if a.cur == nil {
		return nil
	}
	a.out = append(a.out, a.cur.result(make(types.Row, 0, len(a.groupBy)+len(a.aggs))))
	a.cur = nil
	if len(a.out) < batchSize {
		return nil
	}
	return a.flushOut()
}

func (a *sortAggOp) flushOut() error {
	err := a.emit(a.out, true)
	a.out = a.out[:0]
	return err
}

func (a *sortAggOp) finish() error {
	if err := a.flushGroup(); err != nil {
		return err
	}
	return a.flushOut()
}

// sortOp is a breaker: it keeps its whole input, then emits it in order.
type sortOp struct {
	op
	keys []types.SortKey
	buf  rowBuffer
}

func (s *sortOp) push(rows []types.Row, stable bool) error {
	s.st.addIn(len(rows))
	if err := s.buf.push(rows, stable); err != nil {
		return err
	}
	// finish charges n·RPTC + n·log2 n·RCC and then tests the limit. Both
	// the instance's work and n only grow, so once that test would fail it
	// fails here, before the buffer grows further — a test, not a charge.
	c := s.ctx
	if n := float64(len(s.buf.rows)); c.WorkLimit > 0 && n > 1 &&
		c.CPUWork+n*cost.RPTC+n*math.Log2(n)*cost.RCC > c.WorkLimit {
		return ErrWorkLimit
	}
	return nil
}

func (s *sortOp) expect(n int) { s.buf.expect(n) }
func (s *sortOp) keepsRows()   {}

func (s *sortOp) finish() error {
	rows := s.buf.rows
	if err := s.ctx.ReserveMem(s.node, estRowBytes(rows)); err != nil {
		return err
	}
	if n := float64(len(rows)); n > 1 {
		s.work(n * cost.RPTC)
		s.work(n * math.Log2(n) * cost.RCC)
	}
	if err := sortRowsCancellable(rows, s.keys, s.ctx); err != nil {
		return err
	}
	s.st.held(len(rows))
	return s.emitAll(rows)
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

// emitGuard charges work and estimated memory per emitted join row and
// aborts runaway outputs (a join can produce quadratically many rows from
// linear inputs, so input-based charging alone cannot bound it). Memory is
// charged in the same 4096-row chunks as work, so a mis-planned join trips
// its query's budget long before the host allocator feels it.
type emitGuard struct {
	// width is the estimated bytes per output row, sampled from the first
	// emitted row (joins emit uniformly shaped rows).
	width   int64
	pending int
}

func (j *joinOp) guardRow(row types.Row) error {
	g, c := &j.guard, j.ctx
	if g.width == 0 {
		g.width = row.Width()
	}
	g.pending++
	if g.pending < 4096 {
		return nil
	}
	c.rowsEmitted += int64(g.pending)
	if err := j.settleGuard(); err != nil {
		return err
	}
	if c.overLimit() {
		return ErrWorkLimit
	}
	if c.RowLimit > 0 && c.rowsEmitted > c.RowLimit {
		return ErrWorkLimit
	}
	return c.cancelled()
}

// settleGuard charges the rows emitted since the last charge.
func (j *joinOp) settleGuard() error {
	g := &j.guard
	j.work(float64(g.pending) * cost.RPTC)
	err := j.ctx.ReserveMem(j.node, int64(g.pending)*g.width)
	g.pending = 0
	return err
}

// hashTable is a chained index over a join's build rows: heads maps a key
// hash to the first build row carrying it and next links each row to the
// following one with the same hash, so a probe walks its candidates in
// build-input order (the build-left/build-right order identity of
// DESIGN.md §17 depends on that) and a build allocates two objects,
// however many distinct keys it holds. Links are row index + 1; 0 ends a
// chain.
type hashTable struct {
	rows  []types.Row
	heads map[uint64]int32
	next  []int32
}

// newHashTable indexes rows by the hash of their key columns, skipping
// rows with a NULL key (they never equi-match) and — when hits is non-nil
// — rows whose hash no row of hits carries.
func newHashTable(rows []types.Row, cols []int, hits *hashTable) *hashTable {
	size := len(rows)
	if hits != nil {
		size = len(hits.heads)
	}
	t := &hashTable{rows: rows, heads: make(map[uint64]int32, size), next: make([]int32, len(rows))}
	// Back to front, so that pushing onto a chain's head leaves it in
	// input order.
	for i := len(rows) - 1; i >= 0; i-- {
		r := rows[i]
		if r.HasNull(cols) {
			continue
		}
		h := r.Hash(cols)
		if hits != nil && hits.heads[h] == 0 {
			continue
		}
		t.next[i] = t.heads[h]
		t.heads[h] = int32(i + 1)
	}
	return t
}

// joinOp is the probe side of a join: left rows stream through it, each
// against its candidate right rows. The algorithms differ only in how
// they find the candidates; what a candidate must still satisfy, what
// each join type emits for it, and what an unmatched left row becomes is
// decided here, once.
type joinOp struct {
	op
	j *physical.Join
	// leftCols/rightCols split the equi keys by input side.
	leftCols, rightCols []int
	// residual is what a candidate must still satisfy once its keys
	// matched (physical.Join.Residual); nil tests nothing.
	residual *expr.Predicate
	// pairs: inner and left joins emit one l⧺r row per match; semi and
	// anti joins emit at most l itself, so the first match decides them.
	pairs bool
	// rightW is the right input's width, for a left join's NULL padding.
	rightW int
	// right is the collected right input: every candidate of a
	// nested-loop join, the sorted run source of a merge join (ri is its
	// cursor), the rows behind a hash join's table.
	right []types.Row
	ri    int
	table *hashTable
	// leftWork is the modeled work charged per left row as it is pushed
	// (zero when the join collected its left input and charged it up
	// front).
	leftWork float64
	guard    emitGuard
	// evals counts candidates tried. Candidates may fail for long
	// stretches, so neither the emit guard nor the batch boundary can
	// observe cancellation; it is checked every 64Ki candidates too.
	evals int

	// out is the pending output batch. A pair-emitting join writes its
	// rows into one arena, overwritten batch after batch; a
	// candidate row is assembled in the next free slot and simply left
	// there when it matches. Semi and anti joins emit left rows as they
	// came, so their batch is only as stable as the left input was.
	out       []types.Row
	arena     arena
	outStable bool
	// kept: the consumer keeps every row, so the arena's chunks are handed
	// over with each batch instead of being overwritten by the next.
	kept bool
}

// arena is the value storage behind one pending batch of assembled rows.
// It grows chunk by chunk — each new chunk as large as everything before
// it — and never moves or abandons a chunk, so an operator that emits
// little allocates little, one that fills its batches stops allocating
// after the first, and the rows of the pending batch stay where they
// were written. reset makes every chunk free again; release gives the
// chunks away with the rows in them and starts the next batch on one
// chunk of the size this one reached.
type arena struct {
	chunks [][]types.Value
	cur    int // chunk being filled
	used   int // values claimed in it
	size   int // values in all chunks
	first  int // size of the first chunk after a release
}

// slot returns the next w free values without claiming them.
func (a *arena) slot(w int) types.Row {
	for a.cur < len(a.chunks) {
		if c := a.chunks[a.cur]; len(c)-a.used >= w {
			return c[a.used : a.used+w : a.used+w]
		}
		a.cur, a.used = a.cur+1, 0
	}
	c := make([]types.Value, max(w, a.size, a.first))
	a.first = 0
	a.chunks = append(a.chunks, c)
	a.size += len(c)
	return c[:w:w]
}

// claim keeps the w values slot just returned.
func (a *arena) claim(w int) { a.used += w }

func (a *arena) reset() { a.cur, a.used = 0, 0 }

func (a *arena) release() { *a = arena{first: max(a.first, a.size)} }

// runJoin executes a join. The right input is always collected. A hash
// join building on it and a merge join then stream the left input past
// it. A nested-loop join and a build-left hash join collect the left
// input too, because both need its size before the first row is matched:
// the nested loop to charge its |L|·|R| work — and trip the work limit —
// up front, as the mis-planned N×M joins of the IC baseline must before
// they emit anything. Either way only the inputs are kept; the output
// streams.
func (c *Context) runJoin(t *physical.Join, next stage) error {
	if len(t.Keys) == 0 && t.Algo != physical.NestedLoop {
		return fmt.Errorf("exec: %s join without equi keys", t.Algo)
	}
	j := &joinOp{
		j:         t,
		leftCols:  t.KeyCols(0),
		rightCols: t.KeyCols(1),
		residual:  t.Residual(),
		pairs:     t.Type == logical.JoinInner || t.Type == logical.JoinLeft,
		rightW:    len(t.Inputs()[1].Schema()),
	}
	c.open(&j.op, t, next)
	defer j.close()
	_, j.kept = next.(keeper)

	streamLeft := t.Algo == physical.Merge || (t.Algo == physical.HashAlgo && !t.BuildLeft)
	var left []types.Row
	var err error
	if !streamLeft {
		if left, err = c.collect(t.Inputs()[0]); err != nil {
			return err
		}
	}
	if j.right, err = c.collect(t.Inputs()[1]); err != nil {
		return err
	}
	if len(j.right) > 0 {
		j.rightW = len(j.right[0])
	}
	j.st.addIn(len(j.right))
	j.st.held(len(left) + len(j.right))

	// Asymmetric hash charge, mirroring cost.HashJoin: a probe row computes
	// the hash and looks up (HAC/2), a build row also pays the insert's
	// allocation (3·HAC/2).
	const probeWork, buildWork = cost.RCC + cost.RPTC + cost.HAC/2, cost.RCC + cost.RPTC + 1.5*cost.HAC
	switch {
	case t.Algo == physical.NestedLoop:
		// Every right row is a candidate for every left row. This is the
		// operator that makes the IC baseline's mis-planned N×M joins
		// exceed the work limit.
		j.work((float64(len(left)) + float64(len(left))*float64(len(j.right))) * (cost.RPTC + cost.RCC))
		if c.overLimit() {
			return ErrWorkLimit
		}

	case t.Algo == physical.Merge:
		j.work(float64(len(j.right)) * (cost.RCC + cost.RPTC + cost.HAC))
		j.leftWork = cost.RCC + cost.RPTC + cost.HAC

	case !t.BuildLeft:
		// §5.1.2: build a hash table on the right input, probe it with the
		// left, emitting in left-input order.
		j.work(float64(len(j.right)) * buildWork)
		j.st.addBuild(len(j.right))
		// The build table pins the whole build input for the probe's
		// duration.
		if err := c.ReserveMem(t, estRowBytes(j.right)); err != nil {
			return err
		}
		j.table = newHashTable(j.right, j.rightCols, nil)
		j.leftWork = probeWork

	default:
		// The adaptive re-planner set BuildLeft (DESIGN.md §17): the table
		// is built on the left input instead, only the right rows whose
		// hash hits it are indexed, and the same left-order emission runs
		// over those. Either way a left row's candidates are the right
		// rows sharing its key hash, in right-input order, so the output
		// is byte-identical for both build sides — which is what lets the
		// re-planner flip the side mid-query without breaking the
		// determinism contract. Only the work split and the memory charge
		// move.
		j.work(float64(len(j.right))*probeWork + float64(len(left))*buildWork)
		j.st.addBuild(len(left))
		if err := c.ReserveMem(t, estRowBytes(left)); err != nil {
			return err
		}
		j.table = newHashTable(j.right, j.rightCols, newHashTable(left, j.leftCols, nil))
	}

	if streamLeft {
		err = c.run(t.Inputs()[0], j)
	} else {
		collected := op{ctx: c, next: j}
		err = collected.emitAll(left)
	}
	if err != nil {
		return err
	}
	return j.finish()
}

// push joins one batch of left rows against their candidates, in left
// order.
func (j *joinOp) push(rows []types.Row, stable bool) error {
	j.st.addIn(len(rows))
	j.work(float64(len(rows)) * j.leftWork)
	if !j.pairs {
		if err := j.restable(stable); err != nil {
			return err
		}
	}
	for _, l := range rows {
		var matched bool
		var err error
		switch j.j.Algo {
		case physical.HashAlgo:
			matched, err = j.probeHash(l)
		case physical.Merge:
			matched, err = j.probeMerge(l)
		default:
			matched, err = j.matchAny(l, j.right, false)
		}
		if err != nil {
			return err
		}
		if err := j.settle(l, matched); err != nil {
			return err
		}
	}
	if !j.pairs && !stable {
		// The pending left rows die with the caller's batch.
		return j.flush()
	}
	return nil
}

// restable flushes a semi/anti join's pending batch when the stability of
// the incoming left rows differs from that of the rows already pending.
func (j *joinOp) restable(stable bool) error {
	if len(j.out) > 0 && j.outStable != stable {
		if err := j.flush(); err != nil {
			return err
		}
	}
	j.outStable = stable
	return nil
}

// probeHash walks the chain of build rows sharing l's key hash; they
// share a hash, not necessarily a key, so each is verified.
func (j *joinOp) probeHash(l types.Row) (bool, error) {
	if l.HasNull(j.leftCols) {
		return false, nil
	}
	t := j.table
	matched := false
	for k := t.heads[l.Hash(j.leftCols)]; k != 0; k = t.next[k-1] {
		m, err := j.match(l, t.rows[k-1], true)
		if err != nil {
			return false, err
		}
		if m {
			matched = true
			if !j.pairs {
				break
			}
		}
	}
	return matched, nil
}

// probeMerge merges inputs sorted on the equi keys: l's candidates are
// the run of right rows with an equal key.
func (j *joinOp) probeMerge(l types.Row) (bool, error) {
	if l.HasNull(j.leftCols) {
		return false, nil
	}
	right := j.right
	// Advance the right side to the first candidate.
	for j.ri < len(right) && (right[j.ri].HasNull(j.rightCols) || j.cmpKeys(l, right[j.ri]) > 0) {
		j.ri++
	}
	// The group of equal right rows. ri stays put afterwards: the next
	// left row may share the key group.
	re := j.ri
	for re < len(right) && j.cmpKeys(l, right[re]) == 0 {
		re++
	}
	return j.matchAny(l, right[j.ri:re], false)
}

func (j *joinOp) cmpKeys(l, r types.Row) int {
	for i := range j.leftCols {
		if c := types.Compare(l[j.leftCols[i]], r[j.rightCols[i]]); c != 0 {
			return c
		}
	}
	return 0
}

// matchAny tries l against each candidate in order and reports whether
// any matched; a semi or anti join stops at the first match.
func (j *joinOp) matchAny(l types.Row, cands []types.Row, verify bool) (bool, error) {
	matched := false
	for _, r := range cands {
		m, err := j.match(l, r, verify)
		if err != nil {
			return false, err
		}
		if m {
			matched = true
			if !j.pairs {
				break
			}
		}
	}
	return matched, nil
}

// match tests one candidate: it matches when it agrees with l on the equi
// keys (checked here with verify, by the merge before the call) and the
// concatenated row satisfies the residual. A pair-emitting join emits the
// concatenated row; a semi or anti join with no residual never builds it.
func (j *joinOp) match(l, r types.Row, verify bool) (bool, error) {
	j.evals++
	if j.evals&0xFFFF == 0 {
		if err := j.ctx.cancelled(); err != nil {
			return false, err
		}
	}
	if verify && !types.EqualOn(l, j.leftCols, r, j.rightCols) {
		return false, nil
	}
	if !j.pairs && j.residual == nil {
		return true, nil
	}
	row, err := j.slot(len(l) + len(r))
	if err != nil {
		return false, err
	}
	copy(row[copy(row, l):], r)
	if j.residual != nil && !j.residual.Holds(row) {
		return false, nil
	}
	if j.pairs {
		j.keep(row)
		if err := j.guardRow(row); err != nil {
			return false, err
		}
	}
	return true, nil
}

// settle emits what the join type owes l once its candidates are done.
func (j *joinOp) settle(l types.Row, matched bool) error {
	switch j.j.Type {
	case logical.JoinLeft:
		if !matched {
			row, err := j.slot(len(l) + j.rightW)
			if err != nil {
				return err
			}
			for i := copy(row, l); i < len(row); i++ {
				row[i] = types.Null
			}
			j.keep(row)
		}
	case logical.JoinSemi, logical.JoinAnti:
		if matched == (j.j.Type == logical.JoinSemi) {
			if err := j.room(); err != nil {
				return err
			}
			j.out = append(j.out, l)
		}
	}
	return nil
}

// slot returns the arena slot the next w-wide output (or candidate) row
// is assembled in. A slot is claimed only by keep, so a candidate that
// fails leaves nothing behind.
func (j *joinOp) slot(w int) (types.Row, error) {
	if err := j.room(); err != nil {
		return nil, err
	}
	return j.arena.slot(w), nil
}

// keep appends the row just assembled in slot to the pending batch.
func (j *joinOp) keep(row types.Row) {
	j.out = append(j.out, row)
	j.arena.claim(len(row))
}

// room emits the pending batch when it is full.
func (j *joinOp) room() error {
	if len(j.out) < batchSize {
		return nil
	}
	return j.flush()
}

// flush emits the pending batch, after which its scratch is free again.
func (j *joinOp) flush() error {
	if len(j.out) == 0 {
		return nil
	}
	stable := j.outStable
	if j.pairs {
		stable = j.kept
	}
	err := j.emit(j.out, stable)
	j.out = j.out[:0]
	if j.kept {
		j.arena.release()
	} else {
		j.arena.reset()
	}
	return err
}

// finish emits the last batch and settles the emit guard.
func (j *joinOp) finish() error {
	if err := j.flush(); err != nil {
		return err
	}
	return j.settleGuard()
}
