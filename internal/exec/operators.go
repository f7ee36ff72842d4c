package exec

import (
	"fmt"
	"math"
	"math/bits"
	"slices"

	"gignite/internal/cost"
	"gignite/internal/expr"
	"gignite/internal/logical"
	"gignite/internal/physical"
	"gignite/internal/types"
)

// aggState is an aggregate's groups, addressed by index in order of first
// arrival. Group g's output row is rows[g]: its key, then one slot per
// aggregate, which the accumulators accs[i][g] fill when the group is
// done. Rows and accumulators are made in chunks that never move — rows
// are handed downstream as they are, and accs points into its chunks —
// so an aggregate allocates per chunk, not per group.
type aggState struct {
	groupBy []int
	aggs    []expr.AggCall
	args    []*expr.Scalar
	rows    []types.Row
	free    []types.Value        // the unclaimed rest of the newest row chunk
	accs    [][]expr.Accumulator // [call][group]; may run ahead of rows
	ids     []int32              // scratch: each pushed row's group (rowGroups)
}

func newAggState(groupBy []int, aggs []expr.AggCall, args []*expr.Scalar) aggState {
	return aggState{groupBy: groupBy, aggs: aggs, args: args, accs: make([][]expr.Accumulator, len(aggs))}
}

// groups returns the number of groups.
func (s *aggState) groups() int32 { return int32(len(s.rows)) }

// add makes r's key a new group and returns its index. A new row chunk
// holds as many groups as there are, so chunks double.
func (s *aggState) add(r types.Row) int32 {
	w := len(s.groupBy) + len(s.aggs)
	if len(s.free) < w {
		s.free = make([]types.Value, max(1, len(s.rows))*w)
	}
	// The capacity limit keeps an append to the row from running into its
	// neighbour.
	row := s.free[:w:w]
	s.free = s.free[w:]
	for i, c := range s.groupBy {
		row[i] = r[c]
	}
	s.rows = append(grow(nil, nil, s.rows, 1), row)
	return s.groups() - 1
}

// rowGroups returns the scratch, lent by l, that holds each of the next
// n rows' group.
func (s *aggState) rowGroups(n int, l *Lender) []int32 {
	if cap(s.ids) < n {
		s.ids = lend(l, &linkPool, n)
	}
	return s.ids[:n]
}

// matches reports whether r carries group g's key.
func (s *aggState) matches(g int32, r types.Row) bool {
	key := s.rows[g]
	for i, c := range s.groupBy {
		if !types.Equal(key[i], r[c]) {
			return false
		}
	}
	return true
}

// feed adds each row's argument values, read through the compiled
// arguments, to its group's accumulators (ids[k] is rows[k]'s group).
// Groups without accumulators get a chunk first: exactly as many as are
// missing the first time — often every group the aggregate will have —
// and at least as many as exist after that, so the chunks are few
// whatever the group count.
func (s *aggState) feed(rows []types.Row, ids []int32) {
	n := len(s.rows)
	for i, call := range s.aggs {
		accs := s.accs[i]
		if have := len(accs); have < n {
			size := max(n, 2*have)
			accs = grow(nil, nil, accs, size-have)[:size]
			call.NewAccumulators(accs[have:])
			s.accs[i] = accs
		}
		arg := s.args[i]
		for k, r := range rows {
			var v types.Value
			if arg != nil {
				v = arg.At(r)
			}
			accs[ids[k]].Add(v)
		}
	}
}

// done fills in the aggregates of groups [0, n) and returns their rows.
func (s *aggState) done(n int32) []types.Row {
	w := len(s.groupBy)
	for g, row := range s.rows[:n] {
		for i, accs := range s.accs {
			row[w+i] = accs[g].Result()
		}
	}
	return s.rows[:n:n]
}

// chains index items by a 64-bit key hash. heads holds one chain per
// bucket, a power of two of them; next links each item to the next one in
// its bucket; hashes holds each item's hash, so a walk skips the other
// keys sharing its bucket without comparing values. Links are item
// index + 1; 0 ends a chain.
type chains struct {
	hashes []uint64
	heads  []int32
	next   []int32
	shift  uint // 64 − log2(len(heads)): a hash's bucket is its top bits
}

// maxBucketBits caps a table at 2^maxBucketBits buckets. It is not
// configuration: only this package's tests lower it, to put every key of
// a table in one bucket.
var maxBucketBits = 31

// buckets replaces the heads with at least n empty buckets (fewer only
// under maxBucketBits), lent by l.
func (c *chains) buckets(n int, l *Lender) {
	b := min(bits.Len(uint(max(n, 1)-1)), maxBucketBits)
	c.heads = lend(l, &linkPool, 1<<b)
	clear(c.heads)
	c.shift = 64 - uint(b)
}

// link pushes item i, whose hash is h, onto the head of its bucket.
func (c *chains) link(i int, h uint64) {
	b := h >> c.shift
	c.next[i] = c.heads[b]
	c.heads[b] = int32(i + 1)
}

// push appends an item whose hash is h, growing the chains in what l
// lends. When items come to outnumber the buckets, their number doubles
// and every item is linked anew.
func (c *chains) push(h uint64, l *Lender) {
	c.hashes = append(grow(l, &hashPool, c.hashes, 1), h)
	c.next = append(grow(l, &linkPool, c.next, 1), 0)
	i := len(c.hashes) - 1
	if i < len(c.heads) {
		c.link(i, h)
		return
	}
	c.buckets(i+1, l)
	for j, h := range c.hashes {
		c.link(j, h)
	}
}

// first returns the first item of h's bucket whose hash is h (0: none).
func (c *chains) first(h uint64) int32 { return c.find(c.heads[h>>c.shift], h) }

// find returns the first item at or after link k whose hash is h.
func (c *chains) find(k int32, h uint64) int32 {
	for k != 0 && c.hashes[k-1] != h {
		k = c.next[k-1]
	}
	return k
}

// keyHash hashes a row's key columns a word at a time for the executor's
// own tables. Values types.Equal calls equal hash alike: ints, dates,
// bools and integral floats mix as the same int64, other floats by their
// bits, and strings by Value.Hash. It places rows inside one operator
// only; rows move between sites by types.Row.Hash, the placement hash.
func keyHash(r types.Row, cols []int) uint64 {
	h := uint64(len(cols))
	for _, c := range cols {
		h = (h ^ keyWord(r[c])) * 0x9e3779b97f4a7c15
		h ^= h >> 32
	}
	return h
}

func keyWord(v types.Value) uint64 {
	switch v.K {
	case types.KindInt, types.KindDate, types.KindBool:
		return uint64(v.I)
	case types.KindFloat:
		if v.F == math.Trunc(v.F) && v.F >= math.MinInt64 && v.F <= math.MaxInt64 {
			return uint64(int64(v.F))
		}
		return math.Float64bits(v.F)
	case types.KindString:
		return v.Hash()
	}
	return 0
}

// hashAggOp groups rows with a hash table over its group state, a breaker
// that keeps only that state. A scalar aggregate (no group columns) has
// no table and always emits exactly one row, even on empty input.
type hashAggOp struct {
	op
	aggState
	index chains
	// perRow is the modeled work charged per input row.
	perRow float64
	// Group state accrues for the whole input; it is charged against the
	// query's memory budget as the table grows, batch by batch, using the
	// first input row's width as the per-group estimate (key and
	// accumulators are built from one row).
	stateW  int64
	charged int32
}

func newHashAgg(groupBy []int, aggs []expr.AggCall, args []*expr.Scalar, perRow float64) *hashAggOp {
	return &hashAggOp{aggState: newAggState(groupBy, aggs, args), perRow: perRow}
}

func (a *hashAggOp) push(rows []types.Row, _ bool) error {
	a.st.addIn(len(rows))
	a.work(float64(len(rows)) * a.perRow)
	if a.stateW == 0 && len(rows) > 0 {
		a.stateW = rows[0].Width()
	}
	ids := a.rowGroups(len(rows), a.ctx.scratch())
	for k, r := range rows {
		ids[k] = a.group(r)
	}
	a.feed(rows, ids)
	if n := a.groups(); n > a.charged {
		grown := n - a.charged
		a.charged = n
		return a.ctx.ReserveMem(a.node, int64(grown)*a.stateW)
	}
	return nil
}

// group returns r's group, adding it if r is its first row.
func (a *hashAggOp) group(r types.Row) int32 {
	if len(a.groupBy) == 0 {
		if len(a.rows) == 0 {
			a.add(r)
		}
		return 0
	}
	x := &a.index
	h := keyHash(r, a.groupBy)
	if len(a.rows) > 0 {
		for k := x.first(h); k != 0; k = x.find(x.next[k-1], h) {
			if a.matches(k-1, r) {
				return k - 1
			}
		}
	}
	x.push(h, a.ctx.scratch())
	return a.add(r)
}

func (a *hashAggOp) finish() error {
	if len(a.groupBy) == 0 && len(a.rows) == 0 {
		a.add(nil)
		a.feed(nil, nil)
	}
	a.st.held(len(a.rows))
	return a.emitAll(a.done(a.groups()))
}

// sortAggOp streams over input sorted by the group columns. Only its last
// group can still grow, so it emits every other group as soon as a batch
// is in and holds one group's state between batches; unlike the hash
// variant it charges no memory.
type sortAggOp struct {
	op
	aggState
	out []types.Row
}

func (a *sortAggOp) push(rows []types.Row, _ bool) error {
	a.st.addIn(len(rows))
	a.work(float64(len(rows)) * (cost.RPTC + cost.RCC))
	if len(rows) == 0 {
		return nil
	}
	ids := a.rowGroups(len(rows), a.ctx.scratch())
	for k, r := range rows {
		if g := a.groups() - 1; g < 0 || !a.matches(g, r) {
			a.add(r)
		}
		ids[k] = a.groups() - 1
	}
	a.feed(rows, ids)
	last := a.groups() - 1
	if err := a.flushGroups(last); err != nil {
		return err
	}
	// The last group becomes group 0; the accumulators no group uses yet
	// stay for the next ones.
	a.rows = append(a.rows[:0], a.rows[last])
	for i, accs := range a.accs {
		a.accs[i] = append(accs[:0], accs[last:]...)
	}
	return nil
}

// flushGroups moves the output rows of groups [0, n) to the output batch,
// emitting it whenever it is full. Nothing overwrites them afterwards, so
// they are stable.
func (a *sortAggOp) flushGroups(n int32) error {
	for _, row := range a.done(n) {
		a.out = append(a.out, row)
		if len(a.out) == batchSize {
			if err := a.flushOut(); err != nil {
				return err
			}
		}
	}
	return nil
}

func (a *sortAggOp) flushOut() error {
	err := a.emit(a.out, true)
	a.out = a.out[:0]
	return err
}

func (a *sortAggOp) finish() error {
	if err := a.flushGroups(a.groups()); err != nil {
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
// early, so the abort travels out of slices.SortStableFunc as a sentinel
// panic recovered here; big sorts stop promptly instead of running to
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
	slices.SortStableFunc(rows, func(a, b types.Row) int {
		cmps++
		if cmps&0xFFFF == 0 {
			if cerr := ctx.cancelled(); cerr != nil {
				panic(sortCancelled{err: cerr})
			}
		}
		return types.CompareRows(a, b, keys)
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

// hashTable indexes a join's build rows by key hash. A bucket's chain
// runs in build-input order, so a probe walks its candidates in that
// order (the build-left/build-right order identity of DESIGN.md §17
// depends on it), and a build allocates the same few slices however many
// distinct keys it holds.
type hashTable struct {
	chains
	rows []types.Row
}

// newHashTable indexes rows by the hash of their key columns, skipping
// rows with a NULL key (they never equi-match) and — when hits is non-nil
// — rows whose hash no row of hits carries. There are at least as many
// buckets as rows that can be indexed. l lends the index.
func newHashTable(rows []types.Row, cols []int, hits *hashTable, l *Lender) *hashTable {
	size := len(rows)
	if hits != nil {
		size = min(size, len(hits.rows))
	}
	t := &hashTable{rows: rows}
	t.buckets(size, l)
	t.hashes = lend(l, &hashPool, len(rows))
	t.next = lend(l, &linkPool, len(rows))
	clear(t.next)
	// Back to front, so that pushing onto a chain's head leaves it in
	// input order.
	for i := len(rows) - 1; i >= 0; i-- {
		r := rows[i]
		if r.HasNull(cols) {
			continue
		}
		h := keyHash(r, cols)
		if hits != nil && hits.first(h) == 0 {
			continue
		}
		t.hashes[i] = h
		t.link(i, h)
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
// chunk of the size this one reached. from lends the chunks.
type arena struct {
	chunks [][]types.Value
	cur    int // chunk being filled
	used   int // values claimed in it
	size   int // values in all chunks
	first  int // size of the first chunk after a release
	from   *Lender
}

// slot returns the next w free values without claiming them.
func (a *arena) slot(w int) types.Row {
	for a.cur < len(a.chunks) {
		if c := a.chunks[a.cur]; len(c)-a.used >= w {
			return c[a.used : a.used+w : a.used+w]
		}
		a.cur, a.used = a.cur+1, 0
	}
	c := lend(a.from, &valuePool, max(w, a.size, a.first))
	c = c[:cap(c)]
	a.first = 0
	a.chunks = append(a.chunks, c)
	a.size += len(c)
	return c[:w:w]
}

// claim keeps the w values slot just returned.
func (a *arena) claim(w int) { a.used += w }

func (a *arena) reset() { a.cur, a.used = 0, 0 }

// release hands the chunks over; the list that held them is reused.
func (a *arena) release() {
	clear(a.chunks)
	*a = arena{chunks: a.chunks[:0], first: max(a.first, a.size), from: a.from}
}

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
		residual:  c.kernels(t).Pred,
		pairs:     t.Type == logical.JoinInner || t.Type == logical.JoinLeft,
		rightW:    len(t.Inputs()[1].Schema()),
	}
	c.open(&j.op, t, next)
	defer j.close()
	_, j.kept = next.(keeper)
	// The arena is scratch unless the consumer keeps its rows; a semi or
	// anti join emits its left rows as they came, so a collected left
	// side is kept storage too.
	keep := c.keepLender(t)
	j.arena.from = c.scratch()
	if j.kept {
		j.arena.from = keep
	}
	leftFrom := c.scratch()
	if !j.pairs {
		leftFrom = keep
	}

	buildLeft := t.Algo == physical.HashAlgo && c.BuildLeft != nil && c.BuildLeft[c.OpIDs[t]]
	streamLeft := t.Algo == physical.Merge || (t.Algo == physical.HashAlgo && !buildLeft)
	var left []types.Row
	var err error
	if !streamLeft {
		if left, err = c.collect(t.Inputs()[0], leftFrom); err != nil {
			return err
		}
	}
	if j.right, err = c.collect(t.Inputs()[1], c.scratch()); err != nil {
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

	case !buildLeft:
		// §5.1.2: build a hash table on the right input, probe it with the
		// left, emitting in left-input order.
		j.work(float64(len(j.right)) * buildWork)
		j.st.addBuild(len(j.right))
		// The build table pins the whole build input for the probe's
		// duration.
		if err := c.ReserveMem(t, estRowBytes(j.right)); err != nil {
			return err
		}
		j.table = newHashTable(j.right, j.rightCols, nil, c.scratch())
		j.leftWork = probeWork

	default:
		// The adaptive re-planner swapped the build side (DESIGN.md §17,
		// Context.BuildLeft): the table is built on the left input
		// instead, only the right rows whose hash hits it are indexed, and
		// the same left-order emission runs over those. Either way a left
		// row's candidates are the right rows sharing its key hash, in
		// right-input order, so the output is byte-identical for both
		// build sides — which is what lets the re-planner flip the side
		// mid-query without breaking the determinism contract. Only the
		// work split and the memory charge move.
		j.work(float64(len(j.right))*probeWork + float64(len(left))*buildWork)
		j.st.addBuild(len(left))
		if err := c.ReserveMem(t, estRowBytes(left)); err != nil {
			return err
		}
		j.table = newHashTable(j.right, j.rightCols, newHashTable(left, j.leftCols, nil, c.scratch()), c.scratch())
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

// probeHash walks the build rows sharing l's key hash, in build order;
// they share a hash, not necessarily a key, so each is verified.
func (j *joinOp) probeHash(l types.Row) (bool, error) {
	if l.HasNull(j.leftCols) {
		return false, nil
	}
	t := j.table
	h := keyHash(l, j.leftCols)
	matched := false
	for k := t.first(h); k != 0; k = t.find(t.next[k-1], h) {
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

// room emits the pending batch when it is full. The first row finds no
// batch yet: it gets a full one, lent.
func (j *joinOp) room() error {
	if j.out == nil {
		j.out = lend(j.ctx.scratch(), &rowPool, batchSize)[:0]
	}
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
