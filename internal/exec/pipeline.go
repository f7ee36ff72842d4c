package exec

import (
	"fmt"
	"time"

	"gignite/internal/cost"
	"gignite/internal/expr"
	"gignite/internal/fragment"
	"gignite/internal/physical"
	"gignite/internal/types"
)

// batchSize is the most rows one push carries. It is not configuration:
// only this package's tests shrink it, to make small fixtures cross batch
// boundaries.
var batchSize = 128

// stage is the consuming end of a pipeline edge. Execution is
// producer-driven: run(n, next) pushes every row node n produces into
// next, batch by batch and in order, and returns when n is exhausted —
// so a join needs no suspend/resume state, and a join's build side runs
// to completion before its probe side starts.
type stage interface {
	// push hands over the next rows. The slice itself belongs to the
	// producer: it is valid only during the call and must not be
	// modified. stable reports whether the rows' values outlive the call;
	// a consumer that keeps an unstable row must copy it (rowBuffer does).
	push(rows []types.Row, stable bool) error
}

// operator is a stage that runs one unary plan node.
type operator interface {
	stage
	base() *op
	// finish runs once the input is exhausted; breakers emit here.
	finish() error
}

// sizer is a stage that can use advance notice of its input's size: a
// breaker reserves its buffer once instead of growing it batch by batch.
type sizer interface {
	// expect announces that at least the next n rows pushed are certain
	// to come.
	expect(n int)
}

// keeper is a stage that keeps every row it is pushed. A producer that
// assembles its rows itself can hand a keeper freshly allocated ones,
// stable, instead of scratch the keeper would have to copy.
type keeper interface{ keepsRows() }

// op is the part of a running operator every stage shares: its recorder
// slot and its downstream edge.
type op struct {
	ctx    *Context
	node   physical.Node
	st     *OpStatsRef // nil when untracked
	next   stage
	sel    []types.Row // splitter scratch
	gather []types.Row // index-order scratch
	// start and away turn the producer-driven call stack back into the
	// operator's wall time inclusive of its inputs: everything between
	// open and close, minus the time spent downstream in next.push.
	start time.Time
	away  time.Duration
}

func (o *op) base() *op { return o }

// open binds an op to its node and starts its wall clock.
func (c *Context) open(o *op, n physical.Node, next stage) {
	o.ctx, o.node, o.next = c, n, next
	if o.st = c.opstat(n); o.st != nil {
		o.start = time.Now()
	}
}

func (o *op) close() {
	if o.st != nil {
		o.st.WallNanos += (time.Since(o.start) - o.away).Nanoseconds()
	}
}

func (o *op) work(units float64) { o.ctx.work(o.st, units) }

// emit passes one batch downstream.
func (o *op) emit(rows []types.Row, stable bool) error {
	if len(rows) == 0 {
		return nil
	}
	if o.st == nil {
		return o.next.push(rows, stable)
	}
	o.st.addOut(len(rows))
	t := time.Now()
	err := o.next.push(rows, stable)
	o.away += time.Since(t)
	return err
}

// emitAll streams rows the op holds for good (a source's, a breaker's
// output) downstream in batches. This is the executor's one batch
// boundary check: the work limit and cancellation are observed here.
func (o *op) emitAll(rows []types.Row) error {
	o.announce(len(rows))
	for len(rows) > 0 {
		if o.ctx.overLimit() {
			return ErrWorkLimit
		}
		if err := o.ctx.cancelled(); err != nil {
			return err
		}
		n := min(len(rows), batchSize)
		if err := o.emit(rows[:n:n], true); err != nil {
			return err
		}
		rows = rows[n:]
	}
	return nil
}

// announce tells the consumer that n rows are certain to follow.
func (o *op) announce(n int) {
	if s, ok := o.next.(sizer); ok && n > 0 {
		s.expect(n)
	}
}

// emitSource streams a scan's or receiver's rows through the §5.3.2
// splitter: pass tuple when counter % n == variant. Duplicators pass
// everything. The whole partition is still read (and charged), matching
// the paper's note that every variant reads the full partition.
func (o *op) emitSource(rows []types.Row) error {
	c := o.ctx
	if !c.splits(o.node) {
		return o.emitAll(rows)
	}
	o.announce(o.share(len(rows)))
	counter := c.counter(o.node)
	ctr := *counter
	// Select batch by batch into one scratch; the selected rows are the
	// source's own, so they stay stable.
	for len(rows) > 0 {
		n := min(len(rows), batchSize)
		if cap(o.sel) < n/c.NVariants+1 {
			o.sel = lend(c.scratch(), &rowPool, n/c.NVariants+1)
		}
		sel := o.sel[:0]
		for _, r := range rows[:n] {
			if int(ctr%int64(c.NVariants)) == c.Variant {
				sel = append(sel, r)
			}
			ctr++
		}
		rows = rows[n:]
		if err := o.emitAll(sel); err != nil {
			return err
		}
	}
	*counter = ctr
	return nil
}

// counter returns splitting source n's read counter.
func (c *Context) counter(n physical.Node) *int64 {
	if c.Counters == nil {
		c.Counters = make([]int64, len(c.OpIDs))
	}
	return &c.Counters[c.OpIDs[n]]
}

// splits reports whether this instance passes only its variant's share
// of source n's rows.
func (c *Context) splits(n physical.Node) bool {
	return c.NVariants > 1 && c.Modes[n] == fragment.SplitMode
}

// share returns how many of the source's next n rows the splitter passes.
func (o *op) share(n int) int {
	if !o.ctx.splits(o.node) {
		return n
	}
	// passed(x) counts the counters below x that belong to this variant.
	nv, v := int64(o.ctx.NVariants), int64(o.ctx.Variant)
	passed := func(x int64) int64 { return (x + nv - 1 - v) / nv }
	ctr := *o.ctx.counter(o.node)
	return int(passed(ctr+int64(n)) - passed(ctr))
}

// rowBuffer is what a pipeline breaker keeps: row headers in arrival
// order, and — for rows that arrived in a producer's scratch — one copy
// of their values in slab storage. headers lends the row headers and
// values the slabs (nil: made on the heap).
type rowBuffer struct {
	rows    []types.Row
	slab    []types.Value
	headers *Lender
	values  *Lender
}

func (b *rowBuffer) keepsRows() {}

// expect reserves room for n more rows, exactly.
func (b *rowBuffer) expect(n int) {
	if cap(b.rows)-len(b.rows) < n {
		grown := lend(b.headers, &rowPool, len(b.rows)+n)
		b.rows = grown[:copy(grown, b.rows)]
	}
}

func (b *rowBuffer) push(rows []types.Row, stable bool) error {
	// Unannounced rows double the buffer.
	b.rows = grow(b.headers, &rowPool, b.rows, len(rows))
	if stable {
		b.rows = append(b.rows, rows...)
		return nil
	}
	for i, r := range rows {
		if len(b.slab) < len(r) {
			// One slab per batch, sized for the rest of it.
			b.slab = lend(b.values, &valuePool, (len(rows)-i)*len(r))
			b.slab = b.slab[:cap(b.slab)]
		}
		// The capacity limit keeps a later append to the kept row from
		// running into its neighbour.
		kept := b.slab[:len(r):len(r)]
		b.slab = b.slab[len(r):]
		copy(kept, r)
		b.rows = append(b.rows, kept)
	}
	return nil
}

// collect runs a subtree to completion and returns its rows, which the
// caller may keep: the build (or collected) side of a join. A source
// whose rows would reach the buffer unchanged gives its own slice instead
// of a copy; values lends the slabs of the rows it copies.
func (c *Context) collect(n physical.Node, values *Lender) ([]types.Row, error) {
	if c.adoptable(n) {
		return c.adopt(n)
	}
	buf := rowBuffer{headers: c.scratch(), values: values}
	if err := c.run(n, &buf); err != nil {
		return nil, err
	}
	return buf.rows, nil
}

// run executes the subtree rooted at n, pushing its output into next.
func (c *Context) run(n physical.Node, next stage) error {
	var s operator
	switch t := n.(type) {
	case *physical.TableScan, *physical.IndexScan, *physical.Values, *physical.Receiver:
		return c.runSource(n, next)
	case *physical.Join:
		return c.runJoin(t, next)
	case *physical.Filter:
		s = &filterOp{pred: c.kernels(n).Pred}
	case *physical.Project:
		s = &projectOp{cols: c.kernels(n).Cols, keep: c.keepLender(n)}
	case *physical.Limit:
		s = &limitOp{n: t.N}
	case *physical.Sort:
		// A consumer copies the headers it keeps.
		s = &sortOp{keys: t.Keys, buf: rowBuffer{headers: c.scratch(), values: c.keepLender(n)}}
	case *physical.HashAggregate:
		s = newHashAgg(t.GroupBy, t.Aggs, c.kernels(n).Cols, cost.RPTC+cost.HAC+cost.RCC)
	case *physical.SortAggregate:
		if len(t.GroupBy) == 0 {
			// A scalar aggregate has no order to exploit: it runs on the
			// hash operator, on top of the sort aggregate's own charge.
			s = newHashAgg(nil, t.Aggs, c.kernels(n).Cols, (cost.RPTC+cost.RCC)+(cost.RPTC+cost.HAC+cost.RCC))
		} else {
			s = &sortAggOp{aggState: newAggState(t.GroupBy, t.Aggs, c.kernels(n).Cols)}
		}
	default:
		return fmt.Errorf("exec: no runtime for %T", n)
	}
	o := s.base()
	c.open(o, n, next)
	defer o.close()
	if err := c.run(n.Inputs()[0], s); err != nil {
		return err
	}
	return s.finish()
}

// adoptable reports whether collecting n may take a source's own rows: n
// is a Values node or a table scan that passes its whole partition.
// Anything else reaches a collector through scratch — a splitter's or an
// index scan's gather.
func (c *Context) adoptable(n physical.Node) bool {
	switch n.(type) {
	case *physical.Values:
		return true
	case *physical.TableScan:
		return !c.splits(n)
	}
	return false
}

// adopt runs an adoptable source for a collector and returns its rows as
// they are. It charges and records what streaming them would have: the
// scan's read, the boundary checks, and the rows emitted in batches.
func (c *Context) adopt(n physical.Node) ([]types.Row, error) {
	var o op
	c.open(&o, n, nil)
	defer o.close()
	var rows []types.Row
	if t, ok := n.(*physical.TableScan); ok {
		var err error
		if rows, err = o.scan(t); err != nil {
			return nil, err
		}
	} else {
		rows = n.(*physical.Values).Rows
	}
	if len(rows) == 0 {
		return rows, nil
	}
	if c.overLimit() {
		return nil, ErrWorkLimit
	}
	if err := c.cancelled(); err != nil {
		return nil, err
	}
	for left := len(rows); left > 0; left -= batchSize {
		o.st.addOut(min(left, batchSize))
	}
	return rows, nil
}

// runSource reads a leaf's rows — which belong to the store, the plan or
// the published exchanges, and so are stable — and streams them downstream.
func (c *Context) runSource(n physical.Node, next stage) error {
	var o op
	c.open(&o, n, next)
	defer o.close()
	switch t := n.(type) {
	case *physical.TableScan:
		rows, err := o.scan(t)
		if err != nil {
			return err
		}
		return o.emitSource(rows)

	case *physical.IndexScan:
		rows, order, err := c.Store.IndexScanAt(t.Table.Name, t.Index.Name, c.Site, c.Host)
		if err != nil {
			return err
		}
		o.st.addIn(len(order))
		o.work(float64(len(order)) * cost.RPTC * 1.2)
		return o.emitOrdered(rows, order)

	case *physical.Values:
		return o.emitAll(t.Rows)

	default:
		return o.receive(n.(*physical.Receiver))
	}
}

// scan reads a table scan's partition at the instance's site and charges
// the read.
func (o *op) scan(t *physical.TableScan) ([]types.Row, error) {
	c := o.ctx
	rows, err := c.Store.PartitionAt(t.Table.Name, c.Site, c.Host)
	if err != nil {
		return nil, err
	}
	o.st.addIn(len(rows))
	o.work(float64(len(rows)) * cost.RPTC)
	return rows, nil
}

// emitOrdered streams rows[order[0]], rows[order[1]], … (an index scan)
// through the splitter, gathering at most a batch of them at a time into
// the op's scratch: the rows are the store's, so they stay stable.
func (o *op) emitOrdered(rows []types.Row, order []int) error {
	o.announce(o.share(len(order)))
	for len(order) > 0 {
		n := min(len(order), batchSize)
		if cap(o.gather) < n {
			o.gather = lend(o.ctx.scratch(), &rowPool, n)
		}
		batch := o.gather[:n]
		for i, ri := range order[:n] {
			batch[i] = rows[ri]
		}
		order = order[n:]
		if err := o.emitSource(batch); err != nil {
			return err
		}
	}
	return nil
}

// receive streams the batches published to this site, in (sender site,
// sender variant) order. A merging receiver is a breaker: it holds every
// inbound row to merge the sorted streams.
func (o *op) receive(r *physical.Receiver) error {
	c := o.ctx
	batches := c.Exchanges[r.ExchangeID][c.Site]
	var total int
	var sample [estSample]types.Row
	sampled := sample[:0]
	for _, b := range batches {
		total += len(b.Rows)
		sampled = append(sampled, b.Rows[:min(len(b.Rows), estSample-len(sampled))]...)
	}
	o.st.addIn(total)
	o.st.addBatches(len(batches))
	// Every inbound batch is buffered before the consumer runs.
	if err := c.ReserveMem(r, estBytes(sampled, total)); err != nil {
		return err
	}
	o.work(float64(total) * cost.RPTC)
	if len(r.MergeKeys) > 0 && len(batches) > 1 {
		// K-way merge of the per-sender sorted streams. The data movement
		// is implemented as a re-sort of the concatenation for simplicity,
		// but the cost clock charges what a real loser-tree merge costs:
		// one comparison per row.
		o.work(float64(total) * cost.RCC)
		merged := lend(c.scratch(), &rowPool, total)[:0]
		for _, b := range batches {
			merged = append(merged, b.Rows...)
		}
		if err := sortRowsCancellable(merged, r.MergeKeys, c); err != nil {
			return err
		}
		o.st.held(total)
		return o.emitSource(merged)
	}
	o.announce(o.share(total))
	for _, b := range batches {
		if err := o.emitSource(b.Rows); err != nil {
			return err
		}
	}
	return nil
}

// filterOp streams the rows satisfying a condition. The compiled
// predicate selects them into the operator's scratch, which the first
// surviving row of the first batch sizes: a filter nothing passes
// allocates nothing.
type filterOp struct {
	op
	pred *expr.Predicate
	out  []types.Row
}

func (f *filterOp) push(rows []types.Row, stable bool) error {
	f.st.addIn(len(rows))
	f.work(float64(len(rows)) * (cost.RPTC + cost.RCC))
	f.out = f.pred.Select(f.out[:0], rows)
	return f.emit(f.out, stable)
}

func (f *filterOp) finish() error { return nil }

// projectOp streams computed rows. Each compiled expression fills its
// column of one value arena that the next batch overwrites — unless the
// consumer keeps every row anyway, in which case each batch gets an arena
// of its own to keep, lent by keep.
type projectOp struct {
	op
	cols []*expr.Scalar
	keep *Lender
	out  []types.Row
	vals []types.Value
}

func (p *projectOp) push(rows []types.Row, _ bool) error {
	p.st.addIn(len(rows))
	w := len(p.cols)
	p.work(float64(len(rows)) * cost.RPTC * float64(w))
	_, kept := p.next.(keeper)
	if cap(p.out) < len(rows) {
		p.out = lend(p.ctx.scratch(), &rowPool, len(rows))
	}
	if len(p.vals) < len(rows)*w {
		from := p.ctx.scratch()
		if kept {
			from = p.keep
		}
		p.vals = lend(from, &valuePool, len(rows)*w)
		p.vals = p.vals[:cap(p.vals)]
	}
	vals := p.vals
	if kept {
		// The batch keeps its values; the next one fills the rest.
		p.vals = p.vals[len(rows)*w:]
	}
	for j, c := range p.cols {
		c.Fill(rows, vals[j:], w)
	}
	out := p.out[:len(rows)]
	for i := range out {
		out[i] = vals[i*w : (i+1)*w : (i+1)*w]
	}
	return p.emit(out, kept)
}

func (p *projectOp) finish() error { return nil }

// expect: a projection emits exactly the rows it is pushed.
func (p *projectOp) expect(n int) { p.announce(n) }

// limitOp passes the first n rows. It does not stop its producers early:
// the modeled clock charges the full input, as under materialization.
type limitOp struct {
	op
	n    int64
	seen int64
}

func (l *limitOp) push(rows []types.Row, stable bool) error {
	l.st.addIn(len(rows))
	take := int(max(0, min(l.n-l.seen, int64(len(rows)))))
	l.seen += int64(len(rows))
	l.work(float64(take) * cost.RPTC)
	return l.emit(rows[:take], stable)
}

func (l *limitOp) finish() error { return nil }
