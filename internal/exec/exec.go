// Package exec implements the runtime operators: it executes one fragment
// instance (fragment × site × variant) over the partitioned store,
// exchanging rows with other fragments through a Transport. Execution is
// materialized (each operator consumes its inputs fully), which matches
// the blocking operators that dominate the workloads (hash builds, sorts,
// aggregations); pipelining effects on wall-clock time are captured by the
// simnet cost clock instead.
//
// The three join algorithms (operators.go) differ only in how they find a
// left row's candidate right rows — every right row, a hash bucket, a
// sorted run; matching the candidates and emitting per join type is one
// shared joinEmitter. There is one hash join, parameterised by build side
// (physical.Join.BuildLeft), with order-identical output either way.
package exec

import (
	"context"
	"errors"
	"fmt"
	"math"
	"sort"
	"sync"
	"time"

	"gignite/internal/cost"
	"gignite/internal/faults"
	"gignite/internal/fragment"
	"gignite/internal/governor"
	"gignite/internal/joinfilter"
	"gignite/internal/obs"
	"gignite/internal/physical"
	"gignite/internal/sketch"
	"gignite/internal/storage"
	"gignite/internal/types"
)

// Batch is one shipment of rows from a sender instance to a target site.
type Batch struct {
	Rows        []types.Row
	FromFrag    int
	FromSite    int
	FromVariant int
	// Attempt is the sender instance's retry attempt (0 = first try); it
	// feeds the fault injector so a resent batch draws a fresh outcome.
	Attempt int
	Bytes   int64
	// Sorted carries the sender-side collation for merging receivers.
	Sorted []types.SortKey
}

// Transport buffers exchanged batches: batches[exchangeID][targetSite].
// It is safe for concurrent senders and receivers.
type Transport struct {
	mu      sync.Mutex
	batches map[int]map[int][]*Batch
	// Sends records every shipment for the cost clock.
	Sends []SendRecord
	// FailSend, when set, is consulted before every shipment; a non-nil
	// return fails the send (the cluster wires the fault injector here).
	FailSend func(exchange, toSite int, b *Batch) error
	// scratch pools hash senders' per-call routing buffers. Batch row
	// slices themselves are retained by the transport until the query
	// finishes, so only the transient routing state is poolable.
	scratch sync.Pool
}

// sendScratch is the reusable per-call state of one hash-routing send:
// the per-row route assignments and the per-site row counts.
type sendScratch struct {
	routes []int
	counts []int
}

// getScratch borrows a routing buffer sized for rows×sites.
func (t *Transport) getScratch(rows, sites int) *sendScratch {
	sc, _ := t.scratch.Get().(*sendScratch)
	if sc == nil {
		sc = &sendScratch{}
	}
	if cap(sc.routes) < rows {
		sc.routes = make([]int, rows)
	}
	sc.routes = sc.routes[:rows]
	if cap(sc.counts) < sites {
		sc.counts = make([]int, sites)
	}
	sc.counts = sc.counts[:sites]
	for i := range sc.counts {
		sc.counts[i] = 0
	}
	return sc
}

func (t *Transport) putScratch(sc *sendScratch) { t.scratch.Put(sc) }

// SendRecord is the cost-clock view of one shipment. Attempt identifies
// the sender attempt so a hedged race's loser can be rolled back without
// touching the winner's shipments.
type SendRecord struct {
	Exchange    int
	FromFrag    int
	FromSite    int
	FromVariant int
	Attempt     int
	ToSite      int
	Bytes       int64
	Rows        int64
}

// NewTransport creates an empty transport.
func NewTransport() *Transport {
	return &Transport{batches: make(map[int]map[int][]*Batch)}
}

// Send ships rows to a target site under an exchange ID. It fails only
// when a FailSend hook rejects the shipment (injected transport faults).
func (t *Transport) Send(exchange, toSite int, b *Batch) error {
	if t.FailSend != nil {
		if err := t.FailSend(exchange, toSite, b); err != nil {
			return err
		}
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	m, ok := t.batches[exchange]
	if !ok {
		m = make(map[int][]*Batch)
		t.batches[exchange] = m
	}
	m[toSite] = append(m[toSite], b)
	t.Sends = append(t.Sends, SendRecord{
		Exchange: exchange, FromFrag: b.FromFrag, FromSite: b.FromSite,
		FromVariant: b.FromVariant, Attempt: b.Attempt, ToSite: toSite,
		Bytes: b.Bytes, Rows: int64(len(b.Rows)),
	})
	return nil
}

// DiscardFrom rolls back every batch and send record shipped by one
// sender instance, identified by its logical coordinates (fragment,
// logical site, variant). The retry scheduler calls this before re-running
// a failed instance so retried shipments never duplicate rows; the
// returned totals are the rollback's resend cost for the simnet trace.
// Discarding is safe because consumers only receive at the next wave
// barrier, after all retries of the producing wave have settled.
func (t *Transport) DiscardFrom(fromFrag, fromSite, fromVariant int) (bytes float64, rows int64) {
	return t.discard(func(frag, site, variant, attempt int) bool {
		return frag == fromFrag && site == fromSite && variant == fromVariant
	})
}

// DiscardAttempt rolls back the shipments of one specific attempt of a
// sender instance — the losing side of a hedged race — leaving the
// surviving attempt's shipments in place (DESIGN.md §14).
func (t *Transport) DiscardAttempt(fromFrag, fromSite, fromVariant, attempt int) (bytes float64, rows int64) {
	return t.discard(func(frag, site, variant, att int) bool {
		return frag == fromFrag && site == fromSite && variant == fromVariant && att == attempt
	})
}

func (t *Transport) discard(match func(frag, site, variant, attempt int) bool) (bytes float64, rows int64) {
	t.mu.Lock()
	defer t.mu.Unlock()
	for _, m := range t.batches {
		for toSite, bs := range m {
			kept := bs[:0]
			for _, b := range bs {
				if match(b.FromFrag, b.FromSite, b.FromVariant, b.Attempt) {
					continue
				}
				kept = append(kept, b)
			}
			m[toSite] = kept
		}
	}
	keptSends := t.Sends[:0]
	for _, s := range t.Sends {
		if match(s.FromFrag, s.FromSite, s.FromVariant, s.Attempt) {
			bytes += float64(s.Bytes)
			rows += s.Rows
			continue
		}
		keptSends = append(keptSends, s)
	}
	t.Sends = keptSends
	return bytes, rows
}

// Receive returns the batches shipped to a site under an exchange ID.
// The returned slice is a copy in a deterministic order — by sender
// site, then sender variant — so concurrent receivers may reorder or
// truncate it freely, and concurrent senders' arrival order never
// perturbs consumer-side row order.
func (t *Transport) Receive(exchange, site int) []*Batch {
	t.mu.Lock()
	defer t.mu.Unlock()
	src := t.batches[exchange][site]
	out := make([]*Batch, len(src))
	copy(out, src)
	sort.SliceStable(out, func(a, b int) bool {
		if out[a].FromSite != out[b].FromSite {
			return out[a].FromSite < out[b].FromSite
		}
		return out[a].FromVariant < out[b].FromVariant
	})
	return out
}

// Context is the execution environment of one fragment instance.
type Context struct {
	Store     *storage.Store
	Transport *Transport
	FragID    int
	// Site is the instance's logical site: the partition slot it covers
	// and the identity its shipments carry. It never changes across
	// retries, which is what keeps failover results byte-identical.
	Site int
	// Host is the physical site executing this attempt — equal to Site
	// until a failover moves the instance onto a backup replica. Scans
	// read partition Site from host Host (storage validates the replica).
	Host int
	// Attempt is the retry attempt number (0 = first try).
	Attempt int
	// Ctx carries the query's cancellation signal; operators check it at
	// row-batch boundaries. nil means not cancellable.
	Ctx context.Context
	// Faults is the query's fault injector (nil = no faults).
	Faults *faults.Injector
	// Variant / NVariants implement §5.3.2 splitters; NVariants is 1 for
	// single-threaded fragments.
	Variant   int
	NVariants int
	// Modes assigns splitter/duplicator roles to sources (nil when the
	// fragment is single-threaded).
	Modes map[physical.Node]fragment.SourceMode
	// CPUWork accumulates modeled work units for the cost clock.
	CPUWork float64
	// WorkLimit aborts execution when CPUWork exceeds it (0 = unlimited).
	// It reproduces the paper's four-hour runtime limit: the IC baseline's
	// nested-loop chains hit it on TPC-H Q17/Q19/Q21.
	WorkLimit float64
	// RowLimit bounds rows materialized by join emission (0 = unlimited);
	// it keeps runaway cross products from exhausting host memory before
	// the work limit trips.
	RowLimit    int64
	rowsEmitted int64
	// rowCounter implements the splitter's read counter per source.
	rowCounters map[physical.Node]int64
	// Mem, when non-nil, is the query's governor memory lease:
	// pipeline-breaking operators (hash builds, aggregations, sorts,
	// receiver buffers, join emission) charge estimated state bytes
	// against it as they accumulate state (DESIGN.md §14). Reservation
	// failures abort only this query, with a typed error naming the
	// operator.
	Mem *governor.Lease
	// SiteMemBytes, when positive, is the host site's injected memory
	// pool (the mem=S@B fault term): an instance whose charges exceed it
	// fails with faults.ErrSiteMem and fails over to the next replica.
	// Enforcement is per-instance and deterministic.
	SiteMemBytes int64
	// memLocal is this attempt's charged bytes (the SiteMemBytes check);
	// memCharged is the subset successfully reserved on the lease, which
	// the scheduler releases when the attempt finishes.
	memLocal   int64
	memCharged int64
	// OpIDs maps this fragment's operators to dense per-fragment operator
	// ids, and Obs is the attempt's private per-operator recorder. Both
	// nil disables instrumentation (microbenchmarks, operator unit tests).
	OpIDs map[physical.Node]int
	Obs   *obs.InstanceObs
	// opStack tracks the operator frames currently executing, so work()
	// attributes modeled work to the operator that charged it (self work,
	// children excluded).
	opStack []int

	// --- runtime join filters (DESIGN.md §13) ---

	// Prebuilt maps a hash join's build-side root to the rows the filter
	// pre-pass already computed at this instance's logical site; runNode
	// returns them instead of re-executing the subtree (work and operator
	// stats for the build were recorded by the pre-pass instance).
	Prebuilt map[physical.Node][]types.Row
	// NodeFilters maps producer-fragment operators to the runtime filters
	// applied at their output (scan-level pushdown, union filter).
	NodeFilters map[physical.Node][]*AppliedFilter
	// SendFilters maps exchange IDs to the per-destination-site filters
	// the Sender tests rows against before batching them.
	SendFilters map[int]*SendFilter
	// FilterTested/FilterPruned aggregate per-filter probe counts for the
	// query's FilterObs records (keyed by filter ID).
	FilterTested map[int]int64
	FilterPruned map[int]int64

	// --- adaptive execution sketches (DESIGN.md §17) ---

	// SketchKeys, when non-nil, maps exchange IDs whose senders build a
	// runtime sketch over the rows they ship to the key columns the
	// sketch hashes (nil value: the exchange target's distribution keys,
	// or the whole row for non-hash targets). The adaptive controller
	// picks the consuming join's equi keys so sketch distinct counts are
	// directly usable for join re-estimation. Sketch maintenance rides
	// the existing per-row send charge (no extra modeled work), so
	// enabling sketches never changes the cost clock.
	SketchKeys map[int][]int
	// Sketches holds the sketches this attempt built, keyed by exchange
	// ID. The scheduler collects them from the winning attempt only, so
	// retries and hedge losers never double-count.
	Sketches map[int]*sketch.Sketch
}

// AppliedFilter is one node-level runtime-filter application: rows whose
// key hash fails the filter are dropped from the node's output. The union
// filter is used because a node-level row may still route to any site.
type AppliedFilter struct {
	ID     int
	Cols   []int
	Filter *joinfilter.Filter
}

// SendFilter is the sender-level application: each destination site gets
// the filter built from that site's hash-join build partition, which is
// far more selective than the union (a probe row only matches the build
// rows co-located with it).
type SendFilter struct {
	ID   int
	Cols []int
	// PerSite is indexed by destination site; nil entries pass all rows.
	PerSite []*joinfilter.Filter
}

// countFilter records one filter application's probe counts.
func (c *Context) countFilter(id int, tested, pruned int64) {
	if c.FilterTested == nil {
		c.FilterTested = make(map[int]int64)
		c.FilterPruned = make(map[int]int64)
	}
	c.FilterTested[id] += tested
	c.FilterPruned[id] += pruned
}

// testRow evaluates one row against a filter: rows with NULL keys can
// never equi-match and are pruned outright.
func filterTestRow(f *joinfilter.Filter, cols []int, r types.Row) bool {
	if r.HasNull(cols) {
		return false
	}
	return f.Test(r.Hash(cols))
}

// applyNodeFilters drops rows failing any of the node's runtime filters,
// charging test work and recording pruned counts inside the node's open
// operator frame.
func (c *Context) applyNodeFilters(n physical.Node, afs []*AppliedFilter, rows []types.Row) []types.Row {
	for _, af := range afs {
		c.work(float64(len(rows)) * cost.BFTC)
		kept := make([]types.Row, 0, len(rows))
		for _, r := range rows {
			if filterTestRow(af.Filter, af.Cols, r) {
				kept = append(kept, r)
			}
		}
		pruned := int64(len(rows) - len(kept))
		c.countFilter(af.ID, int64(len(rows)), pruned)
		c.opstat(n).addPruned(pruned)
		rows = kept
	}
	return rows
}

// ErrWorkLimit reports an execution exceeding its work limit.
var ErrWorkLimit = errors.New("exec: work limit exceeded")

// ReserveMem charges estimated operator-state bytes against the
// instance's site memory pool and the query's lease, recording the
// operator's memory high-water mark. A failed reservation names the
// operator; the caller aborts the instance (site-pool failures fail over,
// lease failures abort the query).
func (c *Context) ReserveMem(n physical.Node, bytes int64) error {
	if bytes <= 0 {
		return nil
	}
	if st := c.opstat(n); st != nil {
		st.addMem(bytes)
	}
	c.memLocal += bytes
	if c.SiteMemBytes > 0 && c.memLocal > c.SiteMemBytes {
		return fmt.Errorf("exec: %s: site %d memory pool (%d bytes) exhausted: %w",
			n.Describe(), c.Host, c.SiteMemBytes, faults.ErrSiteMem)
	}
	if c.Mem != nil {
		if err := c.Mem.Reserve(bytes); err != nil {
			return fmt.Errorf("exec: %s: %w", n.Describe(), err)
		}
		c.memCharged += bytes
	}
	return nil
}

// ChargedMem returns the bytes this attempt reserved on the query lease;
// the scheduler releases them when the attempt finishes (success or
// failure), so the shared pool tracks live operator state.
func (c *Context) ChargedMem() int64 { return c.memCharged }

// estRowBytes estimates the in-memory footprint of a materialized row set
// from the modeled width of a small sample. It is a pure function of the
// rows, so memory charges are identical at every worker count.
func estRowBytes(rows []types.Row) int64 {
	if len(rows) == 0 {
		return 0
	}
	sample := len(rows)
	if sample > 16 {
		sample = 16
	}
	var w int64
	for _, r := range rows[:sample] {
		w += r.Width()
	}
	return w / int64(sample) * int64(len(rows))
}

func (c *Context) work(units float64) {
	c.CPUWork += units
	if c.Obs != nil && len(c.opStack) > 0 {
		c.Obs.Ops[c.opStack[len(c.opStack)-1]].Work += units
	}
}

// opFrame is one open operator instrumentation frame; id < 0 means the
// operator is untracked and the frame is a no-op.
type opFrame struct {
	id    int
	start time.Time
}

// openOp starts an operator's instrumentation frame.
func (c *Context) openOp(n physical.Node) opFrame {
	if c.Obs == nil {
		return opFrame{id: -1}
	}
	id, ok := c.OpIDs[n]
	if !ok {
		return opFrame{id: -1}
	}
	c.opStack = append(c.opStack, id)
	return opFrame{id: id, start: time.Now()}
}

// closeOp finishes a frame, recording output rows, the materialization
// high-water mark and inclusive wall time.
func (c *Context) closeOp(f opFrame, rows []types.Row) {
	if f.id < 0 {
		return
	}
	c.opStack = c.opStack[:len(c.opStack)-1]
	op := &c.Obs.Ops[f.id]
	op.RowsOut += int64(len(rows))
	op.WallNanos += time.Since(f.start).Nanoseconds()
	if n := int64(len(rows)); n > op.PeakRows {
		op.PeakRows = n
	}
}

// opstat returns an operator's recorder slot (nil when untracked).
func (c *Context) opstat(n physical.Node) *OpStatsRef {
	if c.Obs == nil {
		return nil
	}
	id, ok := c.OpIDs[n]
	if !ok {
		return nil
	}
	return (*OpStatsRef)(&c.Obs.Ops[id])
}

// OpStatsRef aliases an operator's recorder slot for the few operators
// that record extra detail (receiver batches, hash build sizes, scan
// input rows).
type OpStatsRef obs.OpStats

func (o *OpStatsRef) addIn(n int64) {
	if o != nil {
		o.RowsIn += n
	}
}

func (o *OpStatsRef) addBatches(n int64) {
	if o != nil {
		o.Batches += n
	}
}

func (o *OpStatsRef) addBuild(n int64) {
	if o == nil {
		return
	}
	o.BuildRows += n
	if n > o.PeakRows {
		o.PeakRows = n
	}
}

func (o *OpStatsRef) addPruned(n int64) {
	if o != nil {
		o.RowsPruned += n
	}
}

func (o *OpStatsRef) addMem(n int64) {
	if o != nil {
		o.PeakMemBytes += n
	}
}

// overLimit reports whether the instance has exceeded its work budget.
func (c *Context) overLimit() bool {
	return c.WorkLimit > 0 && c.CPUWork > c.WorkLimit
}

// cancelled returns the query's cancellation error, if any. Operators
// call it at row-batch boundaries so deadlines and Ctrl-C stop in-flight
// instances promptly.
func (c *Context) cancelled() error {
	if c.Ctx == nil {
		return nil
	}
	return c.Ctx.Err()
}

// sourceRows applies the §5.3.2 splitter: pass tuple when
// counter % n == variant. Duplicators pass everything. The whole
// partition is still read (and charged), matching the paper's note that
// every variant reads the full partition.
func (c *Context) sourceRows(n physical.Node, rows []types.Row) []types.Row {
	if c.NVariants <= 1 || c.Modes == nil {
		return rows
	}
	mode, ok := c.Modes[n]
	if !ok || mode == fragment.DuplicateMode {
		return rows
	}
	if c.rowCounters == nil {
		c.rowCounters = make(map[physical.Node]int64)
	}
	out := make([]types.Row, 0, len(rows)/c.NVariants+1)
	ctr := c.rowCounters[n]
	for _, r := range rows {
		if int(ctr%int64(c.NVariants)) == c.Variant {
			out = append(out, r)
		}
		ctr++
	}
	c.rowCounters[n] = ctr
	return out
}

// Run executes a fragment instance rooted at n and returns its output
// rows. Sender roots route their rows into the transport and return nil.
func Run(n physical.Node, ctx *Context) ([]types.Row, error) {
	rows, err := runInstance(n, ctx)
	if err != nil {
		return nil, err
	}
	// The limit is also enforced after the final operator so that a
	// fragment whose last operator blew the budget still reports it.
	if ctx.overLimit() {
		return nil, ErrWorkLimit
	}
	return rows, nil
}

func runInstance(n physical.Node, ctx *Context) ([]types.Row, error) {
	switch t := n.(type) {
	case *physical.Sender:
		f := ctx.openOp(t)
		rows, err := runNode(t.Inputs()[0], ctx)
		if err != nil {
			ctx.closeOp(f, nil)
			return nil, err
		}
		ctx.opstat(t).addIn(int64(len(rows)))
		err = sendRows(t, rows, ctx)
		ctx.closeOp(f, rows)
		return nil, err
	default:
		return runNode(n, ctx)
	}
}

// runNode executes one operator subtree, wrapping the dispatch in the
// observability frame: output rows, wall time and self modeled work are
// recorded per operator (see Context.openOp).
func runNode(n physical.Node, ctx *Context) ([]types.Row, error) {
	// A subtree the runtime-filter pre-pass already executed at this
	// logical site is served from the cache: its work and operator stats
	// were charged by the pre-pass instance, so re-recording them here
	// would double-count.
	if ctx.Prebuilt != nil {
		if rows, ok := ctx.Prebuilt[n]; ok {
			return rows, nil
		}
	}
	f := ctx.openOp(n)
	rows, err := execNode(n, ctx)
	if err == nil && ctx.NodeFilters != nil {
		if afs, ok := ctx.NodeFilters[n]; ok {
			rows = ctx.applyNodeFilters(n, afs, rows)
		}
	}
	ctx.closeOp(f, rows)
	return rows, err
}

func execNode(n physical.Node, ctx *Context) ([]types.Row, error) {
	if ctx.overLimit() {
		return nil, ErrWorkLimit
	}
	if err := ctx.cancelled(); err != nil {
		return nil, err
	}
	switch t := n.(type) {
	case *physical.TableScan:
		rows, err := ctx.Store.PartitionAt(t.Table.Name, ctx.Site, ctx.Host)
		if err != nil {
			return nil, err
		}
		ctx.opstat(n).addIn(int64(len(rows)))
		ctx.work(float64(len(rows)) * cost.RPTC)
		return ctx.sourceRows(n, rows), nil

	case *physical.IndexScan:
		rows, err := ctx.Store.IndexScanAt(t.Table.Name, t.Index.Name, ctx.Site, ctx.Host, nil, nil)
		if err != nil {
			return nil, err
		}
		ctx.opstat(n).addIn(int64(len(rows)))
		ctx.work(float64(len(rows)) * cost.RPTC * 1.2)
		return ctx.sourceRows(n, rows), nil

	case *physical.Values:
		return t.Rows, nil

	case *physical.Receiver:
		return runReceiver(t, ctx)

	case *physical.Filter:
		in, err := runNode(t.Inputs()[0], ctx)
		if err != nil {
			return nil, err
		}
		ctx.opstat(n).addIn(int64(len(in)))
		ctx.work(float64(len(in)) * (cost.RPTC + cost.RCC))
		out := make([]types.Row, 0, len(in))
		for _, r := range in {
			v := t.Cond.Eval(r)
			if v.K == types.KindBool && v.Bool() {
				out = append(out, r)
			}
		}
		return out, nil

	case *physical.Project:
		in, err := runNode(t.Inputs()[0], ctx)
		if err != nil {
			return nil, err
		}
		ctx.opstat(n).addIn(int64(len(in)))
		ctx.work(float64(len(in)) * cost.RPTC * float64(len(t.Exprs)))
		out := make([]types.Row, len(in))
		for i, r := range in {
			if i%4096 == 4095 {
				if err := ctx.cancelled(); err != nil {
					return nil, err
				}
			}
			row := make(types.Row, len(t.Exprs))
			for j, e := range t.Exprs {
				row[j] = e.Eval(r)
			}
			out[i] = row
		}
		return out, nil

	case *physical.Sort:
		in, err := runNode(t.Inputs()[0], ctx)
		if err != nil {
			return nil, err
		}
		ctx.opstat(n).addIn(int64(len(in)))
		// The sort materializes a full copy of its input.
		if err := ctx.ReserveMem(n, estRowBytes(in)); err != nil {
			return nil, err
		}
		n := float64(len(in))
		if n > 1 {
			ctx.work(n * cost.RPTC)
			ctx.work(n * math.Log2(n) * cost.RCC)
		}
		out := make([]types.Row, len(in))
		copy(out, in)
		if err := sortRowsCancellable(out, t.Keys, ctx); err != nil {
			return nil, err
		}
		return out, nil

	case *physical.Limit:
		in, err := runNode(t.Inputs()[0], ctx)
		if err != nil {
			return nil, err
		}
		ctx.opstat(n).addIn(int64(len(in)))
		if int64(len(in)) > t.N {
			in = in[:t.N]
		}
		ctx.work(float64(len(in)) * cost.RPTC)
		return in, nil

	case *physical.HashAggregate:
		in, err := runNode(t.Inputs()[0], ctx)
		if err != nil {
			return nil, err
		}
		ctx.opstat(n).addIn(int64(len(in)))
		return runHashAggregate(t, t.GroupBy, t.Aggs, in, ctx)

	case *physical.SortAggregate:
		in, err := runNode(t.Inputs()[0], ctx)
		if err != nil {
			return nil, err
		}
		ctx.opstat(n).addIn(int64(len(in)))
		return runSortAggregate(t, t.GroupBy, t.Aggs, in, ctx)

	case *physical.Join:
		left, err := runNode(t.Inputs()[0], ctx)
		if err != nil {
			return nil, err
		}
		right, err := runNode(t.Inputs()[1], ctx)
		if err != nil {
			return nil, err
		}
		ctx.opstat(n).addIn(int64(len(left) + len(right)))
		return runJoin(t, left, right, ctx)

	default:
		return nil, fmt.Errorf("exec: no runtime for %T", n)
	}
}

// sendRows routes a sender's output per its target distribution. Batches
// carry the instance's logical coordinates (Site, not Host), so a
// failed-over sender ships under the same identity the owner would have —
// receivers order by that identity, keeping failover results
// byte-identical.
func sendRows(s *physical.Sender, rows []types.Row, ctx *Context) error {
	sites := ctx.Store.Sites()
	mk := func(rs []types.Row) *Batch {
		var bytes int64
		for _, r := range rs {
			bytes += r.Width()
		}
		return &Batch{
			Rows: rs, FromFrag: ctx.FragID, FromSite: ctx.Site,
			FromVariant: ctx.Variant, Attempt: ctx.Attempt,
			Bytes: bytes, Sorted: s.Collation(),
		}
	}
	var sf *SendFilter
	if ctx.SendFilters != nil {
		sf = ctx.SendFilters[s.ExchangeID]
	}
	ctx.work(float64(len(rows)) * cost.RPTC)
	ctx.sketchRows(s, rows)
	switch s.Target.Type {
	case physical.Single:
		out := rows
		if sf != nil {
			out = ctx.filterToSite(s, sf, rows, 0)
		}
		return ctx.Transport.Send(s.ExchangeID, 0, mk(out))
	case physical.Broadcast:
		for site := 0; site < sites; site++ {
			out := rows
			if sf != nil {
				// Each destination's copy is pruned against that site's
				// build filter independently: a broadcast row only needs to
				// reach the sites whose build partition could match it.
				out = ctx.filterToSite(s, sf, rows, site)
			}
			if err := ctx.Transport.Send(s.ExchangeID, site, mk(out)); err != nil {
				return err
			}
		}
	case physical.Hash:
		// Two-pass routing over a pooled scratch: compute every row's
		// destination (and filter verdict) once, then carve exact-size
		// per-site slices out of one backing array. This keeps the hot
		// send path free of append-growth reallocations.
		sc := ctx.Transport.getScratch(len(rows), sites)
		defer ctx.Transport.putScratch(sc)
		var pruned int64
		for i, r := range rows {
			site := routeRow(r, s.Target.Keys, sites)
			if sf != nil {
				if siteF := sf.PerSite[site]; !filterTestRow(siteF, sf.Cols, r) {
					sc.routes[i] = -1
					pruned++
					continue
				}
			}
			sc.routes[i] = site
			sc.counts[site]++
		}
		if sf != nil {
			ctx.work(float64(len(rows)) * cost.BFTC)
			ctx.countFilter(sf.ID, int64(len(rows)), pruned)
			ctx.opstat(s).addPruned(pruned)
		}
		backing := make([]types.Row, len(rows)-int(pruned))
		buckets := make([][]types.Row, sites)
		off := 0
		for site, n := range sc.counts {
			buckets[site] = backing[off : off : off+n]
			off += n
		}
		for i, r := range rows {
			if site := sc.routes[i]; site >= 0 {
				buckets[site] = append(buckets[site], r)
			}
		}
		for site, b := range buckets {
			if err := ctx.Transport.Send(s.ExchangeID, site, mk(b)); err != nil {
				return err
			}
		}
	}
	return nil
}

// sketchRows feeds a sender's output into the exchange's runtime sketch
// when adaptive execution asked for one. The sketch summarizes the rows
// the sender produced (pre-routing, pre-runtime-filter), keyed by the
// columns the controller requested — falling back to the target's
// distribution keys, then the whole row — so merged sketches estimate
// the exchange's key cardinality and skew.
func (c *Context) sketchRows(s *physical.Sender, rows []types.Row) {
	if c.SketchKeys == nil {
		return
	}
	keys, enabled := c.SketchKeys[s.ExchangeID]
	if !enabled {
		return
	}
	if c.Sketches == nil {
		c.Sketches = make(map[int]*sketch.Sketch)
	}
	sk := c.Sketches[s.ExchangeID]
	if sk == nil {
		sk = sketch.New()
		c.Sketches[s.ExchangeID] = sk
	}
	if len(keys) == 0 {
		keys = s.Target.Keys
	}
	if len(keys) == 0 && len(rows) > 0 {
		keys = allCols(len(rows[0]))
	}
	for _, r := range rows {
		sk.Add(r.Hash(keys))
	}
}

// filterToSite returns the rows passing one destination site's runtime
// filter, charging test work and recording pruned counts against the
// sender's operator slot.
func (c *Context) filterToSite(s *physical.Sender, sf *SendFilter, rows []types.Row, site int) []types.Row {
	f := sf.PerSite[site]
	c.work(float64(len(rows)) * cost.BFTC)
	out := make([]types.Row, 0, len(rows))
	for _, r := range rows {
		if filterTestRow(f, sf.Cols, r) {
			out = append(out, r)
		}
	}
	pruned := int64(len(rows) - len(out))
	c.countFilter(sf.ID, int64(len(rows)), pruned)
	c.opstat(s).addPruned(pruned)
	return out
}

// routeRow picks the target partition for a row under a hash target. A
// single-key route uses the storage placement function so that exchanged
// rows land where the co-located partitions live; multi-key and keyless
// targets use a combined row hash.
func routeRow(r types.Row, keys []int, sites int) int {
	if sites <= 1 {
		return 0
	}
	if len(keys) == 1 {
		return storage.PartitionOf(r[keys[0]], sites)
	}
	if len(keys) == 0 {
		return int(r.Hash(allCols(len(r))) % uint64(sites))
	}
	return int(r.Hash(keys) % uint64(sites))
}

func allCols(n int) []int {
	out := make([]int, n)
	for i := range out {
		out[i] = i
	}
	return out
}

// runReceiver collects the batches for this site, merging sorted streams
// when the receiver is a merging receiver.
func runReceiver(r *physical.Receiver, ctx *Context) ([]types.Row, error) {
	batches := ctx.Transport.Receive(r.ExchangeID, ctx.Site)
	var total int
	for _, b := range batches {
		total += len(b.Rows)
	}
	st := ctx.opstat(r)
	st.addIn(int64(total))
	st.addBatches(int64(len(batches)))
	out := make([]types.Row, 0, total)
	for _, b := range batches {
		out = append(out, b.Rows...)
	}
	// The receiver buffers every inbound batch before the consumer runs.
	if err := ctx.ReserveMem(r, estRowBytes(out)); err != nil {
		return nil, err
	}
	ctx.work(float64(total) * cost.RPTC)
	if len(r.MergeKeys) > 0 && len(batches) > 1 {
		// K-way merge of the per-sender sorted streams. The data movement
		// is implemented as a re-sort of the concatenation for simplicity,
		// but the cost clock charges what a real loser-tree merge costs:
		// one comparison per row.
		ctx.work(float64(total) * cost.RCC)
		if err := sortRowsCancellable(out, r.MergeKeys, ctx); err != nil {
			return nil, err
		}
	}
	return ctx.sourceRows(r, out), nil
}
