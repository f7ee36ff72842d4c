// Package exec implements the runtime operators: it executes one fragment
// instance (fragment × site × variant) over the partitioned store.
//
// Fragments exchange rows only through Sender/Receiver pairs, and an
// instance never writes shared state: a Sender leaves one batch per
// target site in its own attempt's Context.Sent, and the scheduler's wave
// barrier publishes the surviving attempt's batches into the query's
// Exchanges, which later waves' Receivers read without locks, copies or
// sorting. A failed attempt is simply never published. The executor only
// ships: what adaptive execution learns from the shipments, it reads
// from the surviving attempt's batches once the attempt is over.
//
// Execution inside a fragment is pipelined (pipeline.go): rows flow in
// batches of at most batchSize from a source (table or index scan,
// Values, Receiver) through the streaming operators — splitter, Filter,
// Project, Limit and the probe side of every join — which write into
// per-operator scratch buffers reused for the next batch. Only the
// pipeline breakers keep rows: a join's build (or collected) side, Sort,
// the aggregates' group state, the Sender, a merging Receiver and the
// fragment's result. A row that dies in a downstream filter or probe is
// never built. The scratch and the kept rows alike are borrowed (lend.go):
// what an instance ships from the execution's Lender, which the scheduler
// takes back when the execution ends, the rest from the attempt's own,
// which Run takes back when the attempt ends; so a warm execution
// allocates little beyond its fixed per-instance state. Only the rows
// that can reach the query result (Context.Output, Context.ToResult) and
// the aggregates' group state are built on the heap. The modeled cost
// clock is independent of all this: every operator charges the same work
// and memory estimates it would under full materialization, per batch.
//
// The three join algorithms (operators.go) differ only in how they find a
// left row's candidate right rows — every right row, a hash chain, a
// sorted run; matching the candidates and emitting per join type is one
// shared joinOp. There is one hash join, parameterised by build side
// (Context.BuildLeft), with order-identical output either way.
package exec

import (
	"context"
	"errors"
	"fmt"

	"gignite/internal/cost"
	"gignite/internal/faults"
	"gignite/internal/fragment"
	"gignite/internal/governor"
	"gignite/internal/obs"
	"gignite/internal/physical"
	"gignite/internal/storage"
	"gignite/internal/types"
)

// Batch is one shipment of rows from a sender instance, over its
// fragment's exchange, to a target site.
type Batch struct {
	Rows   []types.Row
	ToSite int
	Bytes  int64
}

// Context is the execution environment of one fragment instance.
type Context struct {
	Store *storage.Store
	// Exchanges holds the shipments earlier waves published,
	// batches[exchangeID][targetSite], in sender job order — (site,
	// variant). Receivers index it directly; nothing writes it while the
	// instance runs.
	Exchanges [][][]*Batch
	// Sent holds this attempt's shipments, one per target site its
	// Sender reached, and SentBytes totals their bytes. They stay private
	// to the attempt: the scheduler publishes them into Exchanges at the
	// wave barrier only if the attempt survives.
	Sent      []Batch
	SentBytes int64
	FragID    int
	// Site is the instance's logical site: the partition slot it covers
	// and the identity fault plans address its sends by. It never
	// changes across retries, which is what keeps failover results
	// byte-identical.
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
	// Faults is the query's fault injector (nil = no faults): it fails
	// sends (sendfail=) and bounds the host's memory pool (mem=S@B).
	Faults *faults.Injector
	// Variant / NVariants implement §5.3.2 splitters; NVariants is 1 for
	// single-threaded fragments.
	Variant   int
	NVariants int
	// Modes assigns splitter/duplicator roles to sources
	// (fragment.Fragment.Modes); they apply only when NVariants > 1.
	Modes map[physical.Node]fragment.SourceMode
	// CPUWork accumulates modeled work units for the cost clock.
	CPUWork float64
	// WorkLimit aborts execution when CPUWork exceeds it (0 = unlimited).
	// It reproduces the paper's four-hour runtime limit: the IC baseline's
	// nested-loop chains hit it on TPC-H Q17/Q19/Q21.
	WorkLimit float64
	// RowLimit bounds the rows the instance's joins emit (0 = unlimited);
	// it keeps runaway cross products from exhausting host memory in a
	// downstream breaker before the work limit trips.
	RowLimit    int64
	rowsEmitted int64
	// Counters are the splitters' read counters, by operator id, so a
	// splitting instance needs OpIDs. nil allocates them at the first
	// split; a scheduler may hand in zeroed ones from a slab.
	Counters []int64
	// sender is the root Sender's state: an instance has at most one.
	sender senderOp
	// Mem, when non-nil, is the query's governor memory lease:
	// pipeline-breaking operators (hash builds, aggregations, sorts,
	// receiver buffers, join emission) charge estimated state bytes
	// against it as they accumulate state (DESIGN.md §14). Reservation
	// failures abort only this query, with a typed error naming the
	// operator.
	Mem *governor.Lease
	// memLocal is this attempt's charged bytes (the host memory pool
	// check); memCharged is the subset successfully reserved on the lease,
	// which the scheduler releases when the attempt finishes.
	memLocal   int64
	memCharged int64
	// OpIDs maps this fragment's operators to dense per-fragment operator
	// ids (fragment.Fragment.OpIDs), and Obs is the attempt's private
	// per-operator recorder. Obs nil disables instrumentation
	// (microbenchmarks, operator unit tests).
	OpIDs map[physical.Node]int
	Obs   *obs.InstanceObs
	// Bound holds, by operator id, the kernels an execution compiled with
	// its arguments for the operators whose expressions hold a
	// placeholder (physical.Bind); the others, and every operator when
	// Bound is nil, run the plan's own kernels.
	Bound []*physical.Kernels

	// --- adaptive execution (DESIGN.md §17) ---

	// BuildLeft marks, by operator id, the hash joins the adaptive
	// controller swapped to build on their left input (nil: none). It is
	// the executor's only adaptive input: the controller reads what the
	// surviving attempts shipped (Sent) after they finish.
	BuildLeft []bool

	// --- execution memory (DESIGN.md "Execution memory") ---

	// Lender lends what the instance ships, which later waves read: the
	// shipped row headers and the storage behind the shipped rows (nil:
	// made on the heap). The scheduler shares one among the execution's
	// instances and releases it once they have all returned.
	Lender *Lender
	// Output marks, by operator id, the operators whose rows reach the
	// fragment's root as they are (fragment.Fragment.Output); nil marks
	// every operator. ToResult reports that the fragment's output reaches
	// the query result (fragment.Fragment.ToResult). A marked operator
	// builds or copies the rows it keeps in Lender's storage, or, when
	// they reach the result and so outlive the execution, on the heap.
	Output   []bool
	ToResult bool
	// private lends everything else the attempt uses (scratch), and Run
	// releases it when the attempt ends.
	private Lender
}

// ErrWorkLimit reports an execution exceeding its work limit.
var ErrWorkLimit = errors.New("exec: work limit exceeded")

// ReserveMem charges estimated operator-state bytes against the host's
// injected memory pool and the query's lease, recording the operator's
// memory high-water mark. A failed reservation names the operator; the
// caller aborts the instance (a host pool failure, faults.ErrSiteMem,
// fails over to the next replica; lease failures abort the query). The
// charges are estimates in the same sense as the cost clock: an operator
// charges what full materialization of its state would hold, whether or
// not the pipeline keeps it.
func (c *Context) ReserveMem(n physical.Node, bytes int64) error {
	if bytes <= 0 {
		return nil
	}
	c.opstat(n).addMem(bytes)
	c.memLocal += bytes
	if pool := c.Faults.MemLimit(c.Host); pool > 0 && c.memLocal > pool {
		return fmt.Errorf("exec: %s: site %d memory pool (%d bytes) exhausted: %w",
			n.Describe(), c.Host, pool, faults.ErrSiteMem)
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
	return estBytes(rows[:min(len(rows), estSample)], len(rows))
}

// estSample is how many leading rows a footprint estimate samples.
const estSample = 16

// estBytes scales the mean modeled width of sample to total rows.
func estBytes(sample []types.Row, total int) int64 {
	if len(sample) == 0 {
		return 0
	}
	var w int64
	for _, r := range sample {
		w += r.Width()
	}
	return w / int64(len(sample)) * int64(total)
}

// work charges modeled work units to the instance and, when the operator
// is tracked, to its recorder slot (self work, children excluded).
func (c *Context) work(st *OpStatsRef, units float64) {
	c.CPUWork += units
	if st != nil {
		st.Work += units
	}
}

// keepLender returns the lender for the storage of the rows operator n
// builds or copies and hands on stable (Output): the attempt's own when
// they stay inside it, Lender when they are shipped, none when they can
// reach the query result.
func (c *Context) keepLender(n physical.Node) *Lender {
	switch {
	case c.Output == nil, c.Output[c.OpIDs[n]] && c.ToResult:
		return nil
	case c.Output[c.OpIDs[n]]:
		return c.Lender
	}
	return c.scratch()
}

// scratch returns the lender of what the attempt uses only itself: its
// private one, or none when the execution lends nothing.
func (c *Context) scratch() *Lender {
	if c.Lender == nil {
		return nil
	}
	return &c.private
}

// bound returns the execution's kernels for n, or nil when n runs its
// own.
func (c *Context) bound(n physical.Node) *physical.Kernels {
	if c.Bound == nil {
		return nil
	}
	id, ok := c.OpIDs[n]
	if !ok {
		return nil
	}
	return c.Bound[id]
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

// OpStatsRef aliases an operator's recorder slot; its methods accept a
// nil receiver, so untracked operators record nothing.
type OpStatsRef obs.OpStats

func (o *OpStatsRef) addIn(n int) {
	if o != nil {
		o.RowsIn += int64(n)
	}
}

func (o *OpStatsRef) addBatches(n int) {
	if o != nil {
		o.Batches += int64(n)
	}
}

// addOut records one emitted batch.
func (o *OpStatsRef) addOut(n int) {
	if o != nil {
		o.RowsOut += int64(n)
		o.held(n)
	}
}

// held records that the operator held n rows at once (an emitted batch,
// a build table, a sort buffer).
func (o *OpStatsRef) held(n int) {
	if o != nil && int64(n) > o.PeakRows {
		o.PeakRows = int64(n)
	}
}

func (o *OpStatsRef) addBuild(n int) {
	if o != nil {
		o.BuildRows += int64(n)
		o.held(n)
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

// cancelled returns the query's cancellation error, if any. Sources and
// breakers call it once per emitted batch, so deadlines and Ctrl-C stop
// in-flight instances promptly.
func (c *Context) cancelled() error {
	if c.Ctx == nil {
		return nil
	}
	return c.Ctx.Err()
}

// Run executes a fragment instance rooted at n and returns its output
// rows, which the caller may keep. Sender roots leave their batches in
// ctx.Sent and return nil. What the attempt borrowed for itself goes back
// when Run returns.
func Run(n physical.Node, ctx *Context) ([]types.Row, error) {
	defer ctx.private.Release()
	var rows []types.Row
	var err error
	if s, ok := n.(*physical.Sender); ok {
		err = ctx.runSender(s)
	} else {
		// Only a root that returns rows has a buffer to keep them in, on
		// the heap: they are the result.
		var res rowBuffer
		err = ctx.run(n, &res)
		rows = res.rows
	}
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

// runSender drives a fragment whose root is a Sender. The Sender is a
// breaker: each destination gets exactly one batch per instance (the
// fault plan and the receivers' batch counts depend on it), so it keeps
// its whole input and routes it once the input is exhausted.
func (c *Context) runSender(s *physical.Sender) error {
	snd := &c.sender
	c.open(&snd.op, s, nil)
	// A single or broadcast target ships the buffer's own headers.
	snd.buf = rowBuffer{headers: c.Lender, values: c.keepLender(s)}
	defer snd.close()
	if err := c.run(s.Inputs()[0], snd); err != nil {
		return err
	}
	rows := snd.buf.rows
	snd.st.addIn(len(rows))
	snd.st.addOut(len(rows))
	return sendRows(s, rows, c)
}

// senderOp buffers a Sender's input.
type senderOp struct {
	op
	buf rowBuffer
}

func (s *senderOp) push(rows []types.Row, stable bool) error { return s.buf.push(rows, stable) }
func (s *senderOp) expect(n int)                             { s.buf.expect(n) }
func (s *senderOp) keepsRows()                               {}

// sendRows routes a sender's output per its target distribution into the
// attempt's Sent list, one batch per target site.
func sendRows(s *physical.Sender, rows []types.Row, ctx *Context) error {
	sites := ctx.Store.Sites()
	st := ctx.opstat(s)
	ctx.work(st, float64(len(rows))*cost.RPTC)
	targets := sites
	if s.Target.Type == physical.Single {
		targets = 1
	}
	ctx.Sent = make([]Batch, 0, targets)
	switch s.Target.Type {
	case physical.Single:
		return ctx.ship(s, 0, rows)
	case physical.Broadcast:
		for site := 0; site < sites; site++ {
			if err := ctx.ship(s, site, rows); err != nil {
				return err
			}
		}
	case physical.Hash:
		// Two-pass routing: compute every row's destination once, then
		// carve exact-size per-site slices out of one backing array. This
		// keeps the hot send path free of append-growth reallocations.
		// The routes and per-site counts share one scratch, on the stack
		// when it is small.
		var small [1 << minClass]int
		routing := small[:0]
		if n := len(rows) + sites; n <= len(small) {
			routing = small[:n]
		} else {
			routing = lend(ctx.scratch(), &intPool, n)
		}
		routes, counts := routing[:len(rows)], routing[len(rows):]
		clear(counts)
		// A keyless target routes on the whole row.
		keys := s.Target.Keys
		if len(keys) == 0 && len(rows) > 0 {
			keys = allCols(len(rows[0]))
		}
		placed := len(s.Target.Keys) == 1
		for i, r := range rows {
			site := routeRow(r, keys, placed, sites)
			routes[i] = site
			counts[site]++
		}
		// Later waves read the shipped row headers after the attempt has
		// released its own buffers.
		backing := lend(ctx.Lender, &rowPool, len(rows))
		buckets := make([][]types.Row, sites)
		off := 0
		for site, n := range counts {
			buckets[site] = backing[off : off : off+n]
			off += n
		}
		for i, r := range rows {
			site := routes[i]
			buckets[site] = append(buckets[site], r)
		}
		for site, b := range buckets {
			if err := ctx.ship(s, site, b); err != nil {
				return err
			}
		}
	}
	return nil
}

// ship records one batch for a target site as this attempt's shipment,
// unless the fault plan fails the send. The fault plan draws on the
// instance's logical coordinates (Site, not Host) and its attempt number,
// so a failed-over sender ships as the owner would have, and a retry
// draws a fresh outcome.
func (c *Context) ship(s *physical.Sender, toSite int, rows []types.Row) error {
	if c.Faults.SendFails(s.ExchangeID, c.FragID, c.Site, c.Variant, toSite, c.Attempt) {
		return fmt.Errorf("exchange %d send %d→%d: %w", s.ExchangeID, c.Site, toSite, faults.ErrSendFail)
	}
	var bytes int64
	for _, r := range rows {
		bytes += r.Width()
	}
	c.Sent = append(c.Sent, Batch{Rows: rows, ToSite: toSite, Bytes: bytes})
	c.SentBytes += bytes
	return nil
}

// routeRow picks the target partition for a row under a hash target.
// placed marks a single-key route, which uses the storage placement
// function so that exchanged rows land where the co-located partitions
// live; multi-key targets (and keyless ones, whose keys are every column)
// use a combined row hash.
func routeRow(r types.Row, keys []int, placed bool, sites int) int {
	if sites <= 1 {
		return 0
	}
	if placed {
		return storage.PartitionOf(r[keys[0]], sites)
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
