// Package cluster drives fragmented query execution over the simulated
// multi-site deployment: it assigns fragments to sites by their
// distribution traits, runs every (fragment × site × variant) instance,
// publishes their exchanged rows, and prices the execution's ledger on
// the simnet cost clock.
//
// Fragments execute wave by wave, in the Plan.Waves fragment.Split
// recorded: every producer finishes before its consumers start, and all
// instances within one wave run concurrently on a bounded pool of host
// goroutines (Workers; 1 falls back to the deterministic sequential
// path). Host parallelism changes only wall-clock time — the modeled
// response time still comes from the simnet cost clock, which accounts
// for the paper's per-fragment threads analytically (see DESIGN.md §2
// and package simnet).
//
// Instances exchange rows only through the wave barrier: an attempt keeps
// its shipments private (exec.Context.Sent), and the barrier publishes the
// surviving attempt's into the run's exchanges, in job order, for later
// waves' receivers. Nothing a failed attempt shipped is ever visible, so
// recovery has nothing to undo.
//
// An execution is recorded once, in one ledger (simnet.Ledger): one span
// per attempt, carrying its work and shipped bytes, and one ship per
// published batch — a surviving sender instance's one shipment to a
// target site. The cost clock, the totals, ExecStats' counts and the
// exchange edges' volumes all read it.
//
// Run only reads the plan it is given — its waves, operator ids, edges
// and compiled kernels — so one split plan serves every concurrent
// execution of a cached entry, adaptive or not. What is particular to an
// execution reaches its instances by operator id beside the plan: its
// arguments as kernels bound for the operators holding a placeholder
// (Opts.Args, physical.Bind), and an adaptive controller's build-side
// swaps (exec.Context.BuildLeft).
//
// Cluster.Run is the whole scheduler, as a list of named steps over one
// per-execution run value (DESIGN.md "Scheduler anatomy"): set-up, then
// per wave build jobs → execute → barrier → adaptive replan, then finish.
// There is one of each: one barrier merges worker results, one attempt
// runs an instance (first tries and retries alike). The optional replan
// step (§17) is a no-op when adaptive execution is off; with it on, a
// worker also has the controller sketch its surviving attempt's
// shipments, and the barrier merges the sketches in job order.
//
// The scheduler is fault-tolerant: when an instance fails with an
// injected fault (site crash, transport send failure — see package
// faults), it is retried with capped exponential backoff, failing over
// hash-partitioned fragments onto the next replica site of their
// partition. A retried instance keeps its logical identity (Site,
// Variant), so its resent shipments order identically at receivers and
// failover results stay byte-identical to the fault-free run; the failed
// attempt's span keeps its work and the bytes it had shipped, which the
// cost clock charges as retry cost. When a wave fails terminally, all
// distinct instance failures are reported together (errors.Join) in
// deterministic job order, identical at every worker count.
package cluster

import (
	"context"
	"errors"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"gignite/internal/adaptive"
	"gignite/internal/exec"
	"gignite/internal/faults"
	"gignite/internal/fragment"
	"gignite/internal/governor"
	"gignite/internal/obs"
	"gignite/internal/physical"
	"gignite/internal/simnet"
	"gignite/internal/storage"
	"gignite/internal/types"
)

// Cluster is a simulated deployment: N sites over one partitioned store.
type Cluster struct {
	Store *storage.Store
	// Sim is the modeled hardware profile for the cost clock.
	Sim simnet.Params
	// Workers bounds how many fragment instances execute concurrently on
	// the host. 0 means runtime.GOMAXPROCS(0); 1 keeps the sequential
	// path (used by determinism tests and the commands' -par 1). Results
	// and modeled times are identical at every setting.
	Workers int
	// RowLimit bounds the rows one instance's join emission may
	// materialize (0 = unlimited). It keeps runaway cross products from
	// exhausting host memory before the work limit trips.
	RowLimit int64
	// Faults is the query-fault injector (nil = inject nothing).
	Faults *faults.Injector
}

// New creates a cluster over a store.
func New(store *storage.Store, sim simnet.Params) *Cluster {
	return &Cluster{Store: store, Sim: sim}
}

// Result is one query execution's outcome: its rows and telemetry.
type Result struct {
	obs.ExecStats
	Rows   []types.Row
	Fields types.Fields
	// Obs is the query's observation record: per-operator runtime
	// statistics per fragment, and one trace span per fragment-instance
	// attempt, in deterministic job order.
	Obs *obs.QueryObs
	// Compiled counts the expressions compiled for this execution: none
	// for a plan that came compiled (physical.Compile), only those holding
	// a placeholder, bound to Opts.Args (physical.Bind).
	Compiled int
}

// ErrWorkLimit re-exports the executor's work-limit error for callers.
var ErrWorkLimit = exec.ErrWorkLimit

// Opts configures one execution beyond the plan itself.
type Opts struct {
	// Variants > 1 enables §5.3 variant fragments.
	Variants int
	// WorkLimit bounds one instance's CPU work (0 = unlimited).
	WorkLimit float64
	// Mem is the query's governor lease: instances charge their estimated
	// operator state against it as they run, and a charge past the
	// query's budget aborts the query with governor.ErrMemoryExceeded.
	// nil runs ungoverned.
	Mem *governor.Lease
	// Adaptive, when non-nil, enables mid-query re-optimization
	// (DESIGN.md §17): each sender instance's worker has the controller
	// sketch what the surviving attempt shipped, and at every wave barrier
	// the controller reads the published exchanges and may decide rewrites
	// of the not-yet-deployed fragments, which their instances read from
	// it. The controller must have been built from this exact plan, for
	// this execution alone; the plan itself is only read.
	Adaptive *adaptive.Controller
	// Args are the execution's `?` values, in ordinal order: the plan's
	// operators holding a placeholder (fragment.Fragment.Params) run
	// kernels bound to them (physical.Bind), and the plan is only read.
	Args []types.Value
}

// run is one execution's state: everything the steps of Cluster.Run
// share. Workers never touch it beyond reading and claiming jobs off next
// — each writes only its own instanceResult slot, and the barrier folds
// the slots in.
type run struct {
	c       *Cluster
	ctx     context.Context
	opts    Opts
	plan    *fragment.Plan
	workers int
	began   time.Time

	// exchanges holds the published shipments, [exchangeID][targetSite]:
	// the barrier writes it, later waves' instances only read it.
	exchanges [][][]*exec.Batch
	// ledger is the execution's record: the barriers append to it, in job
	// order, and finish prices it. Its spans become qobs.Spans.
	ledger simnet.Ledger
	qobs   *obs.QueryObs
	// res accumulates the root rows and the compile and replan counters;
	// finish adds what it reads off the ledger.
	res *Result

	// ordinal is the next instance's deterministic global sequence number.
	// Jobs are created in strictly increasing ordinal order, wave by
	// wave, and fault plans and failure reports address instances by it,
	// never by arrival order, so outcomes are identical at every worker
	// count.
	ordinal int
	// dying[site] is the ordinal of the one instance that is in flight at
	// that site when the fault plan crashes it: the smallest ordinal at the
	// site at or past the crash point. That instance runs and loses its
	// work; every later ordinal finds the site dead.
	dying map[int]int

	// bound holds each fragment's kernels bound to Opts.Args, by fragment
	// id, then operator id (nil: the plan holds no placeholder).
	bound [][]*physical.Kernels

	// next is the index of the next job a batch's workers claim, and pool
	// waits for the goroutines runPool started (see runPool).
	next atomic.Int64
	pool sync.WaitGroup

	// lender lends every instance's buffers; Run takes them back when
	// the execution ends (DESIGN.md "Execution memory").
	lender exec.Lender
}

// Run executes a fragmented plan under the given options.
func (c *Cluster) Run(ctx context.Context, plan *fragment.Plan, opts Opts) (*Result, error) {
	r := c.newRun(ctx, plan, opts)
	// Every worker has returned by the time schedule does, whatever it
	// returns, and no row of the result is in lent storage.
	defer r.lender.Release()
	if err := r.schedule(); err != nil {
		return nil, err
	}
	return r.finish(), nil
}

// schedule runs every wave, each up to and through its barrier.
func (r *run) schedule() error {
	for w := range r.plan.Waves {
		// Jobs are built only now, after the previous barrier, so the
		// adaptive controller's decisions take effect on them.
		jobs := r.waveJobs(w)
		results := r.execute(jobs)
		if err := r.barrier(jobs, results); err != nil {
			return err
		}
		r.replan(w)
	}
	return nil
}

// newRun sets one execution up: the exchanges, the ledger, the
// observation record and the kernels bound to the arguments. The wave
// schedule, the exchange edges and the operator ids are the plan's own
// (fragment.Split), shared read-only by every execution of it.
func (c *Cluster) newRun(ctx context.Context, plan *fragment.Plan, opts Opts) *run {
	if ctx == nil {
		ctx = context.Background()
	}
	r := &run{
		c: c, ctx: ctx, opts: opts, plan: plan,
		workers: c.Workers,
		began:   time.Now(),
		res:     &Result{ExecStats: obs.ExecStats{Fragments: len(plan.Fragments)}},
	}
	// Split numbers the exchanges densely, one per non-root fragment.
	sites := c.Store.Sites()
	r.exchanges = make([][][]*exec.Batch, len(plan.Fragments)-1)
	streams := make([][]*exec.Batch, len(r.exchanges)*sites)
	for ex := range r.exchanges {
		r.exchanges[ex] = streams[ex*sites : (ex+1)*sites : (ex+1)*sites]
	}
	// The executor runs compiled expressions only. Kernels are shared by
	// every instance, so they are compiled here, before any instance runs:
	// none for a plan that came compiled, which is then only read.
	for _, f := range plan.Fragments {
		r.res.Compiled += physical.Compile(f.Root)
		if len(f.Params) == 0 {
			continue
		}
		if r.bound == nil {
			r.bound = make([][]*physical.Kernels, len(plan.Fragments))
		}
		r.bound[f.ID] = make([]*physical.Kernels, len(f.Ops))
		for _, id := range f.Params {
			k, n := physical.Bind(f.Ops[id], opts.Args)
			r.bound[f.ID][id] = k
			r.res.Compiled += n
		}
	}
	if r.workers <= 0 {
		r.workers = runtime.GOMAXPROCS(0)
	}
	if c.Faults != nil {
		r.dying = make(map[int]int)
	}
	// The observation record: per-fragment operator views.
	r.qobs = &obs.QueryObs{Began: r.began, Fragments: obs.NewFragmentObs(plan)}
	// One span per instance of the plan as it stands and per adaptive
	// replan pass, and one ship per sender instance (all but the root's
	// one) and site, so a run without retries fills its ledger without
	// regrowing it.
	n := 0
	for _, f := range plan.Fragments {
		k, _ := c.fragmentSites(f)
		n += k * r.variants(f)
	}
	passes := 0
	if opts.Adaptive != nil {
		passes = len(plan.Waves) - 1
	}
	r.ledger.Spans = make([]obs.Span, 0, n+passes)
	r.ledger.Ships = make([]simnet.Ship, 0, (n-1)*sites)
	return r
}

// addJobs appends one job per (site × variant) of fragment f, at sites
// 0..sites-1, taking the next ordinals and recording the fault plan's
// dying instance per site. An instance only ever consults the liveness of
// ordinals ≤ its own, so later jobs' dying entries need not exist yet
// when earlier ones run.
func (r *run) addJobs(jobs []instanceJob, proto instanceJob, sites int) []instanceJob {
	for site := range sites {
		for v := 0; v < proto.nVariants; v++ {
			j := proto
			j.site, j.variant, j.ordinal = site, v, r.ordinal
			r.ordinal++
			if n, ok := r.c.Faults.CrashPoint(site); ok && j.ordinal >= n {
				if _, seen := r.dying[site]; !seen {
					r.dying[site] = j.ordinal
				}
			}
			jobs = append(jobs, j)
		}
	}
	return jobs
}

// waveJobs materializes wave w's jobs in fragment order.
func (r *run) waveJobs(w int) []instanceJob {
	var jobs []instanceJob
	for _, f := range r.plan.Waves[w] {
		sites, partitioned := r.c.fragmentSites(f)
		jobs = r.addJobs(jobs, instanceJob{
			frag: f, nVariants: r.variants(f), wave: w, partitioned: partitioned,
			fobs: r.qobs.Fragments[f.ID],
		}, sites)
	}
	return jobs
}

// variants is fragment f's instance count per site: the configured count
// as the adaptive controller currently grades it. A fragment splits into
// variants only when Split gave it source modes.
func (r *run) variants(f *fragment.Fragment) int {
	nv := r.opts.Variants
	if r.opts.Adaptive != nil {
		nv = r.opts.Adaptive.VariantFor(f.ID, nv)
	}
	if nv < 1 || f.Modes == nil {
		return 1
	}
	return nv
}

// execute runs one batch of jobs on at most r.workers goroutines. Every
// instance runs to completion (or terminal failure) — failures never skip
// sibling instances, which keeps the batch's failure set deterministic;
// only context cancellation stops it early.
func (r *run) execute(jobs []instanceJob) []instanceResult {
	results := make([]instanceResult, len(jobs))
	// One backing array each holds every instance's first span and its
	// first attempt's context, recorder, operator records and splitter
	// counters; only an instance that retries regrows its spans and
	// allocates a retry's own.
	spans := make([]obs.Span, len(jobs))
	ctxs := make([]exec.Context, len(jobs))
	recs := make([]obs.InstanceObs, len(jobs))
	nOps, nCounters := 0, 0
	for i := range jobs {
		nOps += len(jobs[i].fobs.Ops)
		if jobs[i].nVariants > 1 {
			nCounters += len(jobs[i].fobs.Ops)
		}
	}
	ops := make([]obs.OpStats, nOps)
	var counters []int64
	if nCounters > 0 {
		counters = make([]int64, nCounters)
	}
	for i := range results {
		j, ctx := &jobs[i], &ctxs[i]
		k := len(j.fobs.Ops)
		recs[i].Ops, ops = ops[:k:k], ops[k:]
		ctx.Obs = &recs[i]
		if j.nVariants > 1 {
			ctx.Counters, counters = counters[:k:k], counters[k:]
		}
		results[i].spans = spans[i : i : i+1]
		results[i].ctx = ctx
	}
	r.runPool(len(jobs), func(i int) { r.runInstance(&jobs[i], &results[i]) })
	return results
}

// barrier merges one batch of worker results into the run, in
// deterministic job order, so the ledger, the observation record and the
// reported errors are identical at every worker count. All of a failed
// batch's distinct failures are reported together. It is the only place
// worker results meet shared state: every attempt's span joins the
// ledger, a surviving attempt's shipments are published for later waves'
// receivers and totalled on the ledger, and its result is merged into
// the fragment's operator statistics, its exchange's sketch and — for
// the root fragment — the query's rows.
func (r *run) barrier(jobs []instanceJob, results []instanceResult) error {
	if err := r.ctx.Err(); err != nil {
		return err
	}
	var (
		errs []error
		seen map[string]bool
	)
	for i := range jobs {
		j, ir := &jobs[i], &results[i]
		r.ledger.Spans = append(r.ledger.Spans, ir.spans...)
		if ir.err != nil {
			if seen == nil {
				seen = make(map[string]bool)
			}
			if key := ir.err.Error(); !seen[key] {
				seen[key] = true
				errs = append(errs, j.wrap(ir.err))
			}
			continue
		}
		r.publish(j, ir.ctx.Sent)
		j.fobs.Merge(ir.ctx.Obs)
		if ir.sketch != nil {
			r.opts.Adaptive.Merge(j.frag.ExchangeID, ir.sketch)
		}
		if j.frag.IsRoot {
			r.res.Rows = ir.rows
			r.res.Fields = j.frag.Root.Schema()
		}
	}
	return errors.Join(errs...)
}

// publish makes surviving instance j's shipments visible to later waves'
// receivers, on its fragment's exchange, and records each on the ledger
// as one ship. A Sender ships once per target site, so each batch is its
// instance's whole shipment to that site. Barriers call it in job order —
// sender site, then variant — which is the order receivers read.
func (r *run) publish(j *instanceJob, sent []exec.Batch) {
	ex := j.frag.ExchangeID
	for i := range sent {
		b := &sent[i]
		r.exchanges[ex][b.ToSite] = append(r.exchanges[ex][b.ToSite], b)
		r.ledger.Ships = append(r.ledger.Ships, simnet.Ship{
			Ordinal: j.ordinal, Exchange: ex, ToSite: b.ToSite, Rows: int64(len(b.Rows)), Bytes: b.Bytes,
		})
	}
}

// replan is the adaptive barrier step (DESIGN.md §17): with later waves
// still pending, hand the published exchanges to the controller, which
// may decide rewrites of the not-yet-built part of the schedule. The pass
// is recorded as a replan span, so every run keeps spans == instances +
// retries + replans.
func (r *run) replan(w int) {
	if r.opts.Adaptive == nil || w+1 >= len(r.plan.Waves) {
		return
	}
	passStart := time.Now()
	applied := r.opts.Adaptive.OnBarrier(w, r.exchanges)
	pass := r.res.AdaptiveReplans
	r.res.AdaptiveReplans++
	r.res.AdaptiveSwitches += len(applied)
	r.qobs.Replans = append(r.qobs.Replans, applied...)
	r.ledger.Spans = append(r.ledger.Spans, obs.Span{
		Frag: -1, Site: -1, Host: -1, Wave: w, Ordinal: pass,
		StartNanos: passStart.Sub(r.began).Nanoseconds(),
		EndNanos:   time.Since(r.began).Nanoseconds(),
		Status:     obs.SpanReplan,
	})
}

// finish prices the ledger on the cost clock and completes the result
// from it: the instance and retry counts, and the exchange edges of the
// fragment DAG with their published volume.
func (r *run) finish() *Result {
	res, l := r.res, &r.ledger
	for _, s := range l.Spans {
		switch s.Status {
		case obs.SpanOK:
			res.Instances++
		case obs.SpanRetried, obs.SpanSkipped:
			res.Retries++
		}
	}
	r.qobs.Edges = make([]obs.Edge, len(r.plan.Edges))
	for i, e := range r.plan.Edges {
		r.qobs.Edges[i] = obs.Edge{Exchange: e.Exchange, FromFrag: e.From, ToFrag: e.To}
		for _, sh := range l.Ships {
			if sh.Exchange == e.Exchange {
				r.qobs.Edges[i].Rows += sh.Rows
				r.qobs.Edges[i].Bytes += sh.Bytes
			}
		}
	}
	res.Modeled = simnet.Makespan(r.plan, l, r.c.Sim)
	res.Work, res.BytesShipped = l.Totals()
	res.Workers = r.workers
	res.Spans = len(l.Spans)
	res.MemPeakBytes = r.opts.Mem.Peak()
	res.Obs = r.qobs
	r.qobs.Spans = l.Spans
	r.qobs.WallNanos = time.Since(r.began).Nanoseconds()
	r.qobs.ModeledNanos = res.Modeled.Nanoseconds()
	return res
}

// fragmentSites determines where a fragment executes, from the
// distribution trait of its content (§3.2.3: "the distribution traits
// from the operators in each fragment determine the processing sites"):
// at sites 0..sites-1. partitioned reports whether the fragment's
// instances cover hash partitions (and may therefore fail over across
// replica sites).
func (c *Cluster) fragmentSites(f *fragment.Fragment) (sites int, partitioned bool) {
	if f.IsRoot {
		return 1, false
	}
	content := f.Root.Inputs()[0] // the sender's child
	switch content.Dist().Type {
	case physical.Hash:
		return c.Store.Sites(), true
	default:
		// Single-distributed content runs at the coordinator; broadcast
		// content is identical everywhere, so one canonical copy executes.
		return 1, false
	}
}
