package cluster

import (
	"context"
	"errors"
	"fmt"
	"time"

	"gignite/internal/adaptive"
	"gignite/internal/exec"
	"gignite/internal/faults"
	"gignite/internal/fragment"
	"gignite/internal/obs"
	"gignite/internal/physical"
	"gignite/internal/types"
)

// Retry backoff bounds (real sleep, wall-clock only): tiny, because the
// "network" is in-process; they exist so the backoff path is real.
const (
	retryBackoffBase = 100 * time.Microsecond
	retryBackoffCap  = 2 * time.Millisecond
	// maxExtraSendRetries bounds same-host retries of flaky sends beyond
	// the replica-chain length.
	maxExtraSendRetries = 3
)

// instanceJob is one schedulable (fragment × site × variant) instance.
type instanceJob struct {
	frag *fragment.Fragment
	// site is the instance's logical site. For hash-content fragments it
	// doubles as the partition the instance covers; failover moves the
	// instance to another replica host without changing it.
	site      int
	variant   int
	nVariants int
	// ordinal is the instance's deterministic global sequence number (see
	// run.ordinal); fault plans address instances by it.
	ordinal int
	// wave is the scheduler wave the instance belongs to (trace spans
	// carry it).
	wave int
	// partitioned marks hash-content fragments, which may fail over
	// across their partition's replica chain.
	partitioned bool
	// fobs is the fragment's observation view; instances record into a
	// private obs.InstanceObs sized from it.
	fobs *obs.FragmentObs
}

// wrap names the job in a terminal failure.
func (j *instanceJob) wrap(err error) error {
	return fmt.Errorf("cluster: fragment %d at site %d: %w", j.frag.ID, j.site, err)
}

// span records attempt n of job j at host, ending now, as a ledger row:
// with the work and bytes of the attempt's context ectx (nil for a skip).
// A slow host's work is charged proportionally more, so the slowdown
// lands in the modeled response time. Offsets are wall-clock (outside the
// determinism contract); the span set, its order and its work and bytes
// are deterministic.
func (r *run) span(j *instanceJob, ectx *exec.Context, host, n int, start time.Time, status obs.SpanStatus, err error) obs.Span {
	s := obs.Span{
		Frag: j.frag.ID, Site: j.site, Host: host, Variant: j.variant,
		Attempt: n, Ordinal: j.ordinal, Wave: j.wave,
		StartNanos: start.Sub(r.began).Nanoseconds(),
		EndNanos:   time.Since(r.began).Nanoseconds(),
		Status:     status,
	}
	if ectx != nil {
		s.Work, s.Bytes = ectx.CPUWork*r.c.Faults.Slowdown(host), ectx.SentBytes
	}
	if err != nil {
		s.Error = err.Error()
	}
	return s
}

// instanceResult is the per-instance outcome a worker hands back to the
// barrier. Workers never touch the run's ledger: each writes only its
// own slot, and the barrier merges slots in deterministic job order.
type instanceResult struct {
	// rows is the surviving attempt's output (nil when the instance
	// failed terminally).
	rows []types.Row
	// ctx is the latest attempt's context: its private shipments and
	// operator record. Before the first attempt it is a slot of the
	// wave's slab, holding a recorder and splitter counters.
	ctx *exec.Context
	// sketch is the adaptive controller's sketch of what the surviving
	// attempt shipped (nil: adaptive off, or the controller wants none).
	sketch *adaptive.Sketch
	// spans records one ledger row per attempt of this instance
	// (including zero-cost dead-host skips).
	spans []obs.Span
	err   error
}

// siteState is a site's condition from the perspective of one instance
// ordinal (deterministic logical time).
type siteState uint8

const (
	siteAlive siteState = iota
	// siteDying: the site dies while this instance is in flight — the
	// attempt executes and its outputs are lost.
	siteDying
	// siteDead: the site died at an earlier ordinal; attempts fail
	// immediately with no work done.
	siteDead
)

// siteStateAt evaluates a site's condition at one instance ordinal under
// the fault plan (see siteState).
func (r *run) siteStateAt(site, ordinal int) siteState {
	n, ok := r.c.Faults.CrashPoint(site)
	if !ok || ordinal < n {
		return siteAlive
	}
	if d, isDying := r.dying[site]; isDying && ordinal == d {
		return siteDying
	}
	return siteDead
}

// runPool fans job(i) for i in [0, n) over at most r.workers
// goroutines, the caller's among them: it starts the others and claims
// jobs itself, so with one worker the jobs run in order on the caller's
// goroutine. The claim counter and the wait group live on the run, which
// is on the heap already, so a batch that starts no goroutine allocates
// nothing for them.
func (r *run) runPool(n int, job func(i int)) {
	workers := max(1, min(r.workers, n))
	r.next.Store(0)
	r.pool.Add(workers - 1)
	for w := 1; w < workers; w++ {
		go func() {
			defer r.pool.Done()
			r.claim(n, job)
		}()
	}
	r.claim(n, job)
	r.pool.Wait()
}

// claim runs job(i) for each index it claims off r.next below n.
func (r *run) claim(n int, job func(i int)) {
	for i := int(r.next.Add(1) - 1); i < n; i = int(r.next.Add(1) - 1) {
		job(i)
	}
}

// attempt executes job j once, as attempt n at host, in a private exec
// context (so work counters accumulate without sharing), which it leaves
// in ir.ctx. It is the one way an instance runs — first tries, retries
// and failovers alike. The context's counters are valid even when the
// attempt fails.
func (r *run) attempt(j *instanceJob, ir *instanceResult, host, n int) ([]types.Row, error) {
	c := r.c
	if n > 0 {
		// A retry records afresh: only the first attempt has a slab slot.
		ir.ctx = &exec.Context{Obs: obs.NewInstanceObs(j.fobs)}
	}
	ectx := ir.ctx
	var bound []*physical.Kernels
	if r.bound != nil {
		bound = r.bound[j.frag.ID]
	}
	*ectx = exec.Context{
		Store:     c.Store,
		Exchanges: r.exchanges,
		FragID:    j.frag.ID,
		Site:      j.site,
		Host:      host,
		Attempt:   n,
		Ctx:       r.ctx,
		Faults:    c.Faults,
		Variant:   j.variant,
		NVariants: j.nVariants,
		Modes:     j.frag.Modes,
		WorkLimit: r.opts.WorkLimit,
		RowLimit:  c.RowLimit,
		Counters:  ectx.Counters,
		OpIDs:     j.frag.OpIDs,
		Obs:       ectx.Obs,
		Bound:     bound,
		Mem:       r.opts.Mem,
		Lender:    &r.lender,
		Output:    j.frag.Output,
		ToResult:  j.frag.ToResult,
	}
	if r.opts.Adaptive != nil {
		ectx.BuildLeft = r.opts.Adaptive.BuildLeft(j.frag.ID)
	}
	rows, err := exec.Run(j.frag.Root, ectx)
	// The attempt's operator state is gone either way; return its
	// reservation to the shared pool (the per-query budget still
	// remembers the cumulative charge).
	r.opts.Mem.Release(ectx.ChargedMem())
	return rows, err
}

// runInstance executes one instance with retry and replica failover. The
// attempt sequence is a pure function of the job's identity and the fault
// plan, so it is identical at every worker count.
func (r *run) runInstance(j *instanceJob, ir *instanceResult) {
	c := r.c
	// The failover chain: hash-content fragments may run at any replica
	// of their partition; everything else is pinned to its site.
	chain := []int{j.site}
	if j.partitioned {
		chain = c.Store.ReplicaSites(j.site)
	}
	maxAttempts := len(chain) + maxExtraSendRetries

	hostIdx := 0
	for n := 0; n < maxAttempts; n++ {
		if err := r.ctx.Err(); err != nil {
			ir.err = err
			return
		}
		// Find the next live replica. Dead hosts are skipped without an
		// attempt (the failure detector already knows they are gone); the
		// skip is still recorded as a zero-cost recovery event.
		host, state := -1, siteAlive
		for hostIdx < len(chain) {
			h := chain[hostIdx]
			if st := r.siteStateAt(h, j.ordinal); st != siteDead {
				host, state = h, st
				break
			}
			ir.spans = append(ir.spans, r.span(j, nil, h, n, time.Now(), obs.SpanSkipped, faults.ErrSiteCrash))
			hostIdx++
		}
		if host < 0 {
			if j.partitioned && c.Store.Backups() == 0 {
				ir.err = fmt.Errorf("partition %d has no backup replicas to fail over to: %w",
					j.site, faults.ErrSiteCrash)
			} else if j.partitioned {
				ir.err = fmt.Errorf("all %d replicas of partition %d are down: %w",
					len(chain), j.site, faults.ErrSiteCrash)
			} else {
				ir.err = fmt.Errorf("site %d is down and fragment %d cannot fail over: %w",
					j.site, j.frag.ID, faults.ErrSiteCrash)
			}
			return
		}

		start := time.Now()
		rows, err := r.attempt(j, ir, host, n)
		if err == nil && state == siteDying {
			err = fmt.Errorf("site %d died mid-instance: %w", host, faults.ErrSiteCrash)
		}
		if err == nil {
			ir.rows = rows
			ir.spans = append(ir.spans, r.span(j, ir.ctx, host, n, start, obs.SpanOK, nil))
			if r.opts.Adaptive != nil {
				ir.sketch = r.opts.Adaptive.Sketch(j.frag, ir.ctx.Sent)
			}
			return
		}

		if !faults.Injected(err) || n == maxAttempts-1 {
			ir.spans = append(ir.spans, r.span(j, ir.ctx, host, n, start, obs.SpanFailed, err))
			ir.err = err
			return
		}
		// Retryable fault: the lost attempt's span charges its CPU work and
		// the bytes that must be resent, and the instance fails over. Its
		// shipments are dropped with it: only a surviving attempt's are
		// published.
		ir.spans = append(ir.spans, r.span(j, ir.ctx, host, n, start, obs.SpanRetried, err))
		if errors.Is(err, faults.ErrSiteCrash) || errors.Is(err, faults.ErrSiteMem) {
			// This replica cannot serve the instance (gone, or its memory
			// pool deterministically too small); move down the chain.
			hostIdx++
		}
		if !backoff(r.ctx, n) {
			ir.err = r.ctx.Err()
			return
		}
	}
}

// backoff sleeps the capped exponential backoff for an attempt; it
// returns false when the context is cancelled while waiting.
func backoff(ctx context.Context, attempt int) bool {
	d := retryBackoffBase << uint(attempt)
	if d > retryBackoffCap || d <= 0 {
		d = retryBackoffCap
	}
	timer := time.NewTimer(d)
	defer timer.Stop()
	select {
	case <-ctx.Done():
		return false
	case <-timer.C:
		return true
	}
}
