package cluster

import (
	"sort"
	"time"

	"gignite/internal/obs"
	"gignite/internal/simnet"
)

// hedge launches speculative attempts for the wave's stragglers
// (DESIGN.md §14). Detection runs at the wave barrier on the modeled
// clock, not wall time: an instance whose charged work exceeded
// HedgeAfter× the wave's median (a slow site multiplies charged work —
// see Injector.Slowdown) is re-executed at the next live replica of its
// partition. The modeled-faster attempt's shipments are published, the
// loser's never are, and a tie goes to the primary (the lowest attempt
// ordinal), so results stay byte-identical at every worker count whether
// or not hedging fires.
func (r *run) hedge(jobs []instanceJob, results []instanceResult) {
	if r.opts.HedgeAfter <= 0 {
		return
	}
	var works []float64
	for i := range results {
		if results[i].err == nil {
			works = append(works, results[i].work)
		}
	}
	if len(works) < 2 {
		return
	}
	sort.Float64s(works)
	median := works[len(works)/2]
	if median <= 0 {
		return
	}
	threshold := r.opts.HedgeAfter * median
	type hedgeCand struct{ idx, host int }
	var cand []hedgeCand
	for i := range jobs {
		j, ir := &jobs[i], &results[i]
		if ir.err != nil || !j.partitioned || ir.work <= threshold {
			continue
		}
		if h := r.hedgeHost(j, ir.host); h >= 0 {
			cand = append(cand, hedgeCand{idx: i, host: h})
		}
	}
	runPool(len(cand), r.workers, func(k int) {
		i := cand[k].idx
		r.runHedge(&jobs[i], &results[i], cand[k].host, threshold)
	})
}

// hedgeHost picks the replica a straggler's speculative attempt runs at:
// the next live site after the primary's host on the partition's replica
// chain (-1 when none exists).
func (r *run) hedgeHost(j *instanceJob, primary int) int {
	chain := r.c.Store.ReplicaSites(j.site)
	at := -1
	for k, h := range chain {
		if h == primary {
			at = k
			break
		}
	}
	for k := at + 1; k < len(chain); k++ {
		if r.siteStateAt(chain[k], j.ordinal) == siteAlive {
			return chain[k]
		}
	}
	return -1
}

// runHedge executes one speculative attempt and settles the race on the
// modeled clock: the hedge launched after `threshold` work-units of the
// primary's timeline, so it wins only when threshold + its own work beats
// the primary's work outright. Exactly one attempt's outcome, shipments
// included, stays on ir for the barrier to publish, and exactly one span
// is appended (keeping the invariant spans == instances + retries +
// hedges).
func (r *run) runHedge(j *instanceJob, ir *instanceResult, host int, threshold float64) {
	if r.ctx.Err() != nil {
		return
	}
	// The primary's successful attempt is always its last span.
	primary := &ir.spans[len(ir.spans)-1]
	n := primary.Attempt + 1
	start := time.Now()
	out, err := r.attempt(j, host, n)

	hedge := &simnet.Hedge{Frag: j.frag.ID, Site: j.site, Variant: j.variant, DelayWork: threshold}
	status := obs.SpanOK
	switch {
	case err != nil:
		// A failed hedge never fails the query — the primary already
		// succeeded; only the speculation's work is charged.
		status = obs.SpanFailed
		hedge.LostWork = out.work
	case threshold+out.work < ir.work:
		// The hedge finishes first on the modeled clock: keep its outputs
		// instead of the primary's, and flip the primary's span. The
		// primary is abandoned the moment the hedge completes, so its lost
		// work is capped at the race's finish time.
		primary.Status = obs.SpanHedged
		hedge.Won = true
		hedge.LostWork = min(threshold+out.work, ir.work)
		hedge.LostBytes = sentBytes(ir.sent)
		ir.outcome = out
	default:
		// The primary wins (ties included: the lowest attempt ordinal is
		// canonical). The hedge ran from threshold until the primary's
		// finish, bounded by its own completion.
		status = obs.SpanHedged
		hedge.LostWork = min(ir.work-threshold, out.work)
		hedge.LostBytes = sentBytes(out.sent)
	}
	s := r.span(j, host, n, start, status, err)
	s.Hedge = true
	ir.spans = append(ir.spans, s)
	ir.hedge = hedge
}
