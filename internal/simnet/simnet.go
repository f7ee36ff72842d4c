// Package simnet is the cost clock: it converts the ledger of a real
// query execution — its attempts' work and its shipments — into a modeled
// response time for a cluster the paper's testbed shape (N sites × C
// cores, 10 GbE).
//
// This is the substitution for the paper's physical machines (see
// DESIGN.md §2): the host running this reproduction is not the paper's
// testbed, so wall-clock time cannot reproduce its multi-site speedups.
// The clock computes the makespan of the fragment DAG instead: fragment
// instances run in parallel across sites (and across variant threads,
// §5.3), network edges add latency plus byte transfer time, and a site's
// threads contend for its cores. Because the inputs are counters from a
// real execution of the real plan, plan-quality differences translate
// into modeled-time differences through exactly the mechanisms the paper
// describes.
//
// Host-side parallelism is a separate axis: package cluster's wave
// scheduler runs fragment instances on real goroutines
// (Config.ExecParallelism), which changes how fast the reproduction
// itself executes but never the modeled times computed here — a Ledger
// is filled at wave barriers in deterministic job order, so Makespan sees
// the same record at any worker count.
package simnet

import (
	"time"

	"gignite/internal/fragment"
	"gignite/internal/obs"
)

// Params is the modeled hardware profile. Defaults approximate one of the
// paper's machines (2× E5-2620v2, 24 logical cores, 10 GbE).
type Params struct {
	// CoresPerSite bounds intra-site thread parallelism.
	CoresPerSite int
	// WorkPerSec converts executor work units into seconds.
	WorkPerSec float64
	// LatencySec is the per-message network latency.
	LatencySec float64
	// BytesPerSec is the per-link network bandwidth.
	BytesPerSec float64
	// ThreadOverheadSec is the fixed cost of starting one fragment
	// instance (thread scheduling + setup); it is what makes useless
	// variant fragments a net loss (§6.2.3).
	ThreadOverheadSec float64
}

// DefaultParams is the testbed profile used by the benchmark harness:
// 24 logical cores per site, 10 GbE (~1.25 GB/s, ~100 µs per message).
func DefaultParams() Params {
	return Params{
		CoresPerSite:      24,
		WorkPerSec:        25e6,
		LatencySec:        100e-6,
		BytesPerSec:       1.25e9,
		ThreadOverheadSec: 100e-6,
	}
}

// Ship is the one batch a surviving sender instance shipped over its
// exchange to one target site.
type Ship struct {
	// Ordinal is the sender instance's (obs.Span.Ordinal).
	Ordinal  int
	Exchange int
	ToSite   int
	Rows     int64
	Bytes    int64
}

// Ledger is one execution's record, the clock's only input. Spans holds
// one row per instance attempt (and per adaptive replan pass) in job
// order, each carrying its work and shipped bytes; Ships holds the
// surviving instances' batches, one per target site, in the same order.
type Ledger struct {
	Spans []obs.Span
	Ships []Ship
}

// Makespan computes the modeled query response time of one execution of
// plan. An instance starts when the last batch of every exchange its
// fragment reads has arrived at its site, and runs its work slowed by
// its site's contention (more of its fragment's threads there than
// cores), plus one instance start and, for each failed attempt before
// it, the attempt's start, lost work and resent bytes.
func Makespan(plan *fragment.Plan, l *Ledger, p Params) time.Duration {
	if p.WorkPerSec <= 0 {
		p = DefaultParams()
	}
	sites := 0
	for _, sh := range l.Ships {
		sites = max(sites, sh.ToSite+1)
	}
	// arrive[ex*sites+site] is when exchange ex's last batch reaches site.
	// Exchange ids are dense (fragment.Split), one per non-root fragment.
	arrive := make([]float64, (len(plan.Fragments)-1)*sites)
	var rootFinish, recovery float64
	threads, next, frag, site := 0, 0, -1, -1
	for i, s := range l.Spans {
		switch s.Status {
		case obs.SpanRetried, obs.SpanSkipped:
			// A failed attempt precedes its instance's surviving one.
			pen := p.ThreadOverheadSec + s.Work/p.WorkPerSec
			if s.Bytes > 0 {
				pen += p.LatencySec + float64(s.Bytes)/p.BytesPerSec
			}
			recovery += pen
			continue
		case obs.SpanOK:
		default:
			continue
		}
		// A fragment's instances at one site run as threads together; job
		// order keeps them adjacent.
		if s.Frag != frag || s.Site != site {
			frag, site, threads = s.Frag, s.Site, 0
			for _, t := range l.Spans[i:] {
				if t.Frag != s.Frag || t.Site != s.Site {
					break
				}
				if t.Status == obs.SpanOK {
					threads++
				}
			}
		}
		f := plan.Fragments[s.Frag]
		ready := 0.0
		if s.Site < sites {
			for _, ex := range f.Receivers {
				ready = max(ready, arrive[ex*sites+s.Site])
			}
		}
		contention := 1.0
		if threads > p.CoresPerSite {
			contention = float64(threads) / float64(p.CoresPerSite)
		}
		elapsed := p.ThreadOverheadSec + s.Work/p.WorkPerSec*contention
		elapsed += recovery
		recovery = 0
		finish := ready + elapsed
		if f.IsRoot {
			rootFinish = max(rootFinish, finish)
		}
		for ; next < len(l.Ships) && l.Ships[next].Ordinal == s.Ordinal; next++ {
			sh := &l.Ships[next]
			k := sh.Exchange*sites + sh.ToSite
			arrive[k] = max(arrive[k], finish+p.LatencySec+float64(sh.Bytes)/p.BytesPerSec)
		}
	}
	return time.Duration(rootFinish * float64(time.Second))
}

// Totals sums the work and the shipped bytes of every attempt, failed
// ones included (parallelism-independent effort metrics used by
// ablation reports). Float addition is not associative, so the order is
// fixed: the surviving attempts in job order, then the retried and
// skipped ones in job order.
func (l *Ledger) Totals() (work, bytes float64) {
	var b int64
	for _, s := range l.Spans {
		if s.Status == obs.SpanOK {
			work += s.Work
			b += s.Bytes
		}
	}
	for _, s := range l.Spans {
		if s.Status == obs.SpanRetried || s.Status == obs.SpanSkipped {
			work += s.Work
			b += s.Bytes
		}
	}
	return work, float64(b)
}
