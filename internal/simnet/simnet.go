// Package simnet is the cost clock: it converts the work counters and
// shipment records of a real query execution into a modeled response time
// for a cluster the paper's testbed shape (N sites × C cores, 10 GbE).
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
// itself executes but never the modeled times computed here — a Trace is
// merged at wave barriers in deterministic order, so Makespan sees the
// same record at any worker count.
package simnet

import (
	"time"
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

// Instance is one executed fragment instance.
type Instance struct {
	Site    int
	Variant int
	Work    float64
}

// Send is one recorded shipment.
type Send struct {
	Exchange    int
	FromFrag    int
	FromSite    int
	FromVariant int
	ToSite      int
	Bytes       float64
}

// Retry is one recovery event: a failed attempt of an instance whose
// work (and already-shipped bytes) were lost and had to be redone at
// another replica host. Work and Bytes are zero for a pure failover
// (the host was already known dead, so nothing was attempted there).
type Retry struct {
	Frag    int
	Site    int
	Variant int
	// Host is the physical site the failed attempt ran at.
	Host  int
	Work  float64
	Bytes float64
}

// Trace is the execution record the clock consumes.
type Trace struct {
	// Order lists fragment IDs in dependency order (producers first).
	Order []int
	// Instances grouped by fragment ID.
	Instances map[int][]Instance
	// Sends is every shipment.
	Sends []Send
	// Retries records recovery events; each charges its lost work and
	// resent bytes to the recovering instance's elapsed time.
	Retries []Retry
	// Consumers maps exchange ID → consuming fragment IDs. An exchange
	// normally has one consumer, but an optimizer-shared subtree can give
	// it several; each consumer's start then waits on the arrival.
	Consumers map[int][]int
	// RootFrag is the fragment whose finish time is the query time.
	RootFrag int
}

type instKey struct{ frag, site, variant int }

// Makespan computes the modeled query response time.
func Makespan(tr *Trace, p Params) time.Duration {
	if p.WorkPerSec <= 0 {
		p = DefaultParams()
	}
	finish := make(map[instKey]float64)

	// A recovery event delays the instance that eventually succeeded: the
	// failed attempt's work was spent, its shipped bytes must be resent,
	// and the failover itself costs one instance start.
	recovery := make(map[instKey]float64)
	for _, r := range tr.Retries {
		pen := p.ThreadOverheadSec + r.Work/p.WorkPerSec
		if r.Bytes > 0 {
			pen += p.LatencySec + r.Bytes/p.BytesPerSec
		}
		recovery[instKey{r.Frag, r.Site, r.Variant}] += pen
	}

	// Index sends by (consumer fragment, site).
	type edgeKey struct{ frag, site int }
	arrivals := make(map[edgeKey][]Send)
	for _, s := range tr.Sends {
		for _, cons := range tr.Consumers[s.Exchange] {
			k := edgeKey{cons, s.ToSite}
			arrivals[k] = append(arrivals[k], s)
		}
	}

	var rootFinish float64
	for _, fid := range tr.Order {
		insts := tr.Instances[fid]
		// Per-site thread count of this fragment (variants).
		threads := make(map[int]int)
		for _, in := range insts {
			threads[in.Site]++
		}
		for _, in := range insts {
			ready := 0.0
			for _, s := range arrivals[edgeKey{fid, in.Site}] {
				sf := finish[instKey{s.FromFrag, s.FromSite, s.FromVariant}]
				arr := sf + p.LatencySec + s.Bytes/p.BytesPerSec
				if arr > ready {
					ready = arr
				}
			}
			contention := 1.0
			if t := threads[in.Site]; t > p.CoresPerSite {
				contention = float64(t) / float64(p.CoresPerSite)
			}
			elapsed := p.ThreadOverheadSec + in.Work/p.WorkPerSec*contention
			elapsed += recovery[instKey{fid, in.Site, in.Variant}]
			f := ready + elapsed
			finish[instKey{fid, in.Site, in.Variant}] = f
			if fid == tr.RootFrag && f > rootFinish {
				rootFinish = f
			}
		}
	}
	return time.Duration(rootFinish * float64(time.Second))
}

// TotalWork sums all instance work (a parallelism-independent effort
// metric used by ablation reports), including work lost to failed
// attempts that were retried. Instances are summed in Order, never in map
// order: float addition is not associative, and the total must be the
// same bits on every run.
func (tr *Trace) TotalWork() float64 {
	var w float64
	for _, f := range tr.Order {
		for _, in := range tr.Instances[f] {
			w += in.Work
		}
	}
	for _, r := range tr.Retries {
		w += r.Work
	}
	return w
}

// TotalBytes sums shipped bytes, including bytes that were discarded on
// a failed attempt and shipped again by the retry.
func (tr *Trace) TotalBytes() float64 {
	var b float64
	for _, s := range tr.Sends {
		b += s.Bytes
	}
	for _, r := range tr.Retries {
		b += r.Bytes
	}
	return b
}
