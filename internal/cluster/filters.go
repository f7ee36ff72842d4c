package cluster

import (
	"gignite/internal/cost"
	"gignite/internal/exec"
	"gignite/internal/fragment"
	"gignite/internal/joinfilter"
	"gignite/internal/obs"
	"gignite/internal/physical"
	"gignite/internal/simnet"
	"gignite/internal/types"
)

// The runtime-filter steps of the scheduler (DESIGN.md §13). Each planned
// filter's build subtree runs at the join fragment's sites before wave 0
// — through the same retry/failover machinery as wave instances — so the
// filter can reach the probe-side producers that execute in earlier
// waves. The pre-pass barrier absorbs the build rows into per-site
// filters, freeze merges them, and the waves then inject the frozen
// filters into their instances and count what they pruned.

// filterState carries the pre-pass products the wave jobs consume: one
// builtFilter per planned (and not variant-skipped) RuntimeFilter, in
// plan order.
type filterState []*builtFilter

// builtFilter is one runtime filter's state. After the pre-pass barrier
// it is frozen: perSite holds each join site's build-partition filter
// (what the probe-side Sender tests per destination); union is their
// merge (what deeper node-level pushdown tests, since those rows may
// still route anywhere); rows caches the pre-pass build rows for reuse by
// the join instance when the join fragment is variant-free (nil
// otherwise).
type builtFilter struct {
	spec    *fragment.RuntimeFilter
	perSite map[int]*joinfilter.Filter
	// keys accumulates every site's build keys until freeze turns them
	// into union.
	keys      *joinfilter.Builder
	union     *joinfilter.Filter
	rows      map[int][]types.Row
	buildRows int64
	bytes     int64
	siteWork  []siteWork
	// tested/pruned accumulate probe counts from wave instances, merged
	// at wave barriers in deterministic job order.
	tested, pruned int64
}

type siteWork struct {
	site int
	work float64
}

// filterJobs plans the pre-pass: one job per (planned filter × join
// site), appending each filter that survives to r.fs. Pre-pass ordinals
// come first, which makes a fault plan's crash point cover them exactly
// like wave instances.
func (r *run) filterJobs(plan *fragment.Plan) []instanceJob {
	var jobs []instanceJob
	for _, rf := range plan.Filters {
		jf := plan.Fragments[rf.JoinFrag]
		variants := r.opts.Variants > 1 && jf.Modes != nil
		if variants && jf.Modes[rf.Receiver] == fragment.SplitMode {
			// Variant instances split the probe receiver's rows by a
			// per-variant counter; pruning ahead of the receiver would
			// reshuffle that split and change results. Skip the filter.
			continue
		}
		sites, partitioned := r.c.fragmentSites(jf)
		bf := &builtFilter{
			spec:    rf,
			perSite: make(map[int]*joinfilter.Filter, len(sites)),
			keys:    joinfilter.NewBuilder(),
		}
		if !variants {
			// Cache build rows for the join instance only when the join
			// fragment is variant-free: variant instances re-read split
			// sources, so their builds differ from the pre-pass's.
			bf.rows = make(map[int][]types.Row, len(sites))
		}
		r.fs = append(r.fs, bf)
		jobs = r.addJobs(jobs, instanceJob{
			frag: jf, nVariants: 1, wave: -1, partitioned: partitioned,
			fobs: r.qobs.Fragments[jf.ID], filter: bf,
		}, sites)
	}
	return jobs
}

// absorb is the barrier's tail for pre-pass job j: the instance's build
// rows become its site's filter. slowdown is the serving host's fault
// factor.
func (bf *builtFilter) absorb(j *instanceJob, ir *instanceResult, slowdown float64) {
	if ir.obs != nil {
		// Extra-instance merge: operator stats accumulate without bumping
		// the fragment's Instances count (the pre-pass ran the build
		// subtree the join instance will now skip).
		j.fobs.MergeExtra(ir.obs)
	}
	b := joinfilter.NewBuilder()
	for _, row := range ir.rows {
		// The hash join never matches a build row with a NULL equi-key, so
		// the filter must not admit its hash.
		if !row.HasNull(bf.spec.BuildCols) {
			b.Add(row.Hash(bf.spec.BuildCols))
		}
	}
	bf.perSite[j.site] = b.Build()
	bf.keys.Merge(b)
	bf.buildRows += int64(len(ir.rows))
	if bf.rows != nil {
		bf.rows[j.site] = ir.rows
	}
	// The key-insert work rides on the build subtree's work; both charge
	// the trace's filter record, not the join instance (which later reuses
	// the cached build rows, so the build runs off the critical path).
	insert := float64(len(ir.rows)) * cost.BFIC * slowdown
	bf.siteWork = append(bf.siteWork, siteWork{site: j.site, work: ir.work + insert})
}

// freeze closes the pre-pass: every filter's union is built and its work
// and shipments are charged to the trace as FilterBuild records.
func (fs filterState) freeze(trace *simnet.Trace) {
	for _, bf := range fs {
		bf.union = bf.keys.Build()
		bf.keys = nil
		// Each site ships its per-site filter plus its share of the
		// union; the shares sum to exactly one union shipment.
		unionShare := float64(bf.union.SizeBytes()) / float64(len(bf.siteWork))
		for _, sw := range bf.siteWork {
			bytes := float64(bf.perSite[sw.site].SizeBytes()) + unionShare
			bf.bytes += int64(bytes)
			trace.Filters = append(trace.Filters, simnet.FilterBuild{
				Exchange: bf.spec.Exchange, Work: sw.work, Bytes: bytes,
			})
		}
	}
}

// count folds one instance's per-filter probe counters into the state
// (called at wave barriers only, in job order; sums commute, so the
// totals are worker-count independent).
func (fs filterState) count(tested, pruned map[int]int64) {
	if tested == nil && pruned == nil {
		return
	}
	for _, bf := range fs {
		bf.tested += tested[bf.spec.ID]
		bf.pruned += pruned[bf.spec.ID]
	}
}

// inject wires the frozen filters into one wave instance's exec context:
// cached build rows for join-fragment instances, node- and sender-level
// filters for probe-side producer instances. The wiring is a pure
// function of logical identity (fragment ID, site), so retries and
// replica failover see the same filters.
func (fs filterState) inject(j *instanceJob, ectx *exec.Context, nsites int) {
	for _, bf := range fs {
		if bf.spec.JoinFrag == j.frag.ID {
			if rows, ok := bf.rows[j.site]; ok {
				if ectx.Prebuilt == nil {
					ectx.Prebuilt = make(map[physical.Node][]types.Row)
				}
				ectx.Prebuilt[bf.spec.BuildRoot] = rows
			}
		}
		if bf.spec.ProbeFrag != j.frag.ID {
			continue
		}
		if ectx.NodeFilters == nil {
			ectx.NodeFilters = make(map[physical.Node][]*exec.AppliedFilter)
		}
		ectx.NodeFilters[bf.spec.ProbeNode] = append(ectx.NodeFilters[bf.spec.ProbeNode],
			&exec.AppliedFilter{ID: bf.spec.ID, Cols: bf.spec.ProbeNodeCols, Filter: bf.union})
		per := make([]*joinfilter.Filter, nsites)
		for site, f := range bf.perSite {
			if site < nsites {
				per[site] = f
			}
		}
		if ectx.SendFilters == nil {
			ectx.SendFilters = make(map[int]*exec.SendFilter)
		}
		ectx.SendFilters[bf.spec.Exchange] = &exec.SendFilter{
			ID: bf.spec.ID, Cols: bf.spec.ProbeCols, PerSite: per,
		}
	}
}

// report writes the filters' totals into the finished result.
func (fs filterState) report(res *Result) {
	for _, bf := range fs {
		res.FiltersBuilt++
		res.FilterBytes += bf.bytes
		res.RowsPruned += bf.pruned
		res.Obs.Filters = append(res.Obs.Filters, obs.FilterObs{
			ID: bf.spec.ID, JoinFrag: bf.spec.JoinFrag, ProbeFrag: bf.spec.ProbeFrag,
			Exchange: bf.spec.Exchange, Keys: bf.union.Keys(), BuildRows: bf.buildRows,
			Bytes: bf.bytes, RowsTested: bf.tested, RowsPruned: bf.pruned,
		})
	}
}
