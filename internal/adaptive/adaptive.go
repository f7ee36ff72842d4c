// Package adaptive implements mid-query re-optimization from runtime
// sketches (DESIGN.md §17). The executor only ships: workers have the
// controller sketch what surviving attempts shipped (Sketch), and at
// every wave barrier it takes in the merged sketches and the published
// rows, and re-derives cardinalities for the fragments that have not
// been deployed yet. When the corrected numbers cross a rewrite's
// profitability guard, the controller decides it for this execution, by
// fragment and operator id, and records it once, as an obs.Replan. It
// never writes the plan, so every execution of a cached plan, adaptive
// or not, runs the one split read-only.
//
// Only rewrites with a result-stability proof are admissible:
//
//   - build-swap: flip a hash join's build side to the left input
//     (BuildLeft). The executor's build-left operator emits rows in
//     exactly the order of the build-right operator, so output bytes are
//     identical unconditionally.
//   - variant-regrade: collapse a pending fragment's §5.3 variant split
//     back to one thread when the corrected input volume is too small to
//     amortize the duplicate source reads. Re-grading permutes the
//     (sender site, variant) concatenation order downstream, so it is
//     gated behind an order-insensitivity analysis of the consuming plan
//     (orderWashed): from every place that reads the fragment's exchange
//     (fragment.Fragment.Consumers), every path must pass through exact,
//     order-insensitive aggregation and end in a total-order sort.
//
// The controller finds who reads an exchange in the split plan's recorded
// edges (Fragment.Receiver and Consumers); it never walks the fragments
// for them.
//
// Decisions are pure functions of what surviving attempts shipped, whose
// sketches the barrier merges in deterministic job order; no wall-clock
// input exists, so the same query re-plans identically at every
// ExecParallelism and under every fault plan. The guards' thresholds are
// constants of this package (swapMargin, infoMargin, variantMinRows,
// maxCorrection).
package adaptive

import (
	"fmt"
	"slices"

	"gignite/internal/exec"
	"gignite/internal/expr"
	"gignite/internal/fragment"
	"gignite/internal/logical"
	"gignite/internal/obs"
	"gignite/internal/physical"
	"gignite/internal/types"
)

// The rewrite guards. They are constants, not options: no caller ever ran
// the controller with other values, and every engine-level expectation
// (replans, switches, modeled times) is calibrated to them.
const (
	// swapMargin is how many times smaller the left input must be than
	// the right before the build side swaps.
	swapMargin float64 = 2
	// infoMargin is the minimum est-vs-corrected divergence (as a
	// symmetric ratio) before the controller reacts at all: rewrites are
	// responses to misestimation, not second-guessing of the planner on
	// its own numbers.
	infoMargin float64 = 1.5
	// variantMinRows is the corrected input volume below which a variant
	// fragment re-grades to a single thread.
	variantMinRows float64 = 1024
	// maxCorrection clamps each act/est propagation ratio.
	maxCorrection float64 = 1000
)

// Controller drives adaptive execution for one query. Only Sketch is
// safe for concurrent use: the cluster scheduler's workers call it, and
// its barriers call the rest and read its decisions between them. Its
// state is indexed by exchange or fragment id, which fragment.Split
// numbers densely.
type Controller struct {
	plan     *fragment.Plan
	variants int        // the configured §5.3 variant count, at least 1
	ex       []exchange // by exchange id

	decided []decision // fragment -> what earlier barriers decided for it
	replans []obs.Replan
	scratch []uint64 // Merge's spare KMV buffer (Sketch.merge)
}

// exchange is what the controller knows of one exchange: the sketch key
// columns (sender coords; nil: never sketched), the published row count
// (-1 until the producer completed) and the merged sketch.
type exchange struct {
	keys []int
	rows int64
	sk   *Sketch
}

// decision is one fragment's rewrites for this execution.
type decision struct {
	variants  int    // a re-grade's variant count (0: none)
	buildLeft []bool // operator id -> hash join swapped (nil: none)
}

// New builds a controller for one execution of a fragmented plan, which
// it only reads: every concurrent execution of a cached plan may share
// it. variants is the configured §5.3 variant count (the re-grade's
// baseline); values below 1 mean 1.
func New(plan *fragment.Plan, variants int) *Controller {
	c := &Controller{
		plan:     plan,
		variants: max(variants, 1),
		ex:       make([]exchange, len(plan.Fragments)-1),
		decided:  make([]decision, len(plan.Fragments)),
	}
	for i := range c.ex {
		c.ex[i].rows = -1
	}
	c.planSketchKeys()
	return c
}

// planSketchKeys chooses, for every exchange a join reads, the columns
// its sketches key on: the join's equi keys mapped down to the sender
// schema, so the sketch's distinct estimate is usable as the
// Swami-Schiefer divisor when join sizes are re-derived. sideNDV reads
// an exchange's estimate only for a join keyed on exactly these columns,
// so an exchange no join reads on mappable keys keeps nil keys and is
// never sketched.
func (c *Controller) planSketchKeys() {
	for _, f := range c.plan.Fragments {
		physical.Walk(f.Root, func(n physical.Node) bool {
			j, ok := n.(*physical.Join)
			if !ok || len(j.Keys) == 0 {
				return true
			}
			for side := 0; side < 2; side++ {
				if rv, mapped, ok := mapKeysDown(j.Inputs()[side], j.KeyCols(side)); ok && c.ex[rv.ExchangeID].keys == nil {
					c.ex[rv.ExchangeID].keys = mapped
				}
			}
			return true
		})
	}
}

// VariantFor resolves the §5.3 variant count for a fragment, applying any
// re-grade decided at an earlier barrier.
func (c *Controller) VariantFor(fragID, configured int) int {
	if n := c.decided[fragID].variants; n > 0 {
		return n
	}
	return configured
}

// BuildLeft returns, by operator id, the hash joins of a fragment that
// earlier barriers swapped to build on their left input, for the exec
// layer (exec.Context.BuildLeft); nil when none was. The slice must not
// be mutated.
func (c *Controller) BuildLeft(fragID int) []bool { return c.decided[fragID].buildLeft }

// Merge folds a surviving sender instance's sketch (Sketch) into its
// exchange's. The barrier calls it in job order.
func (c *Controller) Merge(ex int, sk *Sketch) {
	if cur := c.ex[ex].sk; cur != nil {
		cur.merge(sk, &c.scratch)
	} else {
		c.ex[ex].sk = sk
	}
}

// OnBarrier counts the rows of the exchanges wave `wave` completed, from
// the published batches ([exchange][target site]; one site's for a
// broadcast, which ships every row to each), and re-plans the pending
// waves. It returns the rewrites applied at this barrier.
func (c *Controller) OnBarrier(wave int, exchanges [][][]*exec.Batch) []obs.Replan {
	for _, f := range c.plan.Waves[wave] {
		if f.IsRoot {
			continue
		}
		e, published := &c.ex[f.ExchangeID], exchanges[f.ExchangeID]
		if f.Root.(*physical.Sender).Target.Type == physical.Broadcast {
			published = published[:1]
		}
		e.rows = 0
		for _, batches := range published {
			for _, b := range batches {
				e.rows += int64(len(b.Rows))
			}
		}
	}
	before := len(c.replans)
	for w := wave + 1; w < len(c.plan.Waves); w++ {
		for _, f := range c.plan.Waves[w] {
			c.tryBuildSwap(f, wave)
			c.tryRegrade(f, wave)
		}
	}
	return c.replans[before:]
}

// ---------------------------------------------------------------------------
// Cardinality correction

// est reads a node's planner estimate, floored at one row.
func est(n physical.Node) float64 {
	e := n.Props().EstRows
	if e < 1 {
		return 1
	}
	return e
}

// corrected re-derives a node's cardinality from runtime observations:
// receivers of completed exchanges return their exact counts, joins are
// recomputed with the Swami-Schiefer formula over corrected inputs and
// sketch-based distinct counts (sidestepping whatever error the planner's
// join estimates carried), and every other operator scales its estimate
// by its children's correction ratios, clamped to maxCorrection.
func (c *Controller) corrected(n physical.Node) float64 {
	return c.correctedDepth(n, 0)
}

func (c *Controller) correctedDepth(n physical.Node, depth int) float64 {
	if depth > 64 { // plans are trees; this is a pure safety net
		return est(n)
	}
	switch t := n.(type) {
	case *physical.Receiver:
		if rows := c.ex[t.ExchangeID].rows; rows >= 0 {
			if rows < 1 {
				return 0
			}
			return float64(rows)
		}
		// Pending producer: follow the exchange to its sender subtree.
		if p := c.plan.Producer[t.ExchangeID]; p != nil {
			if s, ok := p.Root.(*physical.Sender); ok {
				return c.correctedDepth(s.Inputs()[0], depth+1)
			}
		}
		return est(n)
	case *physical.Join:
		if len(t.Keys) > 0 {
			l := c.correctedDepth(t.Inputs()[0], depth+1)
			r := c.correctedDepth(t.Inputs()[1], depth+1)
			d := c.sideNDV(t, 0, l)
			if rd := c.sideNDV(t, 1, r); rd > d {
				d = rd
			}
			if d < 1 {
				d = 1
			}
			out := l * r / d
			switch t.Type {
			case logical.JoinLeft:
				if out < l {
					out = l
				}
			case logical.JoinSemi:
				if out > l {
					out = l
				}
			case logical.JoinAnti:
				out = l - out
			}
			if out < 1 {
				out = 1
			}
			return out
		}
	}
	ins := n.Inputs()
	if len(ins) == 0 {
		return est(n)
	}
	scale := 1.0
	for _, in := range ins {
		ratio := c.correctedDepth(in, depth+1) / est(in)
		ratio = min(max(ratio, 1/maxCorrection), maxCorrection)
		scale *= ratio
	}
	return est(n) * scale
}

// sideNDV estimates the distinct count of one join side on its equi keys:
// the exchange sketch when the side bottoms out (through row-local
// operators) in a sketched receiver keyed on exactly those columns, else
// the side's corrected row count (the unique-key assumption — exact for
// co-located sides joining on their affinity key, conservative
// otherwise).
func (c *Controller) sideNDV(j *physical.Join, side int, rows float64) float64 {
	if rv, mapped, ok := mapKeysDown(j.Inputs()[side], j.KeyCols(side)); ok {
		if e := &c.ex[rv.ExchangeID]; e.rows >= 0 && slices.Equal(e.keys, mapped) {
			return e.sk.ndv()
		}
	}
	return rows
}

// mapKeysDown maps column ordinals from a node down a row-local chain
// (filters and pass-through projections) to the receiver at its bottom.
// ok is false when the chain contains any other operator or a computed
// projection over a key column. Without a projection the result is keys.
func mapKeysDown(n physical.Node, keys []int) (*physical.Receiver, []int, bool) {
	for {
		switch t := n.(type) {
		case *physical.Receiver:
			return t, keys, true
		case *physical.Filter:
			n = t.Inputs()[0]
		case *physical.Project:
			var ok bool
			if keys, ok = t.InputCols(keys); !ok {
				return nil, nil, false
			}
			n = t.Inputs()[0]
		default:
			return nil, nil, false
		}
	}
}

// diverged reports whether a corrected value contradicts its estimate by
// at least the info margin (symmetric ratio, +1-smoothed).
func (c *Controller) diverged(estimate, correctedV float64) bool {
	a := (estimate + 1) / (correctedV + 1)
	if a < 1 {
		a = 1 / a
	}
	return a >= infoMargin
}

// ---------------------------------------------------------------------------
// Trigger (a): build-side swap

// tryBuildSwap flips a pending hash join's build side to the left input
// when the corrected sizes invert the planner's estimate: the build side
// pays the hash-table construction premium and holds the operator's
// memory, so it should be the smaller input. Output bytes are identical
// by construction of the build-left operator.
func (c *Controller) tryBuildSwap(f *fragment.Fragment, barrier int) {
	physical.Walk(f.Root, func(n physical.Node) bool {
		j, ok := n.(*physical.Join)
		if !ok || j.Algo != physical.HashAlgo || len(j.Keys) == 0 {
			return true
		}
		id, d := f.OpIDs[j], &c.decided[f.ID]
		if d.buildLeft != nil && d.buildLeft[id] {
			return true
		}
		estL, estR := est(j.Inputs()[0]), est(j.Inputs()[1])
		l := c.corrected(j.Inputs()[0])
		r := c.corrected(j.Inputs()[1])
		// React only to misestimation: at least one side must have moved.
		if !c.diverged(estL, l) && !c.diverged(estR, r) {
			return true
		}
		if l*swapMargin >= r {
			return true
		}
		if d.buildLeft == nil {
			d.buildLeft = make([]bool, len(f.Ops))
		}
		d.buildLeft[id] = true
		c.replans = append(c.replans, obs.Replan{
			Wave: barrier, Frag: f.ID, OpID: id, Kind: "build-swap", Op: "Join",
			From: "build=right", To: "build=left", EstRows: estR, ActRows: int64(r),
		})
		return true
	})
}

// ---------------------------------------------------------------------------
// Trigger (b): variant re-grade

// tryRegrade collapses a pending fragment's variant split to one thread
// when the corrected input volume cannot amortize the duplicate source
// reads the split costs. The rewrite permutes downstream row order, so it
// only fires when every consumer path washes that order out (orderWashed).
func (c *Controller) tryRegrade(f *fragment.Fragment, barrier int) {
	if c.variants <= 1 || f.Modes == nil {
		return
	}
	if c.decided[f.ID].variants > 0 {
		return
	}
	sender, ok := f.Root.(*physical.Sender)
	if !ok {
		return
	}
	vol := c.corrected(sender.Inputs()[0])
	physical.Walk(f.Root, func(n physical.Node) bool {
		if rv, isRecv := n.(*physical.Receiver); isRecv {
			if v := c.corrected(rv); v > vol {
				vol = v
			}
		}
		return true
	})
	if vol >= variantMinRows {
		return
	}
	if !orderWashed(f) {
		return
	}
	c.decided[f.ID].variants = 1
	c.replans = append(c.replans, obs.Replan{
		Wave: barrier, Frag: f.ID, OpID: f.OpIDs[sender], Kind: "variant-regrade", Op: "Fragment",
		From: fmt.Sprintf("variants=%d", c.variants), To: "variants=1",
		EstRows: est(sender), ActRows: int64(vol),
	})
}

// ---------------------------------------------------------------------------
// Order-insensitivity analysis

// orderWashed reports whether permuting the row order a fragment ships is
// provably invisible in the final result bytes: every path from every
// place that reads the fragment's output to the query root must pass
// through aggregation whose calls are exact and order-insensitive (COUNT,
// MIN, MAX, integer SUM), reach a reduction, and then a Sort whose keys
// cover all of the reduction's group columns — group keys are unique per
// group, so that sort imposes a total order. Above the sort only
// row-local, order-preserving operators may appear, and the sort must live
// in the root fragment (a later exchange would re-perturb the order).
func orderWashed(f *fragment.Fragment) bool {
	if len(f.Consumers) == 0 {
		return false // f is the root: the perturbed order reached it unwashed
	}
	for i, cf := range f.Consumers {
		if slices.Index(f.Consumers, cf) < i {
			continue // cf's places were all checked at its first entry
		}
		for _, path := range pathsToRoot(cf.Root, f.Receiver) {
			// The root fragment must wash the order; any other passes
			// it on unwashed, to be followed through its own exchange.
			if state, ok := washState(path); !ok || (state == washClean) != cf.IsRoot {
				return false
			}
		}
		if !cf.IsRoot && !orderWashed(cf) {
			return false
		}
	}
	return true
}

type wash uint8

const (
	washPerturbed wash = iota // row order (or partial multisets) still depend on arrival order
	washClean                 // a total-order sort fixed the final order
)

// washState walks one path of a consumer fragment from the perturbed
// receiver to the fragment root, tracking whether the perturbation is
// washed out. ok is false when an operator that bakes arrival order (or
// arrival grouping) into its output values is encountered before a wash.
func washState(path []physical.Node) (wash, bool) {
	state := washPerturbed
	var lastGroup []int // reduction group columns awaiting a covering sort
	for _, n := range path {
		switch t := n.(type) {
		case *physical.Receiver:
			// the starting point
		case *physical.Filter, *physical.Project, *physical.Sender:
			// Row-local and order-preserving: perturbation (or cleanliness)
			// carries through unchanged.
		case *physical.HashAggregate:
			if !aggsOrderInsensitive(t.Aggs) {
				return state, false
			}
			if t.IsReduction() {
				lastGroup = outputGroupCols(t.GroupBy)
			}
			state = washPerturbed // group emission order is first-seen
		case *physical.SortAggregate:
			if !aggsOrderInsensitive(t.Aggs) {
				return state, false
			}
			if t.IsReduction() {
				lastGroup = outputGroupCols(t.GroupBy)
			}
			state = washPerturbed
		case *physical.Sort:
			if lastGroup != nil && sortCovers(t.Keys, lastGroup) {
				state = washClean
			}
		case *physical.Limit:
			if state != washClean {
				// LIMIT over a perturbed order selects different rows.
				return state, false
			}
		case *physical.Join:
			// A join's output order interleaves probe arrival order; the
			// perturbation survives but values do not change (equi matching
			// is order-free). Treat like a row-local operator.
			if state == washClean {
				state = washPerturbed
			}
		default:
			return state, false
		}
	}
	return state, true
}

// pathsToRoot returns, for every place rv stands in, the operator chain
// from rv up to (and including) the fragment root.
func pathsToRoot(n physical.Node, rv *physical.Receiver) [][]physical.Node {
	if n == rv {
		return [][]physical.Node{{n}}
	}
	var paths [][]physical.Node
	for _, in := range n.Inputs() {
		for _, sub := range pathsToRoot(in, rv) {
			paths = append(paths, append(sub, n))
		}
	}
	return paths
}

// aggsOrderInsensitive reports whether every aggregate call produces
// bit-identical results under any input permutation and regrouping of
// partials: COUNT always, MIN/MAX always (same-kind comparisons pick a
// canonical value), SUM only over integer inputs (float addition is not
// associative). AVG and DISTINCT aggregates are excluded.
func aggsOrderInsensitive(aggs []expr.AggCall) bool {
	for _, a := range aggs {
		if a.Distinct {
			return false
		}
		switch a.Func {
		case expr.AggCount, expr.AggMin, expr.AggMax:
		case expr.AggSum:
			if a.Kind() != types.KindInt {
				return false
			}
		default:
			return false
		}
	}
	return true
}

// outputGroupCols are the group columns' output positions (aggregation
// emits group columns first).
func outputGroupCols(groupBy []int) []int {
	cols := make([]int, len(groupBy))
	for i := range groupBy {
		cols[i] = i
	}
	return cols
}

// sortCovers reports whether the sort keys include every group column.
func sortCovers(keys []types.SortKey, group []int) bool {
	have := make(map[int]bool, len(keys))
	for _, k := range keys {
		have[k.Col] = true
	}
	for _, g := range group {
		if !have[g] {
			return false
		}
	}
	return true
}
