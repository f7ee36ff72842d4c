// Package fragment converts an optimized physical plan into an execution
// plan: a set of fragments, each a subtree executable entirely at one
// processing site, connected by sender/receiver pairs (§3.2.3,
// Algorithm 1). The split plan carries its own schedule — the dependency
// waves its fragments run in, and each fragment's variant source modes
// (§5.3, Algorithm 3) for multi-threaded execution — its exchange edges
// (the receiver each exchange feeds and every place that receiver stands
// in), its operator ids and, by operator id, its compiled expressions.
// The scheduler, the executor, the observation record and the adaptive
// controller read these instead of walking the fragments to derive them,
// so a plan split once serves every execution.
package fragment

import (
	"fmt"
	"strings"

	"gignite/internal/logical"
	"gignite/internal/physical"
)

// Fragment is one executable subsection of the query tree.
type Fragment struct {
	ID int
	// Root is the fragment's root operator: a Sender for non-root
	// fragments, the plan root for the root fragment.
	Root physical.Node
	// IsRoot marks the fragment that returns results to the user.
	IsRoot bool
	// Receivers lists the exchange IDs this fragment consumes (its
	// dependencies).
	Receivers []int
	// ExchangeID is the exchange this fragment feeds (-1 for the root).
	// Split numbers exchanges densely, 0 to len(Plan.Fragments)-2, so
	// per-exchange state can live in slices.
	ExchangeID int
	// Receiver is the one receiver node every reader of ExchangeID
	// shares (nil for the root).
	Receiver *physical.Receiver
	// Consumers lists the fragments reading ExchangeID, one entry per
	// place the receiver stands in: a fragment holding the receiver in
	// two places is listed twice. A shared exchange has more than one.
	Consumers []*Fragment
	// Modes assigns each source operator (TableScan, IndexScan, Receiver)
	// its splitter or duplicator role when the fragment runs as §5.3
	// variants. It is nil when the fragment must run on one thread.
	Modes map[physical.Node]SourceMode
	// Ops lists the fragment's operators in pre-order, root first, each
	// once (physical.Number): an operator's index is its id, by which
	// executions address per-operator state. OpIDs maps each back.
	Ops   []physical.Node
	OpIDs map[physical.Node]int
	// Kernels are the operators' compiled expressions, by operator id
	// (physical.Compile), which every execution without arguments runs;
	// the fragments of a plan share one backing array.
	Kernels []physical.Kernels
	// Params lists the ids of the operators whose expressions hold a
	// placeholder: the only entries an execution's arguments reach, in a
	// copy of the table of its own (physical.Bind).
	Params []int
	// Output marks, by operator id, the operators whose rows reach the
	// fragment's root as they are: the root, and below a marked operator
	// the inputs it passes on as they came — a Filter's, a Limit's, a
	// Sort's, a Sender's and a semi or anti join's left input. ToResult
	// reports that the fragment's output reaches the query result: the
	// root fragment does, and so does the producer of a marked Receiver
	// in a fragment that does. The executor keeps the rows a marked
	// operator builds or copies for the rest of the execution when they
	// are shipped, and on the heap when they reach the result, since then
	// they outlive it (exec.Lender).
	Output   []bool
	ToResult bool

	wave int // the fragment's index in Plan.Waves
}

// Edge is one exchange edge: fragment To reads exchange Exchange, which
// fragment From feeds.
type Edge struct {
	Exchange, From, To int
}

// Plan is a fragmented execution plan.
type Plan struct {
	Fragments []*Fragment
	// Producer maps an exchange ID to the fragment that feeds it.
	Producer map[int]*Fragment
	// Waves groups the fragments into dependency waves for the scheduler:
	// wave 0 holds the fragments with no receivers, and a fragment sits
	// one wave after the latest of its producers. Fragments within one
	// wave are mutually independent, so a scheduler may run all their
	// instances concurrently and place a barrier between consecutive
	// waves. Within a wave, fragments keep the order Split completed them
	// in — producers before consumers, depth-first — so flattening the
	// waves yields a dependency order, and wave-by-wave execution with
	// one worker is deterministic.
	Waves [][]*Fragment
	// Edges lists every exchange edge once per reading fragment, in
	// fragment order and, within a fragment, in Receivers order.
	Edges []Edge
}

// Split implements Algorithm 1: walking the tree depth-first, every
// Exchange is replaced by a receiver (staying in the current fragment) and
// a sender (rooting a new fragment over the exchange's child). As each
// fragment completes — after the exchanges below it are split — Split
// appends it to Plan.Waves and records its Modes (Algorithm 3) and
// operator ids, so the plan carries its schedule and no executor
// re-derives it. It records each exchange's edge the same way: the
// producer's Receiver and, for every place the receiver stands in, the
// reading fragment in Consumers. Last, it compiles every fragment's
// expressions into its kernel table (Fragment.Kernels), so no execution
// compiles any but those its arguments reach.
//
// Split writes no node reachable from root: every operator other than an
// Exchange becomes a fresh shallow copy (physical.Copy) sharing its
// expressions, and placeholders stay placeholders. The engine splits a
// plan once, when it is planned, and keeps the split in the plan-cache
// entry (or the prepared statement): every execution, adaptive or not,
// runs that one split read-only, binding its arguments into a copy of a
// fragment's kernel table (physical.Bind) and keeping an adaptive
// controller's decisions beside it, by operator id.
//
// The optimizer may emit a DAG rather than a tree: a subtree (often a
// broadcast) shared by two parents. Each Exchange is still split exactly
// once, keyed by its node, and every fragment that reaches it records the
// exchange in its Receivers and is listed in the producer's Consumers.
// Dropping the second consumer's edge would let the second consumer
// share a wave with its producer.
//
// Sharing stops at the exchange: every other operator is copied once per
// visit (the memo gives two equal join inputs the same subtree), so that
// between its receivers and its root a fragment is a tree. The executor
// and the variant planner key per-operator state — source modes, split
// counters, row statistics — by node or operator id, and one operator
// standing in two places would have one visit overwrite the other's.
func Split(root physical.Node) *Plan {
	p := &Plan{Producer: make(map[int]*Fragment)}
	split := make(map[*physical.Exchange]*Fragment) // exchange -> producer

	addReceiver := func(frag *Fragment, id int) {
		for _, ex := range frag.Receivers {
			if ex == id {
				return
			}
		}
		frag.Receivers = append(frag.Receivers, id)
	}
	// complete schedules a fragment whose exchanges are all split: every
	// producer it reads has completed, so its wave is known.
	complete := func(f *Fragment) {
		for _, ex := range f.Receivers {
			f.wave = max(f.wave, p.Producer[ex].wave+1)
		}
		if f.wave == len(p.Waves) {
			p.Waves = append(p.Waves, nil)
		}
		p.Waves[f.wave] = append(p.Waves[f.wave], f)
		f.Modes = variantModes(f)
		f.Ops, f.OpIDs = physical.Number(f.Root)
		for id, n := range f.Ops {
			if physical.HoldsParam(n) {
				f.Params = append(f.Params, id)
			}
		}
		f.Output = make([]bool, len(f.Ops))
		f.markOutput(f.Root)
	}

	var splitTree func(n physical.Node, frag *Fragment) physical.Node
	splitTree = func(n physical.Node, frag *Fragment) physical.Node {
		t, ok := n.(*physical.Exchange)
		if !ok {
			out := physical.Copy(n, nil)
			if ins := n.Inputs(); len(ins) > 0 {
				newIns := make([]physical.Node, len(ins))
				for i, in := range ins {
					newIns[i] = splitTree(in, frag)
				}
				out.SetInputs(newIns)
			}
			return out
		}
		sub, ok := split[t]
		if !ok {
			// The first parent to reach this Exchange splits it; later
			// parents share its receiver.
			id := len(p.Producer)
			sub = &Fragment{ID: len(p.Fragments), ExchangeID: id}
			p.Fragments = append(p.Fragments, sub)
			p.Producer[id] = sub
			// Recurse inside the new fragment for nested exchanges.
			sub.Root = physical.NewSender(splitTree(t.Inputs()[0], sub), id, t.Target)
			complete(sub)
			sub.Receiver = physical.NewReceiver(t, id)
			split[t] = sub
		}
		sub.Consumers = append(sub.Consumers, frag)
		addReceiver(frag, sub.ExchangeID)
		return sub.Receiver
	}

	rootFrag := &Fragment{ID: 0, IsRoot: true, ExchangeID: -1}
	p.Fragments = append(p.Fragments, rootFrag)
	rootFrag.Root = splitTree(root, rootFrag)
	complete(rootFrag)
	p.markToResult(rootFrag)
	// One table holds every fragment's kernels; each fragment keeps its
	// part, indexed by its own operator ids.
	n := 0
	for _, f := range p.Fragments {
		n += len(f.Ops)
	}
	kernels := make([]physical.Kernels, 0, n)
	for _, f := range p.Fragments {
		from := len(kernels)
		kernels = physical.Compile(kernels, f.Ops)
		f.Kernels = kernels[from:len(kernels):len(kernels)]
		for _, ex := range f.Receivers {
			p.Edges = append(p.Edges, Edge{Exchange: ex, From: p.Producer[ex].ID, To: f.ID})
		}
	}
	return p
}

// markOutput marks n, whose rows reach the fragment's root as they are,
// and below it every input n passes on as it came (Fragment.Output).
func (f *Fragment) markOutput(n physical.Node) {
	f.Output[f.OpIDs[n]] = true
	switch t := n.(type) {
	case *physical.Filter, *physical.Limit, *physical.Sort, *physical.Sender:
		f.markOutput(n.Inputs()[0])
	case *physical.Join:
		if t.Type == logical.JoinSemi || t.Type == logical.JoinAnti {
			f.markOutput(t.Inputs()[0])
		}
	}
}

// markToResult sets ToResult on f, whose output reaches the query result,
// and on the producer of every Receiver whose rows reach f's output.
func (p *Plan) markToResult(f *Fragment) {
	f.ToResult = true
	for id, n := range f.Ops {
		if r, ok := n.(*physical.Receiver); ok && f.Output[id] {
			if prod := p.Producer[r.ExchangeID]; !prod.ToResult {
				p.markToResult(prod)
			}
		}
	}
}

// SourceMode is how a source operator behaves inside a variant fragment
// (§5.3.1).
type SourceMode uint8

const (
	// DuplicateMode replays all source rows in every variant. It is the
	// zero value, so a source missing from Fragment.Modes never splits.
	DuplicateMode SourceMode = iota
	// SplitMode partitions the source rows across variants
	// (c % n == vid).
	SplitMode
)

// variantModes implements Algorithm 3: it assigns each of the fragment's
// sources its splitter or duplicator role. It returns nil when the
// fragment must run on one thread: the root fragment, a fragment holding
// a reduction (single-phase or reduce-phase aggregation) or a limit, one
// whose shared receiver is asked for two modes, and one with no source
// to split.
func variantModes(f *Fragment) map[physical.Node]SourceMode {
	if f.IsRoot {
		return nil
	}
	modes := make(map[physical.Node]SourceMode)
	if !assignModes(f.Root, SplitMode, modes) {
		return nil
	}
	for _, m := range modes {
		if m == SplitMode {
			return modes
		}
	}
	return nil
}

// assignModes walks the fragment tree assigning source modes; it returns
// false when a reduction operator makes the fragment ineligible.
func assignModes(n physical.Node, mode SourceMode, modes map[physical.Node]SourceMode) bool {
	switch t := n.(type) {
	case *physical.TableScan, *physical.IndexScan, *physical.Receiver:
		// A receiver can stand in two places (Split shares exchanges); if
		// the places disagree on its mode the fragment stays one thread.
		if prev, ok := modes[n]; ok && prev != mode {
			return false
		}
		modes[n] = mode
		return true
	case *physical.HashAggregate:
		if t.IsReduction() {
			return false
		}
	case *physical.SortAggregate:
		if t.IsReduction() {
			return false
		}
	case *physical.Join:
		if t.Type == logical.JoinInner {
			// §5.3.1: the left source chain duplicates; the right keeps
			// the incoming mode (most often a base relation scan that
			// benefits from dynamic sub-partitioning). Every (l, r) pair
			// is then seen in exactly one variant.
			if !assignModes(t.Inputs()[0], DuplicateMode, modes) {
				return false
			}
			return assignModes(t.Inputs()[1], mode, modes)
		}
		// Semi/anti/left joins decide per left row against ALL right
		// matches, so the right side must duplicate and the left side
		// carries the incoming split.
		if !assignModes(t.Inputs()[0], mode, modes) {
			return false
		}
		return assignModes(t.Inputs()[1], DuplicateMode, modes)
	case *physical.Limit:
		// A limit needs the whole stream; treat like a reduction.
		return false
	}
	for _, in := range n.Inputs() {
		if !assignModes(in, mode, modes) {
			return false
		}
	}
	return true
}

// Format renders the fragmented plan, fragment by fragment: the line
// "--- fragment N ---" ("root fragment" for the root), header writing
// before its closing dashes when it is not nil, then the fragment's tree
// through physical.Format, note writing after each operator's
// description. EXPLAIN and the plan digest are Format(nil, Estimates).
func (p *Plan) Format(header func(*strings.Builder, *Fragment), note func(*strings.Builder, *Fragment, physical.Node)) string {
	var sb strings.Builder
	for _, f := range p.Fragments {
		role := "fragment"
		if f.IsRoot {
			role = "root fragment"
		}
		fmt.Fprintf(&sb, "--- %s %d", role, f.ID)
		if header != nil {
			header(&sb, f)
		}
		sb.WriteString(" ---\n")
		sb.WriteString(physical.Format(f.Root, func(sb *strings.Builder, n physical.Node) { note(sb, f, n) }))
	}
	return sb.String()
}

// Estimates is EXPLAIN's note: physical.Estimates.
func Estimates(sb *strings.Builder, _ *Fragment, n physical.Node) { physical.Estimates(sb, n) }
