package physical

import (
	"fmt"

	"gignite/internal/expr"
	"gignite/internal/logical"
)

// RuntimeFilter is the plan-time description of one runtime join-filter
// edge (DESIGN.md §13): a hash join's build keys, computed in a pre-pass
// at the join fragment's sites, are shipped sideways to the probe-side
// producer fragment, whose Sender (and optionally a deeper operator)
// drops rows that cannot match before they cross the wire.
//
// The filter is keyed to logical plan identity — fragment IDs, exchange
// ID, plan nodes — never to execution attempts, so retries and replica
// failover consume the same filter and results stay byte-identical.
type RuntimeFilter struct {
	// ID is the filter's dense index within the plan.
	ID int
	// JoinFrag is the fragment containing the consuming hash join.
	JoinFrag int
	// BuildRoot is the join's build input (right child) — a receiver-free
	// subtree executable locally at each of the join's sites.
	BuildRoot Node
	// BuildCols are the equi-key columns in build-side coordinates.
	BuildCols []int
	// ProbeFrag is the producer fragment of the probe-side exchange.
	ProbeFrag int
	// Exchange is the probe-side exchange the filter guards.
	Exchange int
	// Receiver is the probe-side receiver inside the join's fragment.
	Receiver *Receiver
	// ProbeCols are the equi-key columns in receiver-output coordinates,
	// which equal the producer Sender's output coordinates.
	ProbeCols []int
	// ProbeNode, when non-nil, is the deepest operator inside the producer
	// fragment whose output the filter may additionally prune (scan-level
	// pushdown); ProbeNodeCols are the key columns at its output.
	ProbeNode     Node
	ProbeNodeCols []int
}

// Describe renders the filter edge for EXPLAIN output.
func (f *RuntimeFilter) Describe() string {
	return fmt.Sprintf("RuntimeFilter #%d: join frag %d <- exchange %d (probe frag %d, keys=%v)",
		f.ID, f.JoinFrag, f.Exchange, f.ProbeFrag, f.ProbeCols)
}

// FilterableJoin reports whether a join's semantics admit probe-side
// pruning: rows whose keys are absent from the build set contribute
// nothing to inner and semi joins, but left/anti joins emit them.
func FilterableJoin(j *Join) bool {
	return j.Algo == HashAlgo && len(j.Keys) > 0 &&
		(j.Type == logical.JoinInner || j.Type == logical.JoinSemi)
}

// ParentCounts counts each node's parents within one fragment tree. The
// optimizer may emit DAGs (shared subtrees); pruning a multi-parent
// node's output would starve its other consumer, so filter placement
// requires single-parent chains.
func ParentCounts(root Node) map[Node]int {
	counts := map[Node]int{root: 1}
	seen := make(map[Node]bool)
	var walk func(n Node)
	walk = func(n Node) {
		for _, in := range n.Inputs() {
			counts[in]++
			if !seen[in] {
				seen[in] = true
				walk(in)
			}
		}
	}
	walk(root)
	return counts
}

// SubtreeLocal reports whether a subtree contains no Receiver — i.e. it
// is executable entirely at one site without waiting on other fragments,
// which is what lets the filter pre-pass run it before wave 0.
func SubtreeLocal(n Node) bool {
	local := true
	Walk(n, func(m Node) bool {
		if _, ok := m.(*Receiver); ok {
			local = false
			return false
		}
		return local
	})
	return local
}

// SubtreeSelective reports whether a build subtree applies any predicate
// (a Filter node). A bare-scan build is a foreign-key target: every probe
// key exists in it, so a filter built from it prunes nothing and only
// costs build, shipment and test work.
func SubtreeSelective(n Node) bool {
	selective := false
	Walk(n, func(m Node) bool {
		if _, ok := m.(*Filter); ok {
			selective = true
			return false
		}
		return true
	})
	return selective
}

// ResolveProbeChain finds the Receiver a join's probe (left) input reads
// through column-transparent single-parent operators, with the probe key
// columns remapped into receiver-output coordinates. It returns nil when
// the chain crosses anything else (a join, an aggregate, a limit, a
// multi-parent node, a computed projection), in which case no filter is
// planned for this join.
func ResolveProbeChain(j *Join, parents map[Node]int) (*Receiver, []int) {
	probe := j.Inputs()[0]
	if parents[probe] > 1 {
		return nil, nil
	}
	n, cols := PushdownTarget(probe, j.KeyCols(0), parents)
	r, ok := n.(*Receiver)
	if !ok {
		return nil, nil
	}
	return r, cols
}

// PushdownTarget descends from n through transparent operators (Filter,
// Sort, a Project whose key columns are bare column references) to the
// deepest node whose output the filter may prune, remapping key columns
// along the way. Descent stops at sources, joins, aggregates and limits
// (pruning below a Limit would change which rows fill it) and above
// multi-parent nodes; the stop node itself is the application point,
// which is always safe because everything above it feeds only n's
// consumer.
func PushdownTarget(n Node, cols []int, parents map[Node]int) (Node, []int) {
	for {
		next := cols
		switch t := n.(type) {
		case *Filter, *Sort:
		case *Project:
			remapped, ok := remapThroughProject(t, cols)
			if !ok {
				return n, cols
			}
			next = remapped
		default:
			return n, cols
		}
		child := n.Inputs()[0]
		if parents[child] > 1 {
			return n, cols
		}
		n, cols = child, next
	}
}

// remapThroughProject translates output column offsets to input offsets;
// it fails when a needed column is computed (not a bare ColRef).
func remapThroughProject(p *Project, cols []int) ([]int, bool) {
	out := make([]int, len(cols))
	for i, c := range cols {
		if c < 0 || c >= len(p.Exprs) {
			return nil, false
		}
		ref, ok := p.Exprs[c].(*expr.ColRef)
		if !ok {
			return nil, false
		}
		out[i] = ref.Index
	}
	return out, true
}
