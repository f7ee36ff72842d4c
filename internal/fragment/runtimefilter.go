package fragment

import (
	"fmt"

	"gignite/internal/logical"
	"gignite/internal/physical"
)

// RuntimeFilter is the plan-time description of one runtime join-filter
// edge (DESIGN.md §13): a hash join's build keys, computed in a pre-pass
// at the join fragment's sites, are shipped sideways to the probe-side
// producer fragment, whose Sender and a deeper operator drop rows that
// cannot match before they cross the wire.
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
	BuildRoot physical.Node
	// BuildCols are the equi-key columns in build-side coordinates.
	BuildCols []int
	// ProbeFrag is the producer fragment of the probe-side exchange.
	ProbeFrag int
	// Exchange is the probe-side exchange the filter guards.
	Exchange int
	// Receiver is the probe-side receiver inside the join's fragment.
	Receiver *physical.Receiver
	// ProbeCols are the equi-key columns in receiver-output coordinates,
	// which equal the producer Sender's output coordinates.
	ProbeCols []int
	// ProbeNode is the deepest operator inside the producer fragment
	// whose output the filter also prunes (scan-level pushdown);
	// ProbeNodeCols are the key columns at its output.
	ProbeNode     physical.Node
	ProbeNodeCols []int
}

// Describe renders the filter edge for EXPLAIN output.
func (f *RuntimeFilter) Describe() string {
	return fmt.Sprintf("RuntimeFilter #%d: join frag %d <- exchange %d (probe frag %d, keys=%v)",
		f.ID, f.JoinFrag, f.Exchange, f.ProbeFrag, f.ProbeCols)
}

// PlanRuntimeFilters discovers the plan's runtime join-filter edges and
// records them in p.Filters (DESIGN.md §13). A hash join is eligible when
//
//   - its semantics admit probe pruning (inner or semi, with equi keys),
//   - its build (right) subtree is receiver-free, so a pre-pass can
//     execute it at the join's sites before wave 0,
//   - the build subtree applies at least one predicate (a bare-scan build
//     is a foreign-key target whose filter would prune nothing), and
//   - its probe (left) input reaches a Receiver through column-transparent
//     operators, and that receiver stands in exactly one place in the
//     plan: pruning a shared exchange for one reader would starve the
//     others.
//
// For each eligible join, the producer fragment's sender is annotated as
// the pruning point, plus the deepest transparent operator below it
// (scan-level pushdown).
func PlanRuntimeFilters(p *Plan) {
	for _, f := range p.Fragments {
		physical.Walk(f.Root, func(n physical.Node) bool {
			j, ok := n.(*physical.Join)
			if !ok || !filterableJoin(j) || !prepassBuild(j.Inputs()[1]) {
				return true
			}
			probe, probeCols := pushdownTarget(j.Inputs()[0], j.KeyCols(0))
			rv, ok := probe.(*physical.Receiver)
			if !ok {
				return true
			}
			prod := p.Producer[rv.ExchangeID]
			if len(prod.Consumers) != 1 {
				return true
			}
			target, targetCols := pushdownTarget(prod.Root.Inputs()[0], probeCols)
			p.Filters = append(p.Filters, &RuntimeFilter{
				ID:            len(p.Filters),
				JoinFrag:      f.ID,
				BuildRoot:     j.Inputs()[1],
				BuildCols:     j.KeyCols(1),
				ProbeFrag:     prod.ID,
				Exchange:      rv.ExchangeID,
				Receiver:      rv,
				ProbeCols:     probeCols,
				ProbeNode:     target,
				ProbeNodeCols: targetCols,
			})
			return true
		})
	}
}

// filterableJoin reports whether a join's semantics admit probe-side
// pruning: rows whose keys are absent from the build set contribute
// nothing to inner and semi joins, but left/anti joins emit them.
func filterableJoin(j *physical.Join) bool {
	return j.Algo == physical.HashAlgo && len(j.Keys) > 0 &&
		(j.Type == logical.JoinInner || j.Type == logical.JoinSemi)
}

// prepassBuild reports whether a build subtree suits the filter pre-pass:
// it holds no Receiver, so it runs at one site without waiting on other
// fragments, and it applies a predicate (a Filter node). A bare-scan
// build is a foreign-key target: every probe key exists in it, so a
// filter built from it prunes nothing and only costs build, shipment and
// test work.
func prepassBuild(n physical.Node) bool {
	local, selective := true, false
	physical.Walk(n, func(m physical.Node) bool {
		switch m.(type) {
		case *physical.Receiver:
			local = false
		case *physical.Filter:
			selective = true
		}
		return local
	})
	return local && selective
}

// pushdownTarget descends from n through transparent operators (Filter,
// Sort, a Project whose key columns are bare column references) to the
// deepest node whose output a filter may prune, remapping key columns
// along the way. Descent stops at sources, joins, aggregates and limits
// (pruning below a Limit would change which rows fill it); the stop node
// itself is the application point. That is safe because every node the
// descent passes or stops at has one parent: Split copies every operator
// but a receiver once per place, the probe's receiver must stand in one
// place, and a producer's chain from its Sender is its whole fragment.
func pushdownTarget(n physical.Node, cols []int) (physical.Node, []int) {
	for {
		next := cols
		switch t := n.(type) {
		case *physical.Filter, *physical.Sort:
		case *physical.Project:
			remapped, ok := t.InputCols(cols)
			if !ok {
				return n, cols
			}
			next = remapped
		default:
			return n, cols
		}
		n, cols = n.Inputs()[0], next
	}
}
