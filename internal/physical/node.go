package physical

import (
	"fmt"
	"strings"

	"gignite/internal/catalog"
	"gignite/internal/cost"
	"gignite/internal/expr"
	"gignite/internal/logical"
	"gignite/internal/types"
)

// Node is a physical plan operator. All implementations embed Props.
type Node interface {
	Schema() types.Fields
	Inputs() []Node
	// SetInputs replaces the children in place (fragmentation rewires
	// trees; physical plans are single-owner so in-place is safe).
	SetInputs(inputs []Node)
	Dist() Distribution
	Collation() []types.SortKey
	// Props exposes the common mutable properties.
	Props() *Props
	// Describe renders one line for EXPLAIN output.
	Describe() string
}

// Props carries the common physical properties: traits, the planner's
// cardinality estimate, and the subtree's cost under the active cost
// model.
type Props struct {
	Fields  types.Fields
	Dist    Distribution
	Coll    []types.SortKey
	EstRows float64
	// Total is the cumulative cost of the subtree, filled by the planner.
	Total cost.Cost
}

type base struct {
	props  Props
	inputs []Node
}

func (b *base) Schema() types.Fields       { return b.props.Fields }
func (b *base) Inputs() []Node             { return b.inputs }
func (b *base) SetInputs(inputs []Node)    { b.inputs = inputs }
func (b *base) Dist() Distribution         { return b.props.Dist }
func (b *base) Collation() []types.SortKey { return b.props.Coll }
func (b *base) Props() *Props              { return &b.props }

// ---------------------------------------------------------------------------
// Scans

// TableScan reads a base table partition-parallel. Its natural
// distribution is Hash on the affinity column (partitioned tables) or
// Broadcast (replicated tables).
type TableScan struct {
	base
	Table *catalog.Table
}

// NewTableScan builds a table scan with the table's natural traits.
func NewTableScan(t *catalog.Table, fields types.Fields) *TableScan {
	s := &TableScan{Table: t}
	s.props.Fields = fields
	if t.Replicated {
		s.props.Dist = BroadcastDist
	} else {
		s.props.Dist = HashDist(t.AffinityOrdinal())
	}
	return s
}

func (s *TableScan) Describe() string {
	return fmt.Sprintf("TableScan %s (dist=%s)", s.Table.Name, s.props.Dist)
}

// IndexScan reads a base table in index order, yielding a per-partition
// collation the planner can exploit (sort elimination, sort-based
// aggregation — the paper's Q14 improvement).
type IndexScan struct {
	base
	Table *catalog.Table
	Index *catalog.Index
}

// NewIndexScan builds an index scan; its collation is the index key order.
func NewIndexScan(t *catalog.Table, idx *catalog.Index, fields types.Fields) *IndexScan {
	s := &IndexScan{Table: t, Index: idx}
	s.props.Fields = fields
	if t.Replicated {
		s.props.Dist = BroadcastDist
	} else {
		s.props.Dist = HashDist(t.AffinityOrdinal())
	}
	keys := make([]types.SortKey, len(idx.Columns))
	for i, c := range idx.Columns {
		keys[i] = types.SortKey{Col: t.ColumnIndex(c)}
	}
	s.props.Coll = keys
	return s
}

func (s *IndexScan) Describe() string {
	return fmt.Sprintf("IndexScan %s.%s (dist=%s, coll=%s)",
		s.Table.Name, s.Index.Name, s.props.Dist, logical.DescribeKeys(s.props.Coll))
}

// Values is an inline relation, always Single.
type Values struct {
	base
	Rows []types.Row
}

// NewValues builds an inline relation.
func NewValues(fields types.Fields, rows []types.Row) *Values {
	v := &Values{Rows: rows}
	v.props.Fields = fields
	v.props.Dist = SingleDist
	return v
}

func (v *Values) Describe() string { return fmt.Sprintf("Values %d rows", len(v.Rows)) }

// ---------------------------------------------------------------------------
// Row operators

// Filter drops rows whose condition is not TRUE; traits pass through.
type Filter struct {
	base
	Cond expr.Expr
}

// NewFilter builds a filter over an input.
func NewFilter(input Node, cond expr.Expr) *Filter {
	f := &Filter{Cond: cond}
	f.inputs = []Node{input}
	f.props.Fields = input.Schema()
	f.props.Dist = input.Dist()
	f.props.Coll = input.Collation()
	return f
}

func (f *Filter) Describe() string { return fmt.Sprintf("Filter %s", f.Cond) }

// Project computes output columns; the distribution keys and collation are
// remapped through the projection (dropped key ⇒ keyless hash / no
// collation).
type Project struct {
	base
	Exprs []expr.Expr
}

// NewProject builds a projection.
func NewProject(input Node, exprs []expr.Expr, fields types.Fields) *Project {
	p := &Project{Exprs: exprs}
	p.inputs = []Node{input}
	p.props.Fields = fields
	// Build the input→output mapping for pass-through columns.
	inW := len(input.Schema())
	mapping := make([]int, inW)
	for i := range mapping {
		mapping[i] = -1
	}
	for out, e := range exprs {
		if c, ok := e.(*expr.ColRef); ok && mapping[c.Index] < 0 {
			mapping[c.Index] = out
		}
	}
	p.props.Dist = input.Dist().RemapKeys(mapping)
	p.props.Coll = RemapCollation(input.Collation(), mapping)
	return p
}

// RemapCollation rewrites a collation through a column mapping (old
// ordinal → new ordinal, -1 = dropped), as a projection does: the prefix
// up to the first dropped key survives.
func RemapCollation(coll []types.SortKey, mapping []int) []types.SortKey {
	out := make([]types.SortKey, 0, len(coll))
	for _, k := range coll {
		if k.Col >= len(mapping) || mapping[k.Col] < 0 {
			// A prefix of the collation survives projection.
			return out
		}
		out = append(out, types.SortKey{Col: mapping[k.Col], Desc: k.Desc, NullsLast: k.NullsLast})
	}
	return out
}

// InputCols maps output column ordinals to the input columns they pass
// through unchanged; ok is false when one is out of range or computed.
func (p *Project) InputCols(cols []int) (in []int, ok bool) {
	in = make([]int, len(cols))
	for i, c := range cols {
		if c < 0 || c >= len(p.Exprs) {
			return nil, false
		}
		ref, isRef := p.Exprs[c].(*expr.ColRef)
		if !isRef {
			return nil, false
		}
		in[i] = ref.Index
	}
	return in, true
}

func (p *Project) Describe() string {
	parts := make([]string, len(p.Exprs))
	for i, e := range p.Exprs {
		parts[i] = e.String()
	}
	return "Project " + strings.Join(parts, ", ")
}

// Sort orders rows within each execution unit (per partition for
// distributed inputs, globally when the input is Single).
type Sort struct {
	base
	Keys []types.SortKey
}

// NewSort builds a sort.
func NewSort(input Node, keys []types.SortKey) *Sort {
	s := &Sort{Keys: keys}
	s.inputs = []Node{input}
	s.props.Fields = input.Schema()
	s.props.Dist = input.Dist()
	s.props.Coll = keys
	return s
}

func (s *Sort) Describe() string { return "Sort " + logical.DescribeKeys(s.Keys) }

// Limit passes through at most N rows; it requires a Single input.
type Limit struct {
	base
	N int64
}

// NewLimit builds a limit.
func NewLimit(input Node, n int64) *Limit {
	l := &Limit{N: n}
	l.inputs = []Node{input}
	l.props.Fields = input.Schema()
	l.props.Dist = input.Dist()
	l.props.Coll = input.Collation()
	return l
}

func (l *Limit) Describe() string { return fmt.Sprintf("Limit %d", l.N) }

// ---------------------------------------------------------------------------
// Aggregation

// AggPhase distinguishes single-phase aggregation from the distributed
// map/reduce split (§3.2: the reduce phase is the "reduction operator"
// that §5.3 excludes from multithreading).
type AggPhase uint8

const (
	// AggSinglePhase computes the final aggregate in one operator.
	AggSinglePhase AggPhase = iota
	// AggMap computes per-site partial aggregates.
	AggMap
	// AggReduce merges partial aggregates into final values.
	AggReduce
)

var aggPhaseNames = [...]string{"single", "map", "reduce"}

// String names the phase.
func (p AggPhase) String() string { return aggPhaseNames[p] }

// HashAggregate groups rows with a hash table.
type HashAggregate struct {
	base
	GroupBy []int
	Aggs    []expr.AggCall
	Phase   AggPhase
}

// NewHashAggregate builds a hash aggregation with the given output schema.
func NewHashAggregate(input Node, groupBy []int, aggs []expr.AggCall, phase AggPhase, fields types.Fields) *HashAggregate {
	a := &HashAggregate{GroupBy: groupBy, Aggs: aggs, Phase: phase}
	a.inputs = []Node{input}
	a.props.Fields = fields
	a.props.Dist = aggOutputDist(input, groupBy)
	return a
}

// aggOutputDist: group columns become outputs 0..k-1; the input hash keys
// survive only if they are all group columns.
func aggOutputDist(input Node, groupBy []int) Distribution {
	d := input.Dist()
	if d.Type != Hash {
		return d
	}
	mapping := make([]int, len(input.Schema()))
	for i := range mapping {
		mapping[i] = -1
	}
	for out, g := range groupBy {
		mapping[g] = out
	}
	return d.RemapKeys(mapping)
}

func (a *HashAggregate) Describe() string {
	return fmt.Sprintf("HashAggregate(%s) group=%v aggs=[%s]",
		a.Phase, a.GroupBy, expr.DescribeAggs(a.Aggs))
}

// IsReduction reports whether the operator is a reduction in the §5.3
// sense (it must see all rows of a group, so variant fragments skip it).
func (a *HashAggregate) IsReduction() bool { return a.Phase != AggMap }

// SortAggregate streams over input sorted by the group columns.
type SortAggregate struct {
	base
	GroupBy []int
	Aggs    []expr.AggCall
	Phase   AggPhase
}

// NewSortAggregate builds a streaming aggregation; the input must be
// collated on the group columns.
func NewSortAggregate(input Node, groupBy []int, aggs []expr.AggCall, phase AggPhase, fields types.Fields) *SortAggregate {
	a := &SortAggregate{GroupBy: groupBy, Aggs: aggs, Phase: phase}
	a.inputs = []Node{input}
	a.props.Fields = fields
	a.props.Dist = aggOutputDist(input, groupBy)
	// Output stays sorted by the group columns (now the leading outputs).
	keys := make([]types.SortKey, len(groupBy))
	for i := range groupBy {
		keys[i] = types.SortKey{Col: i}
	}
	a.props.Coll = keys
	return a
}

func (a *SortAggregate) Describe() string {
	return fmt.Sprintf("SortAggregate(%s) group=%v aggs=[%s]",
		a.Phase, a.GroupBy, expr.DescribeAggs(a.Aggs))
}

// IsReduction reports whether the operator is a reduction (§5.3).
func (a *SortAggregate) IsReduction() bool { return a.Phase != AggMap }

// ---------------------------------------------------------------------------
// Joins

// JoinAlgo enumerates the physical join algorithms.
type JoinAlgo uint8

const (
	// NestedLoop is the fallback algorithm for arbitrary conditions.
	NestedLoop JoinAlgo = iota
	// Merge requires both inputs collated on the equi keys.
	Merge
	// HashAlgo is the §5.1.2 in-memory hash join (build = right input).
	HashAlgo
)

var joinAlgoNames = [...]string{"nested-loop", "merge", "hash"}

// String names the algorithm.
func (a JoinAlgo) String() string { return joinAlgoNames[a] }

// Join is a physical join with a chosen algorithm and distribution
// mapping.
type Join struct {
	base
	Algo JoinAlgo
	Type logical.JoinType
	Cond expr.Expr
	// Keys are the equi-join key pairs (empty for pure theta joins).
	Keys []expr.EquiKey
	// Mapping records which Table 2 / §5.1.1 distribution mapping produced
	// this join (for EXPLAIN and tests).
	Mapping string
	// keyCols splits Keys by input side: [0] the left columns, [1] the
	// right ones (KeyCols). Up to two keys' columns live in keyBuf, so
	// the planner's many join alternatives allocate nothing for them.
	keyCols [2][]int
	keyBuf  [4]int
}

// NewJoin builds a physical join; dist is the mapping's target
// distribution. fields is the output schema — the planner builds it once
// and shares it between the alternatives of one join; nil derives it from
// the inputs (JoinType.Fields).
func NewJoin(left, right Node, algo JoinAlgo, jt logical.JoinType, cond expr.Expr,
	keys []expr.EquiKey, dist Distribution, mapping string, fields types.Fields) *Join {
	j := &Join{Algo: algo, Type: jt, Cond: cond, Keys: keys, Mapping: mapping}
	if n := len(keys); n > 0 {
		cols := j.keyBuf[:]
		if 2*n > len(cols) {
			cols = make([]int, 2*n)
		}
		for i, k := range keys {
			cols[i], cols[n+i] = k.Left, k.Right
		}
		j.keyCols = [2][]int{cols[:n:n], cols[n : 2*n : 2*n]}
	}
	j.inputs = []Node{left, right}
	if fields == nil {
		fields = jt.Fields(left.Schema(), right.Schema())
	}
	j.props.Fields = fields
	j.props.Dist = dist
	if algo == Merge {
		j.props.Coll = left.Collation()
	}
	return j
}

// KeyCols returns the equi-key columns of one input side (0 left, 1
// right), in Keys order. The slice is shared and must not be modified.
func (j *Join) KeyCols(side int) []int { return j.keyCols[side] }

func (j *Join) Describe() string {
	return fmt.Sprintf("Join[%s] %s on %s (dist=%s, mapping=%s)",
		j.Algo, j.Type, j.Cond, j.props.Dist, j.Mapping)
}

// ---------------------------------------------------------------------------
// Exchange

// Exchange re-distributes rows between sites (§3.2.2): it is the operator
// fragmentation later splits into a sender/receiver pair.
type Exchange struct {
	base
	// Target is the distribution the exchange establishes.
	Target Distribution
}

// NewExchange builds an exchange establishing the target distribution.
// A collated input is preserved: the receiving side performs a k-way merge
// of the per-sender streams (Ignite's merging receiver), so sort order
// survives the network hop.
func NewExchange(input Node, target Distribution) *Exchange {
	e := &Exchange{Target: target}
	e.inputs = []Node{input}
	e.props.Fields = input.Schema()
	e.props.Dist = target
	e.props.Coll = input.Collation()
	return e
}

func (e *Exchange) Describe() string {
	return fmt.Sprintf("Exchange %s -> %s", e.inputs[0].Dist(), e.Target)
}

// ---------------------------------------------------------------------------
// Tree helpers

// Walk visits the plan top-down.
func Walk(n Node, fn func(Node) bool) {
	if !fn(n) {
		return
	}
	for _, in := range n.Inputs() {
		Walk(in, fn)
	}
}

// Number gives the operators of the tree rooted at n dense ids in
// pre-order, root first: ops[id] is the operator, and ids maps it back. A
// node reached twice keeps its first id, and its inputs are not
// revisited.
func Number(n Node) (ops []Node, ids map[Node]int) {
	ids = make(map[Node]int)
	Walk(n, func(n Node) bool {
		if _, seen := ids[n]; seen {
			return false
		}
		ids[n] = len(ops)
		ops = append(ops, n)
		return true
	})
	return ops, ids
}

// CollationSatisfies reports whether actual ordering satisfies the wanted
// prefix.
func CollationSatisfies(actual, wanted []types.SortKey) bool {
	if len(wanted) > len(actual) {
		return false
	}
	for i, w := range wanted {
		a := actual[i]
		if a.Col != w.Col || a.Desc != w.Desc {
			return false
		}
	}
	return true
}

// Format renders the plan rooted at n, one line per operator, indented
// two spaces a level: the operator's description, then whatever note
// writes after it (Estimates for EXPLAIN).
func Format(n Node, note func(*strings.Builder, Node)) string {
	var sb strings.Builder
	formatInto(&sb, n, note, 0)
	return sb.String()
}

func formatInto(sb *strings.Builder, n Node, note func(*strings.Builder, Node), depth int) {
	for i := 0; i < depth; i++ {
		sb.WriteString("  ")
	}
	sb.WriteString(n.Describe())
	note(sb, n)
	sb.WriteByte('\n')
	for _, in := range n.Inputs() {
		formatInto(sb, in, note, depth+1)
	}
}

// Estimates is EXPLAIN's note on an operator: the planner's row estimate,
// cumulative cost and output distribution.
func Estimates(sb *strings.Builder, n Node) {
	p := n.Props()
	fmt.Fprintf(sb, "  [rows=%.0f cost=%.0f dist=%s]", p.EstRows, p.Total.Scalar(), p.Dist)
}
