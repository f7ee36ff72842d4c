// Package logical defines the logical relational operators produced by the
// binder and transformed by the optimizer rules — the gignite analogue of
// Calcite's logical RelNode layer. Logical operators are agnostic to the
// execution environment: they carry no physical traits. The physical
// package mirrors this algebra with trait-bearing operators.
package logical

import (
	"fmt"
	"strconv"
	"strings"

	"gignite/internal/catalog"
	"gignite/internal/expr"
	"gignite/internal/types"
)

// Node is a logical plan operator.
type Node interface {
	// Schema is the output row schema.
	Schema() types.Fields
	// Inputs returns the child operators.
	Inputs() []Node
	// WithInputs returns a copy of the node with new children, in order.
	WithInputs(inputs []Node) Node
	// Digest renders the subplan on one line, as a label for errors and
	// tests. It is not an identity: it drops literal kinds, NullsLast and
	// the rows of a Values, and costs O(subtree) — the planner's memo
	// compares structure instead (volcano, memo.go) and never calls it.
	Digest() string
}

// labelHook, when a test sets it, is called for every label rendered: each
// Digest() and each DescribeKeys() (which Req.String() and the physical
// Describe() methods build on). Planning a statement renders none.
var labelHook func()

// label renders a Digest().
func label(format string, args ...any) string {
	if labelHook != nil {
		labelHook()
	}
	return fmt.Sprintf(format, args...)
}

// JoinType enumerates logical join kinds. Semi and anti joins are produced
// by subquery decorrelation (EXISTS → semi, NOT EXISTS / NOT IN → anti).
type JoinType uint8

const (
	// JoinInner keeps matched pairs.
	JoinInner JoinType = iota
	// JoinLeft keeps all left rows, NULL-padding unmatched ones.
	JoinLeft
	// JoinSemi keeps left rows with at least one match; output is the
	// left schema only.
	JoinSemi
	// JoinAnti keeps left rows with no match; output is the left schema
	// only.
	JoinAnti
)

var joinNames = [...]string{
	JoinInner: "inner", JoinLeft: "left", JoinSemi: "semi", JoinAnti: "anti",
}

// String names the join type.
func (t JoinType) String() string { return joinNames[t] }

// ProjectsLeftOnly reports whether the join's output is just the left
// schema (semi/anti joins).
func (t JoinType) ProjectsLeftOnly() bool { return t == JoinSemi || t == JoinAnti }

// Fields is the join's output schema over the given input schemas: the
// left schema itself for semi/anti joins, a new left ++ right otherwise.
func (t JoinType) Fields(left, right types.Fields) types.Fields {
	if t.ProjectsLeftOnly() {
		return left
	}
	return left.Concat(right)
}

// ---------------------------------------------------------------------------
// Scan

// Scan reads a base table in full.
type Scan struct {
	Table *catalog.Table
	// Alias qualifies output column names so self-joins stay unambiguous.
	Alias  string
	fields types.Fields
}

// NewScan builds a table scan with alias-qualified column names.
func NewScan(t *catalog.Table, alias string) *Scan {
	if alias == "" {
		alias = t.Name
	}
	fs := make(types.Fields, len(t.Columns))
	for i, c := range t.Columns {
		fs[i] = types.Field{
			Name: strings.ToLower(alias) + "." + strings.ToLower(c.Name),
			Kind: c.Kind,
		}
	}
	return &Scan{Table: t, Alias: alias, fields: fs}
}

func (s *Scan) Schema() types.Fields { return s.fields }
func (s *Scan) Inputs() []Node       { return nil }

func (s *Scan) WithInputs(inputs []Node) Node {
	mustInputs("Scan", inputs, 0)
	return s
}

func (s *Scan) Digest() string {
	return label("Scan(%s as %s)", s.Table.Name, s.Alias)
}

// ---------------------------------------------------------------------------
// Filter

// Filter keeps rows where Cond evaluates to TRUE.
type Filter struct {
	Input Node
	Cond  expr.Expr
}

// NewFilter builds a filter.
func NewFilter(input Node, cond expr.Expr) *Filter {
	return &Filter{Input: input, Cond: cond}
}

func (f *Filter) Schema() types.Fields { return f.Input.Schema() }
func (f *Filter) Inputs() []Node       { return []Node{f.Input} }

func (f *Filter) WithInputs(inputs []Node) Node {
	mustInputs("Filter", inputs, 1)
	return NewFilter(inputs[0], f.Cond)
}

func (f *Filter) Digest() string {
	return label("Filter(%s)[%s]", f.Cond, f.Input.Digest())
}

// ---------------------------------------------------------------------------
// Project

// Project computes output columns from input columns.
type Project struct {
	Input  Node
	Exprs  []expr.Expr
	Names  []string
	fields types.Fields
}

// NewProject builds a projection; names label the output columns.
func NewProject(input Node, exprs []expr.Expr, names []string) *Project {
	fs := make(types.Fields, len(exprs))
	for i, e := range exprs {
		name := ""
		if i < len(names) {
			name = names[i]
		}
		if name == "" {
			name = fmt.Sprintf("expr%d", i)
		}
		fs[i] = types.Field{Name: strings.ToLower(name), Kind: e.Kind()}
	}
	return &Project{Input: input, Exprs: exprs, Names: fs.Names(), fields: fs}
}

// IdentityProject builds a projection passing through specific input
// columns.
func IdentityProject(input Node, cols []int) *Project {
	in := input.Schema()
	exprs := make([]expr.Expr, len(cols))
	names := make([]string, len(cols))
	for i, c := range cols {
		exprs[i] = expr.NewColRef(c, in[c].Kind, in[c].Name)
		names[i] = in[c].Name
	}
	return NewProject(input, exprs, names)
}

func (p *Project) Schema() types.Fields { return p.fields }
func (p *Project) Inputs() []Node       { return []Node{p.Input} }

func (p *Project) WithInputs(inputs []Node) Node {
	mustInputs("Project", inputs, 1)
	return NewProject(inputs[0], p.Exprs, p.Names)
}

func (p *Project) Digest() string {
	parts := make([]string, len(p.Exprs))
	for i, e := range p.Exprs {
		parts[i] = e.String()
	}
	return label("Project(%s)[%s]", strings.Join(parts, ", "), p.Input.Digest())
}

// IsTrivial reports whether the projection is the identity over its input.
func (p *Project) IsTrivial() bool {
	in := p.Input.Schema()
	if len(p.Exprs) != len(in) {
		return false
	}
	for i, e := range p.Exprs {
		c, ok := e.(*expr.ColRef)
		if !ok || c.Index != i {
			return false
		}
	}
	return true
}

// ---------------------------------------------------------------------------
// Join

// Join combines two inputs under a condition evaluated over the
// concatenated (left ++ right) row.
type Join struct {
	Left, Right Node
	Type        JoinType
	Cond        expr.Expr
	// FromCorrelate marks joins produced by subquery decorrelation. The
	// paper's FILTER_CORRELATE rule is what allows filters to be pushed
	// past such joins; without it (the IC baseline) pushdown stops here.
	FromCorrelate bool
	fields        types.Fields
}

// NewJoin builds a join.
func NewJoin(left, right Node, jt JoinType, cond expr.Expr) *Join {
	return &Join{Left: left, Right: right, Type: jt, Cond: cond,
		fields: jt.Fields(left.Schema(), right.Schema())}
}

func (j *Join) Schema() types.Fields { return j.fields }

func (j *Join) Inputs() []Node { return []Node{j.Left, j.Right} }

func (j *Join) WithInputs(inputs []Node) Node {
	mustInputs("Join", inputs, 2)
	nj := NewJoin(inputs[0], inputs[1], j.Type, j.Cond)
	nj.FromCorrelate = j.FromCorrelate
	return nj
}

func (j *Join) Digest() string {
	corr := ""
	if j.FromCorrelate {
		corr = ",corr"
	}
	return label("Join(%s%s,%s)[%s][%s]",
		j.Type, corr, j.Cond, j.Left.Digest(), j.Right.Digest())
}

// ---------------------------------------------------------------------------
// Aggregate

// Aggregate groups by column ordinals and computes aggregate calls. With
// no group columns it is a scalar aggregate producing exactly one row.
// With no calls it is DISTINCT over the group columns.
type Aggregate struct {
	Input   Node
	GroupBy []int
	Aggs    []expr.AggCall
	fields  types.Fields
}

// NewAggregate builds an aggregation.
func NewAggregate(input Node, groupBy []int, aggs []expr.AggCall) *Aggregate {
	in := input.Schema()
	fs := make(types.Fields, 0, len(groupBy)+len(aggs))
	for _, g := range groupBy {
		fs = append(fs, in[g])
	}
	for i, a := range aggs {
		name := a.Name
		if name == "" {
			name = fmt.Sprintf("agg%d", i)
		}
		fs = append(fs, types.Field{Name: strings.ToLower(name), Kind: a.Kind()})
	}
	return &Aggregate{Input: input, GroupBy: groupBy, Aggs: aggs, fields: fs}
}

func (a *Aggregate) Schema() types.Fields { return a.fields }
func (a *Aggregate) Inputs() []Node       { return []Node{a.Input} }

func (a *Aggregate) WithInputs(inputs []Node) Node {
	mustInputs("Aggregate", inputs, 1)
	return NewAggregate(inputs[0], a.GroupBy, a.Aggs)
}

func (a *Aggregate) Digest() string {
	groups := make([]string, len(a.GroupBy))
	for i, g := range a.GroupBy {
		groups[i] = strconv.Itoa(g)
	}
	return label("Aggregate(group=[%s],aggs=[%s])[%s]",
		strings.Join(groups, ","), expr.DescribeAggs(a.Aggs), a.Input.Digest())
}

// HasDistinct reports whether any call is DISTINCT (such aggregates cannot
// be split into distributed partials).
func (a *Aggregate) HasDistinct() bool {
	for _, c := range a.Aggs {
		if c.Distinct {
			return true
		}
	}
	return false
}

// ---------------------------------------------------------------------------
// Sort / Limit

// Sort orders its input.
type Sort struct {
	Input Node
	Keys  []types.SortKey
}

// NewSort builds a sort.
func NewSort(input Node, keys []types.SortKey) *Sort {
	return &Sort{Input: input, Keys: keys}
}

func (s *Sort) Schema() types.Fields { return s.Input.Schema() }
func (s *Sort) Inputs() []Node       { return []Node{s.Input} }

func (s *Sort) WithInputs(inputs []Node) Node {
	mustInputs("Sort", inputs, 1)
	return NewSort(inputs[0], s.Keys)
}

func (s *Sort) Digest() string {
	return label("Sort(%s)[%s]", DescribeKeys(s.Keys), s.Input.Digest())
}

// DescribeKeys renders sort keys for digests and EXPLAIN.
func DescribeKeys(keys []types.SortKey) string {
	if labelHook != nil {
		labelHook()
	}
	parts := make([]string, len(keys))
	for i, k := range keys {
		dir := "asc"
		if k.Desc {
			dir = "desc"
		}
		parts[i] = fmt.Sprintf("%d %s", k.Col, dir)
	}
	return strings.Join(parts, ",")
}

// Limit passes through at most N rows.
type Limit struct {
	Input Node
	N     int64
}

// NewLimit builds a limit.
func NewLimit(input Node, n int64) *Limit { return &Limit{Input: input, N: n} }

func (l *Limit) Schema() types.Fields { return l.Input.Schema() }
func (l *Limit) Inputs() []Node       { return []Node{l.Input} }

func (l *Limit) WithInputs(inputs []Node) Node {
	mustInputs("Limit", inputs, 1)
	return NewLimit(inputs[0], l.N)
}

func (l *Limit) Digest() string {
	return label("Limit(%d)[%s]", l.N, l.Input.Digest())
}

// ---------------------------------------------------------------------------
// Values

// Values is an inline relation of literal rows.
type Values struct {
	Rows   []types.Row
	fields types.Fields
}

// NewValues builds an inline relation.
func NewValues(fields types.Fields, rows []types.Row) *Values {
	return &Values{Rows: rows, fields: fields}
}

func (v *Values) Schema() types.Fields { return v.fields }
func (v *Values) Inputs() []Node       { return nil }

func (v *Values) WithInputs(inputs []Node) Node {
	mustInputs("Values", inputs, 0)
	return v
}

func (v *Values) Digest() string {
	return label("Values(%d rows, %s)", len(v.Rows), v.fields)
}

// ---------------------------------------------------------------------------
// Tree utilities

func mustInputs(node string, inputs []Node, want int) {
	if len(inputs) != want {
		panic(fmt.Sprintf("logical: %s.WithInputs got %d inputs, want %d",
			node, len(inputs), want))
	}
}

// Transform rewrites a plan bottom-up, applying fn to every node after its
// inputs have been rewritten.
func Transform(n Node, fn func(Node) Node) Node {
	inputs := n.Inputs()
	if len(inputs) > 0 {
		newInputs := make([]Node, len(inputs))
		changed := false
		for i, in := range inputs {
			newInputs[i] = Transform(in, fn)
			if newInputs[i] != in {
				changed = true
			}
		}
		if changed {
			n = n.WithInputs(newInputs)
		}
	}
	return fn(n)
}

// Walk visits every node top-down. Returning false from fn stops descent
// into that subtree.
func Walk(n Node, fn func(Node) bool) {
	if !fn(n) {
		return
	}
	for _, in := range n.Inputs() {
		Walk(in, fn)
	}
}

// CountJoins returns the number of join operators in a plan; the planner
// uses it for the paper's conditional disabling of join-permutation rules
// (>4 joins or >3 nested joins).
func CountJoins(n Node) int {
	count := 0
	Walk(n, func(m Node) bool {
		if _, ok := m.(*Join); ok {
			count++
		}
		return true
	})
	return count
}

// MaxJoinNesting returns the deepest chain of directly nested joins (a
// join whose input is a join counts as nesting).
func MaxJoinNesting(n Node) int {
	var depth func(Node) int
	depth = func(m Node) int {
		best := 0
		for _, in := range m.Inputs() {
			if d := depth(in); d > best {
				best = d
			}
		}
		if _, ok := m.(*Join); ok {
			return best + 1
		}
		return best
	}
	return depth(n)
}
