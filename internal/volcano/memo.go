package volcano

import (
	"gignite/internal/expr"
	"gignite/internal/logical"
	"gignite/internal/physical"
	"gignite/internal/types"
)

// This file is the memo: logical subplans are interned into groups by
// structure, and each group remembers the best physical plan found per
// required-traits value. Nothing here builds a string — Digest() and
// Req.String() are labels for EXPLAIN, errors and tests.

// group is one set of structurally identical logical subplans.
type group struct {
	// node is the first member interned; later members are Equal to it.
	node logical.Node
	// inputs are the groups of node's children (-1 where it has none).
	inputs [2]int
	// entries holds one result per distinct requirement asked of the
	// group. A group sees a handful of requirements, so a scan beats a map.
	entries []memoEntry
	// join holds a join group's requirement-independent derivations and
	// priced alternatives, made on its first search.
	join *joinGroup
}

// memoEntry is the outcome of optimizing a group under one requirement.
// The requirement is held by value: callers pass Req.Dist pointers into
// loop variables they go on to overwrite. The key slices inside it are
// shared, as everywhere in the planner — they are immutable once built
// (enforcers already alias them into the physical plan).
type memoEntry struct {
	hasDist bool
	dist    physical.Distribution
	coll    []types.SortKey
	plan    plan
	err     error
}

// matches is the allocation-free equality of a stored requirement and a
// requested one: same distribution type and hash keys, same collation.
func (e *memoEntry) matches(req Req) bool {
	if e.hasDist != (req.Dist != nil) || len(e.coll) != len(req.Coll) {
		return false
	}
	if e.hasDist && (e.dist.Type != req.Dist.Type ||
		e.dist.Type == physical.Hash && !e.dist.KeysEqual(*req.Dist)) {
		return false
	}
	for i, k := range e.coll {
		if k != req.Coll[i] {
			return false
		}
	}
	return true
}

// lookup returns the remembered outcome of (group, req), or nil.
func (p *Planner) lookup(g int, req Req) *memoEntry {
	entries := p.groups[g].entries
	for i := range entries {
		if entries[i].matches(req) {
			return &entries[i]
		}
	}
	return nil
}

// remember records the outcome of (group, req).
func (p *Planner) remember(g int, req Req, best plan, err error) {
	e := memoEntry{coll: req.Coll, plan: best, err: err}
	if req.Dist != nil {
		e.hasDist, e.dist = true, *req.Dist
	}
	p.groups[g].entries = append(p.groups[g].entries, e)
}

// testHooks are set only by this package's tests.
var testHooks struct {
	// constantHash makes every structural hash collide, so interning is
	// decided by sameOperator alone.
	constantHash bool
	// interned observes every distinct node pointer and its group.
	interned func(n logical.Node, group int)
}

// groupOf interns a logical subplan. A node seen before (by pointer) is
// answered from a map; a new one hashes its own fields together with its
// children's group ids, then confirms a hash match with sameOperator — so
// interning costs O(own fields) per distinct node, not O(subtree) per
// call, and a hash collision can never merge two different plans.
func (p *Planner) groupOf(n logical.Node) int {
	if id, ok := p.byNode[n]; ok {
		return id
	}
	inputs := [2]int{-1, -1}
	var h uint64 // seeded per operator type
	structural := true
	switch t := n.(type) {
	case *logical.Scan:
		h = expr.HashString(expr.HashString(1, t.Table.Name), t.Alias)
	case *logical.Values:
		h = expr.HashMix(2, uint64(len(t.Rows)))
		for _, f := range t.Schema() {
			h = expr.HashMix(expr.HashString(h, f.Name), uint64(f.Kind))
		}
		for _, row := range t.Rows {
			for _, v := range row {
				h = expr.HashValue(h, v)
			}
		}
	case *logical.Filter:
		inputs[0] = p.groupOf(t.Input)
		h = expr.HashMix(3, expr.Hash(t.Cond))
	case *logical.Project:
		inputs[0] = p.groupOf(t.Input)
		h = 4
		for _, e := range t.Exprs {
			h = expr.HashMix(h, expr.Hash(e))
		}
	case *logical.Join:
		inputs[0], inputs[1] = p.groupOf(t.Left), p.groupOf(t.Right)
		h = expr.HashMix(5, uint64(t.Type))
		if t.FromCorrelate {
			h = expr.HashMix(h, 1)
		}
		h = expr.HashMix(h, expr.Hash(t.Cond))
	case *logical.Aggregate:
		inputs[0] = p.groupOf(t.Input)
		h = 6
		for _, g := range t.GroupBy {
			h = expr.HashMix(h, uint64(g))
		}
		for _, a := range t.Aggs {
			h = expr.HashMix(h, a.Hash())
		}
	case *logical.Sort:
		inputs[0] = p.groupOf(t.Input)
		h = 7
		for _, k := range t.Keys {
			h = expr.HashMix(h, uint64(k.Col))
			if k.Desc {
				h = expr.HashMix(h, 1)
			}
			if k.NullsLast {
				h = expr.HashMix(h, 2)
			}
		}
	case *logical.Limit:
		inputs[0] = p.groupOf(t.Input)
		h = expr.HashMix(8, uint64(t.N))
	default:
		// An operator the planner does not know is a group of its own.
		structural = false
	}
	id := -1
	if structural {
		h = expr.HashMix(expr.HashMix(h, uint64(inputs[0])), uint64(inputs[1]))
		if testHooks.constantHash {
			h = 0
		}
		for _, cand := range p.byHash[h] {
			if g := &p.groups[cand]; g.inputs == inputs && sameOperator(g.node, n) {
				id = cand
				break
			}
		}
	}
	if id < 0 {
		id = len(p.groups)
		p.groups = append(p.groups, group{node: n, inputs: inputs})
		if structural {
			p.byHash[h] = append(p.byHash[h], id)
		}
	}
	p.byNode[n] = id
	if testHooks.interned != nil {
		testHooks.interned(n, id)
	}
	return id
}

// sameOperator reports whether two nodes are the same operator over
// whatever their inputs are (the caller compares input groups). It
// compares everything Digest() renders — so groups coincide with digests
// wherever the digest is faithful — and what Digest() drops: literal
// kinds (through expr.Equal), NullsLast, and the rows of a Values. Output
// labels (Project.Names, AggCall.Name) take no part, as in the digest:
// parents address columns by ordinal.
func sameOperator(a, b logical.Node) bool {
	switch x := a.(type) {
	case *logical.Scan:
		y, ok := b.(*logical.Scan)
		return ok && x.Table == y.Table && x.Alias == y.Alias
	case *logical.Values:
		y, ok := b.(*logical.Values)
		return ok && sameFields(x.Schema(), y.Schema()) && sameRows(x.Rows, y.Rows)
	case *logical.Filter:
		y, ok := b.(*logical.Filter)
		return ok && expr.Equal(x.Cond, y.Cond)
	case *logical.Project:
		y, ok := b.(*logical.Project)
		return ok && expr.EqualAll(x.Exprs, y.Exprs)
	case *logical.Join:
		y, ok := b.(*logical.Join)
		return ok && x.Type == y.Type && x.FromCorrelate == y.FromCorrelate &&
			expr.Equal(x.Cond, y.Cond)
	case *logical.Aggregate:
		y, ok := b.(*logical.Aggregate)
		if !ok || len(x.GroupBy) != len(y.GroupBy) || len(x.Aggs) != len(y.Aggs) {
			return false
		}
		for i, g := range x.GroupBy {
			if g != y.GroupBy[i] {
				return false
			}
		}
		for i, c := range x.Aggs {
			if !c.Equal(y.Aggs[i]) {
				return false
			}
		}
		return true
	case *logical.Sort:
		y, ok := b.(*logical.Sort)
		if !ok || len(x.Keys) != len(y.Keys) {
			return false
		}
		for i, k := range x.Keys {
			if k != y.Keys[i] {
				return false
			}
		}
		return true
	case *logical.Limit:
		y, ok := b.(*logical.Limit)
		return ok && x.N == y.N
	default:
		return false
	}
}

// sameFields compares two schemas by content, in O(1) when they are the
// same slice.
func sameFields(a, b types.Fields) bool {
	if len(a) != len(b) {
		return false
	}
	if len(a) == 0 || &a[0] == &b[0] {
		return true
	}
	for i, f := range a {
		if f != b[i] {
			return false
		}
	}
	return true
}

func sameRows(a, b []types.Row) bool {
	if len(a) != len(b) {
		return false
	}
	for i, row := range a {
		if len(row) != len(b[i]) {
			return false
		}
		for j, v := range row {
			if !expr.EqualValue(v, b[i][j]) {
				return false
			}
		}
	}
	return true
}
