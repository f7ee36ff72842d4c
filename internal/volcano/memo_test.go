package volcano

import (
	"testing"

	"gignite/internal/expr"
	"gignite/internal/logical"
	"gignite/internal/physical"
	"gignite/internal/types"
)

// TestGroupsSeparateWhatTheDigestDrops: Digest() does not render a sort
// key's NullsLast or the rows of a Values, so a digest-keyed memo planned
// the second of each pair as the first. Interning compares them.
func TestGroupsSeparateWhatTheDigestDrops(t *testing.T) {
	scan, _ := orderScan("t", 100, "a", "b")
	p := dpPlanner(canned{})

	keys := func(nullsLast bool) []types.SortKey {
		return []types.SortKey{{Col: 0, Desc: true, NullsLast: nullsLast}}
	}
	first, last := logical.NewSort(scan, keys(false)), logical.NewSort(scan, keys(true))
	if first.Digest() != last.Digest() {
		t.Fatalf("the lossy case moved: %s vs %s", first.Digest(), last.Digest())
	}
	if p.groupOf(first) == p.groupOf(last) {
		t.Error("sorts differing in NullsLast share a group")
	}
	if p.groupOf(first) != p.groupOf(logical.NewSort(scan, keys(false))) {
		t.Error("equal sorts built separately do not share a group")
	}

	fields := types.Fields{{Name: "x", Kind: types.KindInt}}
	values := func(vs ...types.Value) *logical.Values {
		rows := make([]types.Row, len(vs))
		for i, v := range vs {
			rows[i] = types.Row{v}
		}
		return logical.NewValues(fields, rows)
	}
	a := values(types.NewInt(1), types.NewInt(2))
	b := values(types.NewInt(1), types.NewInt(3))
	c := values(types.NewInt(1), types.NewFloat(2))
	if a.Digest() != b.Digest() || a.Digest() != c.Digest() {
		t.Fatalf("the lossy case moved: %s, %s, %s", a.Digest(), b.Digest(), c.Digest())
	}
	if p.groupOf(a) == p.groupOf(b) || p.groupOf(a) == p.groupOf(c) {
		t.Error("Values of equal shape and different rows share a group")
	}
	if p.groupOf(a) != p.groupOf(values(types.NewInt(1), types.NewInt(2))) {
		t.Error("equal Values built separately do not share a group")
	}
}

// TestGroupsFollowInputs: the same operator over different inputs is a
// different group, over equal inputs built separately the same one — and
// a node met again is answered by pointer.
func TestGroupsFollowInputs(t *testing.T) {
	s1, _ := orderScan("t", 100, "a", "b")
	s2, _ := orderScan("u", 100, "a", "b")
	cond := func() expr.Expr {
		return expr.NewBinOp(expr.OpGt, expr.NewColRef(0, types.KindInt, "a"), expr.NewLit(types.NewInt(5)))
	}
	p := dpPlanner(canned{})
	f1 := logical.NewFilter(s1, cond())
	if p.groupOf(f1) == p.groupOf(logical.NewFilter(s2, cond())) {
		t.Error("one filter over two tables shares a group")
	}
	again := logical.NewFilter(logical.NewScan(s1.Table, s1.Alias), cond())
	if p.groupOf(f1) != p.groupOf(again) {
		t.Error("equal subplans built separately do not share a group")
	}
	if p.groupOf(s1) == p.groupOf(logical.NewScan(s1.Table, "other")) {
		t.Error("two aliases of one table share a group")
	}
	groups := len(p.groups)
	if p.groupOf(f1) != p.groupOf(f1) || len(p.groups) != groups {
		t.Error("interning a node twice made a group")
	}
}

// TestMemoEntriesCompareRequirementsByValue: a requirement is found again
// through a different pointer to an equal distribution, survives its
// caller overwriting the one it passed, and differs by collation,
// distribution type and hash keys.
func TestMemoEntriesCompareRequirementsByValue(t *testing.T) {
	scan, _ := orderScan("t", 100, "a", "b")
	p := dpPlanner(canned{})
	g := p.groupOf(scan)

	dist := physical.HashDist(0, 1)
	coll := []types.SortKey{{Col: 1}}
	node := physical.NewValues(nil, nil)
	p.remember(g, Req{Dist: &dist, Coll: coll}, plan{node: node}, nil)
	dist = physical.SingleDist // the caller's variable moves on

	same := physical.HashDist(0, 1)
	if e := p.lookup(g, Req{Dist: &same, Coll: []types.SortKey{{Col: 1}}}); e == nil || e.plan.node != node {
		t.Error("an equal requirement was not found")
	}
	otherKeys, single := physical.HashDist(1, 0), physical.SingleDist
	for what, req := range map[string]Req{
		"no requirement":     anyReq,
		"no distribution":    {Coll: coll},
		"no collation":       {Dist: &same},
		"other hash keys":    {Dist: &otherKeys, Coll: coll},
		"other distribution": {Dist: &single, Coll: coll},
		"descending":         {Dist: &same, Coll: []types.SortKey{{Col: 1, Desc: true}}},
		"nulls last":         {Dist: &same, Coll: []types.SortKey{{Col: 1, NullsLast: true}}},
	} {
		if p.lookup(g, req) != nil {
			t.Errorf("%s matched the remembered requirement", what)
		}
	}
}
