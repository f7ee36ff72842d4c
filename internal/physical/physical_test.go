package physical

import (
	"slices"
	"testing"

	"gignite/internal/catalog"
	"gignite/internal/expr"
	"gignite/internal/logical"
	"gignite/internal/types"
)

func scanFixture() *TableScan {
	t := &catalog.Table{
		Name: "emp",
		Columns: []catalog.Column{
			{Name: "id", Kind: types.KindInt},
			{Name: "dept", Kind: types.KindInt},
			{Name: "name", Kind: types.KindString},
		},
		PrimaryKey:  []string{"id"},
		AffinityKey: "id",
	}
	return NewTableScan(t, t.Fields())
}

// TestSatisfactionMatrix verifies Table 1 of the paper.
func TestSatisfactionMatrix(t *testing.T) {
	const sites = 4
	h := HashDist(0)
	cases := []struct {
		source, target Distribution
		want           bool
	}{
		{SingleDist, SingleDist, true},
		{SingleDist, BroadcastDist, false},
		{SingleDist, h, false},
		{BroadcastDist, SingleDist, true},
		{BroadcastDist, BroadcastDist, true},
		{BroadcastDist, h, true},
		{h, SingleDist, false},
		{h, BroadcastDist, false}, // hash never covers all sites at 4 sites
		{h, h, true},              // same hash function
		{h, HashDist(1), false},   // different keys
	}
	for _, c := range cases {
		if got := c.source.Satisfies(c.target, sites); got != c.want {
			t.Errorf("%s satisfies %s = %v, want %v", c.source, c.target, got, c.want)
		}
	}
	// The starred cases: a hash source covers a broadcast target only in
	// the degenerate one-site cluster.
	if !h.Satisfies(BroadcastDist, 1) {
		t.Error("hash should satisfy broadcast on a single site")
	}
	// Keyless hash cannot satisfy a keyed requirement.
	if (Distribution{Type: Hash}).Satisfies(h, sites) {
		t.Error("keyless hash satisfied keyed hash")
	}
}

func TestScanNaturalDistributions(t *testing.T) {
	s := scanFixture()
	if s.Dist().Type != Hash || s.Dist().Keys[0] != 0 {
		t.Errorf("partitioned scan dist = %s", s.Dist())
	}
	rep := &catalog.Table{
		Name:       "nation",
		Columns:    []catalog.Column{{Name: "n_nationkey", Kind: types.KindInt}},
		Replicated: true,
	}
	rs := NewTableScan(rep, rep.Fields())
	if rs.Dist().Type != Broadcast {
		t.Errorf("replicated scan dist = %s", rs.Dist())
	}
}

func TestIndexScanCollation(t *testing.T) {
	tbl := &catalog.Table{
		Name: "emp",
		Columns: []catalog.Column{
			{Name: "id", Kind: types.KindInt},
			{Name: "dept", Kind: types.KindInt},
		},
		PrimaryKey:  []string{"id"},
		AffinityKey: "id",
		Indexes:     []catalog.Index{{Name: "by_dept", Columns: []string{"dept", "id"}}},
	}
	s := NewIndexScan(tbl, &tbl.Indexes[0], tbl.Fields())
	coll := s.Collation()
	if len(coll) != 2 || coll[0].Col != 1 || coll[1].Col != 0 {
		t.Errorf("index collation = %v", coll)
	}
}

func TestProjectRemapsTraits(t *testing.T) {
	s := scanFixture()
	// Project(id, name): keeps the hash key at position 0.
	p := NewProject(s, []expr.Expr{
		expr.NewColRef(0, types.KindInt, "id"),
		expr.NewColRef(2, types.KindString, "name"),
	}, types.Fields{{Name: "id", Kind: types.KindInt}, {Name: "name", Kind: types.KindString}})
	if p.Dist().Type != Hash || p.Dist().Keys[0] != 0 {
		t.Errorf("project dist = %s", p.Dist())
	}
	// Project(name): drops the hash key → keyless hash.
	p2 := NewProject(s, []expr.Expr{expr.NewColRef(2, types.KindString, "name")},
		types.Fields{{Name: "name", Kind: types.KindString}})
	if p2.Dist().Type != Hash || len(p2.Dist().Keys) != 0 {
		t.Errorf("key-dropping project dist = %s", p2.Dist())
	}
}

func TestSortAndFilterTraits(t *testing.T) {
	s := scanFixture()
	f := NewFilter(s, expr.True)
	if f.Dist().String() != s.Dist().String() {
		t.Error("filter changed distribution")
	}
	keys := []types.SortKey{{Col: 1}}
	srt := NewSort(f, keys)
	if len(srt.Collation()) != 1 || srt.Collation()[0].Col != 1 {
		t.Errorf("sort collation = %v", srt.Collation())
	}
}

func TestExchangeMergeReceiverPreservesCollation(t *testing.T) {
	s := scanFixture()
	srt := NewSort(s, []types.SortKey{{Col: 0}})
	ex := NewExchange(srt, SingleDist)
	if ex.Dist().Type != Single {
		t.Errorf("exchange dist = %s", ex.Dist())
	}
	// The receiving side k-way-merges the per-sender streams, so the
	// input's ordering survives the hop.
	if !CollationSatisfies(ex.Collation(), srt.Keys) {
		t.Error("merge receiver dropped collation")
	}
}

func TestCollationSatisfies(t *testing.T) {
	ab := []types.SortKey{{Col: 0}, {Col: 1}}
	a := []types.SortKey{{Col: 0}}
	if !CollationSatisfies(ab, a) {
		t.Error("prefix not satisfied")
	}
	if CollationSatisfies(a, ab) {
		t.Error("shorter satisfied longer")
	}
	desc := []types.SortKey{{Col: 0, Desc: true}}
	if CollationSatisfies(ab, desc) {
		t.Error("direction ignored")
	}
}

// TestDeriveJoinDistributions verifies Table 2 plus the §5.1.1 mappings.
func TestDeriveJoinDistributions(t *testing.T) {
	keys := []expr.EquiKey{{Left: 0, Right: 1}}
	leftDist := HashDist(0)
	rightDist := HashDist(1)

	// Without the fully-distributed improvement: exactly Table 2.
	maps := DeriveJoinDistributions(logical.JoinInner, keys, 3, leftDist, rightDist, false)
	names := mappingNames(maps)
	want := []string{"single", "broadcast", "hash"}
	if !equalStrings(names, want) {
		t.Fatalf("baseline mappings = %v, want %v", names, want)
	}
	// The hash mapping requires co-located sources.
	h := maps[2]
	if h.Left.String() != "hash[0]" || h.Right.String() != "hash[1]" {
		t.Errorf("hash mapping sources = %s / %s", h.Left, h.Right)
	}
	if h.Target.String() != "hash[0]" {
		t.Errorf("hash mapping target = %s", h.Target)
	}

	// With §5.1.1: the two broadcast-one-side mappings appear.
	maps = DeriveJoinDistributions(logical.JoinInner, keys, 3, leftDist, rightDist, true)
	names = mappingNames(maps)
	want = []string{"single", "broadcast", "hash", "bcast-right", "bcast-left"}
	if !equalStrings(names, want) {
		t.Fatalf("extended mappings = %v, want %v", names, want)
	}
	// bcast-left target keys shift into the join output space.
	bl := maps[4]
	if bl.Target.String() != "hash[4]" { // right key 1 + leftW 3
		t.Errorf("bcast-left target = %s", bl.Target)
	}
	if bl.Left.Type != Broadcast {
		t.Errorf("bcast-left left source = %s", bl.Left)
	}

	// Non-equi join: no hash mapping, but bcast mappings still possible.
	maps = DeriveJoinDistributions(logical.JoinInner, nil, 3, leftDist, rightDist, true)
	names = mappingNames(maps)
	want = []string{"single", "broadcast", "bcast-right", "bcast-left"}
	if !equalStrings(names, want) {
		t.Fatalf("non-equi mappings = %v, want %v", names, want)
	}

	// Semi join: bcast-left is unsound (left duplication) and must be
	// filtered out; bcast-right remains.
	maps = DeriveJoinDistributions(logical.JoinSemi, keys, 3, leftDist, rightDist, true)
	for _, m := range maps {
		if m.Name == "bcast-left" {
			t.Error("bcast-left offered for a semi join")
		}
	}
	// Single-distribution left input: no bcast-right (nothing stays in
	// place).
	maps = DeriveJoinDistributions(logical.JoinInner, keys, 3, SingleDist, rightDist, true)
	for _, m := range maps {
		if m.Name == "bcast-right" {
			t.Error("bcast-right offered for a single-distribution left input")
		}
	}
}

func mappingNames(maps []DistMapping) []string {
	out := make([]string, len(maps))
	for i, m := range maps {
		out[i] = m.Name
	}
	return out
}

func equalStrings(a, b []string) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

func TestJoinSchemaAndSemiProjection(t *testing.T) {
	l := scanFixture()
	r := scanFixture()
	cond := expr.NewBinOp(expr.OpEq,
		expr.NewColRef(0, types.KindInt, ""), expr.NewColRef(3, types.KindInt, ""))
	inner := NewJoin(l, r, HashAlgo, logical.JoinInner, cond,
		[]expr.EquiKey{{Left: 0, Right: 0}}, SingleDist, "single", nil)
	if len(inner.Schema()) != 6 {
		t.Errorf("inner join width = %d", len(inner.Schema()))
	}
	semi := NewJoin(l, r, HashAlgo, logical.JoinSemi, cond,
		[]expr.EquiKey{{Left: 0, Right: 0}}, SingleDist, "single", nil)
	if len(semi.Schema()) != 3 {
		t.Errorf("semi join width = %d", len(semi.Schema()))
	}
}

func TestFormatIncludesTraits(t *testing.T) {
	s := scanFixture()
	f := NewFilter(s, expr.True)
	out := Format(f, Estimates)
	if out == "" || len(out) < 10 {
		t.Errorf("format = %q", out)
	}
}

// TestBindLeavesTheOperatorAlone: Bind compiles a fragment's
// placeholder-holding expressions with the arguments in place into a copy
// of the fragment's kernel table, which reuses the table's kernels for
// the rest, and writes neither the operators nor the table, so two
// executions binding different arguments each get their own.
func TestBindLeavesTheOperatorAlone(t *testing.T) {
	scan := scanFixture()
	id := expr.NewColRef(0, types.KindInt, "id")
	cond := expr.NewBinOp(expr.OpEq, id, expr.NewParam(0, types.KindInt))
	flt := NewFilter(scan, cond)
	proj := NewProject(flt, []expr.Expr{id, expr.NewBinOp(expr.OpAdd, id, expr.NewParam(0, types.KindInt))},
		types.Fields{{Name: "id", Kind: types.KindInt}, {Name: "x", Kind: types.KindInt}})
	if !HoldsParam(flt) || !HoldsParam(proj) || HoldsParam(scan) {
		t.Fatal("HoldsParam misses a placeholder or finds one in a scan")
	}
	ops, ids := Number(proj)
	table := Compile(nil, ops)
	params := []int{ids[proj], ids[flt]}
	was := kernelPointers(table)

	rows := []types.Row{{types.NewInt(7)}, {types.NewInt(9)}}
	for _, arg := range []int64{7, 9} {
		args := []types.Value{types.NewInt(arg)}
		bound, n := Bind(table, ops, params, args)
		if n != 2 {
			t.Errorf("bound to %d: compiled %d expressions, want the two holding the placeholder", arg, n)
		}
		if got := bound[ids[flt]].Pred.Select(nil, rows); len(got) != 1 || got[0][0].Int() != arg {
			t.Errorf("filter bound to %d selects %v", arg, got)
		}
		pk := bound[ids[proj]]
		if pk.Cols[0] != table[ids[proj]].Cols[0] || pk.Cols[1] == table[ids[proj]].Cols[1] {
			t.Errorf("project bound to %d: want only the placeholder's expression compiled anew", arg)
		}
		out := make([]types.Value, 1)
		pk.Cols[1].Fill(rows[:1], out, 1)
		if out[0].Int() != 7+arg {
			t.Errorf("project bound to %d computes %v, want %d", arg, out[0], 7+arg)
		}
	}
	if flt.Cond != cond || !slices.Equal(kernelPointers(table), was) {
		t.Error("Bind wrote the operators or the table it bound")
	}
}

// kernelPointers lists every kernel a table holds, in table order.
func kernelPointers(table []Kernels) []any {
	var out []any
	for _, k := range table {
		out = append(out, k.Pred)
		for _, c := range k.Cols {
			out = append(out, c)
		}
	}
	return out
}
