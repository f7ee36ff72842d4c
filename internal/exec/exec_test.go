package exec

import (
	"errors"
	"fmt"
	"slices"
	"sort"
	"testing"
	"testing/quick"

	"gignite/internal/catalog"
	"gignite/internal/expr"
	"gignite/internal/fragment"
	"gignite/internal/logical"
	"gignite/internal/physical"
	"gignite/internal/storage"
	"gignite/internal/types"
)

func testStore(t testing.TB, sites int) *storage.Store {
	t.Helper()
	cat := catalog.New()
	err := cat.AddTable(&catalog.Table{
		Name: "t",
		Columns: []catalog.Column{
			{Name: "id", Kind: types.KindInt},
			{Name: "grp", Kind: types.KindInt},
			{Name: "val", Kind: types.KindFloat},
		},
		PrimaryKey: []string{"id"},
		Indexes:    []catalog.Index{{Name: "t_grp", Columns: []string{"grp"}}},
	})
	if err != nil {
		t.Fatal(err)
	}
	st := storage.NewReplicatedStore(cat, sites, 0)
	rows := make([]types.Row, 60)
	for i := range rows {
		rows[i] = types.Row{
			types.NewInt(int64(i)),
			types.NewInt(int64(i % 5)),
			types.NewFloat(float64(i) * 1.5),
		}
	}
	if err := st.Load("t", rows); err != nil {
		t.Fatal(err)
	}
	if err := st.BuildIndexes("t"); err != nil {
		t.Fatal(err)
	}
	return st
}

func scanNode(t *testing.T, st *storage.Store) *physical.TableScan {
	t.Helper()
	td, err := st.Table("t")
	if err != nil {
		t.Fatal(err)
	}
	return physical.NewTableScan(td.Def, td.Def.Fields())
}

func ctxAt(st *storage.Store, site int) *Context {
	return &Context{Store: st, Site: site, Host: site, NVariants: 1}
}

// publish lays batches out on exchange ex by target site, over the given
// number of sites, in the order given, as the scheduler's wave barrier
// does with surviving attempts' Sent: the published batches point into
// batches.
func publish(sites, ex int, batches ...Batch) [][][]*Batch {
	out := make([][][]*Batch, ex+1)
	out[ex] = make([][]*Batch, sites)
	for i := range batches {
		b := &batches[i]
		out[ex][b.ToSite] = append(out[ex][b.ToSite], b)
	}
	return out
}

// runPlan runs a hand-built plan as one instance, with the operator ids
// (unless ctx has its own) and kernels fragment.Split gives a fragment:
// physical.Number and physical.Compile.
func runPlan(n physical.Node, ctx *Context) ([]types.Row, error) {
	ops, ids := physical.Number(n)
	if ctx.OpIDs == nil {
		ctx.OpIDs = ids
		defer func() { ctx.OpIDs = nil }()
	}
	ctx.Kernels = physical.Compile(nil, ops)
	return Run(n, ctx)
}

func TestScanFilterProject(t *testing.T) {
	st := testStore(t, 2)
	scan := scanNode(t, st)
	filter := physical.NewFilter(scan, expr.NewBinOp(expr.OpLt,
		expr.NewColRef(0, types.KindInt, ""), expr.NewLit(types.NewInt(10))))
	proj := physical.NewProject(filter,
		[]expr.Expr{expr.NewBinOp(expr.OpMul,
			expr.NewColRef(0, types.KindInt, ""), expr.NewLit(types.NewInt(2)))},
		types.Fields{{Name: "dbl", Kind: types.KindInt}})
	var total int
	for site := 0; site < 2; site++ {
		rows, err := runPlan(proj, ctxAt(st, site))
		if err != nil {
			t.Fatal(err)
		}
		for _, r := range rows {
			if r[0].Int()%2 != 0 || r[0].Int() >= 20 {
				t.Fatalf("bad projected value %v", r[0])
			}
		}
		total += len(rows)
	}
	if total != 10 {
		t.Errorf("filtered rows = %d, want 10", total)
	}
}

func TestSortAndLimit(t *testing.T) {
	st := testStore(t, 1)
	scan := scanNode(t, st)
	sorted := physical.NewSort(scan, []types.SortKey{{Col: 2, Desc: true}})
	lim := physical.NewLimit(sorted, 3)
	rows, err := runPlan(lim, ctxAt(st, 0))
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 3 || rows[0][2].Float() != 59*1.5 {
		t.Errorf("top rows = %v", rows)
	}
}

func TestHashAggregateSitewise(t *testing.T) {
	st := testStore(t, 1)
	scan := scanNode(t, st)
	agg := physical.NewHashAggregate(scan, []int{1},
		[]expr.AggCall{
			{Func: expr.AggCount, Name: "n"},
			{Func: expr.AggSum, Arg: expr.NewColRef(0, types.KindInt, ""), Name: "s"},
		}, physical.AggSinglePhase,
		types.Fields{{Name: "grp", Kind: types.KindInt}, {Name: "n", Kind: types.KindInt},
			{Name: "s", Kind: types.KindInt}})
	rows, err := runPlan(agg, ctxAt(st, 0))
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 5 {
		t.Fatalf("groups = %d", len(rows))
	}
	for _, r := range rows {
		if r[1].Int() != 12 {
			t.Errorf("group %v count = %v", r[0], r[1])
		}
	}
}

func TestScalarAggregateEmptyInput(t *testing.T) {
	fields := types.Fields{{Name: "n", Kind: types.KindInt}}
	agg := physical.NewHashAggregate(physical.NewValues(nil, nil), nil,
		[]expr.AggCall{{Func: expr.AggCount}}, physical.AggSinglePhase, fields)
	rows, err := runPlan(agg, ctxAt(testStore(t, 1), 0))
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 1 || rows[0][0].Int() != 0 {
		t.Errorf("empty scalar agg = %v", rows)
	}
}

// joinFixture builds left/right row sets with controlled key overlap and
// NULL keys on both sides.
func joinFixture(n int) (left, right []types.Row) {
	for i := 0; i < n; i++ {
		k := types.NewInt(int64(i % 7))
		if i%11 == 3 {
			k = types.Null
		}
		left = append(left, types.Row{k, types.NewInt(int64(i))})
	}
	for i := 0; i < n/2; i++ {
		k := types.NewInt(int64(i % 5))
		if i%6 == 2 {
			k = types.Null
		}
		right = append(right, types.Row{k, types.NewFloat(float64(i))})
	}
	return left, right
}

// mkJoin joins (k, a) with (k2, b) on k = k2 AND a > b: one equi key plus
// a residual non-equi condition.
func mkJoin(algo physical.JoinAlgo, jt logical.JoinType) *physical.Join {
	l := physical.NewValues(types.Fields{{Name: "k", Kind: types.KindInt},
		{Name: "a", Kind: types.KindInt}}, nil)
	r := physical.NewValues(types.Fields{{Name: "k2", Kind: types.KindInt},
		{Name: "b", Kind: types.KindFloat}}, nil)
	cond := expr.NewBinOp(expr.OpAnd,
		expr.NewBinOp(expr.OpEq,
			expr.NewColRef(0, types.KindInt, ""), expr.NewColRef(2, types.KindInt, "")),
		expr.NewBinOp(expr.OpGt,
			expr.NewColRef(1, types.KindInt, ""), expr.NewColRef(3, types.KindFloat, "")))
	return physical.NewJoin(l, r, algo, jt, cond,
		[]expr.EquiKey{{Left: 0, Right: 0}}, physical.SingleDist, "single", nil)
}

// runJoin feeds left and right to j's Values inputs and runs it.
func runJoin(j *physical.Join, left, right []types.Row, ctx *Context) ([]types.Row, error) {
	j.Inputs()[0].(*physical.Values).Rows = left
	j.Inputs()[1].(*physical.Values).Rows = right
	return runPlan(j, ctx)
}

func sortRows(rows []types.Row) []string {
	out := renderRows(rows)
	sort.Strings(out)
	return out
}

func renderRows(rows []types.Row) []string {
	out := make([]string, len(rows))
	for i, r := range rows {
		out[i] = r.String()
	}
	return out
}

// hashBothSides runs the hash join building on the right and on the left
// and requires order-identical output (the adaptive re-planner flips the
// build side mid-query on that guarantee); it returns the build-right rows.
func hashBothSides(t testing.TB, st *storage.Store, jt logical.JoinType, left, right []types.Row) []types.Row {
	t.Helper()
	hj, err := runJoin(mkJoin(physical.HashAlgo, jt), left, right, ctxAt(st, 0))
	if err != nil {
		t.Fatal(err)
	}
	swapped := mkJoin(physical.HashAlgo, jt)
	bl, err := runJoin(swapped, left, right, swapBuild(ctxAt(st, 0), swapped))
	if err != nil {
		t.Fatal(err)
	}
	if got, want := renderRows(bl), renderRows(hj); !slices.Equal(got, want) {
		t.Fatalf("%s: build-left output differs from build-right:\n got %v\nwant %v", jt, got, want)
	}
	return hj
}

// TestJoinAlgorithmsAgree: NLJ, hash (either build side) and merge joins
// must produce identical results for every join type on the same inputs.
func TestJoinAlgorithmsAgree(t *testing.T) {
	st := testStore(t, 1)
	left, right := joinFixture(40)
	// Merge join needs sorted inputs (NULL keys first).
	byKey := []types.SortKey{{Col: 0}}
	sortedLeft := append([]types.Row(nil), left...)
	sort.SliceStable(sortedLeft, func(a, b int) bool {
		return types.CompareRows(sortedLeft[a], sortedLeft[b], byKey) < 0
	})
	sortedRight := append([]types.Row(nil), right...)
	sort.SliceStable(sortedRight, func(a, b int) bool {
		return types.CompareRows(sortedRight[a], sortedRight[b], byKey) < 0
	})
	for _, jt := range []logical.JoinType{logical.JoinInner, logical.JoinLeft,
		logical.JoinSemi, logical.JoinAnti} {
		nlj, err := runJoin(mkJoin(physical.NestedLoop, jt), left, right, ctxAt(st, 0))
		if err != nil {
			t.Fatal(err)
		}
		hj := hashBothSides(t, st, jt, left, right)
		mj, err := runJoin(mkJoin(physical.Merge, jt), sortedLeft, sortedRight, ctxAt(st, 0))
		if err != nil {
			t.Fatal(err)
		}
		sn, sh, sm := sortRows(nlj), sortRows(hj), sortRows(mj)
		if len(sn) == 0 || len(sn) != len(sh) || len(sn) != len(sm) {
			t.Fatalf("%s: row counts nlj=%d hash=%d merge=%d", jt, len(sn), len(sh), len(sm))
		}
		for i := range sn {
			if sn[i] != sh[i] || sn[i] != sm[i] {
				t.Fatalf("%s row %d: nlj=%s hash=%s merge=%s", jt, i, sn[i], sh[i], sm[i])
			}
		}
	}
}

// TestJoinEquivalenceProperty fuzz-checks hash (either build side) vs NLJ
// join equivalence on random key sets; key 7 stands for NULL.
func TestJoinEquivalenceProperty(t *testing.T) {
	st := testStore(t, 1)
	key := func(k uint8) types.Value {
		if k%8 == 7 {
			return types.Null
		}
		return types.NewInt(int64(k % 8))
	}
	f := func(lk, rk []uint8) bool {
		var left, right []types.Row
		for i, k := range lk {
			left = append(left, types.Row{key(k), types.NewInt(int64(i))})
		}
		for i, k := range rk {
			right = append(right, types.Row{key(k), types.NewFloat(float64(i))})
		}
		for _, jt := range []logical.JoinType{logical.JoinInner, logical.JoinLeft,
			logical.JoinSemi, logical.JoinAnti} {
			nlj, err := runJoin(mkJoin(physical.NestedLoop, jt), left, right, ctxAt(st, 0))
			if err != nil {
				return false
			}
			if !slices.Equal(sortRows(nlj), sortRows(hashBothSides(t, st, jt, left, right))) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Error(err)
	}
}

func TestSenderRouting(t *testing.T) {
	st := testStore(t, 4)
	rows := []types.Row{}
	for i := 0; i < 40; i++ {
		rows = append(rows, types.Row{types.NewInt(int64(i)), types.NewInt(1)})
	}
	fields := types.Fields{{Name: "k", Kind: types.KindInt}, {Name: "v", Kind: types.KindInt}}
	// A Sender ships one batch per target site, into a Sent sized for
	// exactly that many.
	perTarget := func(ctx *Context, targets int) {
		t.Helper()
		if len(ctx.Sent) != targets || cap(ctx.Sent) != targets {
			t.Errorf("sent %d batches (capacity %d), want one per target, %d", len(ctx.Sent), cap(ctx.Sent), targets)
		}
	}

	// Single: everything to site 0.
	vals := physical.NewValues(fields, rows)
	s := physical.NewSender(vals, 7, physical.SingleDist)
	ctx := &Context{Store: st, Site: 2, Host: 2, NVariants: 1}
	if _, err := runPlan(s, ctx); err != nil {
		t.Fatal(err)
	}
	perTarget(ctx, 1)
	sent := publish(4, 7, ctx.Sent...)
	if got := len(sent[7][0]); got != 1 {
		t.Errorf("single target batches at site 0 = %d", got)
	}
	for site := 1; site < 4; site++ {
		if len(sent[7][site]) != 0 {
			t.Errorf("single target leaked to site %d", site)
		}
	}

	// Broadcast: a full copy everywhere.
	s = physical.NewSender(physical.NewValues(fields, rows), 8, physical.BroadcastDist)
	ctx = &Context{Store: st, Site: 0, NVariants: 1}
	if _, err := runPlan(s, ctx); err != nil {
		t.Fatal(err)
	}
	perTarget(ctx, 4)
	sent = publish(4, 8, ctx.Sent...)
	for site := 0; site < 4; site++ {
		batches := sent[8][site]
		if len(batches) != 1 || len(batches[0].Rows) != 40 {
			t.Errorf("broadcast site %d got %d batches", site, len(batches))
		}
	}

	// Hash: partitioned disjointly and completely, consistent with the
	// storage placement function.
	s = physical.NewSender(physical.NewValues(fields, rows), 9, physical.HashDist(0))
	ctx = &Context{Store: st, Site: 0, NVariants: 1}
	if _, err := runPlan(s, ctx); err != nil {
		t.Fatal(err)
	}
	perTarget(ctx, 4)
	sent = publish(4, 9, ctx.Sent...)
	seen := 0
	for site := 0; site < 4; site++ {
		for _, b := range sent[9][site] {
			for _, r := range b.Rows {
				if storage.PartitionOf(r[0], 4) != site {
					t.Errorf("row %v routed to wrong site %d", r, site)
				}
				seen++
			}
		}
	}
	if seen != 40 {
		t.Errorf("hash routing lost rows: %d", seen)
	}
}

// TestSplitterPartitionProperty: the §5.3.2 splitter must partition the
// source completely and disjointly across variants.
func TestSplitterPartitionProperty(t *testing.T) {
	st := testStore(t, 1)
	scan := scanNode(t, st)
	f := func(nRaw uint8) bool {
		n := int(nRaw%4) + 2
		modes := map[physical.Node]fragment.SourceMode{scan: fragment.SplitMode}
		seen := map[int64]int{}
		for v := 0; v < n; v++ {
			ctx := &Context{Store: st, Site: 0, Variant: v, NVariants: n, Modes: modes}
			tracked(ctx, scan)
			rows, err := runPlan(scan, ctx)
			if err != nil {
				return false
			}
			for _, r := range rows {
				seen[r[0].Int()]++
			}
		}
		if len(seen) != 60 {
			return false
		}
		for _, c := range seen {
			if c != 1 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 20}); err != nil {
		t.Error(err)
	}
}

func TestDuplicatorReplaysAll(t *testing.T) {
	st := testStore(t, 1)
	scan := scanNode(t, st)
	modes := map[physical.Node]fragment.SourceMode{scan: fragment.DuplicateMode}
	for v := 0; v < 2; v++ {
		ctx := &Context{Store: st, Site: 0, Variant: v, NVariants: 2, Modes: modes}
		rows, err := runPlan(scan, ctx)
		if err != nil {
			t.Fatal(err)
		}
		if len(rows) != 60 {
			t.Errorf("variant %d saw %d rows, want all 60", v, len(rows))
		}
	}
}

// TestReceiveReturnsCopy: receivers read the published stream in place,
// so nothing a consumer does to the rows it is handed — re-sorting them,
// or merging them — may change what a second receiver of the same
// (exchange, site) stream sees (variant fragments receive it once per
// variant).
func TestReceiveReturnsCopy(t *testing.T) {
	st := testStore(t, 1)
	fields := types.Fields{{Name: "k", Kind: types.KindInt}}
	batches := []Batch{
		{Rows: []types.Row{{types.NewInt(1)}, {types.NewInt(3)}}},
		{Rows: []types.Row{{types.NewInt(2)}, {types.NewInt(4)}}},
	}
	ex := publish(1, 1, batches...)

	desc := []types.SortKey{{Col: 0, Desc: true}}
	plain := physical.NewReceiver(physical.NewExchange(physical.NewValues(fields, nil), physical.SingleDist), 1)
	merging := physical.NewReceiver(physical.NewExchange(physical.NewSort(
		physical.NewValues(fields, nil), desc), physical.SingleDist), 1)
	for _, n := range []physical.Node{physical.NewSort(plain, desc), merging} {
		rows, err := runPlan(n, &Context{Store: st, Exchanges: ex, Site: 0, NVariants: 2})
		if err != nil {
			t.Fatal(err)
		}
		if len(rows) != 4 || rows[0][0].Int() != 4 {
			t.Fatalf("re-sorting consumer got %v", rows)
		}
	}

	stream := ex[1][0]
	if len(stream) != 2 || stream[0] != &batches[0] || stream[1] != &batches[1] {
		t.Fatalf("published stream changed: %v", stream)
	}
	rows, err := runPlan(plain, &Context{Store: st, Exchanges: ex, Site: 0, Variant: 1, NVariants: 2})
	if err != nil {
		t.Fatal(err)
	}
	want := []int64{1, 3, 2, 4}
	if len(rows) != len(want) {
		t.Fatalf("second receiver sees %d rows", len(rows))
	}
	for i, r := range rows {
		if r[0].Int() != want[i] {
			t.Fatalf("second receiver corrupted: %v, want %v", rows, want)
		}
	}
}

// TestReceiveDeterministicOrder: a receiver streams its published batches
// in the order the barrier publishes them — (sender site, sender variant)
// — so row order downstream does not depend on which sender finished
// first.
func TestReceiveDeterministicOrder(t *testing.T) {
	st := testStore(t, 1)
	fields := types.Fields{{Name: "k", Kind: types.KindInt}}
	var batches []Batch
	for _, from := range [][2]int{{0, 0}, {0, 1}, {1, 0}, {2, 0}} {
		batches = append(batches, Batch{Rows: []types.Row{{types.NewInt(int64(10*from[0] + from[1]))}}})
	}
	recv := physical.NewReceiver(physical.NewExchange(physical.NewValues(fields, nil), physical.SingleDist), 5)
	for run := 0; run < 3; run++ {
		rows, err := runPlan(recv, &Context{Store: st, Exchanges: publish(1, 5, batches...), Site: 0, NVariants: 1})
		if err != nil {
			t.Fatal(err)
		}
		want := []int64{0, 1, 10, 20}
		if len(rows) != len(want) {
			t.Fatalf("rows = %d, want %d", len(rows), len(want))
		}
		for i, r := range rows {
			if r[0].Int() != want[i] {
				t.Fatalf("row %d from sender %d, want %d (rows %v)", i, r[0].Int(), want[i], rows)
			}
		}
	}
}

func TestMergingReceiverOrders(t *testing.T) {
	st := testStore(t, 1)
	keys := []types.SortKey{{Col: 0}}
	// Two senders ship sorted runs.
	ex := publish(1, 3, Batch{Rows: []types.Row{
		{types.NewInt(1)}, {types.NewInt(4)}, {types.NewInt(9)}}},
		Batch{Rows: []types.Row{
			{types.NewInt(2)}, {types.NewInt(3)}, {types.NewInt(8)}}})
	exch := physical.NewExchange(physical.NewSort(
		physical.NewValues(types.Fields{{Name: "k", Kind: types.KindInt}}, nil), keys),
		physical.SingleDist)
	recv := physical.NewReceiver(exch, 3)
	rows, err := runPlan(recv, &Context{Store: st, Exchanges: ex, Site: 0, NVariants: 1})
	if err != nil {
		t.Fatal(err)
	}
	for i := 1; i < len(rows); i++ {
		if rows[i-1][0].Int() > rows[i][0].Int() {
			t.Fatalf("merge receiver out of order: %v", rows)
		}
	}
	if len(rows) != 6 {
		t.Errorf("rows = %d", len(rows))
	}
}

func TestWorkLimitAborts(t *testing.T) {
	st := testStore(t, 1)
	left, right := joinFixture(200)
	j := mkJoin(physical.NestedLoop, logical.JoinInner)
	ctx := ctxAt(st, 0)
	ctx.WorkLimit = 10
	_, err := runJoin(j, left, right, ctx)
	if !errors.Is(err, ErrWorkLimit) {
		t.Errorf("err = %v, want work limit", err)
	}
}

// TestSortRejectsBeforeFinish: a sort owes n·RPTC + n·log2 n·RCC at
// finish, so once that would cross the work limit it fails on the push
// that shows it, without buffering the rest of its input.
func TestSortRejectsBeforeFinish(t *testing.T) {
	st := testStore(t, 1)
	const n = 10000
	sorted := physical.NewSort(physical.NewValues(kvFields, kvRows(n)), []types.SortKey{{Col: 1}})
	ctx := ctxAt(st, 0)
	ctx.WorkLimit = 1e5
	tracked(ctx, sorted)
	if _, err := runPlan(sorted, ctx); !errors.Is(err, ErrWorkLimit) {
		t.Fatalf("err = %v, want work limit", err)
	}
	if in := statsOf(ctx, sorted).RowsIn; in >= n {
		t.Errorf("sort took in %d rows, want it to stop before all %d", in, n)
	}
}

func TestRowLimitAborts(t *testing.T) {
	st := testStore(t, 1)
	// A join with massive fan-out (all keys equal).
	var left, right []types.Row
	for i := 0; i < 300; i++ {
		left = append(left, types.Row{types.NewInt(1), types.NewInt(int64(i))})
		right = append(right, types.Row{types.NewInt(1), types.NewFloat(float64(i))})
	}
	j := mkJoin(physical.HashAlgo, logical.JoinInner)
	ctx := ctxAt(st, 0)
	ctx.WorkLimit = 1e12
	ctx.RowLimit = 5000
	_, err := runJoin(j, left, right, ctx)
	if !errors.Is(err, ErrWorkLimit) {
		t.Errorf("err = %v, want row-limit abort", err)
	}
}

func TestSortAggregateMatchesHash(t *testing.T) {
	st := testStore(t, 1)
	var in []types.Row
	for i := 0; i < 50; i++ {
		in = append(in, types.Row{types.NewInt(int64(i / 10)), types.NewFloat(float64(i))})
	}
	aggs := []expr.AggCall{
		{Func: expr.AggSum, Arg: expr.NewColRef(1, types.KindFloat, ""), Name: "s"},
		{Func: expr.AggMin, Arg: expr.NewColRef(1, types.KindFloat, ""), Name: "m"},
	}
	inFields := types.Fields{{Name: "k", Kind: types.KindInt}, {Name: "v", Kind: types.KindFloat}}
	outFields := types.Fields{{Name: "k", Kind: types.KindInt},
		{Name: "s", Kind: types.KindFloat}, {Name: "m", Kind: types.KindFloat}}
	h, err := runPlan(physical.NewHashAggregate(physical.NewValues(inFields, in), []int{0}, aggs,
		physical.AggSinglePhase, outFields), ctxAt(st, 0))
	if err != nil {
		t.Fatal(err)
	}
	s, err := runPlan(physical.NewSortAggregate(physical.NewValues(inFields, in), []int{0}, aggs,
		physical.AggSinglePhase, outFields), ctxAt(st, 0))
	if err != nil {
		t.Fatal(err)
	}
	hs, ss := sortRows(h), sortRows(s)
	if fmt.Sprint(hs) != fmt.Sprint(ss) {
		t.Errorf("hash %v vs sort %v", hs, ss)
	}
}

// TestJoinResidual: a hash or merge join tests per candidate only what its
// key match has not verified. A join whose condition is exactly its keys
// tests nothing (its residual is nil) and still agrees with the nested
// loop, which verifies no keys and tests the whole condition; a
// condition whose equi conjuncts are not exactly the keys stays whole.
func TestJoinResidual(t *testing.T) {
	st := testStore(t, 1)
	left, right := joinFixture(40)
	byKey := []types.SortKey{{Col: 0}}
	sorted := func(rows []types.Row) []types.Row {
		out := append([]types.Row(nil), rows...)
		sort.SliceStable(out, func(a, b int) bool { return types.CompareRows(out[a], out[b], byKey) < 0 })
		return out
	}
	keysOnly := func(algo physical.JoinAlgo, jt logical.JoinType) *physical.Join {
		j := mkJoin(algo, jt)
		j.Cond = bin(expr.OpEq, col(0), col(2))
		return j
	}
	for _, jt := range []logical.JoinType{logical.JoinInner, logical.JoinLeft, logical.JoinSemi, logical.JoinAnti} {
		nl := keysOnly(physical.NestedLoop, jt)
		want, err := runJoin(nl, left, right, ctxAt(st, 0))
		if err != nil {
			t.Fatal(err)
		}
		if r := nl.ResidualCond(); r != nl.Cond {
			t.Errorf("%s nested loop: residual %v, want the whole condition", jt, r)
		}
		for _, algo := range []physical.JoinAlgo{physical.HashAlgo, physical.Merge} {
			j := keysOnly(algo, jt)
			l, r := left, right
			if algo == physical.Merge {
				l, r = sorted(left), sorted(right)
			}
			got, err := runJoin(j, l, r, ctxAt(st, 0))
			if err != nil {
				t.Fatal(err)
			}
			if r := j.ResidualCond(); r != nil || physical.Compile(nil, []physical.Node{j})[0].Pred != nil {
				t.Errorf("%s %s join on its keys alone tests %s per candidate", jt, algo, r)
			}
			if !slices.Equal(sortRows(got), sortRows(want)) {
				t.Errorf("%s %s join differs from the nested loop", jt, algo)
			}
		}
	}
	withResidual := mkJoin(physical.HashAlgo, logical.JoinInner)
	if got := withResidual.ResidualCond().String(); got != "($1 > $3)" {
		t.Errorf("residual of %s is %s, want ($1 > $3)", withResidual.Cond, got)
	}
	unmatched := mkJoin(physical.HashAlgo, logical.JoinInner)
	unmatched.Cond = bin(expr.OpAnd, bin(expr.OpEq, col(0), col(2)), bin(expr.OpEq, col(1), col(3)))
	if r := unmatched.ResidualCond(); r != unmatched.Cond {
		t.Errorf("keys %v do not reproduce %s, yet its residual is %s", unmatched.Keys, unmatched.Cond, r)
	}
}
