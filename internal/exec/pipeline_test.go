package exec

import (
	"fmt"
	"slices"
	"sort"
	"testing"

	"gignite/internal/catalog"
	"gignite/internal/cost"
	"gignite/internal/expr"
	"gignite/internal/fragment"
	"gignite/internal/logical"
	"gignite/internal/obs"
	"gignite/internal/physical"
	"gignite/internal/storage"
	"gignite/internal/types"
)

// seamBatch is the batch size the seam tests run at.
const seamBatch = 8

// seamSizes are the input sizes that put a batch boundary everywhere it
// can fall: no rows, one row, one short of a batch, exactly one, one
// over, and several batches plus a ragged tail.
var seamSizes = []int{0, 1, seamBatch - 1, seamBatch, seamBatch + 1, 3*seamBatch + 7}

var kvFields = types.Fields{{Name: "k", Kind: types.KindInt}, {Name: "v", Kind: types.KindInt}}

// kvRows builds n (k, v) rows: k cycles through 0..6 with a NULL every
// eleventh row, v counts up.
func kvRows(n int) []types.Row {
	rows := make([]types.Row, n)
	for i := range rows {
		k := types.NewInt(int64(i % 7))
		if i%11 == 3 {
			k = types.Null
		}
		rows[i] = types.Row{k, types.NewInt(int64(i))}
	}
	return rows
}

func col(i int) expr.Expr                      { return expr.NewColRef(i, types.KindInt, "") }
func lit(v int64) expr.Expr                    { return expr.NewLit(types.NewInt(v)) }
func bin(op expr.Op, l, r expr.Expr) expr.Expr { return expr.NewBinOp(op, l, r) }

// tracked wires per-operator ids and recording for the plan rooted at n.
func tracked(ctx *Context, root physical.Node) {
	ops, ids := physical.Number(root)
	ctx.OpIDs = ids
	ctx.Obs = &obs.InstanceObs{Ops: make([]obs.OpStats, len(ops))}
}

func statsOf(ctx *Context, n physical.Node) obs.OpStats { return ctx.Obs.Ops[ctx.OpIDs[n]] }

// swapBuild has the instance ctx runs build hash join j on its left
// input, as an adaptive controller's swap decision does. ctx's operator
// ids must cover j; when it has none, j is taken for the plan's root.
func swapBuild(ctx *Context, j *physical.Join) *Context {
	if ctx.OpIDs == nil {
		_, ctx.OpIDs = physical.Number(j)
	}
	ctx.BuildLeft = make([]bool, len(ctx.OpIDs))
	ctx.BuildLeft[ctx.OpIDs[j]] = true
	return ctx
}

func sameRendered(t *testing.T, what string, got, want []types.Row) {
	t.Helper()
	if g, w := renderRows(got), renderRows(want); !slices.Equal(g, w) {
		t.Fatalf("%s:\n got %v\nwant %v", what, g, w)
	}
}

// TestStreamingOperatorsAcrossBatches runs Values → Filter → Project →
// Limit at every seam size and compares rows, per-operator row counts,
// peaks and modeled work with the materialized answer computed here.
func TestStreamingOperatorsAcrossBatches(t *testing.T) {
	defer SetBatchSize(seamBatch)()
	st := testStore(t, 1)
	for _, n := range seamSizes {
		in := kvRows(n)
		vals := physical.NewValues(kvFields, in)
		// v % 3 <> 1, (v * 2, k), first n/2+1 rows.
		filter := physical.NewFilter(vals, bin(expr.OpNe, bin(expr.OpMod, col(1), lit(3)), lit(1)))
		proj := physical.NewProject(filter, []expr.Expr{bin(expr.OpMul, col(1), lit(2)), col(0)},
			types.Fields{{Name: "dbl", Kind: types.KindInt}, {Name: "k", Kind: types.KindInt}})
		limit := physical.NewLimit(proj, int64(n/2+1))

		var passed, want []types.Row
		for _, r := range in {
			if r[1].Int()%3 != 1 {
				passed = append(passed, r)
			}
		}
		for _, r := range passed {
			if len(want) < n/2+1 {
				want = append(want, types.Row{types.NewInt(r[1].Int() * 2), r[0]})
			}
		}

		ctx := ctxAt(st, 0)
		tracked(ctx, limit)
		got, err := runPlan(limit, ctx)
		if err != nil {
			t.Fatal(err)
		}
		sameRendered(t, fmt.Sprintf("n=%d", n), got, want)

		for _, c := range []struct {
			node    physical.Node
			in, out int
			work    float64
		}{
			{vals, 0, n, 0},
			{filter, n, len(passed), float64(n) * (cost.RPTC + cost.RCC)},
			{proj, len(passed), len(passed), float64(len(passed)) * cost.RPTC * 2},
			{limit, len(passed), len(want), float64(len(want)) * cost.RPTC},
		} {
			s := statsOf(ctx, c.node)
			if s.RowsIn != int64(c.in) || s.RowsOut != int64(c.out) || s.Work != c.work {
				t.Errorf("n=%d %s: in=%d out=%d work=%v, want in=%d out=%d work=%v",
					n, c.node.Describe(), s.RowsIn, s.RowsOut, s.Work, c.in, c.out, c.work)
			}
			if s.PeakRows > seamBatch {
				t.Errorf("n=%d %s: a streaming operator held %d rows, batch is %d",
					n, c.node.Describe(), s.PeakRows, seamBatch)
			}
		}
	}
}

// kvStore loads n kv rows into a one-site store.
func kvStore(t testing.TB, n int) (*storage.Store, *physical.TableScan) {
	t.Helper()
	cat := catalog.New()
	if err := cat.AddTable(&catalog.Table{
		Name: "kv",
		Columns: []catalog.Column{
			{Name: "k", Kind: types.KindInt},
			{Name: "v", Kind: types.KindInt},
		},
		PrimaryKey: []string{"v"},
	}); err != nil {
		t.Fatal(err)
	}
	st := storage.NewReplicatedStore(cat, 1, 0)
	if err := st.Load("kv", kvRows(n)); err != nil {
		t.Fatal(err)
	}
	tbl, err := cat.Table("kv")
	if err != nil {
		t.Fatal(err)
	}
	return st, physical.NewTableScan(tbl, tbl.Fields())
}

// TestSplitterAcrossBatches: the §5.3.2 splitter hands variant v every
// row whose read counter is v modulo the variant count — over a scan and
// over a receiver whose counter runs on across exchanged batches.
func TestSplitterAcrossBatches(t *testing.T) {
	defer SetBatchSize(seamBatch)()
	const variants = 3
	for _, n := range seamSizes {
		st, scan := kvStore(t, n)
		part, err := st.PartitionAt("kv", 0, 0)
		if err != nil {
			t.Fatal(err)
		}

		// The same rows again, shipped in three uneven batches.
		var batches []Batch
		for _, cut := range [][2]int{{0, n / 3}, {n / 3, n/3 + 1}, {n/3 + 1, n}} {
			lo, hi := min(cut[0], n), min(cut[1], n)
			batches = append(batches, Batch{Rows: part[lo:hi]})
		}
		ex := publish(1, 1, batches...)
		recv := physical.NewReceiver(physical.NewExchange(scan, physical.SingleDist), 1)

		for _, src := range []physical.Node{scan, recv} {
			for v := 0; v < variants; v++ {
				var want []types.Row
				for i, r := range part {
					if i%variants == v {
						want = append(want, r)
					}
				}
				ctx := &Context{Store: st, Exchanges: ex, Variant: v, NVariants: variants,
					Modes: map[physical.Node]fragment.SourceMode{src: fragment.SplitMode}}
				tracked(ctx, src)
				got, err := runPlan(src, ctx)
				if err != nil {
					t.Fatal(err)
				}
				sameRendered(t, fmt.Sprintf("n=%d %T variant %d", n, src, v), got, want)
				if s := statsOf(ctx, src); s.RowsIn != int64(n) || s.RowsOut != int64(len(want)) {
					t.Errorf("n=%d %T variant %d: in=%d out=%d, want in=%d out=%d",
						n, src, v, s.RowsIn, s.RowsOut, n, len(want))
				}
			}
		}
	}
}

// naiveJoin is the materialized answer every join algorithm must give:
// left order, each left row's matches in right order. It joins (k, a)
// with (k2, b) on k = k2 AND a > b, like mkJoin.
func naiveJoin(jt logical.JoinType, left, right []types.Row) []types.Row {
	var out []types.Row
	for _, l := range left {
		matched := false
		for _, r := range right {
			if l[0].IsNull() || r[0].IsNull() || l[0].Int() != r[0].Int() ||
				!(float64(l[1].Int()) > r[1].Float()) {
				continue
			}
			matched = true
			if jt == logical.JoinInner || jt == logical.JoinLeft {
				out = append(out, l.Concat(r))
			}
		}
		switch {
		case jt == logical.JoinLeft && !matched:
			out = append(out, l.Concat(types.Row{types.Null, types.Null}))
		case jt == logical.JoinSemi && matched, jt == logical.JoinAnti && !matched:
			out = append(out, l)
		}
	}
	return out
}

// joinInputs builds nl left and nr right rows in the shape of joinFixture,
// sorted on the key when the algorithm needs it.
func joinInputs(nl, nr int, sorted bool) (left, right []types.Row) {
	left, _ = joinFixture(nl)
	_, right = joinFixture(2 * nr)
	if sorted {
		byKey := []types.SortKey{{Col: 0}}
		for _, rows := range [][]types.Row{left, right} {
			sort.SliceStable(rows, func(a, b int) bool {
				return types.CompareRows(rows[a], rows[b], byKey) < 0
			})
		}
	}
	return left, right
}

// scratch wraps a Values input in an identity projection, so that what
// reaches the consumer lives in the projection's reused arena.
func scratch(j *physical.Join, side int) {
	in := j.Inputs()[side]
	fields := in.Schema()
	exprs := make([]expr.Expr, len(fields))
	for i, f := range fields {
		exprs[i] = expr.NewColRef(i, f.Kind, f.Name)
	}
	j.Inputs()[side] = physical.NewProject(in, exprs, fields)
}

// TestJoinsAcrossBatches: every algorithm × join type × left size (and a
// few right sizes) against naiveJoin, in exact output order, with the
// left input arriving both stable and in a producer's scratch.
func TestJoinsAcrossBatches(t *testing.T) {
	defer SetBatchSize(seamBatch)()
	st := testStore(t, 1)
	type algo struct {
		name      string
		algo      physical.JoinAlgo
		buildLeft bool
	}
	for _, a := range []algo{
		{"nested-loop", physical.NestedLoop, false},
		{"hash", physical.HashAlgo, false},
		{"hash/build-left", physical.HashAlgo, true},
		{"merge", physical.Merge, false},
	} {
		for _, jt := range []logical.JoinType{logical.JoinInner, logical.JoinLeft,
			logical.JoinSemi, logical.JoinAnti} {
			for _, nl := range seamSizes {
				for _, nr := range []int{0, 1, seamBatch + 1} {
					for _, leftScratch := range []bool{false, true} {
						left, right := joinInputs(nl, nr, a.algo == physical.Merge)
						j := mkJoin(a.algo, jt)
						j.Inputs()[0].(*physical.Values).Rows = left
						j.Inputs()[1].(*physical.Values).Rows = right
						if leftScratch {
							scratch(j, 0)
						}
						ctx := ctxAt(st, 0)
						tracked(ctx, j)
						if a.buildLeft {
							swapBuild(ctx, j)
						}
						got, err := runPlan(j, ctx)
						if err != nil {
							t.Fatal(err)
						}
						want := naiveJoin(jt, left, right)
						what := fmt.Sprintf("%s %s left=%d right=%d scratch=%t", a.name, jt, nl, nr, leftScratch)
						sameRendered(t, what, got, want)
						if s := statsOf(ctx, j); s.RowsIn != int64(nl+len(right)) || s.RowsOut != int64(len(want)) {
							t.Errorf("%s: in=%d out=%d, want in=%d out=%d",
								what, s.RowsIn, s.RowsOut, nl+len(right), len(want))
						}
					}
				}
			}
		}
	}
}

// TestBreakersCopyScratchRows feeds each breaker — Sort, Sender, a hash
// join's build, a merge join's collected side — from a multi-batch
// projection and from a multi-batch join probe, both of which overwrite
// their output rows batch after batch (the projection only when something
// stands between it and the breaker). A breaker that kept such a row
// without copying it would see it change under its feet.
func TestBreakersCopyScratchRows(t *testing.T) {
	defer SetBatchSize(seamBatch)()
	st := testStore(t, 4)
	const n = 5*seamBatch + 3

	// Two producers of scratch rows and their materialized outputs.
	left, right := joinInputs(n, n, false)
	probe := func() (physical.Node, []types.Row) {
		j := mkJoin(physical.HashAlgo, logical.JoinInner)
		j.Inputs()[0].(*physical.Values).Rows = left
		j.Inputs()[1].(*physical.Values).Rows = right
		return j, naiveJoin(logical.JoinInner, left, right)
	}
	projection := func() (physical.Node, []types.Row) {
		in := kvRows(n)
		p := physical.NewProject(physical.NewValues(kvFields, in),
			[]expr.Expr{col(0), bin(expr.OpSub, lit(1000), col(1))}, kvFields)
		want := make([]types.Row, n)
		for i, r := range in {
			want[i] = types.Row{r[0], types.NewInt(1000 - r[1].Int())}
		}
		return p, want
	}

	// Both hand a breaker directly above them rows to keep; behind a
	// pass-all filter they cannot know who consumes them and stream scratch.
	filtered := func(producer func() (physical.Node, []types.Row)) func() (physical.Node, []types.Row) {
		return func() (physical.Node, []types.Row) {
			p, want := producer()
			return physical.NewFilter(p, bin(expr.OpGe, col(1), lit(0))), want
		}
	}

	for _, pr := range []struct {
		name string
		make func() (physical.Node, []types.Row)
	}{
		{"filtered projection", filtered(projection)}, {"filtered join probe", filtered(probe)},
		{"projection", projection}, {"join probe", probe},
	} {
		name, producer := pr.name, pr.make
		// Sort on the last column (distinct within each producer's output
		// up to ties the stable sort keeps in order).
		src, rows := producer()
		keys := []types.SortKey{{Col: len(rows[0]) - 1, Desc: true}}
		want := slices.Clone(rows)
		sort.SliceStable(want, func(a, b int) bool { return types.CompareRows(want[a], want[b], keys) < 0 })
		got, err := runPlan(physical.NewSort(src, keys), ctxAt(st, 0))
		if err != nil {
			t.Fatal(err)
		}
		sameRendered(t, "sort over "+name, got, want)

		// Sender: what the attempt shipped, by destination.
		for _, dist := range []physical.Distribution{physical.SingleDist, physical.HashDist(1)} {
			src, rows = producer()
			ctx := ctxAt(st, 0)
			if _, err := runPlan(physical.NewSender(src, 5, dist), ctx); err != nil {
				t.Fatal(err)
			}
			var shipped []string
			for _, b := range ctx.Sent {
				shipped = append(shipped, renderRows(b.Rows)...)
			}
			wantShipped := renderRows(rows)
			sort.Strings(shipped)
			sort.Strings(wantShipped)
			if !slices.Equal(shipped, wantShipped) {
				t.Fatalf("sender (%v) over %s shipped\n got %v\nwant %v", dist.Type, name, shipped, wantShipped)
			}
		}

		// The collected right side of a hash and of a merge join, keyed on
		// the producer's first column against kv rows.
		for _, algo := range []physical.JoinAlgo{physical.HashAlgo, physical.Merge} {
			src, rows = producer()
			outer := kvRows(n)
			byKey := []types.SortKey{{Col: 0}}
			if algo == physical.Merge {
				sort.SliceStable(outer, func(a, b int) bool { return types.CompareRows(outer[a], outer[b], byKey) < 0 })
				sort.SliceStable(rows, func(a, b int) bool { return types.CompareRows(rows[a], rows[b], byKey) < 0 })
				src = physical.NewSort(src, byKey)
			}
			cond := bin(expr.OpEq, col(0), expr.NewColRef(2, types.KindInt, ""))
			j := physical.NewJoin(physical.NewValues(kvFields, outer), src, algo, logical.JoinInner, cond,
				[]expr.EquiKey{{Left: 0, Right: 0}}, physical.SingleDist, "single", nil)
			got, err := runPlan(j, ctxAt(st, 0))
			if err != nil {
				t.Fatal(err)
			}
			var want []types.Row
			for _, l := range outer {
				for _, r := range rows {
					if !l[0].IsNull() && !r[0].IsNull() && l[0].Int() == r[0].Int() {
						want = append(want, l.Concat(r))
					}
				}
			}
			sameRendered(t, fmt.Sprintf("%s join building on %s", algo, name), got, want)
		}
	}
}

// scanAggPlan is scan → filter → project → hash aggregate over n kv rows:
// SUM(v * 2) by k for the rows with v % 3 <> 1.
func scanAggPlan(t testing.TB, n int) (*storage.Store, physical.Node) {
	st, scan := kvStore(t, n)
	filter := physical.NewFilter(scan, bin(expr.OpNe, bin(expr.OpMod, col(1), lit(3)), lit(1)))
	proj := physical.NewProject(filter, []expr.Expr{col(0), bin(expr.OpMul, col(1), lit(2))}, kvFields)
	agg := physical.NewHashAggregate(proj, []int{0},
		[]expr.AggCall{{Func: expr.AggSum, Arg: col(1), Name: "s"}}, physical.AggSinglePhase,
		types.Fields{{Name: "k", Kind: types.KindInt}, {Name: "s", Kind: types.KindInt}})
	return st, agg
}

// TestPipelineAllocationBudget: a scan → filter → project → aggregate
// pipeline allocates for its operators, its scratch and its groups, none
// of which grow with the input. If ten times the rows cost more
// allocations, something has started materializing again.
func TestPipelineAllocationBudget(t *testing.T) {
	allocs := func(n int) float64 {
		st, plan := scanAggPlan(t, n)
		return testing.AllocsPerRun(5, func() {
			rows, err := runPlan(plan, ctxAt(st, 0))
			if err != nil || len(rows) != 8 {
				t.Fatalf("n=%d: %d groups, err %v", n, len(rows), err)
			}
		})
	}
	small, large := allocs(1_000), allocs(10_000)
	if large > small+4 {
		t.Errorf("allocations grow with the input: %.0f at 1k rows, %.0f at 10k rows", small, large)
	}
}

// TestCollectAdoptsSourceRows: a join's collected side takes an unsplit
// scan's partition or a Values node's rows as they are, recording the
// source's rows, peak and work exactly as streaming them into a buffer
// does; a splitting scan's share still arrives as a copy.
func TestCollectAdoptsSourceRows(t *testing.T) {
	defer SetBatchSize(seamBatch)()
	for _, n := range seamSizes {
		st, scan := kvStore(t, n)
		part, err := st.PartitionAt("kv", 0, 0)
		if err != nil {
			t.Fatal(err)
		}
		vals := physical.NewValues(kvFields, kvRows(n))
		split := func() *Context {
			return &Context{Store: st, NVariants: 2,
				Modes: map[physical.Node]fragment.SourceMode{scan: fragment.SplitMode}}
		}
		for _, c := range []struct {
			name    string
			src     physical.Node
			own     []types.Row
			ctx     func() *Context
			adopted bool
		}{
			{"scan", scan, part, func() *Context { return ctxAt(st, 0) }, true},
			{"values", vals, vals.Rows, func() *Context { return ctxAt(st, 0) }, true},
			{"splitting scan", scan, part, split, false},
		} {
			what := fmt.Sprintf("n=%d %s", n, c.name)
			streamed := c.ctx()
			tracked(streamed, c.src)
			want, err := Run(c.src, streamed)
			if err != nil {
				t.Fatal(err)
			}
			ctx := c.ctx()
			tracked(ctx, c.src)
			got, err := ctx.collect(c.src, nil)
			if err != nil {
				t.Fatal(err)
			}
			sameRendered(t, what, got, want)
			if n > 0 && (&got[0] == &c.own[0]) != c.adopted {
				t.Errorf("%s: adopted the source's rows = %t, want %t", what, !c.adopted, c.adopted)
			}
			if s, w := statsOf(ctx, c.src), statsOf(streamed, c.src); s.RowsIn != w.RowsIn ||
				s.RowsOut != w.RowsOut || s.PeakRows != w.PeakRows || s.Work != w.Work || ctx.CPUWork != streamed.CPUWork {
				t.Errorf("%s: collected %+v (work %v), streamed %+v (work %v)", what, s, ctx.CPUWork, w, streamed.CPUWork)
			}
		}
	}
}
