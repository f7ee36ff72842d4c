package exec

import (
	"testing"

	"gignite/internal/expr"
	"gignite/internal/logical"
	"gignite/internal/physical"
	"gignite/internal/storage"
	"gignite/internal/types"
)

// BenchmarkPipelineScanAgg is TPC-H Q1's shape — scan → filter → project
// → hash aggregate into a handful of groups — whose cost under full
// materialization was one projected row per input row. Each iteration is
// one execution lending from one Lender (lentCtx).
func BenchmarkPipelineScanAgg(b *testing.B) {
	const n = 60_000
	st, plan := scanAggPlan(b, n)
	var l Lender
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := runPlan(plan, lentCtx(st, &l)); err != nil {
			b.Fatal(err)
		}
		l.Release()
	}
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N)/n, "ns/row")
}

// BenchmarkPipelineJoinChain is TPC-H Q9's shape: a part × supplier cross
// product whose only consumer is a hash-join probe that keeps a few
// percent of it, followed by a second probe and an aggregate. Under full
// materialization the cross product alone was the query's largest
// allocation; pipelined, no row of it outlives its batch.
func BenchmarkPipelineJoinChain(b *testing.B) {
	const parts, suppliers = 100, 1000
	ints := func(names ...string) types.Fields {
		fs := make(types.Fields, len(names))
		for i, name := range names {
			fs[i] = types.Field{Name: name, Kind: types.KindInt}
		}
		return fs
	}
	var part, supplier, partsupp, nation []types.Row
	for p := 0; p < parts; p++ {
		part = append(part, types.Row{types.NewInt(int64(p)), types.NewInt(int64(p * 7))})
	}
	for s := 0; s < suppliers; s++ {
		supplier = append(supplier, types.Row{types.NewInt(int64(s)), types.NewInt(int64(s % 25))})
		// Each supplier supplies four parts: 4% of the cross product.
		for k := 0; k < 4; k++ {
			partsupp = append(partsupp, types.Row{types.NewInt(int64((s + 25*k) % parts)), types.NewInt(int64(s))})
		}
	}
	for n := 0; n < 25; n++ {
		nation = append(nation, types.Row{types.NewInt(int64(n)), types.NewInt(int64(n % 5))})
	}
	eq := func(l, r int) expr.Expr { return bin(expr.OpEq, col(l), col(r)) }
	// (p_key, p_x, s_key, s_nation)
	cross := physical.NewJoin(physical.NewValues(ints("p_key", "p_x"), part),
		physical.NewValues(ints("s_key", "s_nation"), supplier),
		physical.NestedLoop, logical.JoinInner, expr.NewLit(types.NewBool(true)), nil,
		physical.SingleDist, "single", nil)
	// ... ⋈ (ps_part, ps_supp) on both keys
	supplied := physical.NewJoin(cross, physical.NewValues(ints("ps_part", "ps_supp"), partsupp),
		physical.HashAlgo, logical.JoinInner, bin(expr.OpAnd, eq(0, 4), eq(2, 5)),
		[]expr.EquiKey{{Left: 0, Right: 0}, {Left: 2, Right: 1}}, physical.SingleDist, "single", nil)
	// ... ⋈ (n_key, n_region)
	located := physical.NewJoin(supplied, physical.NewValues(ints("n_key", "n_region"), nation),
		physical.HashAlgo, logical.JoinInner, eq(3, 6),
		[]expr.EquiKey{{Left: 3, Right: 0}}, physical.SingleDist, "single", nil)
	plan := physical.NewHashAggregate(located, []int{7},
		[]expr.AggCall{{Func: expr.AggSum, Arg: col(1), Name: "s"}}, physical.AggSinglePhase,
		ints("n_region", "s"))

	st := testStore(b, 1)
	var l Lender
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		rows, err := runPlan(plan, lentCtx(st, &l))
		if err != nil || len(rows) != 5 {
			b.Fatalf("%d groups, err %v", len(rows), err)
		}
		l.Release()
	}
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N)/(parts*suppliers), "ns/row")
}

// lentCtx is ctxAt(st, 0) lending from l, as the scheduler's instances
// do. Both benchmarks' root is an aggregate, whose rows are never lent,
// and every operator below it builds only scratch, which is lent
// whatever Context.Output marks.
func lentCtx(st *storage.Store, l *Lender) *Context {
	ctx := ctxAt(st, 0)
	ctx.Lender = l
	return ctx
}
