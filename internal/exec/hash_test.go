package exec

import (
	"fmt"
	"math"
	"testing"

	"gignite/internal/expr"
	"gignite/internal/logical"
	"gignite/internal/physical"
	"gignite/internal/types"
)

// oneBucket puts every key of every table in one bucket until the
// returned function restores the cap.
func oneBucket() (restore func()) {
	old := maxBucketBits
	maxBucketBits = 0
	return func() { maxBucketBits = old }
}

// TestHashJoinCandidatesInBuildOrder: with every key in one bucket, a
// probe walks every build row and must still meet its candidates in
// build-input order, so the hash join's output — building on the right
// and on the left — is the naive join's, row for row, for every join
// type (DESIGN.md §17's build-side identity).
func TestHashJoinCandidatesInBuildOrder(t *testing.T) {
	defer oneBucket()()
	defer SetBatchSize(seamBatch)()
	st := testStore(t, 1)
	left, right := joinInputs(3*seamBatch+7, 2*seamBatch+1, false)

	tab := newHashTable(right, []int{0}, nil)
	if len(tab.heads) != 1 {
		t.Fatalf("%d buckets, want 1", len(tab.heads))
	}
	var chain, indexed int
	for k := tab.heads[0]; k != 0; k = tab.next[k-1] {
		if int(k) <= chain {
			t.Fatalf("chain visits row %d after row %d", k-1, chain-1)
		}
		chain = int(k)
		indexed++
	}
	for _, r := range right {
		if !r.HasNull([]int{0}) {
			indexed--
		}
	}
	if indexed != 0 {
		t.Fatalf("chain misses %d non-NULL rows", -indexed)
	}

	for _, buildLeft := range []bool{false, true} {
		for _, jt := range []logical.JoinType{logical.JoinInner, logical.JoinLeft,
			logical.JoinSemi, logical.JoinAnti} {
			j := mkJoin(physical.HashAlgo, jt)
			ctx := ctxAt(st, 0)
			if buildLeft {
				swapBuild(ctx, j)
			}
			got, err := runJoin(j, left, right, ctx)
			if err != nil {
				t.Fatal(err)
			}
			sameRendered(t, fmt.Sprintf("%s build-left=%t", jt, buildLeft), got, naiveJoin(jt, left, right))
		}
	}
}

// aggFixture is SUM(v) and COUNT(*) by k over n rows spread over the
// given number of groups, in a Values node.
func aggFixture(n, groups int) physical.Node {
	rows := make([]types.Row, n)
	for i := range rows {
		rows[i] = types.Row{types.NewInt(int64(i % groups)), types.NewInt(int64(i))}
	}
	return physical.NewHashAggregate(physical.NewValues(kvFields, rows), []int{0},
		[]expr.AggCall{{Func: expr.AggSum, Arg: col(1), Name: "s"}, {Func: expr.AggCount, Name: "c"}},
		physical.AggSinglePhase,
		types.Fields{{Name: "k", Kind: types.KindInt}, {Name: "s", Kind: types.KindInt}, {Name: "c", Kind: types.KindInt}})
}

// TestHashAggregateAllocationBudget: a hash aggregate keeps its groups in
// chunks and slices that double, so 10,000 groups cost at most a
// logarithmic number of allocations more than 10 groups over the same
// input — not some per group, as an object per group, key and
// accumulator would. The groups come out in order of first arrival,
// whether their keys spread over many buckets or share one.
func TestHashAggregateAllocationBudget(t *testing.T) {
	const n = 10_000
	st := testStore(t, 1)
	allocs := func(groups int) float64 {
		plan := aggFixture(n, groups)
		return testing.AllocsPerRun(5, func() {
			rows, err := runPlan(plan, ctxAt(st, 0))
			if err != nil || len(rows) != groups {
				t.Fatalf("%d groups: got %d, err %v", groups, len(rows), err)
			}
		})
	}
	few, many := allocs(10), allocs(n)
	// What grows with the groups — the rows and their chunks, hashes,
	// links, buckets, and each call's accumulators and their chunks —
	// doubles: nine things, log2(1000) times each.
	budget := 10 * math.Log2(n/10)
	t.Logf("%.0f allocations at 10 groups, %.0f at %d (budget +%.0f)", few, many, n, budget)
	if many > few+budget {
		t.Errorf("allocations grow with the groups: %.0f at 10 groups, %.0f at %d", few, many, n)
	}

	for _, single := range []bool{false, true} {
		if single {
			defer oneBucket()()
		}
		rows, err := runPlan(aggFixture(3*n/10, 1000), ctxAt(st, 0))
		if err != nil {
			t.Fatal(err)
		}
		for g, r := range rows {
			// Group g holds rows g, g+1000, g+2000.
			if r[0].Int() != int64(g) || r[1].Int() != int64(3*g+3000) || r[2].Int() != 3 {
				t.Fatalf("one bucket=%t: group %d = %v", single, g, r)
			}
		}
	}
}
