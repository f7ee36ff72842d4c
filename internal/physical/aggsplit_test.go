package physical

import (
	"math/rand"
	"strings"
	"testing"

	"gignite/internal/expr"
	"gignite/internal/types"
)

func TestSplitAggCallsShapes(t *testing.T) {
	arg := expr.NewColRef(1, types.KindFloat, "v")
	calls := []expr.AggCall{
		{Func: expr.AggCount, Name: "n"},
		{Func: expr.AggSum, Arg: arg, Name: "s"},
		{Func: expr.AggMin, Arg: arg, Name: "mn"},
		{Func: expr.AggMax, Arg: arg, Name: "mx"},
	}
	final := types.Fields{
		{Name: "g", Kind: types.KindInt},
		{Name: "n", Kind: types.KindInt},
		{Name: "s", Kind: types.KindFloat},
		{Name: "mn", Kind: types.KindFloat},
		{Name: "mx", Kind: types.KindFloat},
	}
	split, err := SplitAggCalls(1, calls, final)
	if err != nil {
		t.Fatal(err)
	}
	if len(split.MapCalls) != 4 || len(split.ReduceCalls) != 4 {
		t.Fatalf("map=%d reduce=%d", len(split.MapCalls), len(split.ReduceCalls))
	}
	// COUNT's reduce side must be a SUM of the partial counts.
	if split.ReduceCalls[0].Func != expr.AggSum {
		t.Errorf("COUNT reduce = %v", split.ReduceCalls[0].Func)
	}
	if split.ReduceCalls[2].Func != expr.AggMin || split.ReduceCalls[3].Func != expr.AggMax {
		t.Error("MIN/MAX reduce functions wrong")
	}
	// No AVG: no finalize projection needed.
	if split.Finalize != nil {
		t.Error("finalize emitted without AVG")
	}
	if len(split.MapFields) != 5 || len(split.ReduceFields) != 5 {
		t.Errorf("fields map=%d reduce=%d", len(split.MapFields), len(split.ReduceFields))
	}
}

func TestSplitAggCallsAvg(t *testing.T) {
	arg := expr.NewColRef(0, types.KindInt, "v")
	calls := []expr.AggCall{{Func: expr.AggAvg, Arg: arg, Name: "a"}}
	final := types.Fields{{Name: "a", Kind: types.KindFloat}}
	split, err := SplitAggCalls(0, calls, final)
	if err != nil {
		t.Fatal(err)
	}
	// AVG splits into SUM + COUNT partials.
	if len(split.MapCalls) != 2 {
		t.Fatalf("map calls = %d", len(split.MapCalls))
	}
	if split.MapCalls[0].Func != expr.AggSum || split.MapCalls[1].Func != expr.AggCount {
		t.Errorf("map calls = %v, %v", split.MapCalls[0].Func, split.MapCalls[1].Func)
	}
	if split.Finalize == nil || len(split.Finalize) != 1 {
		t.Fatalf("finalize = %v", split.Finalize)
	}
	// The finalize expression divides sum by count: reduce output
	// [sum=10, cnt=4] → 2.5.
	got := split.Finalize[0].Eval(types.Row{types.NewInt(10), types.NewInt(4)})
	if got.Float() != 2.5 {
		t.Errorf("finalize(10, 4) = %v", got)
	}
}

// TestSplitAggCallsMatchSinglePhase: the map calls run per partition, the
// reduce calls over the partial rows and Finalize over the reduce row give
// what single-phase aggregation gives over the whole input — the property
// a two-phase aggregate relies on. Inputs are random ints with NULLs, cut
// into random (possibly empty) partitions; a scalar map aggregate emits
// one partial row per partition, an empty one included.
func TestSplitAggCallsMatchSinglePhase(t *testing.T) {
	arg := expr.NewColRef(0, types.KindInt, "x")
	calls := []expr.AggCall{
		{Func: expr.AggCount, Arg: arg, Name: "cnt"},
		{Func: expr.AggCount, Name: "star"},
		{Func: expr.AggSum, Arg: arg, Name: "sum"},
		{Func: expr.AggAvg, Arg: arg, Name: "avg"},
		{Func: expr.AggMin, Arg: arg, Name: "min"},
		{Func: expr.AggMax, Arg: arg, Name: "max"},
	}
	final := make(types.Fields, len(calls))
	for i, c := range calls {
		final[i] = types.Field{Name: c.Name, Kind: c.Kind()}
	}
	split, err := SplitAggCalls(0, calls, final)
	if err != nil {
		t.Fatal(err)
	}
	// aggregate runs calls over rows as one scalar aggregate: one output row.
	aggregate := func(calls []expr.AggCall, rows []types.Row) types.Row {
		out := make(types.Row, len(calls))
		for i, c := range calls {
			acc := c.NewAccumulator()
			for _, r := range rows {
				var v types.Value
				if c.Arg != nil {
					v = c.Arg.Eval(r)
				}
				acc.Add(v)
			}
			out[i] = acc.Result()
		}
		return out
	}
	rng := rand.New(rand.NewSource(1))
	for trial := 0; trial < 300; trial++ {
		input := make([]types.Row, rng.Intn(40))
		for i := range input {
			input[i] = types.Row{types.Null}
			if rng.Intn(4) != 0 {
				input[i][0] = types.NewInt(int64(rng.Intn(2001) - 1000))
			}
		}
		var partials []types.Row
		for rest := input; ; {
			n := rng.Intn(len(rest) + 1)
			partials = append(partials, aggregate(split.MapCalls, rest[:n]))
			if rest = rest[n:]; len(rest) == 0 && rng.Intn(2) == 0 {
				break
			}
		}
		got := aggregate(split.ReduceCalls, partials)
		if split.Finalize != nil {
			row := make(types.Row, len(split.Finalize))
			for i, e := range split.Finalize {
				row[i] = e.Eval(got)
			}
			got = row
		}
		want := aggregate(calls, input)
		for i, c := range calls {
			if got[i].K != want[i].K || (!want[i].IsNull() && !types.Equal(got[i], want[i])) {
				t.Fatalf("trial %d, %s over %d rows in %d partitions: two-phase %v, single-phase %v",
					trial, c, len(input), len(partials), got[i], want[i])
			}
		}
	}
}

func TestSplitAggCallsRejectsDistinct(t *testing.T) {
	arg := expr.NewColRef(0, types.KindInt, "v")
	_, err := SplitAggCalls(0, []expr.AggCall{
		{Func: expr.AggCount, Arg: arg, Distinct: true},
	}, types.Fields{{Name: "n", Kind: types.KindInt}})
	if err == nil {
		t.Error("DISTINCT aggregate split accepted")
	}
}

func TestDescribeAllNodes(t *testing.T) {
	s := scanFixture()
	idx := &s.Table.Indexes
	_ = idx
	nodes := []Node{
		s,
		NewFilter(s, expr.True),
		NewProject(s, []expr.Expr{expr.NewColRef(0, types.KindInt, "id")},
			types.Fields{{Name: "id", Kind: types.KindInt}}),
		NewSort(s, []types.SortKey{{Col: 0}}),
		NewLimit(s, 5),
		NewHashAggregate(s, []int{0}, nil, AggSinglePhase, s.Schema()[:1]),
		NewSortAggregate(NewSort(s, []types.SortKey{{Col: 0}}), []int{0}, nil,
			AggMap, s.Schema()[:1]),
		NewExchange(s, SingleDist),
		NewSender(s, 3, BroadcastDist),
		NewValues(types.Fields{{Name: "x", Kind: types.KindInt}}, nil),
	}
	for _, n := range nodes {
		if n.Describe() == "" {
			t.Errorf("%T has empty description", n)
		}
	}
	ex := NewExchange(NewSort(s, []types.SortKey{{Col: 0}}), SingleDist)
	recv := NewReceiver(ex, 3)
	if !strings.Contains(recv.Describe(), "merging") {
		t.Errorf("merging receiver not labelled: %s", recv.Describe())
	}
	if out := Format(recv, Estimates); out == "" {
		t.Error("format empty")
	}
}

func TestAggPhaseAndAlgoNames(t *testing.T) {
	if AggSinglePhase.String() != "single" || AggMap.String() != "map" || AggReduce.String() != "reduce" {
		t.Error("agg phase names wrong")
	}
	if NestedLoop.String() != "nested-loop" || Merge.String() != "merge" || HashAlgo.String() != "hash" {
		t.Error("join algo names wrong")
	}
	s := scanFixture()
	ha := NewHashAggregate(s, []int{0}, nil, AggReduce, s.Schema()[:1])
	if !ha.IsReduction() {
		t.Error("reduce phase not a reduction")
	}
	sa := NewSortAggregate(s, []int{0}, nil, AggMap, s.Schema()[:1])
	if sa.IsReduction() {
		t.Error("map phase wrongly a reduction")
	}
}

func TestDistributionStringAndRemap(t *testing.T) {
	d := HashDist(2, 5)
	if d.String() != "hash[2,5]" {
		t.Errorf("String = %s", d.String())
	}
	if SingleDist.String() != "single" || BroadcastDist.String() != "broadcast" {
		t.Error("singleton names wrong")
	}
	remapped := d.RemapKeys([]int{-1, -1, 0, -1, -1, 1})
	if remapped.String() != "hash[0,1]" {
		t.Errorf("remap = %s", remapped)
	}
	dropped := d.RemapKeys([]int{-1, -1, 0})
	if dropped.Type != Hash || len(dropped.Keys) != 0 {
		t.Errorf("dropped-key remap = %s", dropped)
	}
	shifted := d.ShiftKeys(10)
	if shifted.String() != "hash[12,15]" {
		t.Errorf("shift = %s", shifted)
	}
	if SingleDist.ShiftKeys(3).Type != Single {
		t.Error("shift changed non-hash dist")
	}
}
