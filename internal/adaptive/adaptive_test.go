package adaptive

import (
	"slices"
	"testing"

	"gignite/internal/expr"
	"gignite/internal/fragment"
	"gignite/internal/logical"
	"gignite/internal/physical"
	"gignite/internal/sketch"
	"gignite/internal/types"
)

var kv = types.Fields{{Name: "k", Kind: types.KindInt}, {Name: "v", Kind: types.KindInt}}

func leaf(est float64, dist physical.Distribution) *physical.Values {
	v := physical.NewValues(kv, nil)
	v.Props().EstRows = est
	v.Props().Dist = dist
	return v
}

func filled(rows int) *sketch.Sketch {
	sk := sketch.New()
	for i := 0; i < rows; i++ {
		sk.Add(uint64(i) * 0x9E3779B97F4A7C15)
	}
	return sk
}

// pendingExchangePlan builds three fragments whose middle exchange is
// still pending when the first completes:
//
//	frag 2 (wave 0): Sender #1 hash[0] over a leaf
//	frag 1 (wave 1): Sender #0 broadcast over Receiver #1
//	frag 0 (wave 2): Join[hash] bcast-right, probe side partitioned on its key
//
// estBuild is the planner's estimate of the build side (what Receiver #1
// and Sender #0 inherit).
func pendingExchangePlan(t *testing.T, estBuild float64) (*fragment.Plan, *physical.Sender, *physical.Join) {
	t.Helper()
	src := leaf(estBuild, physical.HashDist(0))
	sender1 := physical.NewSender(src, 1, physical.HashDist(0))
	ex1 := physical.NewExchange(src, physical.HashDist(0))
	recv1 := physical.NewReceiver(ex1, 1)
	recv1.Props().EstRows = estBuild

	sender0 := physical.NewSender(recv1, 0, physical.BroadcastDist)
	ex0 := physical.NewExchange(recv1, physical.BroadcastDist)
	recv0 := physical.NewReceiver(ex0, 0)
	recv0.Props().EstRows = estBuild

	probe := leaf(1000, physical.HashDist(0))
	join := physical.NewJoin(probe, recv0, physical.HashAlgo, logical.JoinInner, nil,
		[]expr.EquiKey{{Left: 0, Right: 0}}, physical.HashDist(0), "bcast-right", nil)

	f0 := &fragment.Fragment{ID: 0, Root: join, IsRoot: true, Receivers: []int{0}, ExchangeID: -1}
	f1 := &fragment.Fragment{ID: 1, Root: sender0, Receivers: []int{1}, ExchangeID: 0,
		Receiver: recv0, Consumers: []*fragment.Fragment{f0}}
	f2 := &fragment.Fragment{ID: 2, Root: sender1, ExchangeID: 1,
		Receiver: recv1, Consumers: []*fragment.Fragment{f1}}
	plan := &fragment.Plan{
		Fragments: []*fragment.Fragment{f0, f1, f2},
		Producer:  map[int]*fragment.Fragment{0: f1, 1: f2},
		Waves:     [][]*fragment.Fragment{{f2}, {f1}, {f0}},
	}
	number(plan)
	return plan, sender0, join
}

// swapPlan builds a root join over two hash exchanges, estimated
// left-heavy (estL > estR) so the planner builds on the right.
func swapPlan(t *testing.T, estL, estR float64) (*fragment.Plan, *physical.Join) {
	t.Helper()
	f0 := &fragment.Fragment{ID: 0, IsRoot: true, Receivers: []int{0, 1}, ExchangeID: -1}
	mk := func(ex int, est float64) (*fragment.Fragment, *physical.Receiver) {
		src := leaf(est, physical.HashDist(0))
		sender := physical.NewSender(src, ex, physical.HashDist(0))
		recv := physical.NewReceiver(physical.NewExchange(src, physical.HashDist(0)), ex)
		recv.Props().EstRows = est
		return &fragment.Fragment{ID: ex + 1, Root: sender, ExchangeID: ex,
			Receiver: recv, Consumers: []*fragment.Fragment{f0}}, recv
	}
	f1, recv1 := mk(0, estL)
	f2, recv2 := mk(1, estR)
	f0.Root = physical.NewJoin(recv1, recv2, physical.HashAlgo, logical.JoinInner, nil,
		[]expr.EquiKey{{Left: 0, Right: 0}}, physical.HashDist(0), "hash", nil)
	plan := &fragment.Plan{
		Fragments: []*fragment.Fragment{f0, f1, f2},
		Producer:  map[int]*fragment.Fragment{0: f1, 1: f2},
		Waves:     [][]*fragment.Fragment{{f1, f2}, {f0}},
	}
	number(plan)
	return plan, f0.Root.(*physical.Join)
}

// number gives a hand-built plan's fragments their operator ids, as
// fragment.Split does.
func number(plan *fragment.Plan) {
	for _, f := range plan.Fragments {
		f.Ops, f.OpIDs = physical.Number(f.Root)
	}
}

// swapped reports whether c decided that the root fragment's join builds
// on its left input.
func swapped(c *Controller, plan *fragment.Plan, join *physical.Join) bool {
	ids := c.BuildLeft(0)
	return ids != nil && ids[plan.Fragments[0].OpIDs[join]]
}

func TestBuildSwapFires(t *testing.T) {
	plan, join := swapPlan(t, 1000, 100)
	text := plan.Format()
	c := New(plan, 1)
	// Runtime inverts the estimate: the left is 50x smaller than the right.
	reps := c.OnBarrier(0, []*sketch.Sketch{filled(100), filled(5000)})
	if len(reps) != 1 || reps[0].Kind != "build-swap" {
		t.Fatalf("got %+v, want one build-swap", reps)
	}
	if id := plan.Fragments[0].OpIDs[join]; reps[0].Frag != 0 || reps[0].OpID != id {
		t.Fatalf("replan names fragment %d operator %d, want the join, 0/%d", reps[0].Frag, reps[0].OpID, id)
	}
	if !swapped(c, plan, join) {
		t.Fatal("the swap was not recorded against the join's id")
	}
	if plan.Format() != text {
		t.Fatalf("the controller wrote the plan:\n%s\nwas\n%s", plan.Format(), text)
	}
	// Idempotent across barriers.
	if again := c.OnBarrier(1, []*sketch.Sketch{filled(100), filled(5000)}); len(again) != 0 {
		t.Fatalf("swap re-fired: %+v", again)
	}
}

func TestBuildSwapMarginHolds(t *testing.T) {
	// Sides diverge from their estimates but the left is not
	// swapMargin-times smaller than the right: keep the planned build side.
	plan, join := swapPlan(t, 1000, 100)
	c := New(plan, 1)
	if reps := c.OnBarrier(0, []*sketch.Sketch{filled(3000), filled(5000)}); len(reps) != 0 {
		t.Fatalf("swap fired inside the margin: %+v", reps)
	}
	if swapped(c, plan, join) {
		t.Fatal("swap recorded inside the margin")
	}
}

func TestBuildSwapNeedsDivergence(t *testing.T) {
	// Estimates already said left < right; the planner chose build=right
	// knowingly, so runtime confirmation must not flip it.
	plan, join := swapPlan(t, 100, 1000)
	c := New(plan, 1)
	if reps := c.OnBarrier(0, []*sketch.Sketch{filled(100), filled(1000)}); len(reps) != 0 {
		t.Fatalf("swap fired without misestimation: %+v", reps)
	}
	if swapped(c, plan, join) {
		t.Fatal("swap recorded without misestimation")
	}
}

func TestCorrectedEngine(t *testing.T) {
	plan, sender, join := pendingExchangePlan(t, 50)
	c := New(plan, 1)
	// The join keys must have mapped down to sketch keys on exchange 0.
	if got := c.SketchKeys()[0]; !slices.Equal(got, []int{0}) {
		t.Fatalf("skeys[0] = %v, want [0]", got)
	}
	// Before any barrier, corrections are pure estimates.
	if got := c.corrected(sender.Inputs()[0]); got != 50 {
		t.Fatalf("corrected(recv1) = %g before barrier, want 50", got)
	}
	c.OnBarrier(0, []*sketch.Sketch{1: filled(5000)})
	// Completed exchange: exact actual, reached through the pending
	// exchange 0 (receiver -> producer sender -> its receiver child).
	if got := c.corrected(sender.Inputs()[0]); got != 5000 {
		t.Fatalf("corrected(recv1) = %g, want exact 5000", got)
	}
	if got := c.corrected(join.Inputs()[1]); got != 5000 {
		t.Fatalf("corrected through pending exchange = %g, want 5000", got)
	}
	// Swami-Schiefer join: l*r/max(ndvL, ndvR) with the unique-key
	// fallback = side rows, so 1000*5000/5000.
	if got := c.corrected(join); got != 1000 {
		t.Fatalf("corrected(join) = %g, want 1000", got)
	}
}

func TestDiverged(t *testing.T) {
	c := &Controller{}
	for _, tc := range []struct {
		est, act float64
		want     bool
	}{
		{10, 10, false},
		{10, 13, false}, // 14/11 = 1.27 < 1.5
		{10, 16, true},  // 17/11 = 1.55
		{16, 10, true},  // symmetric
		{0, 0, false},   // +1 smoothing keeps empty inputs quiet
		{1000, 10, true},
	} {
		if got := c.diverged(tc.est, tc.act); got != tc.want {
			t.Errorf("diverged(%g, %g) = %t, want %t", tc.est, tc.act, got, tc.want)
		}
	}
}

func TestAggsOrderInsensitive(t *testing.T) {
	intCol := expr.NewColRef(0, types.KindInt, "k")
	floatCol := expr.NewColRef(1, types.KindFloat, "f")
	for _, tc := range []struct {
		name string
		aggs []expr.AggCall
		want bool
	}{
		{"count", []expr.AggCall{{Func: expr.AggCount}}, true},
		{"min-max", []expr.AggCall{{Func: expr.AggMin, Arg: intCol}, {Func: expr.AggMax, Arg: floatCol}}, true},
		{"int-sum", []expr.AggCall{{Func: expr.AggSum, Arg: intCol}}, true},
		{"float-sum", []expr.AggCall{{Func: expr.AggSum, Arg: floatCol}}, false},
		{"avg", []expr.AggCall{{Func: expr.AggAvg, Arg: intCol}}, false},
		{"distinct-count", []expr.AggCall{{Func: expr.AggCount, Arg: intCol, Distinct: true}}, false},
	} {
		if got := aggsOrderInsensitive(tc.aggs); got != tc.want {
			t.Errorf("%s: aggsOrderInsensitive = %t, want %t", tc.name, got, tc.want)
		}
	}
}

func TestSortCovers(t *testing.T) {
	keys := []types.SortKey{{Col: 1, Desc: true}, {Col: 0}}
	if !sortCovers(keys, []int{0, 1}) {
		t.Error("sort on {1,0} should cover group {0,1}")
	}
	if sortCovers([]types.SortKey{{Col: 1}}, []int{0, 1}) {
		t.Error("sort on {1} should not cover group {0,1}")
	}
	if !sortCovers(nil, nil) {
		t.Error("empty group is covered vacuously")
	}
}

// sharedExchangePlan builds a variant fragment whose exchange is read in
// two places:
//
//	frag 3 (wave 0): S, Sender #2 over a leaf
//	frag 2 (wave 1): P, Sender #1 over Receiver #2 in split mode  <- regrade candidate
//	frag 1 (wave 2): Q, Sender #0 over Receiver #1 (re-ships P's output)
//	frag 0 (wave 3): R, Sort(COUNT group by k)(Join(Receiver #1, Receiver #0 [under a Limit]))
//
// In R, P's rows pass a join, a COUNT reduction and a sort covering its
// group column, which washes their order. Q's copy reaches R through
// Receiver #0, under a Limit when limited is set.
func sharedExchangePlan(limited bool) *fragment.Plan {
	const rows = 10 // every estimate matches the actuals: only the regrade can fire
	recv := func(ex int, src physical.Node) *physical.Receiver {
		rv := physical.NewReceiver(physical.NewExchange(src, physical.HashDist(0)), ex)
		rv.Props().EstRows = rows
		return rv
	}
	src := leaf(rows, physical.HashDist(0))
	recvS := recv(2, src)
	senderP := physical.NewSender(recvS, 1, physical.HashDist(0))
	recvP := recv(1, recvS)
	senderQ := physical.NewSender(recvP, 0, physical.HashDist(0))
	recvQ := recv(0, recvP)

	var right physical.Node = recvQ
	if limited {
		right = physical.NewLimit(recvQ, 5)
		right.Props().EstRows = rows
	}
	join := physical.NewJoin(recvP, right, physical.HashAlgo, logical.JoinInner, nil,
		[]expr.EquiKey{{Left: 0, Right: 0}}, physical.HashDist(0), "hash", nil)
	join.Props().EstRows = rows
	agg := physical.NewHashAggregate(join, []int{0}, []expr.AggCall{{Func: expr.AggCount}},
		physical.AggSinglePhase, types.Fields{{Name: "k", Kind: types.KindInt}, {Name: "n", Kind: types.KindInt}})
	sort := physical.NewSort(agg, []types.SortKey{{Col: 0}})

	r := &fragment.Fragment{ID: 0, Root: sort, IsRoot: true, Receivers: []int{1, 0}, ExchangeID: -1}
	q := &fragment.Fragment{ID: 1, Root: senderQ, Receivers: []int{1}, ExchangeID: 0,
		Receiver: recvQ, Consumers: []*fragment.Fragment{r}}
	p := &fragment.Fragment{ID: 2, Root: senderP, Receivers: []int{2}, ExchangeID: 1,
		Receiver: recvP, Consumers: []*fragment.Fragment{r, q},
		Modes: map[physical.Node]fragment.SourceMode{recvS: fragment.SplitMode}}
	s := &fragment.Fragment{ID: 3, Root: physical.NewSender(src, 2, physical.HashDist(0)), ExchangeID: 2,
		Receiver: recvS, Consumers: []*fragment.Fragment{p}}
	plan := &fragment.Plan{
		Fragments: []*fragment.Fragment{r, q, p, s},
		Producer:  map[int]*fragment.Fragment{0: q, 1: p, 2: s},
		Waves:     [][]*fragment.Fragment{{s}, {p}, {q}, {r}},
	}
	number(plan)
	return plan
}

// TestRegradeChecksEveryConsumer: a regrade perturbs the row order every
// reader of the fragment's exchange sees, so every place must wash it.
// P's output is washed where R reads it directly, but its copy through Q
// reaches a Limit in R, which would keep different rows.
func TestRegradeChecksEveryConsumer(t *testing.T) {
	for _, tc := range []struct {
		limited bool
		want    int // P's variant count after the barrier
	}{
		{limited: false, want: 1}, // both places wash: the regrade fires
		{limited: true, want: 2},  // Q's place reaches the Limit: refused
	} {
		c := New(sharedExchangePlan(tc.limited), 2)
		reps := c.OnBarrier(0, []*sketch.Sketch{2: filled(10)})
		if got := c.VariantFor(2, 2); got != tc.want {
			t.Errorf("limited=%t: fragment 2 runs %d variants, want %d (replans %+v)", tc.limited, got, tc.want, reps)
		}
		for _, rp := range reps {
			if rp.Kind != "variant-regrade" {
				t.Errorf("limited=%t: unexpected replan %+v", tc.limited, rp)
			}
		}
	}
}
