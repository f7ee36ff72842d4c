package fragment

import (
	"slices"
	"testing"

	"gignite/internal/catalog"
	"gignite/internal/expr"
	"gignite/internal/logical"
	"gignite/internal/physical"
	"gignite/internal/types"
)

func scan(name string) *physical.TableScan {
	t := &catalog.Table{
		Name: name,
		Columns: []catalog.Column{
			{Name: "id", Kind: types.KindInt},
			{Name: "v", Kind: types.KindInt},
		},
		PrimaryKey:  []string{"id"},
		AffinityKey: "id",
	}
	return physical.NewTableScan(t, t.Fields())
}

// buildJoinPlan assembles: scanA ⋈ Exchange(scanB → hash) under an
// Exchange(single) — two exchanges, three fragments.
func buildJoinPlan() physical.Node {
	a := scan("a")
	b := scan("b")
	ex1 := physical.NewExchange(b, physical.HashDist(0))
	join := physical.NewJoin(a, ex1, physical.HashAlgo, logical.JoinInner,
		expr.NewBinOp(expr.OpEq,
			expr.NewColRef(0, types.KindInt, ""),
			expr.NewColRef(2, types.KindInt, "")),
		[]expr.EquiKey{{Left: 0, Right: 0}}, physical.HashDist(0), "hash", nil)
	return physical.NewExchange(join, physical.SingleDist)
}

func TestSplitAlgorithm1(t *testing.T) {
	plan := Split(buildJoinPlan())
	if len(plan.Fragments) != 3 {
		t.Fatalf("fragments = %d, want 3", len(plan.Fragments))
	}
	root := plan.Fragments[0]
	if !root.IsRoot {
		t.Error("fragment 0 not root")
	}
	// The root fragment's tree is just the receiver of the top exchange.
	if _, ok := root.Root.(*physical.Receiver); !ok {
		t.Errorf("root fragment root = %T", root.Root)
	}
	if len(root.Receivers) != 1 {
		t.Errorf("root receivers = %v", root.Receivers)
	}
	// Every non-root fragment is rooted at a sender.
	senders := 0
	for _, f := range plan.Fragments[1:] {
		if _, ok := f.Root.(*physical.Sender); ok {
			senders++
		}
		if f.IsRoot {
			t.Error("extra root fragment")
		}
	}
	if senders != 2 {
		t.Errorf("senders = %d", senders)
	}
	// No exchange operators remain anywhere.
	for _, f := range plan.Fragments {
		physical.Walk(f.Root, func(n physical.Node) bool {
			if _, ok := n.(*physical.Exchange); ok {
				t.Error("exchange survived splitting")
			}
			return true
		})
	}
	// Producer maps every exchange ID.
	if len(plan.Producer) != 2 {
		t.Errorf("producers = %d", len(plan.Producer))
	}
}

// TestOrderedDependencies: flattening the waves yields a dependency
// order, every producer before its consumers.
func TestOrderedDependencies(t *testing.T) {
	plan := Split(buildJoinPlan())
	pos := make(map[int]int)
	for _, f := range slices.Concat(plan.Waves...) {
		pos[f.ID] = len(pos)
	}
	for _, f := range plan.Fragments {
		for _, ex := range f.Receivers {
			if pos[plan.Producer[ex].ID] > pos[f.ID] {
				t.Errorf("fragment %d ordered before its producer", f.ID)
			}
		}
	}
}

func TestWavesRespectDependencies(t *testing.T) {
	plan := Split(buildJoinPlan())
	waves := plan.Waves
	// Every fragment appears in exactly one wave.
	waveOf := make(map[int]int)
	total := 0
	for w, frags := range waves {
		for _, f := range frags {
			if prev, dup := waveOf[f.ID]; dup {
				t.Fatalf("fragment %d in waves %d and %d", f.ID, prev, w)
			}
			waveOf[f.ID] = w
			total++
		}
	}
	if total != len(plan.Fragments) {
		t.Fatalf("waves hold %d fragments, plan has %d", total, len(plan.Fragments))
	}
	// Every producer is in a strictly earlier wave than its consumer.
	for _, f := range plan.Fragments {
		for _, ex := range f.Receivers {
			if waveOf[plan.Producer[ex].ID] >= waveOf[f.ID] {
				t.Errorf("fragment %d not after its producer %d",
					f.ID, plan.Producer[ex].ID)
			}
		}
	}
	// Known shape: scan-b fragment (wave 0) → join fragment (wave 1) →
	// root (wave 2).
	if len(waves) != 3 {
		t.Fatalf("waves = %d, want 3", len(waves))
	}
	if waveOf[0] != len(waves)-1 {
		t.Errorf("root fragment in wave %d, want last wave %d", waveOf[0], len(waves)-1)
	}
}

func TestVariantModesRootAndReductionSkipped(t *testing.T) {
	plan := Split(buildJoinPlan())
	root := plan.Fragments[0]
	if m := variantModes(root); m != nil {
		t.Error("root fragment got variants")
	}
	if root.Modes != nil {
		t.Error("Split gave the root fragment source modes")
	}
	// A fragment with a single-phase aggregate is a reduction: skipped.
	a := scan("a")
	agg := physical.NewHashAggregate(a, []int{0}, nil, physical.AggSinglePhase,
		a.Schema()[:1])
	sender := physical.NewSender(agg, 0, physical.SingleDist)
	f := &Fragment{ID: 1, Root: sender}
	if m := variantModes(f); m != nil {
		t.Error("reduction fragment got variants")
	}
	// Map-phase aggregates are fine (partials merge downstream).
	aggMap := physical.NewHashAggregate(scan("a"), []int{0}, nil, physical.AggMap,
		a.Schema()[:1])
	f2 := &Fragment{ID: 2, Root: physical.NewSender(aggMap, 0, physical.SingleDist)}
	if m := variantModes(f2); m == nil {
		t.Error("map-phase fragment denied variants")
	}
}

func TestVariantModesOfJoinInputs(t *testing.T) {
	// Inner join: left source duplicates, right splits (§5.3.1).
	a, b := scan("a"), scan("b")
	join := physical.NewJoin(a, b, physical.NestedLoop, logical.JoinInner,
		expr.True, nil, physical.SingleDist, "single", nil)
	f := &Fragment{ID: 1, Root: physical.NewSender(join, 0, physical.SingleDist)}
	modes := variantModes(f)
	if modes == nil {
		t.Fatal("no variants")
	}
	if m, ok := modes[a]; !ok || m != DuplicateMode {
		t.Error("inner join left source should duplicate")
	}
	if modes[b] != SplitMode {
		t.Error("inner join right source should split")
	}
	// Semi join: left splits, right duplicates (per-left-row decisions
	// need the whole right side).
	a2, b2 := scan("a"), scan("b")
	semi := physical.NewJoin(a2, b2, physical.NestedLoop, logical.JoinSemi,
		expr.True, nil, physical.SingleDist, "single", nil)
	f2 := &Fragment{ID: 2, Root: physical.NewSender(semi, 0, physical.SingleDist)}
	modes2 := variantModes(f2)
	if modes2 == nil {
		t.Fatal("no variants for semi")
	}
	if m, ok := modes2[b2]; modes2[a2] != SplitMode || !ok || m != DuplicateMode {
		t.Errorf("semi modes = left %v right %v", modes2[a2], modes2[b2])
	}
}

func TestVariantModesLimitBlocked(t *testing.T) {
	lim := physical.NewLimit(scan("a"), 10)
	f := &Fragment{ID: 1, Root: physical.NewSender(lim, 0, physical.SingleDist)}
	if m := variantModes(f); m != nil {
		t.Error("limit fragment got variants")
	}
}

func TestVariantModesAllDuplicatorsRejected(t *testing.T) {
	// If every source would be a duplicator, variants are pointless: a
	// join of two joins' left spines... simplest: single scan fragment is
	// split-eligible, so use a left-deep join where the only sources are
	// on duplicate chains.
	a, b := scan("a"), scan("b")
	inner := physical.NewJoin(a, b, physical.NestedLoop, logical.JoinSemi,
		expr.True, nil, physical.SingleDist, "single", nil)
	// semi: a splits — still has a splitter, so variants exist.
	f := &Fragment{ID: 1, Root: physical.NewSender(inner, 0, physical.SingleDist)}
	if m := variantModes(f); m == nil {
		t.Fatal("expected variants")
	}
}

// TestSplitSharedSubtreeRecordsAllConsumers: the optimizer may emit a DAG
// where one subtree (here a broadcast join input) feeds two parents that
// end up in different fragments. Both consuming fragments must record the
// exchange in Receivers — TPC-H Q11's HAVING subquery produces exactly
// this shape, and a dropped edge let the second consumer share a wave
// with its producer and race against in-flight retries.
func TestSplitSharedSubtreeRecordsAllConsumers(t *testing.T) {
	b, c := scan("b"), scan("c")
	exB := physical.NewExchange(b, physical.BroadcastDist)
	shared := physical.NewJoin(c, exB, physical.HashAlgo, logical.JoinInner,
		expr.NewBinOp(expr.OpEq,
			expr.NewColRef(0, types.KindInt, ""),
			expr.NewColRef(2, types.KindInt, "")),
		[]expr.EquiKey{{Left: 0, Right: 0}}, physical.HashDist(0), "hash", nil)
	// The shared join appears under the root directly AND under a second
	// exchange; the second walk meets the already-substituted receiver.
	side := physical.NewExchange(shared, physical.SingleDist)
	root := physical.NewJoin(shared, side, physical.NestedLoop, logical.JoinInner,
		expr.True, nil, physical.SingleDist, "single", nil)

	plan := Split(root)
	// Fragment 1 produces exchange 0 (scan b); the root and the side
	// fragment both contain Receiver #0.
	bFragID := plan.Producer[0].ID
	consumers := 0
	for _, f := range plan.Fragments {
		for _, ex := range f.Receivers {
			if ex == 0 {
				consumers++
			}
		}
	}
	if consumers != 2 {
		t.Fatalf("exchange 0 recorded by %d fragments, want 2", consumers)
	}
	waveOf := make(map[int]int)
	for w, frags := range plan.Waves {
		for _, f := range frags {
			waveOf[f.ID] = w
		}
	}
	for _, f := range plan.Fragments {
		for _, ex := range f.Receivers {
			if waveOf[plan.Producer[ex].ID] >= waveOf[f.ID] {
				t.Errorf("fragment %d shares a wave with its producer %d",
					f.ID, plan.Producer[ex].ID)
			}
		}
	}
	if waveOf[bFragID] != 0 {
		t.Errorf("scan-b fragment in wave %d, want 0", waveOf[bFragID])
	}
}

// TestSplitSharedExchangeNodeSplitOnce: the same Exchange node object
// reached from two distinct parents splits once — one producer fragment,
// one exchange ID, both consumers recording the dependency.
func TestSplitSharedExchangeNodeSplitOnce(t *testing.T) {
	a, b, c := scan("a"), scan("b"), scan("c")
	exB := physical.NewExchange(b, physical.BroadcastDist)
	join1 := physical.NewJoin(a, exB, physical.NestedLoop, logical.JoinInner,
		expr.True, nil, physical.SingleDist, "single", nil)
	join2 := physical.NewJoin(c, exB, physical.NestedLoop, logical.JoinInner,
		expr.True, nil, physical.SingleDist, "single", nil)
	side := physical.NewExchange(join2, physical.SingleDist)
	root := physical.NewJoin(join1, side, physical.NestedLoop, logical.JoinInner,
		expr.True, nil, physical.SingleDist, "single", nil)

	plan := Split(root)
	// Exchanges: the shared one (split once) + the side one.
	if len(plan.Producer) != 2 {
		t.Fatalf("exchanges = %d, want 2 (shared exchange split once)", len(plan.Producer))
	}
	sharedID := plan.Producer[0].ExchangeID
	consumers := 0
	for _, f := range plan.Fragments {
		for _, ex := range f.Receivers {
			if ex == sharedID {
				consumers++
			}
		}
	}
	if consumers != 2 {
		t.Fatalf("shared exchange recorded by %d fragments, want 2", consumers)
	}
	if n := len(slices.Concat(plan.Waves...)); n != len(plan.Fragments) {
		t.Fatalf("waves hold %d fragments, plan has %d", n, len(plan.Fragments))
	}
}

func TestFormatListsFragments(t *testing.T) {
	plan := Split(buildJoinPlan())
	out := plan.Format(nil, Estimates)
	if len(out) == 0 {
		t.Fatal("empty format")
	}
	for _, want := range []string{"root fragment 0", "fragment 1", "fragment 2"} {
		if !contains(out, want) {
			t.Errorf("format missing %q", want)
		}
	}
}

func contains(s, sub string) bool {
	return len(s) >= len(sub) && (s == sub || len(s) > 0 && indexOf(s, sub) >= 0)
}

func indexOf(s, sub string) int {
	for i := 0; i+len(sub) <= len(s); i++ {
		if s[i:i+len(sub)] == sub {
			return i
		}
	}
	return -1
}

// TestSplitUnsharesOperatorsInsideAFragment: two equal join inputs get
// the same subtree from the memo. Between its receivers and its root a
// fragment must be a tree — per-operator state is keyed by node pointer —
// so Split copies the operator reached a second time; the exchange below
// it stays one exchange with one producer.
func TestSplitUnsharesOperatorsInsideAFragment(t *testing.T) {
	ex := physical.NewExchange(scan("b"), physical.BroadcastDist)
	shared := physical.NewFilter(physical.NewFilter(ex, expr.True), expr.True)
	join := physical.NewJoin(shared, shared, physical.NestedLoop, logical.JoinInner,
		expr.True, nil, physical.BroadcastDist, "broadcast", nil)

	plan := Split(physical.NewExchange(join, physical.SingleDist))
	if len(plan.Fragments) != 3 {
		t.Fatalf("fragments = %d, want 3 (root, join, scan b)", len(plan.Fragments))
	}
	seen := make(map[physical.Node]bool)
	physical.Walk(plan.Fragments[1].Root, func(n physical.Node) bool {
		if _, ok := n.(*physical.Receiver); !ok && seen[n] {
			t.Errorf("%s stands in two places of one fragment", n.Describe())
		}
		seen[n] = true
		return true
	})
	// Split leaves its input alone: the fragment's own join is the copy.
	split := plan.Fragments[1].Root.Inputs()[0]
	l, r := split.Inputs()[0], split.Inputs()[1]
	if l == r || l.Inputs()[0] == r.Inputs()[0] {
		t.Error("the join's inputs still share an operator")
	}
	if l.Inputs()[0].Inputs()[0] != r.Inputs()[0].Inputs()[0] {
		t.Error("the shared exchange was split into two receivers")
	}
	if got := plan.Fragments[1].Receivers; len(got) != 1 {
		t.Errorf("join fragment receivers = %v, want the one shared exchange", got)
	}
	if got := plan.Producer[1].Consumers; len(got) != 2 || got[0] != plan.Fragments[1] || got[1] != plan.Fragments[1] {
		t.Errorf("shared exchange consumers = %v, want the join fragment once per place", got)
	}

	// The shared receiver is asked to duplicate (left of an inner join)
	// and to split (right): no assignment serves both, so the fragment
	// runs on one thread.
	if m := plan.Fragments[1].Modes; m != nil {
		t.Errorf("variants built over a receiver with conflicting modes: %v", m)
	}
}

// TestSplitLeavesItsInputUntouched: Split builds a plan from one it only
// reads, so a cached plan is split as it is. The plan shares a subtree
// over a shared Exchange and holds a placeholder in a Filter; two splits
// must leave every input node's inputs and expressions as they were,
// share no operator with the input or with each other, keep the Filter's
// placeholder (executions bind it into kernels of their own, never into
// the plan) and list the Filter among its fragment's Params.
func TestSplitLeavesItsInputUntouched(t *testing.T) {
	ex := physical.NewExchange(scan("b"), physical.BroadcastDist)
	cond := expr.NewBinOp(expr.OpEq,
		expr.NewColRef(1, types.KindInt, ""), expr.NewParam(0, types.KindInt))
	shared := physical.NewFilter(ex, cond)
	join := physical.NewJoin(shared, shared, physical.NestedLoop, logical.JoinInner,
		expr.True, nil, physical.BroadcastDist, "broadcast", nil)
	root := physical.NewExchange(join, physical.SingleDist)

	type snapshot struct {
		inputs []physical.Node
		exprs  []expr.Expr
	}
	exprsOf := func(n physical.Node) []expr.Expr {
		switch t := n.(type) {
		case *physical.Filter:
			return []expr.Expr{t.Cond}
		case *physical.Join:
			return []expr.Expr{t.Cond}
		}
		return nil
	}
	before := make(map[physical.Node]snapshot)
	physical.Walk(root, func(n physical.Node) bool {
		before[n] = snapshot{slices.Clone(n.Inputs()), exprsOf(n)}
		return true
	})

	plans := []*Plan{Split(root), Split(root)}

	for n, snap := range before {
		if !slices.Equal(n.Inputs(), snap.inputs) {
			t.Errorf("Split rewired the inputs of %s", n.Describe())
		}
		if !slices.Equal(exprsOf(n), snap.exprs) {
			t.Errorf("Split rewrote the expressions of %s", n.Describe())
		}
	}
	owner := make(map[physical.Node]int)
	for i, plan := range plans {
		if len(plan.Fragments) != 3 {
			t.Fatalf("split %d: fragments = %d, want 3", i, len(plan.Fragments))
		}
		filters := 0
		for _, f := range plan.Fragments {
			var params []int
			physical.Walk(f.Root, func(n physical.Node) bool {
				if _, ok := before[n]; ok {
					t.Errorf("split %d runs the input's %s", i, n.Describe())
				}
				if prev, ok := owner[n]; ok && prev != i {
					t.Errorf("splits %d and %d share %s", prev, i, n.Describe())
				}
				owner[n] = i
				if flt, ok := n.(*physical.Filter); ok {
					filters++
					params = append(params, f.OpIDs[n])
					if flt.Cond != cond {
						t.Errorf("split %d: filter %s, want the input's %s", i, flt.Cond, cond)
					}
				}
				return true
			})
			if !slices.Equal(f.Params, params) {
				t.Errorf("split %d fragment %d: Params %v, want the filters' ids %v", i, f.ID, f.Params, params)
			}
		}
		if filters != 2 {
			t.Errorf("split %d: %d filters, want one per join input", i, filters)
		}
	}
}

// TestSplitNumbersOperators: each fragment's Ops lists its operators in
// pre-order, root first, each once, and OpIDs is its inverse.
func TestSplitNumbersOperators(t *testing.T) {
	plan := Split(buildJoinPlan())
	for _, f := range plan.Fragments {
		var want []physical.Node
		seen := make(map[physical.Node]bool)
		physical.Walk(f.Root, func(n physical.Node) bool {
			if seen[n] {
				return false
			}
			seen[n] = true
			want = append(want, n)
			return true
		})
		if !slices.Equal(f.Ops, want) {
			t.Errorf("fragment %d: Ops %v, want the pre-order walk %v", f.ID, f.Ops, want)
		}
		if len(f.OpIDs) != len(f.Ops) {
			t.Errorf("fragment %d: %d OpIDs for %d Ops", f.ID, len(f.OpIDs), len(f.Ops))
		}
		for id, n := range f.Ops {
			if f.OpIDs[n] != id {
				t.Errorf("fragment %d: %s has id %d, want %d", f.ID, n.Describe(), f.OpIDs[n], id)
			}
		}
	}
}
