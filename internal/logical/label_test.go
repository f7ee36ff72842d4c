package logical_test

import (
	"testing"

	"gignite"
	"gignite/internal/binder"
	"gignite/internal/cost"
	"gignite/internal/hep"
	"gignite/internal/logical"
	"gignite/internal/rules"
	"gignite/internal/sql"
	"gignite/internal/stats"
	"gignite/internal/tpch"
	"gignite/internal/volcano"
)

// TestPlanningRendersNoLabels: Digest() and Req.String() (through
// DescribeKeys) are labels for EXPLAIN, errors and tests. The cost-based
// search must not build one — a digest is O(subtree) of formatting, and
// the memo asked for one per lookup before it interned groups by
// structure. Counted over the Volcano stage of TPC-H Q5 and Q8 under the
// two-phase (IC+) and the single-phase (IC) regime.
func TestPlanningRendersNoLabels(t *testing.T) {
	const sf = 0.001
	e := gignite.Open(gignite.WithPreset(gignite.ICPlus, 4))
	if err := tpch.Setup(e, sf); err != nil {
		t.Fatal(err)
	}
	icPlus := rules.Config{FilterCorrelate: true, JoinConditionSimplification: true}
	planners := map[string]func() *volcano.Planner{
		"IC+": func() *volcano.Planner {
			return volcano.New(volcano.Config{
				Rules: icPlus, TwoPhase: true, EnableHashJoin: true, FullyDistributedJoins: true,
				Sites: 4, Est: stats.New(e.Catalog(), false),
				CostParams: cost.Params{UseDistributionFactor: true},
			})
		},
		"IC": func() *volcano.Planner {
			return volcano.New(volcano.Config{
				Sites: 4, Est: stats.New(e.Catalog(), true),
				CostParams: cost.Params{LegacyUnits: true, ExchangePenaltyBug: true},
			})
		},
	}
	for _, id := range []int{5, 8} {
		sel, err := sql.ParseSelect(tpch.QueryByID(id).SQL)
		if err != nil {
			t.Fatal(err)
		}
		lp, err := binder.New(e.Catalog()).BindSelect(sel)
		if err != nil {
			t.Fatal(err)
		}
		lp = hep.RunGroups(lp, rules.Stage1Groups(icPlus))
		for name, newPlanner := range planners {
			labels := 0
			restore := logical.CountLabels(func() { labels++ })
			vp := newPlanner()
			_, err := vp.Optimize(lp)
			restore()
			if err != nil {
				t.Fatalf("Q%d %s: %v", id, name, err)
			}
			if labels != 0 {
				t.Errorf("Q%d %s: %d labels rendered while planning (%d tickets)", id, name, labels, vp.TicketsUsed)
			}
		}
		// The counter does count: the same plan's digest is a label.
		labels := 0
		restore := logical.CountLabels(func() { labels++ })
		_ = lp.Digest()
		restore()
		if labels == 0 {
			t.Fatalf("Q%d: Digest() went uncounted", id)
		}
	}
}
