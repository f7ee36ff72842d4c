package fragment_test

import (
	"fmt"
	"slices"
	"strings"
	"sync"
	"testing"

	"gignite"
	"gignite/internal/binder"
	"gignite/internal/cost"
	"gignite/internal/fragment"
	"gignite/internal/harness"
	"gignite/internal/hep"
	"gignite/internal/physical"
	"gignite/internal/rules"
	"gignite/internal/sql"
	"gignite/internal/ssb"
	"gignite/internal/stats"
	"gignite/internal/tpch"
	"gignite/internal/volcano"
)

// TestSplitWavesMatchDependencyOrder: Split schedules each fragment as it
// completes. Fault plans address instances by ordinal, and ordinals follow
// the waves, so the waves must be exactly those of a depth-first
// dependency order — every producer before its consumers, the root's
// receivers in order — grouped by depth. Checked against a reference
// implementation of that order on every TPC-H and SSB plan under IC, IC+
// and IC+M.
func TestSplitWavesMatchDependencyOrder(t *testing.T) {
	eachPlan(t, []int{4}, func(label string, pp physical.Node) {
		fp := fragment.Split(pp)
		if got, want := waveIDs(fp.Waves), waveIDs(referenceWaves(t, fp)); got != want {
			t.Errorf("%s: waves %s, want %s", label, got, want)
		}
	})
}

// TestSplitRecordsExchangeEdges: for every exchange, Split records the
// receiver all its readers share and lists the reading fragment once per
// place that receiver stands in — checked against a walk of every
// fragment on every TPC-H and SSB plan under IC, IC+ and IC+M. TPC-H
// Q11's HAVING subquery reads one exchange in two fragments. The plan's
// Edges list each (reading fragment, exchange) pair once, in fragment and
// Receivers order.
func TestSplitRecordsExchangeEdges(t *testing.T) {
	eachPlan(t, []int{4}, func(label string, pp physical.Node) {
		fp := fragment.Split(pp)
		var edges []fragment.Edge
		for _, f := range fp.Fragments {
			for _, ex := range f.Receivers {
				edges = append(edges, fragment.Edge{Exchange: ex, From: fp.Producer[ex].ID, To: f.ID})
			}
		}
		if !slices.Equal(fp.Edges, edges) {
			t.Errorf("%s: edges %v, want %v", label, fp.Edges, edges)
		}
		places := make(map[int][]int) // exchange -> reading fragment IDs, one per place
		for _, f := range fp.Fragments {
			physical.Walk(f.Root, func(n physical.Node) bool {
				if rv, ok := n.(*physical.Receiver); ok {
					places[rv.ExchangeID] = append(places[rv.ExchangeID], f.ID)
					if prod := fp.Producer[rv.ExchangeID]; rv != prod.Receiver {
						t.Errorf("%s: fragment %d reads exchange %d through another receiver than fragment %d's",
							label, f.ID, rv.ExchangeID, prod.ID)
					}
				}
				return true
			})
		}
		shared := false
		for ex, prod := range fp.Producer {
			var got []int
			for _, c := range prod.Consumers {
				got = append(got, c.ID)
			}
			slices.Sort(got)
			if want := places[ex]; !slices.Equal(got, want) {
				t.Errorf("%s: exchange %d consumers %v, want %v", label, ex, got, want)
			}
			shared = shared || len(got) == 2 && got[0] != got[1]
		}
		if strings.HasPrefix(label, "tpch/Q11 ") && !shared {
			t.Errorf("%s: no exchange is read in two fragments", label)
		}
	})
}

var (
	planEnvOnce sync.Once
	planEnv     *harness.Env
)

// eachPlan optimizes every TPC-H and SSB query under IC, IC+ and IC+M at
// SF 0.002 on each of the given site counts and hands fn the plan,
// labelled "tpch/Q3 IC+M 4 sites". Q15, which needs its view, is skipped.
func eachPlan(t *testing.T, sites []int, fn func(label string, pp physical.Node)) {
	t.Helper()
	type query struct{ label, sql string }
	workloads := map[harness.Workload][]query{}
	for _, q := range tpch.Queries() {
		workloads[harness.TPCH] = append(workloads[harness.TPCH], query{fmt.Sprintf("tpch/Q%d", q.ID), q.SQL})
	}
	for _, q := range ssb.Queries() {
		workloads[harness.SSB] = append(workloads[harness.SSB], query{"ssb/" + q.ID, q.SQL})
	}
	planEnvOnce.Do(func() { planEnv = harness.NewEnv() })
	plans := 0
	for _, w := range []harness.Workload{harness.TPCH, harness.SSB} {
		for _, sys := range harness.Systems() {
			for _, n := range sites {
				e, err := planEnv.Engine(w, sys, n, 0.002)
				if err != nil {
					t.Fatal(err)
				}
				for _, q := range workloads[w] {
					pp, err := optimize(e, q.sql)
					if err != nil {
						continue // Q15 needs views
					}
					plans++
					fn(fmt.Sprintf("%s %s %d sites", q.label, sys, n), pp)
				}
			}
		}
	}
	if plans == 0 {
		t.Fatal("no statement planned")
	}
}

// optimize plans a SELECT the way the engine does: bind, the stage-1
// rules, Volcano under the engine's configuration.
func optimize(e *gignite.Engine, query string) (physical.Node, error) {
	cfg := e.Config()
	sel, err := sql.ParseSelect(query)
	if err != nil {
		return nil, err
	}
	lp, err := binder.New(e.Catalog()).BindSelect(sel)
	if err != nil {
		return nil, err
	}
	rc := rules.Config{
		FilterCorrelate:             cfg.FilterCorrelate,
		JoinConditionSimplification: cfg.JoinConditionSimplification,
	}
	lp = hep.RunGroups(lp, rules.Stage1Groups(rc))
	est := stats.New(e.Catalog(), !cfg.SwamiSchieferEstimation)
	return volcano.New(volcano.Config{
		Rules:                 rc,
		TwoPhase:              cfg.TwoPhaseOptimization,
		EnableHashJoin:        cfg.HashJoin,
		FullyDistributedJoins: cfg.FullyDistributedJoins,
		Sites:                 cfg.Sites,
		Est:                   est,
		CostParams: cost.Params{
			LegacyUnits:           !cfg.StandardCostUnits,
			ExchangePenaltyBug:    !cfg.FixExchangePenalty,
			UseDistributionFactor: cfg.DistributionFactor,
		},
		Budget: cfg.PlanningBudget,
	}).Optimize(lp)
}

// referenceWaves orders the fragments by a depth-first walk from each
// fragment in ID order through its receivers' producers, appending a
// fragment once all its producers are in, then groups that order by
// dependency depth.
func referenceWaves(t *testing.T, p *fragment.Plan) [][]*fragment.Fragment {
	state := make(map[int]int) // 0 new, 1 visiting, 2 done
	var order []*fragment.Fragment
	var visit func(f *fragment.Fragment)
	visit = func(f *fragment.Fragment) {
		switch state[f.ID] {
		case 1:
			t.Fatalf("cycle through fragment %d", f.ID)
		case 2:
			return
		}
		state[f.ID] = 1
		for _, ex := range f.Receivers {
			visit(p.Producer[ex])
		}
		state[f.ID] = 2
		order = append(order, f)
	}
	for _, f := range p.Fragments {
		visit(f)
	}
	depth := make(map[int]int)
	var waves [][]*fragment.Fragment
	for _, f := range order {
		d := 0
		for _, ex := range f.Receivers {
			d = max(d, depth[p.Producer[ex].ID]+1)
		}
		depth[f.ID] = d
		for len(waves) <= d {
			waves = append(waves, nil)
		}
		waves[d] = append(waves[d], f)
	}
	return waves
}

// waveIDs renders waves as fragment IDs, e.g. [[2 3] [1] [0]].
func waveIDs(waves [][]*fragment.Fragment) string {
	ids := make([][]int, len(waves))
	for w, frags := range waves {
		for _, f := range frags {
			ids[w] = append(ids[w], f.ID)
		}
	}
	return fmt.Sprint(ids)
}
