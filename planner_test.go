// Tests and the microbenchmark of planning cost on the host: what the
// Volcano stage allocates and how long it takes, on exactly the plan and
// planner a statement gets (export_test.go exposes buildEntry's halves).
package gignite_test

import (
	"fmt"
	"sync"
	"testing"

	"gignite"
	"gignite/internal/harness"
	"gignite/internal/logical"
	"gignite/internal/physical"
	"gignite/internal/ssb"
	"gignite/internal/stats"
	"gignite/internal/tpch"
)

// plannerSink keeps the compiler from discarding a benchmarked plan.
var plannerSink physical.Node

// BenchmarkOptimize measures one Volcano run (logical phase, join-order
// exploration, physical search) over an already bound statement, for the
// join-heavy TPC-H queries under the single-phase (IC) and two-phase
// (IC+M) regimes. tickets/op is the search effort ns/op and allocs/op
// are paid for.
func BenchmarkOptimize(b *testing.B) {
	const sf = 0.001
	for _, sys := range []harness.System{harness.IC, harness.ICPM} {
		e := gignite.Open(gignite.WithConfig(harness.ConfigFor(sys, 4, sf)))
		if err := tpch.Setup(e, sf); err != nil {
			b.Fatal(err)
		}
		for _, id := range []int{2, 5, 8, 10, 20} {
			b.Run(fmt.Sprintf("%s/Q%d", sys, id), func(b *testing.B) {
				lp, err := e.BindLogical(tpch.QueryByID(id).SQL)
				if err != nil {
					b.Fatal(err)
				}
				b.ReportAllocs()
				b.ResetTimer()
				tickets := 0
				for i := 0; i < b.N; i++ {
					vp := e.NewPlanner()
					if plannerSink, err = vp.Optimize(lp); err != nil {
						b.Fatal(err)
					}
					tickets = vp.TicketsUsed
				}
				b.ReportMetric(float64(tickets), "tickets/op")
			})
		}
	}
}

// planningAllocs is the ceiling on heap objects made by parse + bind +
// Hep + Volcano for one statement on IC+M at SF 0.001, over the five
// plan_adhoc queries: about 25% above the measured value (in the
// comment). Building every priced alternative's join and enforcers made
// 6,245, 4,361, 5,427, 6,905 and 5,610, and the digest-keyed memo with its
// stateless estimator made 57,106 (Q5) and 88,056 (Q8), so a regression to
// either does not fit in the margin.
var planningAllocs = map[int]float64{
	2:  3300, // 2,630
	5:  2150, // 1,707
	8:  2800, // 2,242
	10: 2550, // 2,053
	20: 2550, // 2,029
}

func TestPlanningAllocationBudget(t *testing.T) {
	e := openTPCH(t, 0.001, 4, gignite.WithConfig(harness.ConfigFor(harness.ICPM, 4, 0.001)))
	for id, ceiling := range planningAllocs {
		q := tpch.QueryByID(id).SQL
		got := testing.AllocsPerRun(5, func() {
			lp, err := e.BindLogical(q)
			if err != nil {
				t.Fatal(err)
			}
			if _, err := e.NewPlanner().Optimize(lp); err != nil {
				t.Fatal(err)
			}
		})
		t.Logf("Q%d: %.0f allocs per planned statement (ceiling %.0f)", id, got, ceiling)
		if got > ceiling {
			t.Errorf("Q%d: planning made %.0f heap objects, budget is %.0f", id, got, ceiling)
		}
	}
}

// TestEstimateMemoIsExact: the estimator remembers RowCount and NDV per
// node for its planning run. Over every node and column of every TPC-H
// and SSB plan, under both join-size estimators and with misestimation
// injected, the remembered answer must be the float a fresh estimator
// computes — bit for bit, since costs and therefore plans hang off it.
func TestEstimateMemoIsExact(t *testing.T) {
	const sf = 0.001
	type statement struct{ label, sql string }
	workloads := map[harness.Workload][]statement{}
	for _, q := range tpch.Queries() {
		if !q.RequiresViews {
			workloads[harness.TPCH] = append(workloads[harness.TPCH], statement{fmt.Sprintf("TPC-H Q%d", q.ID), q.SQL})
		}
	}
	for _, q := range ssb.Queries() {
		workloads[harness.SSB] = append(workloads[harness.SSB], statement{"SSB " + q.ID, q.SQL})
	}
	for w, statements := range workloads {
		e := gignite.Open(gignite.WithConfig(harness.ConfigFor(harness.ICPlus, 4, sf)))
		if err := w.Setup(e, sf); err != nil {
			t.Fatal(err)
		}
		for _, st := range statements {
			lp, err := e.BindLogical(st.sql)
			if err != nil {
				t.Fatalf("%s: %v", st.label, err)
			}
			for _, mode := range []struct {
				legacy bool
				mis    float64
			}{{false, 0}, {true, 0}, {false, 0.1}} {
				fresh := func() *stats.Estimator {
					est := stats.New(e.Catalog(), mode.legacy)
					est.Misestimate = mode.mis
					return est
				}
				memo := fresh()
				logical.Walk(lp, func(n logical.Node) bool {
					if got, want := memo.RowCount(n), fresh().RowCount(n); got != want {
						t.Errorf("%s %+v: remembered RowCount(%s) = %v, fresh %v", st.label, mode, n.Digest(), got, want)
					}
					for col := range n.Schema() {
						if got, want := memo.NDV(n, col), fresh().NDV(n, col); got != want {
							t.Errorf("%s %+v: remembered NDV(%s, %d) = %v, fresh %v", st.label, mode, n.Digest(), col, got, want)
						}
					}
					return true
				})
			}
		}
	}
}

// TestConcurrentAdhocPlanning: eight goroutines plan eight different
// statements on one engine, plan cache off. Planner and estimator hold
// per-run memos; this passes under -race only because each statement
// gets its own pair.
func TestConcurrentAdhocPlanning(t *testing.T) {
	e := openTPCH(t, 0.001, 4)
	ids := []int{2, 3, 5, 7, 8, 9, 10, 18}
	want := make([]string, len(ids))
	for i, id := range ids {
		var err error
		if want[i], err = e.Explain(tpch.QueryByID(id).SQL); err != nil {
			t.Fatalf("Q%d: %v", id, err)
		}
	}
	var wg sync.WaitGroup
	for i, id := range ids {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for round := 0; round < 5; round++ {
				got, err := e.Explain(tpch.QueryByID(id).SQL)
				if err != nil {
					t.Errorf("Q%d: %v", id, err)
					return
				}
				if got != want[i] {
					t.Errorf("Q%d planned differently next to seven other planners:\n%s\nalone:\n%s", id, got, want[i])
					return
				}
			}
		}()
	}
	wg.Wait()
}
