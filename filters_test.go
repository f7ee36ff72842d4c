// Tests for runtime join-filter pushdown (DESIGN.md §13): shipped-volume
// regression guards on TPC-H Q3/Q5/Q10, byte-identity of results with
// filters on vs. off at every host parallelism and under fault plans, and
// the filter microbenchmark recorded in BENCH_runtime_filter.json.
package gignite_test

import (
	"fmt"
	"strings"
	"testing"

	"gignite"
	"gignite/internal/tpch"
)

// filterTestSF is large enough that Q3/Q5/Q10 build non-trivial filters
// but small enough for the test suite's time budget.
const filterTestSF = 0.05

func filtersOn(c *gignite.Config) { c.RuntimeFilters = true }

// rowsChecksum renders a result set to a comparable string (row order
// included: the engine's results are deterministic and ordered).
func rowsChecksum(rows []gignite.Row) string {
	var sb strings.Builder
	for _, r := range rows {
		sb.WriteString(r.String())
		sb.WriteByte('\n')
	}
	return sb.String()
}

// exchangeRows sums the rows shipped over a set of exchange IDs, read
// from the query's per-edge observation record.
func exchangeRows(res *gignite.Result, exchanges map[int]bool) int64 {
	var n int64
	for _, e := range res.Obs.Edges {
		if exchanges[e.Exchange] {
			n += e.Rows
		}
	}
	return n
}

// TestRuntimeFilterShippedRows is the rows-shipped regression guard: with
// filters on, the rows crossing Q3/Q5/Q10's guarded exchanges must drop
// by the per-query floor, total shipped bytes must drop, and the modeled
// response time must not regress — while results stay byte-identical.
//
// The floors are what the data admits: Q3 and Q5 prune well past 30%. In
// Q10 the only selective build is lineitem(l_returnflag='R'), and return
// flags correlate with the query's 1993Q4 order window (old lineitems are
// R/A half-and-half), so most probe orders genuinely have a returned
// lineitem; ~14% of the guarded exchange's rows are all that is
// semantically prunable.
func TestRuntimeFilterShippedRows(t *testing.T) {
	off := openTPCH(t, filterTestSF, 4)
	on := openTPCH(t, filterTestSF, 4, filtersOn)
	for _, tc := range []struct {
		qid     int
		minDrop float64
	}{{3, 0.30}, {5, 0.30}, {10, 0.10}} {
		t.Run(fmt.Sprintf("Q%d", tc.qid), func(t *testing.T) {
			sql := tpch.QueryByID(tc.qid).SQL
			base, err := off.Query(sql)
			if err != nil {
				t.Fatal(err)
			}
			res, err := on.Query(sql)
			if err != nil {
				t.Fatal(err)
			}
			if got, want := rowsChecksum(res.Rows), rowsChecksum(base.Rows); got != want {
				t.Fatalf("results diverge with filters on (%d vs %d rows)", len(res.Rows), len(base.Rows))
			}
			st := res.Stats
			if st.FiltersBuilt == 0 {
				t.Fatal("no runtime filters were built")
			}
			guarded := make(map[int]bool)
			var pruned int64
			for _, f := range res.Obs.Filters {
				guarded[f.Exchange] = true
				pruned += f.RowsPruned
			}
			offRows := exchangeRows(base, guarded)
			onRows := exchangeRows(res, guarded)
			if offRows == 0 {
				t.Fatal("guarded exchanges shipped no rows with filters off")
			}
			drop := 1 - float64(onRows)/float64(offRows)
			t.Logf("filters=%d guarded rows %d -> %d (%.1f%% fewer) pruned=%d bytes %.0f -> %.0f modeled %v -> %v",
				st.FiltersBuilt, offRows, onRows, 100*drop, st.RowsPruned,
				base.Stats.BytesShipped, st.BytesShipped, base.Modeled, res.Modeled)
			if drop < tc.minDrop {
				t.Errorf("guarded exchanges shipped %.1f%% fewer rows, want >= %.0f%%", 100*drop, 100*tc.minDrop)
			}
			if st.BytesShipped >= base.Stats.BytesShipped {
				t.Errorf("bytes shipped %.0f did not drop below filters-off %.0f",
					st.BytesShipped, base.Stats.BytesShipped)
			}
			if res.Modeled > base.Modeled {
				t.Errorf("modeled time regressed: %v > %v", res.Modeled, base.Modeled)
			}
			if pruned != st.RowsPruned {
				t.Errorf("FilterObs pruned sum %d != Stats.RowsPruned %d", pruned, st.RowsPruned)
			}
		})
	}
}

// TestRuntimeFilterDeterminism checks byte-identity across host
// parallelism: filters on must return the same rows as filters off at
// ExecParallelism 1, 2 and 8, with identical modeled times at every
// parallelism (host workers must never leak into results or the clock).
func TestRuntimeFilterDeterminism(t *testing.T) {
	off := openTPCH(t, filterTestSF, 4)
	on := openTPCH(t, filterTestSF, 4, filtersOn)
	for _, qid := range []int{3, 5, 10} {
		sql := tpch.QueryByID(qid).SQL
		off.SetExecParallelism(1)
		base, err := off.Query(sql)
		if err != nil {
			t.Fatal(err)
		}
		want := rowsChecksum(base.Rows)
		var modeledOn string
		for _, par := range []int{1, 2, 8} {
			on.SetExecParallelism(par)
			res, err := on.Query(sql)
			if err != nil {
				t.Fatalf("Q%d par=%d: %v", qid, par, err)
			}
			if got := rowsChecksum(res.Rows); got != want {
				t.Errorf("Q%d par=%d: results diverge from filters-off sequential run", qid, par)
			}
			if modeledOn == "" {
				modeledOn = res.Modeled.String()
			} else if res.Modeled.String() != modeledOn {
				t.Errorf("Q%d par=%d: modeled time %v != %v at other parallelism", qid, par, res.Modeled, modeledOn)
			}
		}
	}
}

// TestRuntimeFilterUnderFaults checks that a site crash with failover
// produces the same rows with filters on as off: the pre-pass instances
// share the fragments' retry/failover machinery and filters are keyed to
// logical site identity, so recovery must not change what gets pruned.
func TestRuntimeFilterUnderFaults(t *testing.T) {
	const faultSpec = "seed=7;crash=2@5"
	clean := openTPCH(t, filterTestSF, 4, withFaults(t, 1, ""))
	off := openTPCH(t, filterTestSF, 4, withFaults(t, 1, faultSpec))
	on := openTPCH(t, filterTestSF, 4, filtersOn, withFaults(t, 1, faultSpec))
	for _, qid := range []int{3, 5, 10} {
		sql := tpch.QueryByID(qid).SQL
		base, err := clean.Query(sql)
		if err != nil {
			t.Fatal(err)
		}
		want := rowsChecksum(base.Rows)
		resOff, err := off.Query(sql)
		if err != nil {
			t.Fatalf("Q%d filters=off under faults: %v", qid, err)
		}
		if rowsChecksum(resOff.Rows) != want {
			t.Fatalf("Q%d: filters-off faulted run diverges from clean run", qid)
		}
		resOn, err := on.Query(sql)
		if err != nil {
			t.Fatalf("Q%d filters=on under faults: %v", qid, err)
		}
		if rowsChecksum(resOn.Rows) != want {
			t.Errorf("Q%d: filters-on faulted run diverges from clean run", qid)
		}
		if resOn.Stats.Retries == 0 {
			t.Errorf("Q%d: fault plan injected no retries (crash point never reached?)", qid)
		}
	}
}

// TestRuntimeFilterExplainAnalyze checks the observability surface: the
// EXPLAIN ANALYZE report must carry per-filter summary lines with pruned
// counts and per-operator pruned= annotations.
func TestRuntimeFilterExplainAnalyze(t *testing.T) {
	on := openTPCH(t, filterTestSF, 4, filtersOn)
	res, err := on.Exec("EXPLAIN ANALYZE " + tpch.QueryByID(3).SQL)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(res.PlanText, "runtime filter #") {
		t.Errorf("EXPLAIN ANALYZE lacks runtime filter summary:\n%s", res.PlanText)
	}
	if !strings.Contains(res.PlanText, "pruned=") {
		t.Errorf("EXPLAIN ANALYZE lacks pruned counts:\n%s", res.PlanText)
	}
	if !strings.Contains(res.PlanText, "rows_pruned=") {
		t.Errorf("EXPLAIN ANALYZE summary lacks rows_pruned total:\n%s", res.PlanText)
	}
}

// BenchmarkRuntimeFilter runs Q3 with filters off and on; the recorded
// deltas (modeled time, shipped bytes, rows pruned) are snapshotted in
// BENCH_runtime_filter.json.
func BenchmarkRuntimeFilter(b *testing.B) {
	for _, mode := range []struct {
		name    string
		filters bool
	}{{"off", false}, {"on", true}} {
		b.Run(mode.name, func(b *testing.B) {
			e := openTPCH(b, filterTestSF, 4, func(c *gignite.Config) { c.RuntimeFilters = mode.filters })
			sql := tpch.QueryByID(3).SQL
			var res *gignite.Result
			var err error
			for i := 0; i < b.N; i++ {
				res, err = e.Query(sql)
				if err != nil {
					b.Fatal(err)
				}
			}
			b.ReportMetric(float64(res.Modeled.Microseconds())/1000, "modeled_ms")
			b.ReportMetric(res.Stats.BytesShipped, "bytes_shipped")
			b.ReportMetric(float64(res.Stats.RowsPruned), "rows_pruned")
		})
	}
}
