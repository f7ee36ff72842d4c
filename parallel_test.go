package gignite_test

import (
	"fmt"
	"sort"
	"strings"
	"sync"
	"testing"

	"gignite"
	"gignite/internal/harness"
	"gignite/internal/tpch"
	"gignite/internal/types"
)

// parallelTestQueries is a fast, multi-fragment TPC-H subset: scans,
// hash joins, two-phase aggregations and sorts across 4 sites.
var parallelTestQueries = []int{1, 3, 6, 12, 14}

const parallelTestSF = 0.01

func openParallelTestEngine(t testing.TB, sys harness.System, parallelism int) *gignite.Engine {
	t.Helper()
	cfg := harness.ConfigFor(sys, 4, parallelTestSF)
	cfg.ExecParallelism = parallelism
	e := gignite.Open(gignite.WithConfig(cfg))
	if err := tpch.Setup(e, parallelTestSF); err != nil {
		t.Fatal(err)
	}
	return e
}

func rowStrings(res *gignite.Result) []string {
	out := make([]string, len(res.Rows))
	for i, r := range res.Rows {
		out[i] = r.String()
	}
	return out
}

// roundedRowStrings renders rows with floats rounded to 9 significant
// digits. Variant fragments (§5.3) aggregate partial sums in a different
// order than single-threaded fragments, so float columns may differ in
// the low-order bits between variants=1 and variants=2 — legitimately,
// as in the paper's system.
func roundedRowStrings(res *gignite.Result) []string {
	out := make([]string, len(res.Rows))
	for i, r := range res.Rows {
		parts := make([]string, len(r))
		for j, v := range r {
			if v.K == types.KindFloat {
				parts[j] = fmt.Sprintf("%.9g", v.Float())
			} else {
				parts[j] = v.String()
			}
		}
		out[i] = strings.Join(parts, "|")
	}
	return out
}

// TestConcurrentEngineExec drives the paper's multi-client setting for
// real: N goroutines issue mixed TPC-H SELECTs against one engine (run
// under -race in CI). Every result must be byte-identical to the
// sequential (ExecParallelism=1) run of the same engine configuration,
// and the variant-fragment (IC+M, variants=2) output must be
// order-insensitive-equal to the single-threaded IC+ output.
func TestConcurrentEngineExec(t *testing.T) {
	seq := openParallelTestEngine(t, harness.ICPM, 1)
	par := openParallelTestEngine(t, harness.ICPM, 0)
	plain := openParallelTestEngine(t, harness.ICPlus, 1)

	want := make(map[int][]string)
	for _, id := range parallelTestQueries {
		q := tpch.QueryByID(id)
		res, err := seq.Query(q.SQL)
		if err != nil {
			t.Fatalf("sequential Q%d: %v", id, err)
		}
		want[id] = rowStrings(res)

		// Variant fragments (IC+M, variants=2) vs no variants (IC+):
		// order-insensitive-equal, with float columns rounded because
		// partial-aggregation order differs between the two.
		pres, err := plain.Query(q.SQL)
		if err != nil {
			t.Fatalf("IC+ Q%d: %v", id, err)
		}
		vs, ps := roundedRowStrings(res), roundedRowStrings(pres)
		sort.Strings(vs)
		sort.Strings(ps)
		if fmt.Sprint(vs) != fmt.Sprint(ps) {
			t.Fatalf("Q%d: variants=2 output differs from variants=1 (order-insensitive)", id)
		}
	}

	const clients = 8
	const rounds = 3
	var wg sync.WaitGroup
	errs := make(chan error, clients*rounds*len(parallelTestQueries))
	for c := 0; c < clients; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			for r := 0; r < rounds; r++ {
				for k := range parallelTestQueries {
					// Rotate the order per client so different queries
					// overlap in flight.
					id := parallelTestQueries[(k+c)%len(parallelTestQueries)]
					res, err := par.Query(tpch.QueryByID(id).SQL)
					if err != nil {
						errs <- fmt.Errorf("client %d Q%d: %v", c, id, err)
						continue
					}
					got := rowStrings(res)
					if len(got) != len(want[id]) {
						errs <- fmt.Errorf("client %d Q%d: %d rows, want %d",
							c, id, len(got), len(want[id]))
						continue
					}
					for i := range got {
						if got[i] != want[id][i] {
							errs <- fmt.Errorf("client %d Q%d row %d: %s, want %s",
								c, id, i, got[i], want[id][i])
							break
						}
					}
				}
			}
		}(c)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Error(err)
	}
}

// TestExecStatsReportWorkers: the engine surfaces the pool size it ran
// with, and ExecParallelism=1 reports one worker.
func TestExecStatsReportWorkers(t *testing.T) {
	seq := openParallelTestEngine(t, harness.ICPlus, 1)
	res, err := seq.Query(tpch.QueryByID(3).SQL)
	if err != nil {
		t.Fatal(err)
	}
	if res.Stats.Workers != 1 {
		t.Errorf("sequential workers = %d, want 1", res.Stats.Workers)
	}
	par := openParallelTestEngine(t, harness.ICPlus, 3)
	res, err = par.Query(tpch.QueryByID(3).SQL)
	if err != nil {
		t.Fatal(err)
	}
	if res.Stats.Workers != 3 {
		t.Errorf("parallel workers = %d, want 3", res.Stats.Workers)
	}
	if res.Stats.Instances <= res.Stats.Fragments {
		t.Errorf("instances = %d, fragments = %d: expected per-site fan-out",
			res.Stats.Instances, res.Stats.Fragments)
	}
}
