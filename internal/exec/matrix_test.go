package exec_test

import (
	"fmt"
	"testing"

	"gignite"
	"gignite/internal/empdb"
	"gignite/internal/exec"
	"gignite/internal/types"
)

// TestDifferentialFeatureMatrix runs the random-query generator of the
// engine's TestRandomQueryDifferential through every combination of the
// features added on top of the paper's system — adaptive re-planning ×
// plan cache × host parallelism {1, 2, 8} × {no faults, a site crash
// recovered from a backup replica} — and checks every result against the
// reference interpreter. It lives here, not next
// to the generator's other user, because only this package's tests can
// shrink the pipeline's batch size: every other query runs with batches
// of 3 rows, so that on the 100/500-row fixture each streaming operator,
// each join's probe and each breaker's slab crosses batch boundaries in
// every leg.
func TestDifferentialFeatureMatrix(t *testing.T) {
	const queriesPerLeg = 24
	leg := 0
	for _, adaptive := range []bool{false, true} {
		for _, planCache := range []int{0, 64} {
			for _, par := range []int{1, 2, 8} {
				for _, faults := range []string{"", "seed=7;crash=2@4"} {
					leg++
					name := fmt.Sprintf("adaptive=%t/cache=%d/par=%d/faults=%q",
						adaptive, planCache, par, faults)
					cfg := gignite.ICPlusM(4)
					cfg.AdaptiveExec = adaptive
					if adaptive {
						// The re-planner only acts on misestimation.
						cfg.StatsMisestimate = 10
					}
					cfg.PlanCacheSize = planCache
					cfg.ExecParallelism = par
					if faults != "" {
						plan, err := gignite.ParseFaults(faults)
						if err != nil {
							t.Fatal(err)
						}
						cfg.Faults = plan
						cfg.Backups = 1
					}
					runMatrixLeg(t, name, cfg, uint64(0xD1FF+leg), queriesPerLeg)
				}
			}
		}
	}
}

func runMatrixLeg(t *testing.T, name string, cfg gignite.Config, seed uint64, queries int) {
	t.Helper()
	e := gignite.Open(gignite.WithConfig(cfg))
	defer e.Close()
	for _, ddl := range empdb.DDL {
		if _, err := e.Exec(ddl); err != nil {
			t.Fatalf("%s: %v", name, err)
		}
	}
	for _, tbl := range empdb.Tables() {
		if err := e.LoadTable(tbl.Name, tbl.Rows); err != nil {
			t.Fatalf("%s: %v", name, err)
		}
	}
	if err := e.Analyze(); err != nil {
		t.Fatalf("%s: %v", name, err)
	}
	gen := empdb.NewGen(seed)
	for i := 0; i < queries; i++ {
		q := gen.Query()
		want, err := e.ReferenceQuery(q)
		if err != nil {
			t.Fatalf("%s: query %d on reference: %v\n%s", name, i, err, q)
		}
		batch := "default"
		restore := func() {}
		if i%2 == 0 {
			batch, restore = "3", exec.SetBatchSize(3)
		}
		// Twice, so that a plan-cache leg executes both the miss and the
		// hit path.
		for run := 0; run < 2; run++ {
			got, err := e.Query(q)
			if err != nil {
				restore()
				t.Fatalf("%s: query %d (batch %s, run %d): %v\n%s", name, i, batch, run, err, q)
			}
			if diff := diffRows(want, got.Rows); diff != "" {
				restore()
				t.Fatalf("%s: query %d (batch %s, run %d) differs from reference: %s\n%s",
					name, i, batch, run, diff, q)
			}
		}
		restore()
	}
}

func diffRows(want, got []types.Row) string {
	cw, cg := empdb.Canonical(want), empdb.Canonical(got)
	if len(cw) != len(cg) {
		return fmt.Sprintf("%d rows, want %d", len(cg), len(cw))
	}
	for i := range cw {
		if cw[i] != cg[i] {
			return fmt.Sprintf("row %d is %s, want %s", i, cg[i], cw[i])
		}
	}
	return ""
}
