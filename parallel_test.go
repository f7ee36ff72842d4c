package gignite_test

import (
	"errors"
	"fmt"
	"sort"
	"strings"
	"sync"
	"testing"
	"time"

	"gignite"
	"gignite/internal/harness"
	"gignite/internal/tpch"
	"gignite/internal/types"
)

// parallelTestQueries is a fast, multi-fragment TPC-H subset: scans,
// hash joins, two-phase aggregations and sorts across 4 sites.
var parallelTestQueries = []int{1, 3, 6, 12, 14}

const parallelTestSF = 0.01

// openTPCH is the root tests' one loaded-engine opener: an IC+ engine on
// `sites` sites with the work limit scaled to sf (harness.ConfigFor), the
// given options applied in order, and TPC-H loaded at sf.
func openTPCH(tb testing.TB, sf float64, sites int, opts ...gignite.Option) *gignite.Engine {
	tb.Helper()
	base := gignite.WithConfig(harness.ConfigFor(harness.ICPlus, sites, sf))
	e := gignite.Open(append([]gignite.Option{base}, opts...)...)
	if err := tpch.Setup(e, sf); err != nil {
		tb.Fatal(err)
	}
	return e
}

// parallelism sets the host worker-pool bound.
func parallelism(n int) gignite.Option {
	return func(c *gignite.Config) { c.ExecParallelism = n }
}

// withFaults sets the backup replica count and the fault plan parsed from
// spec ("" injects nothing).
func withFaults(tb testing.TB, backups int, spec string) gignite.Option {
	tb.Helper()
	plan, err := gignite.ParseFaults(spec)
	if err != nil {
		tb.Fatalf("fault spec %q: %v", spec, err)
	}
	return func(c *gignite.Config) {
		c.Backups = backups
		c.Faults = plan
	}
}

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
	icpm := func(c *gignite.Config) { *c = harness.ConfigFor(harness.ICPM, 4, parallelTestSF) }
	seq := openTPCH(t, parallelTestSF, 4, icpm, parallelism(1))
	par := openTPCH(t, parallelTestSF, 4, icpm)
	plain := openTPCH(t, parallelTestSF, 4, parallelism(1))

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

// TestOverloadConcurrentClients is resource governance (DESIGN.md §14)
// under real concurrency: 8 goroutines race TPC-H Q1/Q3 into an engine
// that admits two at a time over a memory pool holding about two queries'
// operator state. With a short admission timeout the excess load must
// shed with ErrOverloaded and nothing else; with a patient one the FIFO
// queue must drain completely. Every admitted result is byte-identical to
// the ungoverned run.
func TestOverloadConcurrentClients(t *testing.T) {
	const clients = 8
	ids := []int{1, 3}
	// The huge per-query budget only turns memory accounting on: this
	// engine supplies the expected rows and the peaks that size the pool.
	ref := openTPCH(t, chaosSF, 4, func(c *gignite.Config) { c.QueryMemLimitBytes = 1 << 40 })
	want := make(map[int]string)
	var maxPeak int64
	for _, id := range ids {
		res, err := ref.Query(tpch.QueryByID(id).SQL)
		if err != nil {
			t.Fatalf("ungoverned Q%d: %v", id, err)
		}
		want[id] = rowsChecksum(res.Rows)
		maxPeak = max(maxPeak, res.Stats.MemPeakBytes)
	}
	for _, tc := range []struct {
		name     string
		timeout  time.Duration
		allAdmit bool
	}{{"shed", 50 * time.Millisecond, false}, {"queue", 60 * time.Second, true}} {
		t.Run(tc.name, func(t *testing.T) {
			e := openTPCH(t, chaosSF, 4, func(c *gignite.Config) {
				c.MaxConcurrentQueries = 2
				c.MemoryBudgetBytes = 2*maxPeak + 1<<20
				c.AdmissionTimeout = tc.timeout
			})
			rows, errs := make([]string, clients), make([]error, clients)
			var wg sync.WaitGroup
			for i := 0; i < clients; i++ {
				wg.Add(1)
				go func(i int) {
					defer wg.Done()
					res, err := e.Query(tpch.QueryByID(ids[i%len(ids)]).SQL)
					if err != nil {
						errs[i] = err
						return
					}
					rows[i] = rowsChecksum(res.Rows)
				}(i)
			}
			wg.Wait()
			admitted := 0
			for i, err := range errs {
				id := ids[i%len(ids)]
				switch {
				case err == nil:
					admitted++
					if rows[i] != want[id] {
						t.Errorf("admitted Q%d rows differ from the ungoverned run", id)
					}
				case !errors.Is(err, gignite.ErrOverloaded):
					t.Errorf("Q%d failed outside the shed taxonomy: %v", id, err)
				}
			}
			t.Logf("%d/%d admitted, the rest shed with ErrOverloaded", admitted, clients)
			if admitted == 0 || (tc.allAdmit && admitted != clients) {
				t.Errorf("%d/%d admitted", admitted, clients)
			}
		})
	}
}

// TestExecStatsReportWorkers: the engine surfaces the pool size it ran
// with, and ExecParallelism=1 reports one worker.
func TestExecStatsReportWorkers(t *testing.T) {
	seq := openTPCH(t, parallelTestSF, 4, parallelism(1))
	res, err := seq.Query(tpch.QueryByID(3).SQL)
	if err != nil {
		t.Fatal(err)
	}
	if res.Stats.Workers != 1 {
		t.Errorf("sequential workers = %d, want 1", res.Stats.Workers)
	}
	par := openTPCH(t, parallelTestSF, 4, parallelism(3))
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
