package gignite_test

// Chaos suite: TPC-H under deterministic fault injection. Every scenario
// asserts the recovered run returns byte-identical rows to the fault-free
// run (the fault-tolerance layer must be invisible in results), that
// recovery cost is surfaced in the execution stats, and that no
// goroutines leak. Run under -race in CI (the `chaos` job).

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"hash/fnv"
	"math"
	"os"
	"runtime"
	"strings"
	"testing"
	"time"

	"gignite"
	"gignite/internal/harness"
	"gignite/internal/tpch"
)

const chaosSF = 0.005

// chaosQueries are the acceptance queries: a two-phase aggregation (Q1)
// and a join + sort pipeline (Q3), both multi-fragment at 4 sites.
var chaosQueries = []int{1, 3}

// checkGoroutineLeaks fails the test if goroutines outlive it (workers,
// backoff timers). Registered before the work so the cleanup runs after.
func checkGoroutineLeaks(t *testing.T) {
	t.Helper()
	start := runtime.NumGoroutine()
	t.Cleanup(func() {
		deadline := time.Now().Add(2 * time.Second)
		for runtime.NumGoroutine() > start {
			if time.Now().After(deadline) {
				buf := make([]byte, 1<<20)
				n := runtime.Stack(buf, true)
				t.Errorf("goroutine leak: %d at start, %d after\n%s",
					start, runtime.NumGoroutine(), buf[:n])
				return
			}
			time.Sleep(10 * time.Millisecond)
		}
	})
}

// TestChaosFaultPlans: seeded fault plans against TPC-H Q1 and Q3. Each
// scenario's rows must be byte-identical to the fault-free run at every
// worker count, and recovery scenarios must surface retries in the stats.
func TestChaosFaultPlans(t *testing.T) {
	checkGoroutineLeaks(t)
	baseline := openTPCH(t, chaosSF, 4, withFaults(t, 1, ""))
	want := make(map[int][]string)
	wantWork := make(map[int]float64)
	for _, id := range chaosQueries {
		res, err := baseline.Query(tpch.QueryByID(id).SQL)
		if err != nil {
			t.Fatalf("fault-free Q%d: %v", id, err)
		}
		want[id] = rowStrings(res)
		wantWork[id] = res.Stats.Work
	}

	scenarios := []struct {
		name    string
		spec    string
		backups int
		// wantRetries: the plan must force at least one recovery event
		// across the two queries.
		wantRetries bool
		// wantExtraWork: a mid-query crash loses completed work, so the
		// trace must charge more total work than the fault-free run.
		wantExtraWork bool
	}{
		// Site 2 dies while its ordinal-2 instance is in flight: the
		// attempt's work is lost and the instance fails over to the backup.
		{"site crash mid-query", "seed=1;crash=2@2", 1, true, true},
		// Site 1 is already dead when the query starts: pure failover.
		{"site dead at start", "seed=1;crash=1@0", 1, true, false},
		// Flaky transport: sends fail at 10% per attempt; retries redraw a
		// fresh outcome, so every instance eventually gets through.
		{"flaky transport", "seed=2;sendfail=0.1", 1, true, false},
		// Compound: a crash plus a 2x-slow surviving site.
		{"crash with slow survivor", "seed=5;crash=3@1;slow=1x2.0", 1, true, true},
		// Everything at once, including a shrunken memory pool on site 0:
		// instances whose estimated operator state overflows 64KiB there
		// abort with ErrSiteMem and fail over to their backup replica.
		{"full fault matrix with site memory pressure",
			"seed=6;slow=1x4;crash=2@3;sendfail=0.05;mem=0@65536", 1, true, true},
	}
	for _, sc := range scenarios {
		t.Run(sc.name, func(t *testing.T) {
			e := openTPCH(t, chaosSF, 4, withFaults(t, sc.backups, sc.spec))
			retries := 0
			var work float64
			for _, workers := range []int{1, 0} {
				e.SetExecParallelism(workers)
				for _, id := range chaosQueries {
					res, err := e.Query(tpch.QueryByID(id).SQL)
					if err != nil {
						t.Fatalf("workers=%d Q%d: %v", workers, id, err)
					}
					got := rowStrings(res)
					if len(got) != len(want[id]) {
						t.Fatalf("workers=%d Q%d: %d rows, want %d",
							workers, id, len(got), len(want[id]))
					}
					for i := range got {
						if got[i] != want[id][i] {
							t.Fatalf("workers=%d Q%d row %d differs:\n got %s\nwant %s",
								workers, id, i, got[i], want[id][i])
						}
					}
					retries += res.Stats.Retries
					work += res.Stats.Work - wantWork[id]
				}
			}
			if sc.wantRetries && retries == 0 {
				t.Error("no retries recorded; the fault plan injected nothing")
			}
			if sc.wantExtraWork && work <= 0 {
				t.Errorf("total work delta = %g; a mid-query crash must charge lost work", work)
			}
		})
	}
}

// TestChaosNoBackupsFailsCleanly: with zero redundancy a crashed site
// turns into a clean aggregate error, not a panic, hang, or wrong rows.
func TestChaosNoBackupsFailsCleanly(t *testing.T) {
	checkGoroutineLeaks(t)
	e := openTPCH(t, chaosSF, 4, withFaults(t, 0, "seed=1;crash=2@0"))
	for _, id := range chaosQueries {
		_, err := e.Query(tpch.QueryByID(id).SQL)
		if err == nil {
			t.Fatalf("Q%d: crashed site with no backups must fail", id)
		}
	}
}

// TestChaosErrorTextDeterministic: when several instances fail, the
// joined error reports every distinct failure in deterministic job
// order — identical text at Workers=1 and Workers=8.
func TestChaosErrorTextDeterministic(t *testing.T) {
	checkGoroutineLeaks(t)
	e := openTPCH(t, chaosSF, 4, withFaults(t, 0, "seed=1;crash=1@0;crash=2@0"))
	q := tpch.QueryByID(1).SQL
	e.SetExecParallelism(1)
	_, errSeq := e.Query(q)
	if errSeq == nil {
		t.Fatal("two crashed sites with no backups must fail")
	}
	e.SetExecParallelism(8)
	_, errPar := e.Query(q)
	if errPar == nil {
		t.Fatal("two crashed sites with no backups must fail")
	}
	if errSeq.Error() != errPar.Error() {
		t.Errorf("error text depends on worker count:\nworkers=1: %s\nworkers=8: %s",
			errSeq, errPar)
	}
}

// uncancelledIC configures the IC baseline with the work limit disabled,
// so its mis-planned nested-loop joins run indefinitely unless cancelled.
func uncancelledIC(c *gignite.Config) {
	*c = gignite.IC(4)
	c.ExecWorkLimit = -1
}

// longRunningSQL forces a huge nested-loop join (the condition is not an
// equi-join, so every plan falls back to NL) that emits nothing — only
// cancellation can stop it early.
const longRunningSQL = `select count(*) from lineitem l1, lineitem l2
where l1.l_orderkey + l2.l_orderkey < 0`

// TestChaosDeadlineCancelsQuery: a context deadline aborts a long query
// with context.DeadlineExceeded.
func TestChaosDeadlineCancelsQuery(t *testing.T) {
	checkGoroutineLeaks(t)
	e := openTPCH(t, chaosSF, 4, uncancelledIC)
	ctx, cancel := context.WithTimeout(context.Background(), time.Millisecond)
	defer cancel()
	_, err := e.QueryContext(ctx, longRunningSQL)
	if !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("err = %v, want context.DeadlineExceeded", err)
	}

	// Config.QueryTimeout is the engine-level form of the same deadline.
	cfg := e.Config()
	cfg.QueryTimeout = time.Millisecond
	te := gignite.Open(gignite.WithConfig(cfg))
	if err := tpch.Setup(te, chaosSF); err != nil {
		t.Fatal(err)
	}
	if _, err := te.Query(longRunningSQL); !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("QueryTimeout err = %v, want context.DeadlineExceeded", err)
	}
}

// TestChaosClientCancelMidWave: an explicit client cancel fired while the
// first wave is executing stops the query with context.Canceled.
func TestChaosClientCancelMidWave(t *testing.T) {
	checkGoroutineLeaks(t)
	e := openTPCH(t, chaosSF, 4, uncancelledIC)
	ctx, cancel := context.WithCancel(context.Background())
	go func() {
		time.Sleep(5 * time.Millisecond)
		cancel()
	}()
	start := time.Now()
	_, err := e.QueryContext(ctx, longRunningSQL)
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
	// Without cancellation this join is ~10^9 row evaluations; returning
	// quickly proves the operators observed the cancel mid-execution.
	if elapsed := time.Since(start); elapsed > 30*time.Second {
		t.Errorf("cancel took %v to take effect", elapsed)
	}
}

// updateFaults makes TestFaultOutcomesGolden rewrite testdata/faults.golden
// from the current outcomes instead of comparing against it.
var updateFaults = flag.Bool("update-faults", false, "TestFaultOutcomesGolden: rewrite testdata/faults.golden")

// faultOutcomeSpec is the fault plan TestFaultOutcomesGolden runs under: a
// crash in mid-query, flaky sends and a slow site, so the scheduler's
// retry and failover paths both fire.
const faultOutcomeSpec = "seed=7;crash=2@4;sendfail=0.05;slow=1x2.0"

// TestFaultOutcomesGolden pins what every TPC-H query does under one fault
// plan, field by field: modeled time, the exact bits of Work, shipped
// bytes, instances, retries, spans, replans and a hash of the rows, and
// holds every line to the span ledger spans == instances + retries +
// replans. A fault plan addresses instances by ordinal, so a change
// to the schedule that reshuffles ordinals — which the chaos tests, which
// compare rows only, would not notice — moves a line here. Rewrite the
// file with -update-faults only for a change that means to move them.
func TestFaultOutcomesGolden(t *testing.T) {
	const (
		path  = "testdata/faults.golden"
		sf    = 0.002
		sites = 4
	)
	configs := []struct {
		name string
		sys  harness.System
		opts []gignite.Option
	}{
		{"IC+", harness.ICPlus, nil},
		{"IC+M", harness.ICPM, nil},
		{"IC+M+adaptive", harness.ICPM, []gignite.Option{func(c *gignite.Config) {
			c.AdaptiveExec = true
			c.StatsMisestimate = 10
		}}},
	}
	var out strings.Builder
	for _, cfg := range configs {
		opts := append([]gignite.Option{gignite.WithConfig(harness.ConfigFor(cfg.sys, sites, sf)),
			withFaults(t, 1, faultOutcomeSpec),
			func(c *gignite.Config) { c.ExperimentalViews = true }}, cfg.opts...)
		e := gignite.Open(opts...)
		if err := tpch.Setup(e, sf); err != nil {
			t.Fatal(err)
		}
		for _, q := range tpch.Queries() {
			// Q15's view.
			for _, stmt := range q.Setup {
				if _, err := e.Exec(stmt); err != nil {
					t.Fatalf("Q%d setup: %v", q.ID, err)
				}
			}
			fmt.Fprintf(&out, "%s Q%02d ", cfg.name, q.ID)
			res, err := e.Query(q.SQL)
			if err != nil {
				fmt.Fprintf(&out, "error: %v\n", err)
				continue
			}
			h := fnv.New64a()
			h.Write([]byte(rowsChecksum(res.Rows)))
			s := res.Stats
			// Every attempt is one span, and so is every adaptive pass.
			if s.Spans != s.Instances+s.Retries+s.AdaptiveReplans {
				t.Errorf("%s Q%02d: span ledger broken: spans=%d instances=%d retries=%d replans=%d",
					cfg.name, q.ID, s.Spans, s.Instances, s.Retries, s.AdaptiveReplans)
			}
			fmt.Fprintf(&out, "rows=%d hash=%016x modeled=%d work=%016x bytes=%016x instances=%d retries=%d spans=%d replans=%d/%d\n",
				len(res.Rows), h.Sum64(), s.Modeled.Nanoseconds(), math.Float64bits(s.Work),
				math.Float64bits(s.BytesShipped), s.Instances, s.Retries, s.Spans,
				s.AdaptiveReplans, s.AdaptiveSwitches)
		}
		if err := e.Close(); err != nil {
			t.Fatal(err)
		}
	}
	if *updateFaults {
		if err := os.WriteFile(path, []byte(out.String()), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	gotLines, wantLines := strings.Split(out.String(), "\n"), strings.Split(string(want), "\n")
	for i := range max(len(gotLines), len(wantLines)) {
		var g, w string
		if i < len(gotLines) {
			g = gotLines[i]
		}
		if i < len(wantLines) {
			w = wantLines[i]
		}
		if g != w {
			t.Errorf("line %d:\n got %s\nwant %s", i+1, g, w)
		}
	}
}
