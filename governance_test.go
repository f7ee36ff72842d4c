package gignite

import (
	"context"
	"errors"
	"runtime"
	"strings"
	"testing"
	"time"
)

// governedConfig is ICPlus(4) with the admission gate enabled: one query
// at a time, tiny queue wait so shed tests settle fast.
func governedConfig() Config {
	cfg := ICPlus(4)
	cfg.MaxConcurrentQueries = 1
	cfg.AdmissionTimeout = 25 * time.Millisecond
	return cfg
}

// TestAdmissionShedsWithErrOverloaded holds the engine's only admission
// slot and checks the next query is shed with the typed sentinel after
// AdmissionTimeout, with the shed counter recording it.
func TestAdmissionShedsWithErrOverloaded(t *testing.T) {
	e := setupEmployees(t, governedConfig())

	lease, err := e.gov.Acquire(context.Background())
	if err != nil {
		t.Fatalf("acquire slot: %v", err)
	}
	defer lease.Close()

	_, err = e.Query(`SELECT COUNT(*) FROM emp`)
	if !errors.Is(err, ErrOverloaded) {
		t.Fatalf("expected ErrOverloaded, got %v", err)
	}
	snap := e.Metrics()
	if snap.Counters["queries_shed_total"] < 1 {
		t.Errorf("queries_shed_total = %v, want >= 1", snap.Counters["queries_shed_total"])
	}
	if snap.Gauges["queries_queued"] != 0 {
		t.Errorf("queries_queued = %v after shed, want 0", snap.Gauges["queries_queued"])
	}
}

// TestAdmissionQueueAdmitsWhenSlotFrees parks a query in the admission
// queue and checks it runs to a correct result once the slot frees.
func TestAdmissionQueueAdmitsWhenSlotFrees(t *testing.T) {
	cfg := governedConfig()
	cfg.AdmissionTimeout = 10 * time.Second
	e := setupEmployees(t, cfg)

	lease, err := e.gov.Acquire(context.Background())
	if err != nil {
		t.Fatalf("acquire slot: %v", err)
	}
	type outcome struct {
		res *Result
		err error
	}
	done := make(chan outcome, 1)
	go func() {
		res, err := e.Query(`SELECT COUNT(*) FROM emp WHERE dept_id = 1`)
		done <- outcome{res, err}
	}()
	// Wait until the query is actually parked in the queue, then free
	// the slot and let it through.
	deadline := time.Now().Add(5 * time.Second)
	for e.Metrics().Gauges["queries_queued"] == 0 {
		if time.Now().After(deadline) {
			t.Fatal("query never reached the admission queue")
		}
		time.Sleep(time.Millisecond)
	}
	lease.Close()
	out := <-done
	if out.err != nil {
		t.Fatalf("queued query failed: %v", out.err)
	}
	if len(out.res.Rows) != 1 || out.res.Rows[0][0].String() != "25" {
		t.Fatalf("queued query rows = %v", out.res.Rows)
	}
}

// TestAdmissionAbandonedWaiterReleasesSlot cancels a queued query's
// context, checks it reports context.Canceled (not the timeout sentinel),
// that the slot is handed to the next waiter rather than leaking, and
// that no goroutine is left behind.
func TestAdmissionAbandonedWaiterReleasesSlot(t *testing.T) {
	cfg := governedConfig()
	cfg.AdmissionTimeout = 10 * time.Second
	e := setupEmployees(t, cfg)

	before := runtime.NumGoroutine()

	lease, err := e.gov.Acquire(context.Background())
	if err != nil {
		t.Fatalf("acquire slot: %v", err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	done := make(chan error, 1)
	go func() {
		_, err := e.QueryContext(ctx, `SELECT COUNT(*) FROM emp`)
		done <- err
	}()
	deadline := time.Now().Add(5 * time.Second)
	for e.Metrics().Gauges["queries_queued"] == 0 {
		if time.Now().After(deadline) {
			t.Fatal("query never reached the admission queue")
		}
		time.Sleep(time.Millisecond)
	}
	cancel()
	err = <-done
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("abandoned query error = %v, want context.Canceled", err)
	}
	if errors.Is(err, ErrQueryTimeout) {
		t.Fatalf("user cancellation must not map to ErrQueryTimeout: %v", err)
	}

	// The abandoned waiter must have left the queue; releasing the held
	// slot must let a fresh query straight through.
	lease.Close()
	if _, err := e.Query(`SELECT COUNT(*) FROM dept`); err != nil {
		t.Fatalf("query after abandonment: %v", err)
	}

	// No goroutine may outlive the abandoned admission wait.
	leakDeadline := time.Now().Add(2 * time.Second)
	for runtime.NumGoroutine() > before {
		if time.Now().After(leakDeadline) {
			t.Fatalf("goroutines leaked: %d before, %d after", before, runtime.NumGoroutine())
		}
		time.Sleep(5 * time.Millisecond)
	}
}

// TestQueryMemLimitAbortsOnlyThatQuery runs a sort that blows a tiny
// per-query budget: the query must abort with ErrMemoryExceeded naming
// the operator, while the engine stays healthy for the next query and
// the shared reservation gauge drains back to zero.
func TestQueryMemLimitAbortsOnlyThatQuery(t *testing.T) {
	cfg := ICPlus(4)
	cfg.QueryMemLimitBytes = 1024
	e := setupEmployees(t, cfg)

	_, err := e.Query(`SELECT * FROM sales ORDER BY amount, sale_id`)
	if !errors.Is(err, ErrMemoryExceeded) {
		t.Fatalf("expected ErrMemoryExceeded, got %v", err)
	}
	if !strings.Contains(err.Error(), "exec: ") {
		t.Errorf("memory error does not name the operator: %v", err)
	}

	// Only that query dies: a small query fits the same budget.
	res, err := e.Query(`SELECT COUNT(*) FROM dept`)
	if err != nil {
		t.Fatalf("small query after abort: %v", err)
	}
	if res.Rows[0][0].String() != "4" {
		t.Fatalf("small query rows = %v", res.Rows)
	}
	if got := e.Metrics().Gauges["mem_reserved_bytes"]; got != 0 {
		t.Errorf("mem_reserved_bytes = %v after queries finished, want 0", got)
	}
}

// TestGovernedRowsMatchUngoverned runs a mixed workload on a governed
// engine with generous budgets and checks every result is byte-identical
// to the ungoverned engine, that the queries actually charged memory,
// and that EXPLAIN ANALYZE surfaces the per-operator peaks.
func TestGovernedRowsMatchUngoverned(t *testing.T) {
	plain := setupEmployees(t, ICPlus(4))
	cfg := ICPlus(4)
	cfg.MaxConcurrentQueries = 2
	cfg.MemoryBudgetBytes = 64 << 20
	cfg.QueryMemLimitBytes = 32 << 20
	gov := setupEmployees(t, cfg)

	queries := []string{
		`SELECT dept_id, COUNT(*), SUM(salary) FROM emp GROUP BY dept_id ORDER BY dept_id`,
		`SELECT e.name, s.amount FROM emp e, sales s
			WHERE e.id = s.emp_id AND s.amount > 250 ORDER BY e.name, s.amount`,
		`SELECT * FROM sales ORDER BY amount, sale_id LIMIT 40`,
		`SELECT d.dname, COUNT(*) AS n FROM emp e, dept d
			WHERE e.dept_id = d.dept_id GROUP BY d.dname ORDER BY n DESC, d.dname`,
	}
	charged := false
	for _, q := range queries {
		want, err := plain.Query(q)
		if err != nil {
			t.Fatalf("ungoverned %q: %v", q, err)
		}
		got, err := gov.Query(q)
		if err != nil {
			t.Fatalf("governed %q: %v", q, err)
		}
		sameRows(t, q, want.Rows, got.Rows)
		if got.Stats.MemPeakBytes > 0 {
			charged = true
		}
	}
	if !charged {
		t.Error("no query reported MemPeakBytes > 0 under the governor")
	}

	res, err := gov.Exec(`EXPLAIN ANALYZE SELECT e.name, s.amount FROM emp e, sales s
		WHERE e.id = s.emp_id AND s.amount > 250 ORDER BY e.name, s.amount`)
	if err != nil {
		t.Fatalf("explain analyze: %v", err)
	}
	if !strings.Contains(res.PlanText, "mem=") {
		t.Errorf("EXPLAIN ANALYZE does not render operator memory peaks:\n%s", res.PlanText)
	}
}

// TestDeadlineMapsToErrQueryTimeout checks a context deadline surfaces
// as the typed timeout sentinel while still matching the context error,
// on both a governed and an ungoverned engine.
func TestDeadlineMapsToErrQueryTimeout(t *testing.T) {
	for _, governed := range []bool{false, true} {
		cfg := ICPlus(4)
		cfg.QueryTimeout = time.Nanosecond
		if governed {
			cfg.MaxConcurrentQueries = 4
		}
		e := setupEmployees(t, cfg)
		// setupEmployees already ran DDL/Analyze; only SELECTs get the
		// timeout treatment.
		_, err := e.Query(`SELECT e.name, s.amount FROM emp e, sales s
			WHERE e.id = s.emp_id ORDER BY e.name, s.amount`)
		if !errors.Is(err, ErrQueryTimeout) {
			t.Fatalf("governed=%v: expected ErrQueryTimeout, got %v", governed, err)
		}
		if !errors.Is(err, context.DeadlineExceeded) {
			t.Fatalf("governed=%v: deadline error must still match context.DeadlineExceeded: %v", governed, err)
		}
	}
}
