package gignite

import (
	"runtime"
	"strings"
	"sync"
	"testing"
	"time"

	"gignite/internal/types"
)

// exactRows renders a result byte-for-byte (columns, then rows in result
// order) so cache-on and cache-off executions can be compared exactly.
func exactRows(res *Result) string {
	var sb strings.Builder
	sb.WriteString(strings.Join(res.Columns, "|"))
	sb.WriteByte('\n')
	for _, r := range res.Rows {
		for j, v := range r {
			if j > 0 {
				sb.WriteByte('|')
			}
			sb.WriteString(v.String())
		}
		sb.WriteByte('\n')
	}
	return sb.String()
}

// TestPlanCacheByteIdentical runs the cross-check workload on a cached
// and an uncached engine at several host parallelism levels and requires
// byte-identical results and identical modeled times, cold and hot.
func TestPlanCacheByteIdentical(t *testing.T) {
	for _, par := range []int{1, 2, 8} {
		cfgOff := ICPlus(4)
		cfgOff.ExecParallelism = par
		cfgOn := cfgOff
		cfgOn.PlanCacheSize = 64
		off := setupEmployees(t, cfgOff)
		on := setupEmployees(t, cfgOn)
		for _, q := range crossCheckQueries {
			want, err := off.Query(q)
			if err != nil {
				t.Fatalf("par=%d %q (cache off): %v", par, q, err)
			}
			cold, err := on.Query(q)
			if err != nil {
				t.Fatalf("par=%d %q (cold): %v", par, q, err)
			}
			hot, err := on.Query(q)
			if err != nil {
				t.Fatalf("par=%d %q (hot): %v", par, q, err)
			}
			if cold.Stats.PlanningSkipped {
				t.Errorf("par=%d %q: cold run claims planning was skipped", par, q)
			}
			if !hot.Stats.PlanningSkipped {
				t.Errorf("par=%d %q: hot run did not hit the plan cache", par, q)
			}
			wantTxt := exactRows(want)
			for name, got := range map[string]*Result{"cold": cold, "hot": hot} {
				if txt := exactRows(got); txt != wantTxt {
					t.Errorf("par=%d %q: %s rows differ from cache-off:\n%s\nvs\n%s", par, q, name, txt, wantTxt)
				}
				if got.Modeled != want.Modeled {
					t.Errorf("par=%d %q: %s modeled %v != %v", par, q, name, got.Modeled, want.Modeled)
				}
			}
		}
	}
}

// TestPlanCacheUnderFaults checks cached plans compose with deterministic
// fault injection and failover: results stay byte-identical cache on/off.
func TestPlanCacheUnderFaults(t *testing.T) {
	fp, err := ParseFaults("seed=1;crash=2@2;slow=1x2.0")
	if err != nil {
		t.Fatal(err)
	}
	cfgOff := ICPlus(4)
	cfgOff.Backups = 1
	cfgOff.Faults = fp
	cfgOn := cfgOff
	cfgOn.PlanCacheSize = 16
	off := setupEmployees(t, cfgOff)
	on := setupEmployees(t, cfgOn)
	q := `SELECT d.dname, COUNT(*) AS n FROM emp e, dept d WHERE e.dept_id = d.dept_id
	 GROUP BY d.dname ORDER BY n DESC, d.dname`
	want, err := off.Query(q)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 3; i++ {
		got, err := on.Query(q)
		if err != nil {
			t.Fatalf("run %d: %v", i, err)
		}
		if exactRows(got) != exactRows(want) {
			t.Fatalf("run %d: rows differ under faults", i)
		}
		if i > 0 && !got.Stats.PlanningSkipped {
			t.Fatalf("run %d: expected a plan cache hit", i)
		}
	}
}

// TestPlanCacheWithGovernance checks cached executions still pass through
// admission control and charge the memory pool.
func TestPlanCacheWithGovernance(t *testing.T) {
	cfg := ICPlus(4)
	cfg.PlanCacheSize = 16
	cfg.MaxConcurrentQueries = 2
	cfg.MemoryBudgetBytes = 64 << 20
	e := setupEmployees(t, cfg)
	q := `SELECT dept_id, COUNT(*), SUM(salary) FROM emp GROUP BY dept_id`
	var hot *Result
	for i := 0; i < 3; i++ {
		res, err := e.Query(q)
		if err != nil {
			t.Fatal(err)
		}
		hot = res
	}
	if !hot.Stats.PlanningSkipped {
		t.Fatal("expected cached execution")
	}
	if hot.Stats.MemPeakBytes <= 0 {
		t.Fatal("cached execution did not reserve memory against the pool")
	}
}

// TestPlanCacheConcurrentHammer fires 16 goroutines at one digest on a
// fresh engine and requires: exactly one planning pass (singleflight),
// byte-identical rows everywhere, and no goroutine leak. Run under -race
// this also exercises the cache's synchronization.
func TestPlanCacheConcurrentHammer(t *testing.T) {
	cfg := ICPlus(4)
	cfg.PlanCacheSize = 8
	e := setupEmployees(t, cfg)
	before := runtime.NumGoroutine()

	const workers, iters = 16, 5
	q := `SELECT dept_id, COUNT(*) AS cnt, SUM(salary) FROM emp GROUP BY dept_id`
	texts := make([][iters]string, workers)
	errs := make([]error, workers)
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < iters; i++ {
				res, err := e.Query(q)
				if err != nil {
					errs[w] = err
					return
				}
				texts[w][i] = exactRows(res)
			}
		}(w)
	}
	wg.Wait()
	for w, err := range errs {
		if err != nil {
			t.Fatalf("worker %d: %v", w, err)
		}
	}
	want := texts[0][0]
	for w := range texts {
		for i := range texts[w] {
			if texts[w][i] != want {
				t.Fatalf("worker %d iter %d: rows differ", w, i)
			}
		}
	}
	stats, enabled := e.PlanCacheStats()
	if !enabled {
		t.Fatal("plan cache should be enabled")
	}
	if stats.Misses != 1 {
		t.Fatalf("planning ran %d times for one digest, want exactly 1", stats.Misses)
	}
	if want := uint64(workers*iters - 1); stats.Hits != want {
		t.Fatalf("hits = %d, want %d", stats.Hits, want)
	}
	// Goroutine-leak check: allow the runtime a moment to retire workers.
	deadline := time.Now().Add(2 * time.Second)
	for {
		if n := runtime.NumGoroutine(); n <= before+2 {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("goroutine leak: %d before, %d after", before, runtime.NumGoroutine())
		}
		time.Sleep(10 * time.Millisecond)
	}
}

// TestPlanCacheInvalidation checks DDL and ANALYZE bump the catalog
// version and force a replan, while results stay correct throughout.
func TestPlanCacheInvalidation(t *testing.T) {
	cfg := ICPlus(2)
	cfg.PlanCacheSize = 16
	e := setupEmployees(t, cfg)
	q := `SELECT id, name FROM emp WHERE salary > 1500`

	r1, err := e.Query(q)
	if err != nil {
		t.Fatal(err)
	}
	if r1.Stats.PlanningSkipped {
		t.Fatal("first execution cannot be a cache hit")
	}
	r2, err := e.Query(q)
	if err != nil {
		t.Fatal(err)
	}
	if !r2.Stats.PlanningSkipped {
		t.Fatal("second execution should hit the cache")
	}

	mustExec(t, e, `CREATE INDEX emp_salary ON emp (salary)`)
	r3, err := e.Query(q)
	if err != nil {
		t.Fatal(err)
	}
	if r3.Stats.PlanningSkipped {
		t.Fatal("CREATE INDEX must invalidate the cached plan")
	}
	r4, err := e.Query(q)
	if err != nil {
		t.Fatal(err)
	}
	if !r4.Stats.PlanningSkipped {
		t.Fatal("replanned entry should be cached again")
	}

	if err := e.Analyze(); err != nil {
		t.Fatal(err)
	}
	r5, err := e.Query(q)
	if err != nil {
		t.Fatal(err)
	}
	if r5.Stats.PlanningSkipped {
		t.Fatal("ANALYZE must invalidate the cached plan")
	}

	base := exactRows(r1)
	for i, r := range []*Result{r2, r3, r4, r5} {
		if exactRows(r) != base {
			t.Fatalf("run %d: rows changed across invalidations", i+2)
		}
	}
}

// TestPreparedStatements covers parameter typing and coercion (int,
// float, string, date), re-execution with different arguments, and parity
// with inline literals — with the engine plan cache both off and on.
func TestPreparedStatements(t *testing.T) {
	for _, cacheSize := range []int{0, 16} {
		cfg := ICPlus(4)
		cfg.PlanCacheSize = cacheSize
		e := setupEmployees(t, cfg)

		stmt, err := e.Prepare(`SELECT id, name FROM emp WHERE salary > ? AND dept_id = ?`)
		if err != nil {
			t.Fatalf("cache=%d: Prepare: %v", cacheSize, err)
		}
		if stmt.NumParams() != 2 {
			t.Fatalf("NumParams = %d, want 2", stmt.NumParams())
		}
		res, err := stmt.Query(types.NewFloat(1500), types.NewInt(2))
		if err != nil {
			t.Fatalf("cache=%d: Query: %v", cacheSize, err)
		}
		if !res.Stats.PlanningSkipped {
			t.Errorf("cache=%d: prepared execution should reuse the Prepare-time plan", cacheSize)
		}
		want, err := e.Query(`SELECT id, name FROM emp WHERE salary > 1500 AND dept_id = 2`)
		if err != nil {
			t.Fatal(err)
		}
		sameRows(t, "prepared float/int", want.Rows, res.Rows)

		// Integer argument against a DOUBLE column: coerced via the
		// bind-time type hint.
		res2, err := stmt.Query(types.NewInt(1900), types.NewInt(0))
		if err != nil {
			t.Fatal(err)
		}
		want2, err := e.Query(`SELECT id, name FROM emp WHERE salary > 1900 AND dept_id = 0`)
		if err != nil {
			t.Fatal(err)
		}
		sameRows(t, "prepared int->float coercion", want2.Rows, res2.Rows)
		if len(res2.Rows) == len(res.Rows) {
			t.Fatal("different arguments should select different rows")
		}

		// String and date parameters; the date is supplied as a string and
		// coerced through the DATE hint from the comparison.
		stmt2, err := e.Prepare(`SELECT name FROM emp WHERE hired < ? AND name <> ?`)
		if err != nil {
			t.Fatal(err)
		}
		res3, err := stmt2.Query(types.NewString("1995-01-01"), types.NewString("emp000"))
		if err != nil {
			t.Fatal(err)
		}
		want3, err := e.Query(`SELECT name FROM emp WHERE hired < DATE '1995-01-01' AND name <> 'emp000'`)
		if err != nil {
			t.Fatal(err)
		}
		sameRows(t, "prepared string->date coercion", want3.Rows, res3.Rows)
		if len(res3.Rows) == 0 {
			t.Fatal("date-parameter query should match rows")
		}
	}
}

// TestPreparedConcurrentReplanWithCacheOff: with the engine's plan cache
// off, a Stmt keeps its plan in a one-entry cache of its own. It replans
// after ANALYZE and after CREATE INDEX, concurrent first executions after
// a version bump plan once between them, and the engine still reports its
// cache disabled.
func TestPreparedConcurrentReplanWithCacheOff(t *testing.T) {
	cfg := ICPlus(2)
	cfg.PlanCacheSize = 0
	e := setupEmployees(t, cfg)
	stmt, err := e.Prepare(`SELECT id, name FROM emp WHERE salary > ?`)
	if err != nil {
		t.Fatal(err)
	}
	query := func() *Result {
		res, err := stmt.Query(types.NewFloat(1500))
		if err != nil {
			t.Fatal(err)
		}
		return res
	}
	first := query()
	if !first.Stats.PlanningSkipped {
		t.Fatal("first execution should reuse the Prepare-time plan")
	}
	base := exactRows(first)
	for _, bump := range []struct {
		name string
		do   func()
	}{
		{"ANALYZE", func() {
			if err := e.Analyze(); err != nil {
				t.Fatal(err)
			}
		}},
		{"CREATE INDEX", func() { mustExec(t, e, `CREATE INDEX emp_salary ON emp (salary)`) }},
	} {
		bump.do()
		if r := query(); r.Stats.PlanningSkipped || exactRows(r) != base {
			t.Fatalf("after %s: skipped=%v, rows changed=%v; want a replan and the same rows",
				bump.name, r.Stats.PlanningSkipped, exactRows(r) != base)
		}
		if r := query(); !r.Stats.PlanningSkipped {
			t.Fatalf("after %s: the replanned plan was not kept", bump.name)
		}
	}

	if err := e.Analyze(); err != nil {
		t.Fatal(err)
	}
	const clients = 8
	results := make([]*Result, clients)
	errs := make([]error, clients)
	start := make(chan struct{})
	var wg sync.WaitGroup
	for i := range results {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			<-start
			results[i], errs[i] = stmt.Query(types.NewFloat(1500))
		}(i)
	}
	close(start)
	wg.Wait()
	planned := 0
	for i, r := range results {
		if errs[i] != nil {
			t.Fatalf("client %d: %v", i, errs[i])
		}
		if !r.Stats.PlanningSkipped {
			planned++
		}
		if exactRows(r) != base {
			t.Fatalf("client %d: rows changed", i)
		}
	}
	if planned != 1 {
		t.Fatalf("%d concurrent first executions planned %d times, want once", clients, planned)
	}
	if _, enabled := e.PlanCacheStats(); enabled {
		t.Fatal("the engine's plan cache should still be reported disabled")
	}
}

// TestPreparedParametersOutsideFilters: a placeholder in a projection
// (an aggregate's argument is computed by one) or in a join's residual
// condition is bound into that operator's per-execution kernels like one
// in a filter: each execution returns what the statement with its
// arguments inlined returns, and compiles only the expression holding the
// placeholder — with the plan cache both off and on.
func TestPreparedParametersOutsideFilters(t *testing.T) {
	for _, cacheSize := range []int{0, 16} {
		cfg := ICPlus(4)
		cfg.PlanCacheSize = cacheSize
		e := setupEmployees(t, cfg)
		for _, c := range []struct {
			sql, inline string
			args        []Value
		}{
			{`SELECT id, salary * ? FROM emp WHERE dept_id = 1`,
				`SELECT id, salary * 2.5 FROM emp WHERE dept_id = 1`, []Value{types.NewFloat(2.5)}},
			{`SELECT dept_id, SUM(salary + ?) FROM emp GROUP BY dept_id`,
				`SELECT dept_id, SUM(salary + 100) FROM emp GROUP BY dept_id`, []Value{types.NewInt(100)}},
			{`SELECT e.id, d.dname FROM emp e JOIN dept d ON e.dept_id = d.dept_id AND e.id + d.dept_id > ?`,
				`SELECT e.id, d.dname FROM emp e JOIN dept d ON e.dept_id = d.dept_id AND e.id + d.dept_id > 30`, []Value{types.NewInt(30)}},
		} {
			stmt, err := e.Prepare(c.sql)
			if err != nil {
				t.Fatalf("cache=%d %s: %v", cacheSize, c.sql, err)
			}
			for run := 0; run < 2; run++ {
				res, err := stmt.Query(c.args...)
				if err != nil {
					t.Fatalf("cache=%d %s: %v", cacheSize, c.sql, err)
				}
				want, err := e.Query(c.inline)
				if err != nil {
					t.Fatal(err)
				}
				if len(want.Rows) == 0 {
					t.Fatalf("%s returns no rows: the test would compare nothing", c.inline)
				}
				sameRows(t, c.sql, want.Rows, res.Rows)
				if res.compiled != 1 {
					t.Errorf("cache=%d %s: compiled %d expressions, want the one holding ?1", cacheSize, c.sql, res.compiled)
				}
			}
		}
	}
}

// TestParameterErrors covers the rejection paths: executing parameterized
// SQL without arguments, argument-count mismatches, and parameters where
// the dialect cannot accept them.
func TestParameterErrors(t *testing.T) {
	e := setupEmployees(t, ICPlus(2))

	if _, err := e.Exec(`SELECT id FROM emp WHERE salary > ?`); err == nil ||
		!strings.Contains(err.Error(), "parameter") {
		t.Fatalf("Exec of parameterized query: err = %v, want parameter error", err)
	}

	stmt, err := e.Prepare(`SELECT id FROM emp WHERE salary > ?`)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := stmt.Query(); err == nil {
		t.Fatal("Query with missing argument should fail")
	}
	if _, err := stmt.Query(types.NewFloat(1), types.NewFloat(2)); err == nil {
		t.Fatal("Query with excess arguments should fail")
	}

	if _, err := e.Exec(`INSERT INTO dept VALUES (99, ?)`); err == nil {
		t.Fatal("INSERT with a parameter should fail")
	}
	if _, err := e.Prepare(`SELECT name FROM emp WHERE name LIKE ?`); err == nil {
		t.Fatal("parameterized LIKE pattern should fail at bind time")
	}
	if _, err := e.Prepare(`CREATE TABLE x (a BIGINT PRIMARY KEY)`); err == nil {
		t.Fatal("Prepare of a non-SELECT should fail")
	}
}

// TestExplainAnalyzeSharesPlanCache checks EXPLAIN ANALYZE executes
// through the cache (the digest strips the EXPLAIN ANALYZE prefix) and
// that the cache counters surface in engine metrics.
func TestExplainAnalyzeSharesPlanCache(t *testing.T) {
	cfg := ICPlus(2)
	cfg.PlanCacheSize = 16
	e := setupEmployees(t, cfg)
	q := `SELECT dept_id, COUNT(*) FROM emp GROUP BY dept_id`
	if _, err := e.Query(q); err != nil {
		t.Fatal(err)
	}
	res := mustExec(t, e, "EXPLAIN ANALYZE "+q)
	if !res.Stats.PlanningSkipped {
		t.Fatal("EXPLAIN ANALYZE should share the plain query's cache entry")
	}
	if res.PlanText == "" {
		t.Fatal("EXPLAIN ANALYZE returned no plan text")
	}
	snap := e.Metrics()
	if snap.Counters["plan_cache_hits_total"] < 1 {
		t.Fatalf("plan_cache_hits_total = %v, want >= 1", snap.Counters["plan_cache_hits_total"])
	}
	if snap.Counters["plan_cache_misses_total"] < 1 {
		t.Fatalf("plan_cache_misses_total = %v, want >= 1", snap.Counters["plan_cache_misses_total"])
	}
}
