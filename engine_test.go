package gignite

import (
	"errors"
	"fmt"
	"strings"
	"testing"

	"gignite/internal/empdb"
	"gignite/internal/types"
)

// setupEmployees builds a small schema with deterministic data on an
// engine.
func setupEmployees(t *testing.T, cfg Config) *Engine {
	t.Helper()
	e := Open(WithConfig(cfg))
	for _, ddl := range empdb.DDL {
		mustExec(t, e, ddl)
	}
	for _, tbl := range empdb.Tables() {
		if err := e.LoadTable(tbl.Name, tbl.Rows); err != nil {
			t.Fatal(err)
		}
	}
	if err := e.Analyze(); err != nil {
		t.Fatal(err)
	}
	return e
}

func mustExec(t *testing.T, e *Engine, q string) *Result {
	t.Helper()
	res, err := e.Exec(q)
	if err != nil {
		t.Fatalf("Exec(%q): %v", q, err)
	}
	return res
}

// canonical renders a result set order-insensitively for comparison.
func canonical(rows []Row) []string { return empdb.Canonical(rows) }

func sameRows(t *testing.T, q string, a, b []Row) {
	t.Helper()
	ca, cb := canonical(a), canonical(b)
	if len(ca) != len(cb) {
		t.Fatalf("%q: row counts differ: %d vs %d", q, len(ca), len(cb))
	}
	for i := range ca {
		if ca[i] != cb[i] {
			t.Fatalf("%q: row %d differs:\n  %s\n  %s", q, i, ca[i], cb[i])
		}
	}
}

var crossCheckQueries = []string{
	`SELECT id, name FROM emp WHERE salary > 1500`,
	`SELECT COUNT(*), SUM(salary), AVG(salary), MIN(salary), MAX(salary) FROM emp`,
	`SELECT dept_id, COUNT(*) AS cnt, SUM(salary) FROM emp GROUP BY dept_id`,
	`SELECT e.name, d.dname FROM emp e, dept d WHERE e.dept_id = d.dept_id AND e.salary > 1900`,
	`SELECT d.dname, COUNT(*) AS n FROM emp e, dept d WHERE e.dept_id = d.dept_id
	 GROUP BY d.dname ORDER BY n DESC, d.dname`,
	`SELECT e.name FROM emp e WHERE EXISTS (SELECT 1 FROM sales s WHERE s.emp_id = e.id AND s.amount > 300)`,
	`SELECT e.name FROM emp e WHERE NOT EXISTS (SELECT 1 FROM sales s WHERE s.emp_id = e.id)`,
	`SELECT name FROM emp WHERE id IN (SELECT emp_id FROM sales WHERE amount > 330)`,
	`SELECT name FROM emp WHERE salary > (SELECT AVG(salary) FROM emp)`,
	`SELECT e.name FROM emp e WHERE e.salary < (SELECT 50 * AVG(s.amount) FROM sales s WHERE s.emp_id = e.id)`,
	`SELECT dept_id, COUNT(*) FROM emp GROUP BY dept_id HAVING COUNT(*) > 20`,
	`SELECT DISTINCT dept_id FROM emp WHERE salary > 1200`,
	`SELECT name, salary FROM emp ORDER BY salary DESC LIMIT 7`,
	`SELECT COUNT(DISTINCT dept_id) FROM emp`,
	`SELECT e.name FROM emp e LEFT JOIN sales s ON e.id = s.emp_id AND s.amount > 10000 WHERE s.sale_id IS NULL`,
	`SELECT SUM(CASE WHEN salary > 1500 THEN 1 ELSE 0 END) FROM emp`,
	`SELECT name FROM emp WHERE name LIKE 'emp00%'`,
	`SELECT name FROM emp WHERE hired BETWEEN DATE '1992-01-01' AND DATE '1994-12-31'`,
	`SELECT dept_id, AVG(salary) FROM emp WHERE id NOT IN (SELECT emp_id FROM sales WHERE amount > 320) GROUP BY dept_id`,
	`SELECT EXTRACT(YEAR FROM hired), COUNT(*) FROM emp GROUP BY EXTRACT(YEAR FROM hired)`,
}

// TestVariantsAgreeOnResults: IC, IC+ and IC+M must produce identical
// result sets on every query, at 1, 4 and 8 sites — the core correctness
// invariant behind the paper's performance comparison.
func TestVariantsAgreeOnResults(t *testing.T) {
	type sys struct {
		name string
		cfg  func(int) Config
	}
	systems := []sys{{"IC", IC}, {"IC+", ICPlus}, {"IC+M", ICPlusM}}
	for _, sites := range []int{1, 4} {
		// Reference: IC at a single site.
		ref := setupEmployees(t, IC(1))
		for _, s := range systems {
			e := setupEmployees(t, s.cfg(sites))
			for _, q := range crossCheckQueries {
				want, err := ref.Query(q)
				if err != nil {
					t.Fatalf("reference %q: %v", q, err)
				}
				got, err := e.Query(q)
				if err != nil {
					t.Fatalf("%s/%d sites %q: %v", s.name, sites, q, err)
				}
				sameRows(t, fmt.Sprintf("%s/%d sites: %s", s.name, sites, q), want.Rows, got.Rows)
			}
		}
	}
}

func TestOrderedResultsPreserveOrder(t *testing.T) {
	for _, cfg := range []Config{IC(4), ICPlus(4), ICPlusM(4)} {
		e := setupEmployees(t, cfg)
		res, err := e.Query(`SELECT name, salary FROM emp ORDER BY salary DESC LIMIT 5`)
		if err != nil {
			t.Fatal(err)
		}
		if len(res.Rows) != 5 {
			t.Fatalf("rows = %d", len(res.Rows))
		}
		for i := 1; i < len(res.Rows); i++ {
			if res.Rows[i-1][1].Float() < res.Rows[i][1].Float() {
				t.Fatalf("order violated at %d: %v", i, res.Rows)
			}
		}
		if res.Rows[0][0].Str() != "emp099" {
			t.Errorf("top earner = %v", res.Rows[0])
		}
	}
}

func TestAggregateValues(t *testing.T) {
	e := setupEmployees(t, ICPlusM(4))
	res, err := e.Query(`SELECT COUNT(*), SUM(salary), MIN(id), MAX(id) FROM emp`)
	if err != nil {
		t.Fatal(err)
	}
	r := res.Rows[0]
	if r[0].Int() != 100 {
		t.Errorf("count = %v", r[0])
	}
	// SUM(1000 + i*10) for i in 0..99 = 100000 + 10*4950 = 149500.
	if r[1].Float() != 149500 {
		t.Errorf("sum = %v", r[1])
	}
	if r[2].Int() != 0 || r[3].Int() != 99 {
		t.Errorf("min/max = %v %v", r[2], r[3])
	}
}

func TestViewsUnsupported(t *testing.T) {
	e := setupEmployees(t, IC(2))
	_, err := e.Exec(`CREATE VIEW v AS SELECT id FROM emp`)
	if !errors.Is(err, ErrViewsUnsupported) {
		t.Errorf("err = %v", err)
	}
}

func TestInsertAndQuery(t *testing.T) {
	e := Open(WithPreset(ICPlus, 2))
	mustExec(t, e, `CREATE TABLE t (a BIGINT PRIMARY KEY, b VARCHAR(10))`)
	mustExec(t, e, `INSERT INTO t (a, b) VALUES (1, 'x'), (2, 'y'), (3, 'z')`)
	res := mustExec(t, e, `SELECT b FROM t WHERE a >= 2 ORDER BY a`)
	if len(res.Rows) != 2 || res.Rows[0][0].Str() != "y" {
		t.Errorf("rows = %v", res.Rows)
	}
}

// TestReportLeavesResultAlone: the report is the caller's to mutate; the
// Result it came from keeps its column names.
func TestReportLeavesResultAlone(t *testing.T) {
	e := Open(WithPreset(ICPlus, 2))
	mustExec(t, e, `CREATE TABLE t (a BIGINT PRIMARY KEY, b VARCHAR(10))`)
	mustExec(t, e, `INSERT INTO t (a, b) VALUES (1, 'x')`)
	res := mustExec(t, e, `SELECT a, b FROM t`)
	want := strings.Join(res.Columns, ",")
	res.Report().Columns[0] = "changed"
	if got := strings.Join(res.Columns, ","); got != want {
		t.Errorf("mutating the report changed the Result's columns to %s, want %s", got, want)
	}
}

func TestExplainOutput(t *testing.T) {
	e := setupEmployees(t, ICPlusM(4))
	plan, err := e.Explain(`SELECT e.name FROM emp e, sales s WHERE e.id = s.emp_id AND s.amount > 100`)
	if err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{"fragment", "Join", "Sender", "Receiver"} {
		if !strings.Contains(plan, want) {
			t.Errorf("EXPLAIN missing %q:\n%s", want, plan)
		}
	}
}

func TestModeledTimePositiveAndICPlusFaster(t *testing.T) {
	q := `SELECT d.dname, SUM(s.amount) FROM emp e, dept d, sales s
		WHERE e.dept_id = d.dept_id AND s.emp_id = e.id GROUP BY d.dname`
	ic := setupEmployees(t, IC(4))
	icRes, err := ic.Query(q)
	if err != nil {
		t.Fatal(err)
	}
	icp := setupEmployees(t, ICPlus(4))
	icpRes, err := icp.Query(q)
	if err != nil {
		t.Fatal(err)
	}
	if icRes.Modeled <= 0 || icpRes.Modeled <= 0 {
		t.Fatalf("modeled times: %v %v", icRes.Modeled, icpRes.Modeled)
	}
	sameRows(t, q, icRes.Rows, icpRes.Rows)
	t.Logf("IC=%v IC+=%v", icRes.Modeled, icpRes.Modeled)
}

func TestErrorPaths(t *testing.T) {
	e := Open(WithPreset(IC, 2))
	if _, err := e.Exec(`SELECT * FROM missing`); err == nil {
		t.Error("missing table accepted")
	}
	if _, err := e.Exec(`SELECTT 1`); err == nil {
		t.Error("bad syntax accepted")
	}
	mustExec(t, e, `CREATE TABLE t (a BIGINT PRIMARY KEY)`)
	if _, err := e.Exec(`CREATE TABLE t (a BIGINT PRIMARY KEY)`); err == nil {
		t.Error("duplicate table accepted")
	}
	if _, err := e.Exec(`CREATE INDEX i ON t (zzz)`); err == nil {
		t.Error("bad index column accepted")
	}
	if _, err := e.Exec(`INSERT INTO missing VALUES (1)`); err == nil {
		t.Error("insert into missing table accepted")
	}
}

func TestWorkLimitTriggersTimeout(t *testing.T) {
	cfg := IC(2)
	cfg.ExecWorkLimit = 100 // absurdly small
	e := setupEmployees(t, cfg)
	_, err := e.Query(`SELECT COUNT(*) FROM emp e, sales s WHERE e.id = s.emp_id`)
	if !errors.Is(err, ErrQueryTimeout) {
		t.Errorf("err = %v, want timeout", err)
	}
}

func TestBoundLogicalPlanDigest(t *testing.T) {
	e := setupEmployees(t, ICPlus(2))
	lp, err := e.BindLogical(`SELECT name FROM emp WHERE salary > 100 AND dept_id = 1`)
	if err != nil {
		t.Fatal(err)
	}
	out := lp.Digest()
	for _, want := range []string{"Project(", "Filter(", "Scan(emp as emp)"} {
		if !strings.Contains(out, want) {
			t.Errorf("logical plan missing %q:\n%s", want, out)
		}
	}
	if _, err := e.BindLogical("SELECT nope FROM emp"); err == nil {
		t.Error("bad query accepted")
	}
}

func TestConfigAccessors(t *testing.T) {
	cfg := ICPlusM(8)
	e := Open(WithConfig(cfg))
	if e.Config().Sites != 8 || e.Config().VariantFragments != 2 {
		t.Errorf("config = %+v", e.Config())
	}
	if e.Catalog() == nil {
		t.Error("catalog accessor nil")
	}
	// Open normalizes degenerate settings.
	weird := Open(WithConfig(Config{Sites: 0}))
	if weird.Config().Sites != 1 {
		t.Errorf("sites not normalized: %d", weird.Config().Sites)
	}
	if weird.Config().ExecWorkLimit != DefaultExecWorkLimit {
		t.Errorf("work limit not defaulted: %v", weird.Config().ExecWorkLimit)
	}
}

func TestUnlimitedWorkConfig(t *testing.T) {
	cfg := ICPlus(2)
	cfg.ExecWorkLimit = -1 // explicit opt-out
	e := setupEmployees(t, cfg)
	if _, err := e.Query("SELECT COUNT(*) FROM sales"); err != nil {
		t.Fatal(err)
	}
}

// TestConcurrentQueries: one engine must serve parallel clients safely
// (the AQL protocol's terminals). Results must match the serial run.
func TestConcurrentQueries(t *testing.T) {
	e := setupEmployees(t, ICPlusM(4))
	queries := []string{
		`SELECT dept_id, COUNT(*) FROM emp GROUP BY dept_id`,
		`SELECT e.name, s.amount FROM emp e, sales s WHERE e.id = s.emp_id AND s.amount > 300`,
		`SELECT COUNT(*) FROM sales`,
		`SELECT name FROM emp WHERE salary > (SELECT AVG(salary) FROM emp)`,
	}
	want := make([][]string, len(queries))
	for i, q := range queries {
		res, err := e.Query(q)
		if err != nil {
			t.Fatal(err)
		}
		want[i] = canonical(res.Rows)
	}
	const workers = 8
	errs := make(chan error, workers)
	for w := 0; w < workers; w++ {
		go func(w int) {
			for i := 0; i < 6; i++ {
				qi := (w + i) % len(queries)
				res, err := e.Query(queries[qi])
				if err != nil {
					errs <- err
					return
				}
				got := canonical(res.Rows)
				if len(got) != len(want[qi]) {
					errs <- fmt.Errorf("worker %d query %d: %d rows, want %d",
						w, qi, len(got), len(want[qi]))
					return
				}
				for r := range got {
					if got[r] != want[qi][r] {
						errs <- fmt.Errorf("worker %d query %d row %d differs", w, qi, r)
						return
					}
				}
			}
			errs <- nil
		}(w)
	}
	for w := 0; w < workers; w++ {
		if err := <-errs; err != nil {
			t.Fatal(err)
		}
	}
}

// identicalInputsJoin is a self-join whose two inputs are the same
// derived table, letter for letter: the planner's memo puts both in one
// group and hands the join the same physical subtree twice.
const identicalInputsJoin = `SELECT a.v, b.v
	FROM (SELECT e.id AS k, e.id + 1 AS v FROM emp e) a
	JOIN (SELECT e.id AS k, e.id + 1 AS v FROM emp e) b ON a.k = b.k`

// TestSharedSubtreeInsideFragment: a subtree the memo shares between the
// two inputs of one join — inside one fragment, no exchange between them
// — must execute as two operators. Per-operator state keyed by node
// pointer (the variant fragments' source modes, the row counters) would
// otherwise be set by one visit and overwritten by the other: under IC+M
// the join returned no rows.
func TestSharedSubtreeInsideFragment(t *testing.T) {
	for _, sys := range []struct {
		name string
		cfg  func(int) Config
	}{{"IC", IC}, {"IC+", ICPlus}, {"IC+M", ICPlusM}} {
		for _, par := range []int{1, 0} {
			cfg := sys.cfg(4)
			cfg.ExecParallelism = par
			e := setupEmployees(t, cfg)
			want, err := e.ReferenceQuery(identicalInputsJoin)
			if err != nil {
				t.Fatal(err)
			}
			if len(want) != 100 {
				t.Fatalf("reference returned %d rows, want 100", len(want))
			}
			label := fmt.Sprintf("%s par=%d", sys.name, par)
			got, err := e.Query(identicalInputsJoin)
			if err != nil {
				t.Fatalf("%s: %v", label, err)
			}
			sameRows(t, label+" unprepared", want, got.Rows)
			stmt, err := e.Prepare(identicalInputsJoin)
			if err != nil {
				t.Fatalf("%s: %v", label, err)
			}
			// Twice: the second run splits the retained plan again.
			for run := 0; run < 2; run++ {
				got, err = stmt.Query()
				if err != nil {
					t.Fatalf("%s prepared run %d: %v", label, run, err)
				}
				sameRows(t, fmt.Sprintf("%s prepared run %d", label, run), want, got.Rows)
			}
		}
	}
}

// TestMemoSeparatesLiteralKinds: `e.id + 1` and `e.id + 1.0` render
// alike, so a memo keyed by the rendering planned the second projection
// as the first and returned its BIGINT column where a DOUBLE was asked
// for.
func TestMemoSeparatesLiteralKinds(t *testing.T) {
	const q = `SELECT a.v, b.v
		FROM (SELECT e.id AS k, e.id + 1 AS v FROM emp e) a
		JOIN (SELECT e.id AS k, e.id + 1.0 AS v FROM emp e) b ON a.k = b.k`
	for _, cfg := range []Config{IC(4), ICPlus(4), ICPlusM(4)} {
		e := setupEmployees(t, cfg)
		want, err := e.ReferenceQuery(q)
		if err != nil {
			t.Fatal(err)
		}
		got, err := e.Query(q)
		if err != nil {
			t.Fatal(err)
		}
		sameRows(t, q, want, got.Rows)
		for i, row := range got.Rows {
			if row[0].K != types.KindInt || row[1].K != types.KindFloat {
				t.Fatalf("row %d is (%s, %s), want (BIGINT, DOUBLE)", i, row[0].K, row[1].K)
			}
		}
	}
}

// TestConcurrentDDLAndSelect plans and runs SELECTs (one of them an index
// scan) on two goroutines while the test goroutine inserts rows, creates
// indexes and collects statistics. Every SELECT must succeed: planning
// must never see a half-written index list or statistics record (the race
// detector reports one), and an INSERT must never leave a declared index
// unbuilt for a concurrent index scan to trip over.
func TestConcurrentDDLAndSelect(t *testing.T) {
	e := Open(WithPreset(ICPlus, 2))
	mustExec(t, e, `CREATE TABLE t (id BIGINT PRIMARY KEY, a BIGINT, b BIGINT)`)
	mustExec(t, e, `CREATE INDEX ia ON t (a)`)
	for i := 0; i < 20; i++ {
		mustExec(t, e, fmt.Sprintf(`INSERT INTO t VALUES (%d, %d, %d)`, i, 100-i, i%3))
	}
	if err := e.Analyze(); err != nil {
		t.Fatal(err)
	}
	queries := []string{
		`SELECT id, a FROM t ORDER BY a`,
		`SELECT b, COUNT(*) FROM t WHERE a > 50 GROUP BY b`,
	}
	stop := make(chan struct{})
	errs := make(chan error, len(queries))
	for _, q := range queries {
		go func() {
			for {
				select {
				case <-stop:
					errs <- nil
					return
				default:
				}
				if _, err := e.Query(q); err != nil {
					errs <- fmt.Errorf("%s: %w", q, err)
					return
				}
			}
		}()
	}
	for i := 0; i < 30; i++ {
		if _, err := e.Exec(fmt.Sprintf(`INSERT INTO t VALUES (%d, %d, %d)`, 20+i, i, i%3)); err != nil {
			t.Error(err)
			break
		}
		if i%10 == 0 {
			if _, err := e.Exec(fmt.Sprintf(`CREATE INDEX ib%d ON t (b)`, i)); err != nil {
				t.Error(err)
				break
			}
			if err := e.Analyze(); err != nil {
				t.Error(err)
				break
			}
		}
	}
	close(stop)
	for range queries {
		if err := <-errs; err != nil {
			t.Error(err)
		}
	}
}
