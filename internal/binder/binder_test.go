package binder

import (
	"strings"
	"testing"

	"gignite/internal/catalog"
	"gignite/internal/logical"
	"gignite/internal/sql"
	"gignite/internal/types"
)

func testCatalog(t *testing.T) *catalog.Catalog {
	t.Helper()
	cat := catalog.New()
	add := func(tbl *catalog.Table) {
		t.Helper()
		if err := cat.AddTable(tbl); err != nil {
			t.Fatal(err)
		}
	}
	add(&catalog.Table{
		Name: "emp",
		Columns: []catalog.Column{
			{Name: "id", Kind: types.KindInt},
			{Name: "name", Kind: types.KindString},
			{Name: "dept_id", Kind: types.KindInt},
			{Name: "salary", Kind: types.KindFloat},
			{Name: "hired", Kind: types.KindDate},
		},
		PrimaryKey: []string{"id"},
	})
	add(&catalog.Table{
		Name: "sales",
		Columns: []catalog.Column{
			{Name: "sale_id", Kind: types.KindInt},
			{Name: "emp_id", Kind: types.KindInt},
			{Name: "amount", Kind: types.KindFloat},
			{Name: "sold", Kind: types.KindDate},
		},
		PrimaryKey: []string{"sale_id"},
	})
	add(&catalog.Table{
		Name: "dept",
		Columns: []catalog.Column{
			{Name: "dept_id", Kind: types.KindInt},
			{Name: "dname", Kind: types.KindString},
		},
		PrimaryKey: []string{"dept_id"},
		Replicated: false,
	})
	return cat
}

func bind(t *testing.T, src string) logical.Node {
	t.Helper()
	sel, err := sql.ParseSelect(src)
	if err != nil {
		t.Fatalf("parse: %v", err)
	}
	plan, err := New(testCatalog(t)).BindSelect(sel)
	if err != nil {
		t.Fatalf("bind(%q): %v", src, err)
	}
	return plan
}

func bindErr(t *testing.T, src string) error {
	t.Helper()
	sel, err := sql.ParseSelect(src)
	if err != nil {
		t.Fatalf("parse: %v", err)
	}
	_, err = New(testCatalog(t)).BindSelect(sel)
	if err == nil {
		t.Fatalf("bind(%q) succeeded, want error", src)
	}
	return err
}

func TestBindSimpleSelect(t *testing.T) {
	plan := bind(t, "SELECT name, salary FROM emp WHERE salary > 1000")
	proj, ok := plan.(*logical.Project)
	if !ok {
		t.Fatalf("top = %T", plan)
	}
	fields := proj.Schema()
	if len(fields) != 2 || fields[0].Name != "name" || fields[1].Kind != types.KindFloat {
		t.Errorf("schema = %v", fields)
	}
	if _, ok := proj.Input.(*logical.Filter); !ok {
		t.Errorf("under project = %T", proj.Input)
	}
}

func TestBindStar(t *testing.T) {
	plan := bind(t, "SELECT * FROM emp")
	if got := len(plan.Schema()); got != 5 {
		t.Errorf("star width = %d", got)
	}
}

func TestBindQualifiedAndAlias(t *testing.T) {
	plan := bind(t, "SELECT e.name FROM emp e WHERE e.id = 1")
	if plan.Schema()[0].Name != "name" {
		t.Errorf("schema = %v", plan.Schema())
	}
	// Self join with aliases resolves unambiguously.
	plan = bind(t, "SELECT a.name, b.name FROM emp a, emp b WHERE a.id = b.id")
	if len(plan.Schema()) != 2 {
		t.Errorf("self join schema = %v", plan.Schema())
	}
}

func TestBindAmbiguousColumn(t *testing.T) {
	err := bindErr(t, "SELECT dept_id FROM emp, dept")
	if !strings.Contains(err.Error(), "ambiguous") {
		t.Errorf("error = %v", err)
	}
}

func TestBindUnknownColumnAndTable(t *testing.T) {
	if err := bindErr(t, "SELECT nope FROM emp"); !strings.Contains(err.Error(), "does not exist") {
		t.Errorf("error = %v", err)
	}
	if err := bindErr(t, "SELECT x FROM nosuch"); !strings.Contains(err.Error(), "does not exist") {
		t.Errorf("error = %v", err)
	}
}

func TestBindCommaJoin(t *testing.T) {
	plan := bind(t, "SELECT e.name, d.dname FROM emp e, dept d WHERE e.dept_id = d.dept_id")
	var joins int
	logical.Walk(plan, func(n logical.Node) bool {
		if _, ok := n.(*logical.Join); ok {
			joins++
		}
		return true
	})
	if joins != 1 {
		t.Errorf("join count = %d", joins)
	}
}

func TestBindAnsiJoins(t *testing.T) {
	plan := bind(t, `SELECT e.name FROM emp e INNER JOIN dept d ON e.dept_id = d.dept_id`)
	foundInner := false
	logical.Walk(plan, func(n logical.Node) bool {
		if j, ok := n.(*logical.Join); ok && j.Type == logical.JoinInner {
			foundInner = true
		}
		return true
	})
	if !foundInner {
		t.Error("inner join missing")
	}
	plan = bind(t, `SELECT e.name FROM emp e LEFT JOIN sales s ON e.id = s.emp_id`)
	foundLeft := false
	logical.Walk(plan, func(n logical.Node) bool {
		if j, ok := n.(*logical.Join); ok && j.Type == logical.JoinLeft {
			foundLeft = true
		}
		return true
	})
	if !foundLeft {
		t.Error("left join missing")
	}
}

func TestBindAggregation(t *testing.T) {
	plan := bind(t, `SELECT dept_id, COUNT(*) AS cnt, SUM(salary) AS total, AVG(salary)
		FROM emp GROUP BY dept_id HAVING COUNT(*) > 2`)
	schema := plan.Schema()
	if len(schema) != 4 {
		t.Fatalf("schema = %v", schema)
	}
	if schema[1].Name != "cnt" || schema[1].Kind != types.KindInt {
		t.Errorf("cnt field = %v", schema[1])
	}
	if schema[3].Kind != types.KindFloat {
		t.Errorf("avg kind = %v", schema[3])
	}
	// Plan must contain an aggregate under a filter (HAVING).
	var sawAgg, sawFilterAboveAgg bool
	logical.Walk(plan, func(n logical.Node) bool {
		if f, ok := n.(*logical.Filter); ok {
			if _, ok := f.Input.(*logical.Aggregate); ok {
				sawFilterAboveAgg = true
			}
		}
		if _, ok := n.(*logical.Aggregate); ok {
			sawAgg = true
		}
		return true
	})
	if !sawAgg || !sawFilterAboveAgg {
		t.Errorf("agg=%v having-filter=%v\n%s", sawAgg, sawFilterAboveAgg, plan.Digest())
	}
}

func TestBindScalarAggregate(t *testing.T) {
	plan := bind(t, "SELECT COUNT(*), MAX(salary) FROM emp")
	agg := findAggregate(plan)
	if agg == nil {
		t.Fatal("no aggregate")
	}
	if len(agg.GroupBy) != 0 || len(agg.Aggs) != 2 {
		t.Errorf("agg = %v / %v", agg.GroupBy, agg.Aggs)
	}
}

func findAggregate(plan logical.Node) *logical.Aggregate {
	var out *logical.Aggregate
	logical.Walk(plan, func(n logical.Node) bool {
		if a, ok := n.(*logical.Aggregate); ok && out == nil {
			out = a
		}
		return true
	})
	return out
}

func TestBindGroupByExpression(t *testing.T) {
	plan := bind(t, `SELECT EXTRACT(YEAR FROM hired), COUNT(*) FROM emp
		GROUP BY EXTRACT(YEAR FROM hired)`)
	agg := findAggregate(plan)
	if agg == nil || len(agg.GroupBy) != 1 {
		t.Fatalf("agg = %+v", agg)
	}
	if plan.Schema()[0].Kind != types.KindInt {
		t.Errorf("group expr kind = %v", plan.Schema()[0].Kind)
	}
}

func TestBindColumnNotInGroupByRejected(t *testing.T) {
	err := bindErr(t, "SELECT name, COUNT(*) FROM emp GROUP BY dept_id")
	if !strings.Contains(err.Error(), "GROUP BY") {
		t.Errorf("error = %v", err)
	}
}

func TestBindAggregateNotAllowedInWhere(t *testing.T) {
	err := bindErr(t, "SELECT id FROM emp WHERE SUM(salary) > 10")
	if !strings.Contains(err.Error(), "not allowed") {
		t.Errorf("error = %v", err)
	}
}

func TestBindDistinct(t *testing.T) {
	plan := bind(t, "SELECT DISTINCT dept_id FROM emp")
	if _, ok := plan.(*logical.Aggregate); !ok {
		t.Errorf("top = %T, want Aggregate (distinct)", plan)
	}
}

func TestBindOrderByAndLimit(t *testing.T) {
	plan := bind(t, "SELECT name, salary FROM emp ORDER BY salary DESC, 1 LIMIT 5")
	lim, ok := plan.(*logical.Limit)
	if !ok || lim.N != 5 {
		t.Fatalf("top = %T", plan)
	}
	srt, ok := lim.Input.(*logical.Sort)
	if !ok {
		t.Fatalf("under limit = %T", lim.Input)
	}
	if len(srt.Keys) != 2 || !srt.Keys[0].Desc || srt.Keys[0].Col != 1 || srt.Keys[1].Col != 0 {
		t.Errorf("keys = %+v", srt.Keys)
	}
}

func TestBindOrderByAlias(t *testing.T) {
	plan := bind(t, "SELECT salary * 2 AS double_pay FROM emp ORDER BY double_pay")
	srt := plan.(*logical.Sort)
	if srt.Keys[0].Col != 0 {
		t.Errorf("alias order key = %+v", srt.Keys)
	}
	if err := bindErr(t, "SELECT salary FROM emp ORDER BY nonexistent"); err == nil {
		t.Error("bad order key accepted")
	}
}

func TestBindDerivedTable(t *testing.T) {
	plan := bind(t, `SELECT big.name FROM (SELECT name, salary FROM emp WHERE salary > 10) AS big
		WHERE big.salary < 100`)
	if len(plan.Schema()) != 1 {
		t.Errorf("schema = %v", plan.Schema())
	}
}

func TestBindInSubquery(t *testing.T) {
	plan := bind(t, "SELECT name FROM emp WHERE id IN (SELECT emp_id FROM sales)")
	j := findJoin(plan)
	if j == nil || j.Type != logical.JoinSemi {
		t.Fatalf("join = %+v\n%s", j, plan.Digest())
	}
	// Uncorrelated IN joins are not correlations: pushdown may cross them
	// without FILTER_CORRELATE.
	if j.FromCorrelate {
		t.Error("uncorrelated IN marked FromCorrelate")
	}
	plan = bind(t, "SELECT name FROM emp WHERE id NOT IN (SELECT emp_id FROM sales)")
	j = findJoin(plan)
	if j == nil || j.Type != logical.JoinAnti {
		t.Fatalf("anti join = %+v", j)
	}
}

func findJoin(plan logical.Node) *logical.Join {
	var out *logical.Join
	logical.Walk(plan, func(n logical.Node) bool {
		if j, ok := n.(*logical.Join); ok && out == nil {
			out = j
		}
		return true
	})
	return out
}

func TestBindCorrelatedExists(t *testing.T) {
	plan := bind(t, `SELECT name FROM emp e WHERE EXISTS
		(SELECT 1 FROM sales s WHERE s.emp_id = e.id AND s.amount > 100)`)
	j := findJoin(plan)
	if j == nil || j.Type != logical.JoinSemi {
		t.Fatalf("join = %+v\n%s", j, plan.Digest())
	}
	// The local predicate (amount > 100) must be a filter inside the right
	// input, and the correlation must be the join condition.
	if !strings.Contains(j.Cond.String(), "=") {
		t.Errorf("cond = %s", j.Cond)
	}
	var rightHasFilter bool
	logical.Walk(j.Right, func(n logical.Node) bool {
		if _, ok := n.(*logical.Filter); ok {
			rightHasFilter = true
		}
		return true
	})
	if !rightHasFilter {
		t.Errorf("local predicate not pushed into subquery plan:\n%s", plan.Digest())
	}
}

func TestBindNotExists(t *testing.T) {
	plan := bind(t, `SELECT name FROM emp e WHERE NOT EXISTS
		(SELECT 1 FROM sales s WHERE s.emp_id = e.id)`)
	j := findJoin(plan)
	if j == nil || j.Type != logical.JoinAnti {
		t.Fatalf("join = %+v", j)
	}
}

func TestBindUncorrelatedScalarSubquery(t *testing.T) {
	plan := bind(t, "SELECT name FROM emp WHERE salary > (SELECT AVG(salary) FROM emp)")
	j := findJoin(plan)
	if j == nil || j.Type != logical.JoinInner {
		t.Fatalf("join = %+v\n%s", j, plan.Digest())
	}
	// Output schema must still be 1 column (scalar col projected away).
	if len(plan.Schema()) != 1 {
		t.Errorf("schema = %v", plan.Schema())
	}
}

func TestBindCorrelatedScalarAggSubquery(t *testing.T) {
	// The TPC-H Q17 pattern.
	plan := bind(t, `SELECT e.name FROM emp e WHERE e.salary >
		(SELECT 0.5 * AVG(s.amount) FROM sales s WHERE s.emp_id = e.id)`)
	j := findJoin(plan)
	if j == nil || j.Type != logical.JoinInner || !j.FromCorrelate {
		t.Fatalf("join = %+v\n%s", j, plan.Digest())
	}
	// The right side must aggregate grouped by the correlation column.
	agg := findAggregate(j.Right)
	if agg == nil || len(agg.GroupBy) != 1 || len(agg.Aggs) != 1 {
		t.Fatalf("decorrelated agg = %+v\n%s", agg, plan.Digest())
	}
}

func TestBindScalarCompareReversed(t *testing.T) {
	plan := bind(t, "SELECT name FROM emp WHERE (SELECT AVG(salary) FROM emp) < salary")
	if len(plan.Schema()) != 1 {
		t.Errorf("schema = %v", plan.Schema())
	}
}

func TestBindHavingScalarSubquery(t *testing.T) {
	// The TPC-H Q11 pattern.
	plan := bind(t, `SELECT dept_id, SUM(salary) FROM emp GROUP BY dept_id
		HAVING SUM(salary) > (SELECT SUM(salary) * 0.1 FROM emp)`)
	if len(plan.Schema()) != 2 {
		t.Errorf("schema = %v", plan.Schema())
	}
	var sawInner int
	logical.Walk(plan, func(n logical.Node) bool {
		if _, ok := n.(*logical.Aggregate); ok {
			sawInner++
		}
		return true
	})
	if sawInner != 2 {
		t.Errorf("expected 2 aggregates (outer + subquery), got %d\n%s", sawInner, plan.Digest())
	}
}

func TestBindNestedSubqueryInCorrelated(t *testing.T) {
	// The TPC-H Q20 shape: an IN subquery whose body has both an
	// uncorrelated IN and a correlated scalar aggregate.
	plan := bind(t, `SELECT name FROM emp WHERE id IN
		(SELECT emp_id FROM sales WHERE sale_id IN (SELECT dept_id FROM dept)
		 AND amount > (SELECT 0.5 * SUM(s2.amount) FROM sales s2 WHERE s2.emp_id = sales.emp_id))`)
	if len(plan.Schema()) != 1 {
		t.Errorf("schema = %v", plan.Schema())
	}
}

func TestBindSelectConstantsNoFrom(t *testing.T) {
	plan := bind(t, "SELECT 1 + 2, 'x'")
	if len(plan.Schema()) != 2 {
		t.Errorf("schema = %v", plan.Schema())
	}
}

func TestBindDateIntervalArithmetic(t *testing.T) {
	plan := bind(t, `SELECT name FROM emp WHERE hired < DATE '1995-01-01' + INTERVAL '3' MONTH`)
	digest := plan.Digest()
	if !strings.Contains(digest, "1995-04-01") {
		t.Errorf("interval not folded: %s", digest)
	}
}

func TestBindBetweenDesugar(t *testing.T) {
	plan := bind(t, "SELECT name FROM emp WHERE salary BETWEEN 10 AND 20")
	d := plan.Digest()
	if !strings.Contains(d, ">=") || !strings.Contains(d, "<=") {
		t.Errorf("between not desugared: %s", d)
	}
}

func TestBindCountDistinct(t *testing.T) {
	plan := bind(t, "SELECT COUNT(DISTINCT dept_id) FROM emp")
	agg := findAggregate(plan)
	if agg == nil || !agg.Aggs[0].Distinct {
		t.Fatalf("agg = %+v", agg)
	}
	if !agg.HasDistinct() {
		t.Error("HasDistinct = false")
	}
}

func TestBindSharedAggArgDeduped(t *testing.T) {
	plan := bind(t, "SELECT SUM(salary), AVG(salary), MIN(salary) FROM emp")
	agg := findAggregate(plan)
	if agg == nil {
		t.Fatal("no aggregate")
	}
	pre, ok := agg.Input.(*logical.Project)
	if !ok {
		t.Fatalf("agg input = %T", agg.Input)
	}
	// One shared argument column, not three.
	if len(pre.Exprs) != 1 {
		t.Errorf("pre-projection has %d exprs, want 1 (dedup)", len(pre.Exprs))
	}
}

func TestBindCreateTableAndInsert(t *testing.T) {
	stmt, err := sql.Parse(`CREATE TABLE t2 (a INTEGER PRIMARY KEY, b VARCHAR(10), c DATE)`)
	if err != nil {
		t.Fatal(err)
	}
	tbl, err := BindCreateTable(stmt.(*sql.CreateTableStmt))
	if err != nil {
		t.Fatal(err)
	}
	if tbl.Columns[2].Kind != types.KindDate {
		t.Errorf("columns = %+v", tbl.Columns)
	}
	ins, err := sql.Parse(`INSERT INTO t2 (a, b, c) VALUES (1, 'x', '2020-05-05')`)
	if err != nil {
		t.Fatal(err)
	}
	rows, err := BindInsertRows(tbl, ins.(*sql.InsertStmt))
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 1 || rows[0][2].K != types.KindDate {
		t.Errorf("rows = %v", rows)
	}
	// Wrong arity.
	bad, _ := sql.Parse(`INSERT INTO t2 (a, b) VALUES (1)`)
	if _, err := BindInsertRows(tbl, bad.(*sql.InsertStmt)); err == nil {
		t.Error("arity mismatch accepted")
	}
	// Unknown column.
	bad2, _ := sql.Parse(`INSERT INTO t2 (zzz) VALUES (1)`)
	if _, err := BindInsertRows(tbl, bad2.(*sql.InsertStmt)); err == nil {
		t.Error("unknown column accepted")
	}
	// Type mismatch.
	bad3, _ := sql.Parse(`INSERT INTO t2 (a) VALUES ('nope')`)
	if _, err := BindInsertRows(tbl, bad3.(*sql.InsertStmt)); err == nil {
		t.Error("type mismatch accepted")
	}
}

func TestKindOfTypeName(t *testing.T) {
	cases := map[string]types.Kind{
		"INTEGER": types.KindInt, "BIGINT": types.KindInt,
		"DECIMAL": types.KindFloat, "DOUBLE": types.KindFloat,
		"VARCHAR": types.KindString, "CHAR": types.KindString,
		"DATE": types.KindDate, "BOOLEAN": types.KindBool,
	}
	for name, want := range cases {
		got, err := KindOfTypeName(name)
		if err != nil || got != want {
			t.Errorf("KindOfTypeName(%s) = %v, %v", name, got, err)
		}
	}
	if _, err := KindOfTypeName("BLOB"); err == nil {
		t.Error("unsupported type accepted")
	}
}

func TestBindErrorPaths(t *testing.T) {
	cases := []struct {
		q    string
		want string
	}{
		{`SELECT name FROM emp WHERE salary + 1`, "not BOOLEAN"},
		{`SELECT name FROM emp WHERE name LIKE dept_id`, "LIKE pattern"},
		{`SELECT UNKNOWN_FUNC(id) FROM emp`, "unknown function"},
		{`SELECT SUBSTRING(name FROM 1 FOR 2) || 'x' FROM emp`, ""},
		{`SELECT COUNT(id, name) FROM emp`, "one argument"},
		{`SELECT MIN(*) FROM emp`, "not valid"},
		{`SELECT name FROM emp GROUP BY dept_id`, "GROUP BY"},
		{`SELECT * FROM emp GROUP BY dept_id`, "cannot be combined"},
		{`SELECT id FROM emp WHERE id IN (SELECT sale_id, emp_id FROM sales)`, "one column"},
		{`SELECT id FROM emp WHERE id > (SELECT sale_id, emp_id FROM sales)`, "one column"},
		{`SELECT id FROM emp ORDER BY 99`, "out of range"},
		{`SELECT id FROM emp WHERE hired + INTERVAL '1' MONTH > DATE '1995-01-01'`, "constant date"},
	}
	for _, c := range cases {
		sel, err := sql.ParseSelect(c.q)
		if err != nil {
			continue // parser-level rejection also counts
		}
		_, err = New(testCatalog(t)).BindSelect(sel)
		if err == nil {
			t.Errorf("bind(%q) succeeded, want error", c.q)
			continue
		}
		if c.want != "" && !strings.Contains(err.Error(), c.want) {
			t.Errorf("bind(%q) error = %v, want containing %q", c.q, err, c.want)
		}
	}
}

func TestBindCaseAndIsNull(t *testing.T) {
	plan := bind(t, `SELECT CASE WHEN salary > 1500 THEN 'high' ELSE 'low' END AS band,
		name FROM emp WHERE hired IS NOT NULL`)
	if plan.Schema()[0].Name != "band" {
		t.Errorf("schema = %v", plan.Schema())
	}
}

func TestBindInListAndNotBetween(t *testing.T) {
	plan := bind(t, `SELECT id FROM emp WHERE dept_id IN (1, 2, 3) AND id NOT BETWEEN 5 AND 10`)
	d := plan.Digest()
	if !strings.Contains(d, "IN") {
		t.Errorf("digest = %s", d)
	}
}

func TestBindSubqueryRefNoAlias(t *testing.T) {
	// A derived table without an alias keeps its inner names.
	plan := bind(t, `SELECT name FROM (SELECT name FROM emp WHERE id < 5)`)
	if len(plan.Schema()) != 1 {
		t.Errorf("schema = %v", plan.Schema())
	}
}

func TestBindUncorrelatedExists(t *testing.T) {
	plan := bind(t, `SELECT name FROM emp WHERE EXISTS (SELECT 1 FROM dept WHERE dname = 'x')`)
	j := findJoin(plan)
	if j == nil || j.Type != logical.JoinSemi || j.FromCorrelate {
		t.Fatalf("join = %+v", j)
	}
}

func TestBindCorrelatedNonEquiExists(t *testing.T) {
	// Q21's shape: a correlated EXISTS with a non-equi conjunct.
	plan := bind(t, `SELECT e.name FROM emp e WHERE EXISTS
		(SELECT 1 FROM emp e2 WHERE e2.dept_id = e.dept_id AND e2.id <> e.id)`)
	j := findJoin(plan)
	if j == nil || j.Type != logical.JoinSemi || !j.FromCorrelate {
		t.Fatalf("join = %+v\n%s", j, plan.Digest())
	}
	if !strings.Contains(j.Cond.String(), "<>") {
		t.Errorf("non-equi correlation lost: %s", j.Cond)
	}
}

func TestBindDistinctOrderByLimit(t *testing.T) {
	plan := bind(t, `SELECT DISTINCT dept_id FROM emp ORDER BY dept_id DESC LIMIT 2`)
	lim, ok := plan.(*logical.Limit)
	if !ok {
		t.Fatalf("top = %T", plan)
	}
	if _, ok := lim.Input.(*logical.Sort); !ok {
		t.Fatalf("under limit = %T", lim.Input)
	}
}
