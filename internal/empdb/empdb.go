// Package empdb is the small emp/sales/dept database the differential
// tests share: its schema, its deterministic rows, and a seeded generator
// of random but always-valid queries over it. It depends only on the
// value types, so both the engine's own tests and the tests of the
// packages beneath it can load it.
package empdb

import (
	"fmt"
	"sort"
	"strings"

	"gignite/internal/types"
)

// DDL creates the three tables.
var DDL = []string{
	`CREATE TABLE dept (dept_id BIGINT PRIMARY KEY, dname VARCHAR(20))`,
	`CREATE TABLE emp (
		id BIGINT PRIMARY KEY, name VARCHAR(30), dept_id BIGINT,
		salary DOUBLE, hired DATE)`,
	`CREATE TABLE sales (
		sale_id BIGINT PRIMARY KEY, emp_id BIGINT, amount DOUBLE, sold DATE)`,
}

// Table is one table's rows.
type Table struct {
	Name string
	Rows []types.Row
}

// Tables returns the rows to load, in DDL order: 4 departments, 100
// employees, 500 sales.
func Tables() []Table {
	var depts, emps, sales []types.Row
	for i := 0; i < 4; i++ {
		depts = append(depts, types.Row{types.NewInt(int64(i)), types.NewString(fmt.Sprintf("dept%d", i))})
	}
	for i := 0; i < 100; i++ {
		emps = append(emps, types.Row{
			types.NewInt(int64(i)),
			types.NewString(fmt.Sprintf("emp%03d", i)),
			types.NewInt(int64(i % 4)),
			types.NewFloat(1000 + float64(i)*10),
			types.DateFromYMD(1990+i%10, 1+i%12, 1+i%28),
		})
	}
	for i := 0; i < 500; i++ {
		sales = append(sales, types.Row{
			types.NewInt(int64(i)),
			types.NewInt(int64(i % 100)),
			types.NewFloat(float64(i%97) * 3.5),
			types.DateFromYMD(1995+i%5, 1+i%12, 1+i%28),
		})
	}
	return []Table{{"dept", depts}, {"emp", emps}, {"sales", sales}}
}

// Canonical renders a result set order-insensitively for comparison.
// Floats are rounded: distributed partial aggregation sums them in a
// different order than a single-node evaluation.
func Canonical(rows []types.Row) []string {
	out := make([]string, len(rows))
	for i, r := range rows {
		parts := make([]string, len(r))
		for j, v := range r {
			if v.K == types.KindFloat {
				parts[j] = fmt.Sprintf("%.4f", v.F)
			} else {
				parts[j] = v.String()
			}
		}
		out[i] = strings.Join(parts, "|")
	}
	sort.Strings(out)
	return out
}

// Gen builds random but always-valid SQL over the emp/sales/dept schema.
// The sequence is a pure function of the seed.
type Gen struct {
	state uint64
}

// NewGen returns a generator seeded with seed.
func NewGen(seed uint64) *Gen { return &Gen{state: seed} }

func (g *Gen) next() uint64 {
	g.state = g.state*6364136223846793005 + 1442695040888963407
	return g.state >> 33
}

func (g *Gen) pick(options ...string) string {
	return options[g.next()%uint64(len(options))]
}

func (g *Gen) intn(n int) int { return int(g.next() % uint64(n)) }

// Query returns the next random query.
func (g *Gen) Query() string {
	switch g.intn(6) {
	case 0:
		return g.simpleSelect()
	case 1:
		return g.joinSelect()
	case 2:
		return g.aggSelect()
	case 3:
		return g.subquerySelect()
	case 4:
		return g.selfJoinSelect()
	default:
		return g.joinAggSelect()
	}
}

// empPredQ generates a predicate over emp columns; q prefixes column names
// (with a trailing dot) so multi-table queries stay unambiguous.
func (g *Gen) empPredQ(q string) string {
	switch g.intn(6) {
	case 0:
		return fmt.Sprintf("%ssalary %s %d", q, g.pick("<", ">", "<=", ">="), 900+g.intn(1200))
	case 1:
		return fmt.Sprintf("%sdept_id = %d", q, g.intn(4))
	case 2:
		return fmt.Sprintf("%sid BETWEEN %d AND %d", q, g.intn(40), 40+g.intn(60))
	case 3:
		return fmt.Sprintf("%sname LIKE 'emp0%d%%'", q, g.intn(10))
	case 4:
		return fmt.Sprintf("%sdept_id IN (%d, %d)", q, g.intn(4), g.intn(4))
	default:
		return fmt.Sprintf("%shired >= DATE '199%d-01-01'", q, g.intn(9))
	}
}

func (g *Gen) empPred() string { return g.empPredQ("") }

func (g *Gen) simpleSelect() string {
	cols := g.pick("id, name", "name, salary", "id, dept_id, salary", "*")
	q := fmt.Sprintf("SELECT %s FROM emp WHERE %s AND %s", cols, g.empPred(), g.empPred())
	if g.intn(2) == 0 {
		q += " ORDER BY id"
		if g.intn(2) == 0 {
			q += fmt.Sprintf(" LIMIT %d", 1+g.intn(20))
		}
	}
	return q
}

func (g *Gen) joinSelect() string {
	pred := g.empPredQ("e.")
	amount := 50 + g.intn(250)
	return fmt.Sprintf(`SELECT e.name, s.amount FROM emp e, sales s
		WHERE e.id = s.emp_id AND %s AND s.amount > %d ORDER BY e.name, s.amount`,
		pred, amount)
}

func (g *Gen) aggSelect() string {
	agg := g.pick("COUNT(*)", "SUM(salary)", "AVG(salary)", "MIN(id)", "MAX(salary)",
		"COUNT(DISTINCT dept_id)")
	if g.intn(2) == 0 {
		return fmt.Sprintf("SELECT %s FROM emp WHERE %s", agg, g.empPred())
	}
	return fmt.Sprintf(`SELECT dept_id, %s FROM emp WHERE %s GROUP BY dept_id
		HAVING COUNT(*) > %d ORDER BY dept_id`, agg, g.empPred(), g.intn(4))
}

func (g *Gen) subquerySelect() string {
	switch g.intn(3) {
	case 0:
		return fmt.Sprintf(`SELECT name FROM emp WHERE id IN
			(SELECT emp_id FROM sales WHERE amount > %d) AND %s ORDER BY name`,
			g.intn(300), g.empPred())
	case 1:
		return fmt.Sprintf(`SELECT name FROM emp e WHERE EXISTS
			(SELECT 1 FROM sales s WHERE s.emp_id = e.id AND s.amount > %d)
			AND %s ORDER BY name`, g.intn(300), g.empPred())
	default:
		return fmt.Sprintf(`SELECT name FROM emp WHERE salary > (SELECT AVG(salary)
			FROM emp WHERE %s) ORDER BY name`, g.empPred())
	}
}

// selfJoinSelect joins a derived table to a letter-for-letter copy of
// itself: the planner's memo sees one subplan twice and hands the join the
// same physical subtree for both inputs.
func (g *Gen) selfJoinSelect() string {
	sub := fmt.Sprintf("SELECT e.id AS k, e.salary + %d AS v FROM emp e WHERE %s",
		g.intn(100), g.empPredQ("e."))
	return fmt.Sprintf(`SELECT a.k, a.v, b.v FROM (%s) a JOIN (%s) b ON a.k = b.k
		ORDER BY a.k`, sub, sub)
}

func (g *Gen) joinAggSelect() string {
	return fmt.Sprintf(`SELECT d.dname, COUNT(*) AS n, SUM(s.amount) AS rev
		FROM emp e, dept d, sales s
		WHERE e.dept_id = d.dept_id AND s.emp_id = e.id AND %s
		GROUP BY d.dname ORDER BY n DESC, d.dname LIMIT %d`,
		g.empPredQ("e."), 1+g.intn(5))
}
