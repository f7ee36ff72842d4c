// Quickstart: create tables on a 4-site gignite cluster, load rows, and
// run distributed SQL — the sample schema and join query of the paper's
// Figure 1.
package main

import (
	"fmt"
	"log"
	"strings"

	"gignite"
)

func main() {
	// IC+M is the fully improved system: planner fixes, hash joins,
	// fully-distributed join mappings and dual-threaded variant fragments.
	e := gignite.Open(gignite.WithPreset(gignite.ICPlusM, 4))

	must := func(q string) *gignite.Result {
		res, err := e.Exec(q)
		if err != nil {
			log.Fatalf("%s: %v", q, err)
		}
		return res
	}

	// The paper's Figure 1 schema. Tables are hash-partitioned on their
	// primary keys across the 4 sites.
	must(`CREATE TABLE employee (id BIGINT PRIMARY KEY, name VARCHAR(30), dept VARCHAR(20))`)
	must(`CREATE TABLE sales (sale_id BIGINT PRIMARY KEY, emp_id BIGINT, amount DOUBLE)`)

	must(`INSERT INTO employee (id, name, dept) VALUES
		(10, 'ada', 'engineering'), (11, 'grace', 'engineering'),
		(12, 'edsger', 'research'), (13, 'barbara', 'research')`)
	must(`INSERT INTO sales (sale_id, emp_id, amount) VALUES
		(1, 10, 120.5), (2, 10, 80.0), (3, 11, 200.0),
		(4, 12, 40.25), (5, 13, 310.0), (6, 13, 55.5)`)

	// Collect statistics so the cost-based planner has cardinalities.
	if err := e.Analyze(); err != nil {
		log.Fatal(err)
	}

	// The paper's Query A: a distributed equi-join.
	queryA := `SELECT * FROM employee INNER JOIN sales
		ON employee.id = sales.emp_id WHERE employee.id = 10`
	res := must(queryA)
	fmt.Println("Query A results:")
	fmt.Println(strings.Join(res.Columns, " | "))
	for _, r := range res.Rows {
		parts := make([]string, len(r))
		for i, v := range r {
			parts[i] = v.String()
		}
		fmt.Println(strings.Join(parts, " | "))
	}
	fmt.Printf("modeled response time on the 4-site cluster: %v\n\n", res.Modeled)

	// An aggregation with ORDER BY, executed as a distributed two-phase
	// (map/reduce) aggregation.
	res = must(`SELECT e.dept, COUNT(*) AS n, SUM(s.amount) AS revenue
		FROM employee e, sales s WHERE e.id = s.emp_id
		GROUP BY e.dept ORDER BY revenue DESC`)
	fmt.Println("revenue by department:")
	for _, r := range res.Rows {
		fmt.Printf("  %-12s n=%s revenue=%s\n", r[0], r[1], r[2])
	}

	// EXPLAIN shows the fragmented physical plan: distribution traits,
	// join mapping, senders/receivers.
	plan, err := e.Explain(queryA)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Println("\nEXPLAIN Query A:")
	fmt.Println(plan)
}
