package gignite_test

import (
	"fmt"
	"log"

	"gignite"
)

// Example runs the paper's Figure 1 scenario end to end: a partitioned
// employee/sales schema on a 4-site cluster and the distributed join
// Query A.
func Example() {
	e := gignite.Open(gignite.WithPreset(gignite.ICPlusM, 4))

	statements := []string{
		`CREATE TABLE employee (id BIGINT PRIMARY KEY, name VARCHAR(30))`,
		`CREATE TABLE sales (sale_id BIGINT PRIMARY KEY, emp_id BIGINT, amount DOUBLE)`,
		`INSERT INTO employee VALUES (10, 'ada'), (11, 'grace'), (12, 'edsger')`,
		`INSERT INTO sales VALUES (1, 10, 120.5), (2, 10, 80.0), (3, 11, 200.0)`,
	}
	for _, stmt := range statements {
		if _, err := e.Exec(stmt); err != nil {
			log.Fatal(err)
		}
	}
	if err := e.Analyze(); err != nil {
		log.Fatal(err)
	}

	res, err := e.Query(`SELECT e.name, SUM(s.amount) AS total
		FROM employee e, sales s
		WHERE e.id = s.emp_id
		GROUP BY e.name ORDER BY total DESC`)
	if err != nil {
		log.Fatal(err)
	}
	for _, row := range res.Rows {
		fmt.Printf("%s: %s\n", row[0], row[1])
	}
	// Output:
	// ada: 200.5
	// grace: 200
}
