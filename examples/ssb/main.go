// SSB analytics walkthrough: a star-schema data warehouse on gignite.
// Loads the Star Schema Benchmark, runs the drill-down of query flight 3
// (customer × supplier geography over time), and shows how the fact table
// stays in place while dimensions ship — the §5.1.1 fully-distributed
// join mapping the paper credits for the SSB gains.
package main

import (
	"fmt"
	"log"
	"strings"

	"gignite"
	"gignite/internal/harness"
	"gignite/internal/ssb"
)

func main() {
	const (
		sf    = 0.005
		sites = 4
	)
	e := gignite.Open(gignite.WithConfig(harness.ConfigFor(harness.ICPM, sites, sf)))
	fmt.Printf("loading SSB at SF %g on %d sites...\n\n", sf, sites)
	if err := ssb.Setup(e, sf); err != nil {
		log.Fatal(err)
	}

	// The flight-3 drill-down: from nation level to a single year-month.
	for _, q := range ssb.Queries() {
		if q.Flight != 3 {
			continue
		}
		res, err := e.Query(q.SQL)
		if err != nil {
			log.Fatalf("%s: %v", q.ID, err)
		}
		fmt.Printf("%s: %d groups, modeled %v, %0.f KB shipped\n",
			q.ID, len(res.Rows), res.Modeled, res.Stats.BytesShipped/1024)
		for i, r := range res.Rows {
			if i == 3 {
				fmt.Println("   ...")
				break
			}
			parts := make([]string, len(r))
			for j, v := range r {
				parts[j] = v.String()
			}
			fmt.Println("   " + strings.Join(parts, " | "))
		}
	}

	// A custom dashboard query over the same warehouse: revenue by
	// customer region and year.
	res, err := e.Query(`
		SELECT c_region, d_year, SUM(lo_revenue) AS revenue
		FROM lineorder, customer, ddate
		WHERE lo_custkey = c_custkey AND lo_orderdate = d_datekey
		GROUP BY c_region, d_year
		ORDER BY c_region, d_year`)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Println("\nrevenue by region and year:")
	for _, r := range res.Rows {
		fmt.Printf("   %-12s %s  %s\n", r[0], r[1], r[2])
	}
}
