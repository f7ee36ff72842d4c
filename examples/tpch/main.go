// TPC-H walkthrough: load the benchmark at a laptop scale factor, then
// compare the three system variants of the paper (IC, IC+, IC+M) on a few
// representative queries — the per-query response time protocol of §6.2.
package main

import (
	"errors"
	"fmt"
	"log"

	"gignite"
	"gignite/internal/harness"
	"gignite/internal/tpch"
)

func main() {
	const (
		sf    = 0.005
		sites = 4
	)
	fmt.Printf("loading TPC-H SF %g on %d sites for IC, IC+ and IC+M...\n\n", sf, sites)

	// The Env loads each system's engine on first use and keeps it.
	env := harness.NewEnv()

	// Q3 (shipping priority), Q14 (promotion effect — the sort-order /
	// index-scan improvement), Q19 (the §5.2 join-condition
	// simplification showcase) and Q21 (baseline NLJ timeout).
	for _, id := range []int{3, 14, 19, 21} {
		q := tpch.QueryByID(id)
		fmt.Printf("Q%d (%s):\n", q.ID, q.Name)
		for _, sys := range harness.Systems() {
			d, err := env.ResponseTime(harness.TPCH, sys, sites, sf, q.SQL)
			switch {
			case errors.Is(err, gignite.ErrQueryTimeout):
				fmt.Printf("  %-5s exceeded the runtime limit (the paper's >4h timeout)\n", sys)
			case err != nil:
				fmt.Printf("  %-5s failed: %v\n", sys, err)
			default:
				fmt.Printf("  %-5s %v\n", sys, d)
			}
		}
		fmt.Println()
	}

	// Show what changed for Q19: the §5.2 rewrite exposes the equi key
	// inside the OR-of-ANDs predicate, enabling a distributed hash join.
	q19 := tpch.QueryByID(19)
	e, err := env.Engine(harness.TPCH, harness.ICPlus, sites, sf)
	if err != nil {
		log.Fatal(err)
	}
	plan, err := e.Explain(q19.SQL)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Println("Q19 plan under IC+ (note the hash join and the extracted conditions):")
	fmt.Println(plan)
}
