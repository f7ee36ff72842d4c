// Composability demo: the point of the paper's composable-systems study
// is that the optimizer is assembled from swappable parts. This example
// runs the SAME query under different compositions — toggling the join
// estimator, the cost-model fixes, the hash-join operator and the §5.1.1
// distribution mappings one at a time — and shows how the physical plan
// and modeled cost change with each part.
package main

import (
	"fmt"
	"log"
	"strings"

	"gignite"
	"gignite/internal/tpch"
)

func main() {
	const (
		sf    = 0.005
		sites = 4
	)
	query := tpch.QueryByID(14).SQL // lineitem ⋈ part with a date filter

	type composition struct {
		name   string
		mutate gignite.Option
	}
	compositions := []composition{
		{"baseline (IC)", func(c *gignite.Config) {}},
		{"+ Swami-Schiefer join estimation (Eq. 3)", func(c *gignite.Config) {
			c.SwamiSchieferEstimation = true
		}},
		{"+ standardized cost units + distribution factor", func(c *gignite.Config) {
			c.SwamiSchieferEstimation = true
			c.StandardCostUnits = true
			c.DistributionFactor = true
			c.FixExchangePenalty = true
		}},
		{"+ hash join (§5.1.2)", func(c *gignite.Config) {
			c.SwamiSchieferEstimation = true
			c.StandardCostUnits = true
			c.DistributionFactor = true
			c.FixExchangePenalty = true
			c.HashJoin = true
		}},
		{"+ fully-distributed join mappings (§5.1.1) = IC+", gignite.WithPreset(gignite.ICPlus, sites)},
		{"+ variant fragments (§5.3) = IC+M", gignite.WithPreset(gignite.ICPlusM, sites)},
	}

	for _, comp := range compositions {
		e := gignite.Open(gignite.WithPreset(gignite.IC, sites), comp.mutate)
		if err := tpch.Setup(e, sf); err != nil {
			log.Fatal(err)
		}
		res, err := e.Query(query)
		if err != nil {
			log.Fatalf("%s: %v", comp.name, err)
		}
		fmt.Printf("%-55s modeled=%10v  shipped=%6.0fKB  instances=%d\n",
			comp.name, res.Modeled, res.Stats.BytesShipped/1024, res.Stats.Instances)
		// One plan line: which join algorithm/mapping won.
		plan, _ := e.Explain(query)
		for _, line := range strings.Split(plan, "\n") {
			if strings.Contains(line, "Join[") {
				fmt.Printf("%55s %s\n", "", strings.TrimSpace(line))
				break
			}
		}
	}
}
