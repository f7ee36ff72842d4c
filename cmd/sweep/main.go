// Command sweep runs every query of a benchmark on all three system
// variants side by side and prints modeled response times plus speedup
// ratios — the quick-look diagnostic behind the Figure 7/8/11 experiments.
//
// Usage:
//
//	sweep [-bench tpch|ssb] [-sf 0.01] [-sites 4]
package main

import (
	"flag"
	"fmt"
	"os"
	"time"

	"gignite"
	"gignite/internal/harness"
	"gignite/internal/ssb"
	"gignite/internal/tpch"
)

func main() {
	sf := flag.Float64("sf", 0.002, "scale factor")
	bench := flag.String("bench", "tpch", "tpch or ssb")
	sites := flag.Int("sites", 4, "sites")
	flag.Parse()

	w, err := harness.ParseWorkload(*bench)
	if err != nil {
		fmt.Fprintf(os.Stderr, "sweep: %v\n", err)
		os.Exit(2)
	}
	type qspec struct{ label, sql string }
	var queries []qspec
	env := harness.NewEnv()
	engines := map[harness.System]*gignite.Engine{}
	for _, sys := range harness.Systems() {
		e, err := env.Engine(w, sys, *sites, *sf)
		if err != nil {
			panic(err)
		}
		engines[sys] = e
	}
	if w == harness.SSB {
		for _, q := range ssb.Queries() {
			queries = append(queries, qspec{q.ID, q.SQL})
		}
	} else {
		for _, q := range tpch.Queries() {
			if q.RequiresViews {
				continue
			}
			queries = append(queries, qspec{fmt.Sprintf("Q%d", q.ID), q.SQL})
		}
	}
	fmt.Printf("%-6s %12s %12s %12s %10s %10s %10s\n",
		"query", "IC", "IC+", "IC+M", "IC+/IC", "IC+M/IC", "IC+M/IC+")
	for _, q := range queries {
		times := map[harness.System]time.Duration{}
		errs := map[harness.System]error{}
		for _, sys := range harness.Systems() {
			res, err := engines[sys].Query(q.sql)
			if err != nil {
				errs[sys] = err
				continue
			}
			times[sys] = res.Modeled
		}
		cell := func(sys harness.System) string {
			if errs[sys] != nil {
				return "FAIL"
			}
			return fmt.Sprintf("%.2fms", float64(times[sys])/1e6)
		}
		ratio := func(a, b harness.System) string {
			if errs[a] != nil || errs[b] != nil || times[b] == 0 {
				return "-"
			}
			return fmt.Sprintf("%.2fx", float64(times[a])/float64(times[b]))
		}
		fmt.Printf("%-6s %12s %12s %12s %10s %10s %10s\n",
			q.label, cell(harness.IC), cell(harness.ICPlus), cell(harness.ICPM),
			ratio(harness.IC, harness.ICPlus), ratio(harness.IC, harness.ICPM),
			ratio(harness.ICPlus, harness.ICPM))
	}
}
