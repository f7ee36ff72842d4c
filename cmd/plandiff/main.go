// Command plandiff prints one TPC-H query's fragmented physical plan under
// the IC baseline and under IC+, side by side — the fastest way to see
// which improvement changed a plan.
//
// Usage:
//
//	plandiff <query-number> [scale-factor]
package main

import (
	"fmt"
	"os"
	"strconv"

	"gignite"
	"gignite/internal/harness"
	"gignite/internal/tpch"
)

func main() {
	if len(os.Args) < 2 {
		fmt.Fprintln(os.Stderr, "usage: plandiff <query-number> [scale-factor]")
		os.Exit(2)
	}
	id, err := strconv.Atoi(os.Args[1])
	if err != nil {
		fmt.Fprintf(os.Stderr, "plandiff: bad query number %q\n", os.Args[1])
		os.Exit(2)
	}
	sf := 0.002
	if len(os.Args) > 2 {
		sf, _ = strconv.ParseFloat(os.Args[2], 64)
	}
	q := tpch.QueryByID(id)
	if q == nil {
		fmt.Fprintf(os.Stderr, "plandiff: no TPC-H query %d\n", id)
		os.Exit(2)
	}
	for _, sys := range []harness.System{harness.IC, harness.ICPlus} {
		cfg := harness.ConfigFor(sys, 4, sf)
		cfg.ExecParallelism = 1 // sequential: plan diffs stay byte-stable
		e := gignite.Open(gignite.WithConfig(cfg))
		if err := tpch.Setup(e, sf); err != nil {
			panic(err)
		}
		plan, err := e.Explain(q.SQL)
		fmt.Printf("===== %s =====\n%s %v\n", sys, plan, err)
		if res, err := e.Query(q.SQL); err == nil {
			fmt.Printf(">>> modeled=%v work=%.0f bytes=%.0f fragments=%d instances=%d\n\n",
				res.Modeled, res.Stats.Work, res.Stats.BytesShipped,
				res.Stats.Fragments, res.Stats.Instances)
		} else {
			fmt.Printf(">>> execution error: %v\n\n", err)
		}
	}
}
