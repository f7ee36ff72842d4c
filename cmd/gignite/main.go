// Command gignite is an interactive/batch SQL shell over the engine: it
// loads a benchmark dataset (or starts empty), executes SQL from stdin,
// and can EXPLAIN plans under any system variant.
//
// Usage:
//
//	gignite [-system ic|ic+|ic+m] [-sites 4] [-backups 0] [-load tpch|ssb]
//	        [-sf 0.01] [-slowquery 100ms] [-admission N] [-maxmem BYTES]
//	        [-querymem BYTES] [-plancache N]
//
// Then type SQL statements terminated by semicolons;
// \q quits, \t toggles timing output, \m prints the engine metrics
// snapshot, \cache prints plan-cache statistics. EXPLAIN ANALYZE <select>
// prints the executed plan annotated with estimated vs. actual row
// counts.
package main

import (
	"bufio"
	"flag"
	"fmt"
	"os"
	"strings"

	"gignite"
	"gignite/internal/engineflags"
	"gignite/internal/harness"
)

func main() {
	ef := engineflags.Bind(flag.CommandLine, 64)
	ef.BindGovernance(flag.CommandLine)
	sites := flag.Int("sites", 4, "simulated processing sites")
	load := flag.String("load", "", "preload a benchmark: tpch or ssb")
	sf := flag.Float64("sf", 0.01, "benchmark scale factor")
	slow := flag.Duration("slowquery", 0, "log queries whose modeled time reaches this threshold (0 disables)")
	flag.Parse()

	opts, err := ef.Options(*sites, *sf)
	if err != nil {
		fmt.Fprintf(os.Stderr, "gignite: %v\n", err)
		os.Exit(1)
	}
	opts = append(opts, func(c *gignite.Config) {
		if *slow > 0 {
			c.SlowQueryThreshold = *slow
			c.Logger = func(format string, args ...interface{}) {
				fmt.Fprintf(os.Stderr, format+"\n", args...)
			}
		}
	})
	e := gignite.Open(opts...)

	if *load != "" {
		w, err := harness.ParseWorkload(*load)
		if err == nil {
			fmt.Fprintf(os.Stderr, "loading %s at SF %g...\n", w, *sf)
			err = w.Setup(e, *sf)
		}
		if err != nil {
			fmt.Fprintf(os.Stderr, "gignite: %v\n", err)
			os.Exit(1)
		}
	}

	fmt.Fprintf(os.Stderr, "gignite %s shell on %d sites; \\q quits, \\t toggles timing, \\m prints metrics, \\cache prints plan-cache stats\n",
		strings.ToUpper(ef.System), *sites)
	timing := true
	scanner := bufio.NewScanner(os.Stdin)
	scanner.Buffer(make([]byte, 1<<20), 1<<20)
	var buf strings.Builder
	prompt := func() { fmt.Fprint(os.Stderr, "gignite> ") }
	prompt()
	for scanner.Scan() {
		line := scanner.Text()
		trimmed := strings.TrimSpace(line)
		switch trimmed {
		case `\q`:
			return
		case `\t`:
			timing = !timing
			fmt.Fprintf(os.Stderr, "timing %v\n", timing)
			prompt()
			continue
		case `\m`:
			fmt.Print(e.Metrics().Text())
			prompt()
			continue
		case `\cache`:
			if s, enabled := e.PlanCacheStats(); enabled {
				fmt.Printf("plan cache: %d/%d plans, %d hits, %d misses, %d evictions\n",
					s.Size, s.Capacity, s.Hits, s.Misses, s.Evictions)
			} else {
				fmt.Println("plan cache: disabled (-plancache 0)")
			}
			prompt()
			continue
		}
		buf.WriteString(line)
		buf.WriteByte('\n')
		if !strings.Contains(line, ";") {
			continue
		}
		stmt := strings.TrimSpace(buf.String())
		buf.Reset()
		if stmt == "" || stmt == ";" {
			prompt()
			continue
		}
		runStatement(e, stmt, timing)
		prompt()
	}
}

func runStatement(e *gignite.Engine, stmt string, timing bool) {
	res, err := e.Exec(stmt)
	if err != nil {
		fmt.Printf("error: %v\n", err)
		return
	}
	if res.PlanText != "" {
		fmt.Println(res.PlanText)
		return
	}
	if len(res.Columns) > 0 {
		fmt.Println(strings.Join(res.Columns, " | "))
		for _, r := range res.Rows {
			parts := make([]string, len(r))
			for i, v := range r {
				parts[i] = v.String()
			}
			fmt.Println(strings.Join(parts, " | "))
		}
		fmt.Printf("(%d rows)\n", len(res.Rows))
	} else {
		fmt.Println("ok")
	}
	if timing && res.Stats.Modeled > 0 {
		fmt.Printf("modeled time: %v  (work=%.0f, shipped=%.0f bytes, %d fragments, %d instances, %d spans)\n",
			res.Stats.Modeled, res.Stats.Work, res.Stats.BytesShipped,
			res.Stats.Fragments, res.Stats.Instances, res.Stats.Spans)
	}
}
