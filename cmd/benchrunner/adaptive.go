package main

import (
	"fmt"
	"time"

	"gignite"
	"gignite/internal/harness"
	"gignite/internal/tpch"
)

// adaptiveQuery is one query of the adaptive smoke's default set:
// Q5/Q9-shaped multiway join aggregates over TPC-H data, chosen so the
// misestimation damages exactly the decisions the §17 rewrites can
// repair mid-query (build sides and exchange routing), not the join
// order itself.
type adaptiveQuery struct {
	name string
	sql  string
}

var adaptiveQueries = []adaptiveQuery{
	{"Q5-shape", `SELECT n_name, SUM(l_extendedprice * (1 - l_discount)) AS revenue
FROM customer, orders, lineitem, supplier, nation
WHERE c_custkey = o_custkey AND l_orderkey = o_orderkey AND l_suppkey = s_suppkey
  AND c_nationkey = s_nationkey AND s_nationkey = n_nationkey
GROUP BY n_name ORDER BY revenue DESC`},
	{"Q5-supplier", `SELECT s_name, SUM(l_extendedprice * (1 - l_discount)) AS revenue
FROM lineitem, orders, supplier
WHERE l_orderkey = o_orderkey AND l_suppkey = s_suppkey AND o_orderdate >= DATE '1994-01-01'
GROUP BY s_name ORDER BY revenue DESC`},
	{"Q9-shape", `SELECT n_name, SUM(l_extendedprice * (1 - l_discount) - ps_supplycost * l_quantity) AS profit
FROM part, supplier, lineitem, partsupp, nation
WHERE s_suppkey = l_suppkey AND ps_suppkey = l_suppkey AND ps_partkey = l_partkey
  AND p_partkey = l_partkey AND s_nationkey = n_nationkey
GROUP BY n_name ORDER BY profit DESC`},
}

// runAdaptive is the adaptive-execution smoke check (DESIGN.md §17). It
// drives two phases and exits non-zero on any violation:
//
//	A (recovery): three identically loaded engines run Q5/Q9-shaped join
//	  aggregates: an oracle with correct statistics and static plans, a
//	  static engine whose join estimates are multiplied by `mis`
//	  (default 10x), and an adaptive engine under the same
//	  misestimation. The adaptive run must be byte-identical to the
//	  static run it rewrites, its modeled time must stay within 115% of
//	  the oracle's, and at least one rewrite must fire across the set.
//	B (identity): under the same misestimated statistics, the adaptive
//	  run must be byte-identical to the static one at host parallelism
//	  1, 2 and 8 and under crash / slow / sendfail fault plans (with one
//	  backup replica so crashed partitions recover). Byte identity is
//	  defined against the plan the rewrites started from — different
//	  statistics may legitimately pick a different plan whose float
//	  aggregation order differs in the last bit.
//
// -queries replaces the shaped default set with real TPC-H queries by
// id (exploration mode; large misestimation can then legitimately
// change the join order itself, which no in-place rewrite recovers).
func runAdaptive(opts harness.Options, mis float64, queryList, metricsOut string) {
	if mis == 0 || mis == 1 {
		mis = 10
	}
	set := adaptiveQueries
	if ids := parseQueryIDs(queryList, nil); ids != nil {
		set = nil
		for _, id := range ids {
			set = append(set, adaptiveQuery{name: fmt.Sprintf("Q%d", id), sql: tpch.QueryByID(id).SQL})
		}
	}
	sf := opts.SFs[0]
	sites := opts.Sites[0]
	sk := &smoke{name: "adaptive"}
	x := expEnv{name: "adaptive", sys: harness.ICPlus, sites: sites, sf: sf, par: opts.Env.Parallelism}

	oracle := x.open(nil)
	staticMis := x.open(func(cfg *gignite.Config) { cfg.StatsMisestimate = mis })
	adaptMis := x.open(func(cfg *gignite.Config) {
		cfg.StatsMisestimate = mis
		cfg.AdaptiveExec = true
	})

	fmt.Printf("adaptive smoke: IC+ sf=%g sites=%d misestimate=%gx\n", sf, sites, mis)
	fmt.Printf("%-12s %8s %14s %14s %14s %8s %9s %7s\n",
		"query", "rows", "oracle", "static-mis", "adaptive-mis", "ratio", "replans", "switch")

	type row struct {
		Query    string  `json:"query"`
		Oracle   float64 `json:"oracle_modeled_secs"`
		Static   float64 `json:"static_mis_modeled_secs"`
		Adaptive float64 `json:"adaptive_mis_modeled_secs"`
		Ratio    float64 `json:"adaptive_over_oracle"`
		Replans  int     `json:"replans"`
		Switches int     `json:"switches"`
	}
	var artifact []row
	staticRows := make(map[string]string)
	totalSwitches := 0
	for _, q := range set {
		base, err := oracle.Query(q.sql)
		if err != nil {
			fatalf("adaptive: %s oracle: %v", q.name, err)
		}
		st, err := staticMis.Query(q.sql)
		if err != nil {
			fatalf("adaptive: %s static-mis: %v", q.name, err)
		}
		ad, err := adaptMis.Query(q.sql)
		if err != nil {
			fatalf("adaptive: %s adaptive-mis: %v", q.name, err)
		}
		staticRows[q.name] = rowsText(st.Rows)
		ratio := ad.Modeled.Seconds() / base.Modeled.Seconds()
		totalSwitches += ad.Stats.AdaptiveSwitches
		fmt.Printf("%-12s %8d %14v %14v %14v %7.2fx %9d %7d\n",
			q.name, len(ad.Rows),
			base.Modeled.Round(time.Microsecond), st.Modeled.Round(time.Microsecond),
			ad.Modeled.Round(time.Microsecond), ratio,
			ad.Stats.AdaptiveReplans, ad.Stats.AdaptiveSwitches)
		if len(st.Rows) != len(base.Rows) {
			sk.failf("%s: misestimated static row count differs from the oracle (%d vs %d)",
				q.name, len(st.Rows), len(base.Rows))
		}
		if rowsText(ad.Rows) != rowsText(st.Rows) {
			sk.failf("%s: adaptive rows differ from the static plan", q.name)
		}
		if ratio > 1.15 {
			sk.failf("%s: adaptive modeled time is %.2fx the oracle (limit 1.15x)", q.name, ratio)
		}
		artifact = append(artifact, row{
			Query: q.name, Oracle: base.Modeled.Seconds(), Static: st.Modeled.Seconds(),
			Adaptive: ad.Modeled.Seconds(), Ratio: ratio,
			Replans: ad.Stats.AdaptiveReplans, Switches: ad.Stats.AdaptiveSwitches,
		})
	}
	if totalSwitches == 0 {
		sk.failf("no adaptive rewrite fired across the query set")
	}

	// Phase B: byte identity across host parallelism and fault plans. The
	// misestimation stays on so the adaptive rewrites actually fire.
	idQ := set[0]
	want := staticRows[idQ.name]
	for _, par := range []int{1, 2, 8} {
		for _, spec := range []string{"", "seed=7;crash=2@4", "seed=7;slow=1x4", "seed=7;sendfail=0.05"} {
			fp, err := gignite.ParseFaults(spec)
			if err != nil {
				fatalf("adaptive: %v", err)
			}
			y := x
			y.par = par
			e := y.open(func(cfg *gignite.Config) {
				cfg.Backups = 1
				cfg.Faults = fp
				cfg.StatsMisestimate = mis
				cfg.AdaptiveExec = true
			})
			res, err := e.Query(idQ.sql)
			if err != nil {
				fatalf("adaptive: identity %s par=%d faults=%q: %v", idQ.name, par, spec, err)
			}
			if rowsText(res.Rows) != want {
				sk.failf("identity: %s rows diverge at par=%d faults=%q", idQ.name, par, spec)
			}
		}
	}
	fmt.Printf("identity: %s byte-identical across par={1,2,8} x faults={none,crash,slow,sendfail}\n", idQ.name)

	if metricsOut != "" {
		writeJSON(metricsOut, artifact)
	}
	sk.exit()
}
