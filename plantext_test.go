package gignite_test

import (
	"strings"
	"sync"
	"testing"
	"unsafe"

	"gignite"
	"gignite/internal/harness"
	"gignite/internal/ssb"
	"gignite/internal/tpch"
)

// Plan text (DESIGN.md §12): what an execution reports about its plan —
// PlanDigest, the operators' lines, the result column names — is rendered
// once per cached or prepared plan, with arguments as their placeholders.

// lookups are the single-row prepared lookups of the served_short
// benchmark workload.
var lookups = []struct{ name, sql string }{
	{"nation", `SELECT n_nationkey, n_name, n_regionkey FROM nation WHERE n_nationkey = ?`},
	{"supplier", `SELECT s_suppkey, s_name, s_nationkey, s_acctbal FROM supplier WHERE s_suppkey = ?`},
	{"customer", `SELECT c_custkey, c_name, c_nationkey, c_acctbal, c_mktsegment FROM customer WHERE c_custkey = ?`},
}

// planCache sets the plan cache size (0 = off).
func planCache(n int) gignite.Option {
	return func(c *gignite.Config) { c.PlanCacheSize = n }
}

// TestPlanTextIgnoresArguments: two executions of a prepared lookup with
// different keys report the same plan digest and operator lines, with the
// argument shown as its placeholder — with the plan cache on (the entry is
// shared) and off (the statement keeps its own).
func TestPlanTextIgnoresArguments(t *testing.T) {
	for _, size := range []int{0, 64} {
		e := openTPCH(t, 0.001, 4, icpm(0.001), planCache(size))
		stmt, err := e.Prepare(lookups[1].sql)
		if err != nil {
			t.Fatal(err)
		}
		var reps [2]*gignite.QueryReport
		for i, key := range []int64{3, 4} {
			res, err := stmt.Query(gignite.NewInt(key))
			if err != nil {
				t.Fatal(err)
			}
			if len(res.Rows) != 1 || res.Rows[0][0].Int() != key {
				t.Fatalf("cache=%d key %d: rows %v", size, key, res.Rows)
			}
			reps[i] = res.Report()
		}
		a, b := reps[0], reps[1]
		if a.PlanDigest == "" || a.PlanDigest != b.PlanDigest {
			t.Errorf("cache=%d: plan digest %q for key 3, %q for key 4", size, a.PlanDigest, b.PlanDigest)
		}
		if len(a.Operators) == 0 || len(a.Operators) != len(b.Operators) {
			t.Fatalf("cache=%d: %d and %d operators", size, len(a.Operators), len(b.Operators))
		}
		placeholder := false
		for i := range a.Operators {
			if a.Operators[i].Op != b.Operators[i].Op {
				t.Errorf("cache=%d operator %d: %q for key 3, %q for key 4", size, i, a.Operators[i].Op, b.Operators[i].Op)
			}
			placeholder = placeholder || strings.Contains(a.Operators[i].Op, "?1")
		}
		if !placeholder {
			t.Errorf("cache=%d: no operator shows the argument as ?1: %+v", size, a.Operators)
		}
	}
}

// lookupAllocs is the per-execution allocation budget of each lookup (IC+M,
// 4 sites, SF 0.001, plan cache on, one worker): about 10% above the
// measured value in the comment. Rendering the plan text per execution
// made 115, 323 and 327 objects; splitting the plan per execution, with
// each instance allocating its own fixed state, 51, 203 and 203; the
// simnet trace's maps and per-exchange maps beside the spans, 40, 122
// and 122; a heap batch per shipment, 34, 101 and 101; binding the
// arguments through a copy of the bound operator, 34, 93 and 93.
var lookupAllocs = map[string]float64{
	"nation":   35,  // 32
	"supplier": 100, // 91
	"customer": 100, // 91
}

// adaptiveLookupAllocs is the same budget with adaptive execution on. An
// adaptive execution used to split the cached plan again for its
// controller to rewrite, at 59, 161 and 161 objects, and to have every
// sender instance of every attempt sketch what it shipped, at 36, 122
// and 122. Binding the arguments through a copy of the bound operator
// made 36, 96 and 96. The controller's state and the sketches of the
// exchanges a join reads remain.
var adaptiveLookupAllocs = map[string]float64{
	"nation":   37,  // 34
	"supplier": 103, // 94
	"customer": 103, // 94
}

// TestPreparedLookupAllocations holds each lookup's per-execution
// objects to its budget, with adaptive execution off and on.
func TestPreparedLookupAllocations(t *testing.T) {
	for _, adaptive := range []bool{false, true} {
		budgets := lookupAllocs
		if adaptive {
			budgets = adaptiveLookupAllocs
		}
		e := openTPCH(t, 0.001, 4, icpm(0.001), planCache(64), parallelism(1),
			func(c *gignite.Config) { c.AdaptiveExec = adaptive })
		for _, l := range lookups {
			stmt, err := e.Prepare(l.sql)
			if err != nil {
				t.Fatal(err)
			}
			key := int64(0)
			got := testing.AllocsPerRun(20, func() {
				key++
				if _, err := stmt.Query(gignite.NewInt(key%5 + 1)); err != nil {
					t.Fatal(err)
				}
			})
			t.Logf("%s adaptive=%t: %.0f allocs per execution (budget %.0f)", l.name, adaptive, got, budgets[l.name])
			if got > budgets[l.name] {
				t.Errorf("%s lookup (adaptive=%t) allocated %.0f objects per execution, budget %.0f", l.name, adaptive, got, budgets[l.name])
			}
		}
	}
}

// TestPlanTextRenderedOncePerEntry: eight first executions of one prepared
// statement race for its plan text (run under -race by make race-cpu);
// one of them renders it and all of them report that one rendering's
// operator lines, while each result gets column names of its own.
func TestPlanTextRenderedOncePerEntry(t *testing.T) {
	for _, size := range []int{0, 64} {
		e := openTPCH(t, 0.001, 4, icpm(0.001), planCache(size))
		stmt, err := e.Prepare(lookups[2].sql)
		if err != nil {
			t.Fatal(err)
		}
		results := make([]*gignite.Result, 8)
		var wg sync.WaitGroup
		for i := range results {
			wg.Add(1)
			go func() {
				defer wg.Done()
				res, err := stmt.Query(gignite.NewInt(int64(i + 1)))
				if err != nil {
					t.Error(err)
					return
				}
				results[i] = res
			}()
		}
		wg.Wait()
		if t.Failed() {
			return
		}
		first := results[0]
		for i, res := range results {
			if res.Obs.PlanDigest != first.Obs.PlanDigest {
				t.Errorf("cache=%d: execution %d digest %s, execution 0 %s", size, i, res.Obs.PlanDigest, first.Obs.PlanDigest)
			}
			for f, fo := range res.Obs.Fragments {
				for j, op := range fo.Ops {
					if unsafe.StringData(op.Op) != unsafe.StringData(first.Obs.Fragments[f].Ops[j].Op) {
						t.Errorf("cache=%d: execution %d operator %d/%d %q was rendered apart from execution 0's", size, i, f, j, op.Op)
					}
				}
			}
			if len(res.Columns) == 0 || (i > 0 && &res.Columns[0] == &first.Columns[0]) {
				t.Errorf("cache=%d: execution %d shares its columns with execution 0", size, i)
			}
		}
	}
}

// TestExplainSharesPlanCache: plain EXPLAIN resolves its plan through the
// plan cache, as an execution does. With the cache on, `EXPLAIN q` plans
// q, so q itself skips planning; and EXPLAIN's text, the planner tickets
// line included, is the cache-off engine's byte for byte, for every TPC-H
// and SSB query under IC and IC+M.
func TestExplainSharesPlanCache(t *testing.T) {
	const sf = 0.001
	statements := map[harness.Workload][]string{}
	for _, q := range tpch.Queries() {
		if !q.RequiresViews {
			statements[harness.TPCH] = append(statements[harness.TPCH], q.SQL)
		}
	}
	for _, q := range ssb.Queries() {
		statements[harness.SSB] = append(statements[harness.SSB], q.SQL)
	}
	for w, sqls := range statements {
		for _, sys := range []harness.System{harness.IC, harness.ICPM} {
			open := func(size int) *gignite.Engine {
				e := gignite.Open(gignite.WithConfig(harness.ConfigFor(sys, 4, sf)), planCache(size))
				if err := w.Setup(e, sf); err != nil {
					t.Fatal(err)
				}
				return e
			}
			on, off := open(64), open(0)
			for i, q := range sqls {
				want, err := off.Explain(q)
				if err != nil {
					t.Fatalf("%s %s statement %d (cache off): %v", w, sys, i, err)
				}
				got, err := on.Explain(q)
				if err != nil {
					t.Fatalf("%s %s statement %d (cache on): %v", w, sys, i, err)
				}
				if got != want || !strings.Contains(got, "planner tickets: ") {
					t.Errorf("%s %s statement %d: EXPLAIN through the cache\n%s\ncache off\n%s", w, sys, i, got, want)
				}
				if sys != harness.ICPM {
					continue // IC's mis-planned queries fail by design
				}
				res, err := on.Query(q)
				if err != nil {
					t.Fatalf("%s %s statement %d: %v", w, sys, i, err)
				}
				if !res.Stats.PlanningSkipped {
					t.Errorf("%s %s statement %d: planned again after EXPLAIN", w, sys, i)
				}
			}
		}
	}
}

// BenchmarkPreparedLookup times one execution of each served_short lookup
// in-process (IC+M, 4 sites, SF 0.01, plan cache on): the per-statement
// fixed cost of split, scheduling and observation, without the wire.
// The adaptive/ sub-benchmarks run the same lookups with adaptive
// execution on, which is what its fixed cost is measured against.
func BenchmarkPreparedLookup(b *testing.B) {
	const sf = 0.01
	for _, adaptive := range []bool{false, true} {
		e := openTPCH(b, sf, 4, icpm(sf), planCache(64), func(c *gignite.Config) { c.AdaptiveExec = adaptive })
		prefix := ""
		if adaptive {
			prefix = "adaptive/"
		}
		for _, l := range lookups {
			stmt, err := e.Prepare(l.sql)
			if err != nil {
				b.Fatal(err)
			}
			b.Run(prefix+l.name, func(b *testing.B) {
				b.ReportAllocs()
				for i := 0; i < b.N; i++ {
					// Keys 1..24 exist in all three tables.
					if _, err := stmt.Query(gignite.NewInt(int64(i%24) + 1)); err != nil {
						b.Fatal(err)
					}
				}
			})
		}
	}
}
