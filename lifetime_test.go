package gignite_test

import (
	"slices"
	"strings"
	"sync"
	"testing"

	"gignite"
	"gignite/internal/empdb"
	"gignite/internal/ssb"
	"gignite/internal/tpch"
)

// TestResultRowsOutliveLaterExecutions: an execution lends its buffers
// and takes them back when it ends (DESIGN.md "Execution memory"), so the
// rows of a result must live in storage that is never lent. The test
// holds results whose rows come straight from a Receiver (an orders
// window), from the arena of a join in the root fragment, and from TPC-H
// Q10 and SSB Q3.1. Each must first read as the reference interpreter's
// rows: race builds overwrite released storage with a sentinel, so there
// a row in lent storage has changed by the time its query returns (make
// race-cpu runs this test). Then four goroutines each run the
// join_exchange and scan_agg statements twenty times, and every held row
// must still read as it did.
func TestResultRowsOutliveLaterExecutions(t *testing.T) {
	const sf = 0.002
	tp := openTPCH(t, sf, 4, icpm(sf))
	sb := gignite.Open(icpm(sf))
	if err := ssb.Setup(sb, sf); err != nil {
		t.Fatal(err)
	}
	ssbSQL := func(id string) string {
		for _, q := range ssb.Queries() {
			if q.ID == id {
				return q.SQL
			}
		}
		t.Fatalf("no SSB query %s", id)
		return ""
	}
	const rootJoin = `SELECT * FROM nation n1 JOIN nation n2 ON n1.n_regionkey = n2.n_regionkey`
	plan, err := tp.Explain(rootJoin)
	if err != nil {
		t.Fatal(err)
	}
	if first := strings.SplitN(plan, "\n", 3)[1]; !strings.HasPrefix(first, "Join[") {
		t.Fatalf("the root fragment of %q starts with %q, not with its join:\n%s", rootJoin, first, plan)
	}

	type held struct {
		name string
		res  *gignite.Result
		want []string
	}
	var holds []held
	for _, c := range []struct {
		name string
		e    *gignite.Engine
		sql  string
	}{
		{"orders window", tp, `SELECT o_orderkey, o_custkey, o_orderstatus, o_totalprice,
       o_orderdate, o_orderpriority, o_clerk, o_shippriority
FROM orders
WHERE o_orderdate >= DATE '1993-01-01' AND o_orderdate < DATE '1996-01-01'`},
		{"root-fragment join", tp, rootJoin},
		{"tpch_q10", tp, tpch.QueryByID(10).SQL},
		{"ssb_q3.1", sb, ssbSQL("Q3.1")},
	} {
		res, err := c.e.Query(c.sql)
		if err != nil {
			t.Fatalf("%s: %v", c.name, err)
		}
		if len(res.Rows) == 0 {
			t.Fatalf("%s returns no rows: the test would hold nothing", c.name)
		}
		ref, err := c.e.ReferenceQuery(c.sql)
		if err != nil {
			t.Fatalf("%s: reference: %v", c.name, err)
		}
		if got, want := empdb.Canonical(res.Rows), empdb.Canonical(ref); !slices.Equal(got, want) {
			t.Fatalf("%s reads otherwise than the reference as its query returns (%d rows, want %d)", c.name, len(got), len(want))
		}
		holds = append(holds, held{c.name, res, rowStrings(res)})
	}

	// The join_exchange and scan_agg statements, prepared once.
	var stmts []*gignite.Stmt
	for _, s := range []struct {
		e   *gignite.Engine
		sql string
	}{
		{tp, tpch.QueryByID(3).SQL}, {tp, tpch.QueryByID(5).SQL}, {tp, tpch.QueryByID(9).SQL},
		{tp, tpch.QueryByID(10).SQL}, {sb, ssbSQL("Q3.1")},
		{tp, tpch.QueryByID(1).SQL}, {tp, tpch.QueryByID(6).SQL},
		{sb, ssbSQL("Q1.1")}, {sb, ssbSQL("Q1.2")}, {sb, ssbSQL("Q1.3")},
	} {
		stmt, err := s.e.Prepare(s.sql)
		if err != nil {
			t.Fatal(err)
		}
		stmts = append(stmts, stmt)
	}
	const clients, passes = 4, 20
	var wg sync.WaitGroup
	for range clients {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for range passes {
				for _, stmt := range stmts {
					if _, err := stmt.Query(); err != nil {
						t.Error(err)
						return
					}
				}
			}
		}()
	}
	wg.Wait()

	for _, h := range holds {
		got := rowStrings(h.res)
		for i := range got {
			if got[i] != h.want[i] {
				t.Errorf("%s row %d changed after later executions: %s, was %s", h.name, i, got[i], h.want[i])
				break
			}
		}
	}
}
