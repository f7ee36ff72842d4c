package gignite_test

import (
	"testing"

	"gignite"
	"gignite/internal/ssb"
	"gignite/internal/tpch"
)

// joinExchangeAllocs is the most heap objects one execution of each
// statement may make in TestJoinExchangeAllocations: about 10% above the
// measured 1,798 and 1,082. Hash joins and hash aggregates allocate per
// chunk, not per row, match or group; with a Go map as the build index
// and several objects per group, Q9 made 2,957 and Q3.1 1,786.
var joinExchangeAllocs = map[string]float64{"tpch_q9": 2000, "ssb_q3.1": 1200}

// TestJoinExchangeAllocations holds two of the join_exchange benchmark
// workload's statements — TPC-H Q9 (six-way join, EXTRACT(YEAR) per
// row, a grouped aggregate) and SSB Q3.1 — to a ceiling of heap objects
// per prepared execution (IC+M, 4 sites, one worker).
func TestJoinExchangeAllocations(t *testing.T) {
	const sf = 0.002
	tp := openTPCH(t, sf, 4, icpm(sf), parallelism(1))
	sb := gignite.Open(icpm(sf), parallelism(1))
	if err := ssb.Setup(sb, sf); err != nil {
		t.Fatal(err)
	}
	var q31 string
	for _, q := range ssb.Queries() {
		if q.ID == "Q3.1" {
			q31 = q.SQL
		}
	}
	for _, c := range []struct {
		name string
		e    *gignite.Engine
		sql  string
	}{{"tpch_q9", tp, tpch.QueryByID(9).SQL}, {"ssb_q3.1", sb, q31}} {
		stmt, err := c.e.Prepare(c.sql)
		if err != nil {
			t.Fatal(err)
		}
		got := testing.AllocsPerRun(10, func() {
			if _, err := stmt.Query(); err != nil {
				t.Fatal(err)
			}
		})
		t.Logf("%s: %.0f allocs per execution (budget %.0f)", c.name, got, joinExchangeAllocs[c.name])
		if got > joinExchangeAllocs[c.name] {
			t.Errorf("%s allocated %.0f objects per execution, budget %.0f", c.name, got, joinExchangeAllocs[c.name])
		}
	}
}
