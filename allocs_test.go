package gignite_test

import (
	"runtime"
	"testing"

	"gignite"
	"gignite/internal/ssb"
	"gignite/internal/tpch"
)

// joinExchangeAllocs is the most heap objects one execution of each
// statement may make in TestJoinExchangeAllocations: about 10% above the
// measured 660 and 416. An execution borrows its buffers (exec.Lender),
// so what remains is mostly fixed per-instance state. Heap buffers that
// died with the execution made 1,057 and 684; hash joins and hash
// aggregates that allocated per chunk, not per row, match or group,
// 1,798 and 1,082; a Go map as the build index with several objects per
// group, 2,957 and 1,786.
var joinExchangeAllocs = map[string]float64{"tpch_q9": 720, "ssb_q3.1": 460}

// raceJoinExchangeAllocs replaces joinExchangeAllocs in race builds,
// where sync.Pool drops a quarter of what is put back, so an execution
// re-makes part of what it borrows (about 890 and 560 objects): they are
// the ceilings from before executions borrowed their buffers.
var raceJoinExchangeAllocs = map[string]float64{"tpch_q9": 2000, "ssb_q3.1": 1200}

// joinExchangeBytes is the most bytes one execution of each statement may
// allocate once its buffers come from the pools: about 10% above the
// measured 309,900 and 226,000. Heap buffers that died with the
// execution made 5,937,770 and 6,479,102.
var joinExchangeBytes = map[string]float64{"tpch_q9": 343_000, "ssb_q3.1": 249_000}

// TestJoinExchangeAllocations holds two of the join_exchange benchmark
// workload's statements — TPC-H Q9 (six-way join, EXTRACT(YEAR) per
// row, a grouped aggregate) and SSB Q3.1 — to a ceiling of heap objects
// and of bytes per prepared execution (IC+M, 4 sites, one worker), after
// warm-up executions have filled the pools. Race builds make sync.Pool
// drop some of what is put back: there the object ceilings are
// raceJoinExchangeAllocs, and bytes are not held.
func TestJoinExchangeAllocations(t *testing.T) {
	budget := joinExchangeAllocs
	if raceBuild {
		budget = raceJoinExchangeAllocs
	}
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
		t.Logf("%s: %.0f allocs per execution (budget %.0f)", c.name, got, budget[c.name])
		if got > budget[c.name] {
			t.Errorf("%s allocated %.0f objects per execution, budget %.0f", c.name, got, budget[c.name])
		}
		if raceBuild {
			continue
		}
		bytes := bytesPerRun(10, func() {
			if _, err := stmt.Query(); err != nil {
				t.Fatal(err)
			}
		})
		t.Logf("%s: %.0f bytes per execution (budget %.0f)", c.name, bytes, joinExchangeBytes[c.name])
		if bytes > joinExchangeBytes[c.name] {
			t.Errorf("%s allocated %.0f bytes per execution, budget %.0f", c.name, bytes, joinExchangeBytes[c.name])
		}
	}
}

// bytesPerRun is testing.AllocsPerRun for bytes: the mean bytes f
// allocates per call over runs calls, after one warm-up call, on one P.
func bytesPerRun(runs int, f func()) float64 {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	f()
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for range runs {
		f()
	}
	runtime.ReadMemStats(&after)
	return float64(after.TotalAlloc-before.TotalAlloc) / float64(runs)
}
