package main

import (
	"fmt"

	"gignite"
	"gignite/internal/ssb"
	"gignite/internal/tpch"
)

// mode is how a workload drives the engine.
type mode int

const (
	// modePrepared: in-process, Engine.Prepare once, then Stmt.Query.
	modePrepared mode = iota
	// modeAdhoc: in-process Engine.Query(text) with the plan cache off, so
	// every statement is parsed, bound and optimized.
	modeAdhoc
	// modeServedPrepared: loopback TCP, database/sql prepared statements
	// (wire Parse once, then Execute).
	modeServedPrepared
	// modeServedText: loopback TCP, unprepared db.QueryContext(text) (wire
	// Query frame: parse plus a plan-cache hit per statement).
	modeServedText
)

func (m mode) served() bool { return m == modeServedPrepared || m == modeServedText }

// statement is one entry of a workload's statement list.
type statement struct {
	// ID labels the statement in run files and the README; its position
	// in the list picks its client.stmt_p50_ms.sN metric.
	ID     string
	Schema string // "tpch" or "ssb"
	SQL    string
	// KeyTable, when set, makes the statement a single-row lookup with
	// one `?` parameter drawn per pass from the table's key range.
	KeyTable string
}

// workload is one closed-loop traffic mix. A pass is one trip through
// Stmts in an order the seed fixes for the run.
type workload struct {
	Name string
	Why  string
	Mode mode
	// TPCH and SSB are the scale factors to load (0 = schema unused);
	// smoke runs replace them with smokeSF.
	TPCH, SSB float64
	// PlanCache is the engine's plan-cache size (0 = off).
	PlanCache int
	Stmts     []statement
}

const smokeSF = 0.001

func tpchQ(id int) statement {
	return statement{ID: fmt.Sprintf("tpch_q%d", id), Schema: "tpch", SQL: tpch.QueryByID(id).SQL}
}

func ssbQ(id string) statement {
	for _, q := range ssb.Queries() {
		if q.ID == id {
			return statement{ID: "ssb_q" + id[1:], Schema: "ssb", SQL: q.SQL}
		}
	}
	panic("bench: no SSB query " + id)
}

func ordersWindow(year int) statement {
	return statement{
		ID:     fmt.Sprintf("orders_window_%d", year),
		Schema: "tpch",
		SQL: fmt.Sprintf(`SELECT o_orderkey, o_custkey, o_orderstatus, o_totalprice,
       o_orderdate, o_orderpriority, o_clerk, o_shippriority
FROM orders
WHERE o_orderdate >= DATE '%d-01-01' AND o_orderdate < DATE '%d-01-01'`, year, year+3),
	}
}

// workloads is the benchmark. Each entry stresses layers the others
// leave idle, so that an optimisation has one workload that exercises it
// and others on which the prediction is "no change".
var workloads = []workload{
	{
		Name: "scan_agg",
		Why:  "prepared fact-table scan-filter-aggregate; exec scan/filter/project/hashagg kernels and row layout do >95% of the work, planning and wire none",
		Mode: modePrepared, TPCH: 0.01, SSB: 0.01,
		Stmts: []statement{tpchQ(1), tpchQ(6), ssbQ("Q1.1"), ssbQ("Q1.2"), ssbQ("Q1.3")},
	},
	{
		Name: "join_exchange",
		Why:  "prepared multi-join queries shipping 0.2-10 MB per statement; hash/merge joins, sorts and sender/receiver exchanges across cluster wave barriers",
		Mode: modePrepared, TPCH: 0.01, SSB: 0.01,
		Stmts: []statement{tpchQ(3), tpchQ(5), tpchQ(9), tpchQ(10), ssbQ("Q3.1")},
	},
	{
		Name: "plan_adhoc",
		Why:  "unprepared 5-8-way joins over tiny data with the plan cache off; the only workload where sql, binder, hep and volcano run per statement",
		Mode: modeAdhoc, TPCH: 0.001,
		Stmts: []statement{tpchQ(2), tpchQ(5), tpchQ(8), tpchQ(10), tpchQ(20)},
	},
	{
		Name: "served_short",
		Why:  "single-row prepared lookups over loopback TCP through database/sql; per-statement fixed cost of server, driver, clone, split and scheduling dominates",
		Mode: modeServedPrepared, TPCH: 0.01, PlanCache: 64,
		Stmts: []statement{
			{ID: "nation_by_key", Schema: "tpch", KeyTable: "nation",
				SQL: `SELECT n_nationkey, n_name, n_regionkey FROM nation WHERE n_nationkey = ?`},
			{ID: "supplier_by_key", Schema: "tpch", KeyTable: "supplier",
				SQL: `SELECT s_suppkey, s_name, s_nationkey, s_acctbal FROM supplier WHERE s_suppkey = ?`},
			{ID: "customer_by_key", Schema: "tpch", KeyTable: "customer",
				SQL: `SELECT c_custkey, c_name, c_nationkey, c_acctbal, c_mktsegment FROM customer WHERE c_custkey = ?`},
		},
	},
	{
		Name: "served_stream",
		Why:  "unprepared ~7k-row result sets over loopback TCP; wire row encoding, socket writes, driver decode and database/sql Scan dominate, on the parse + plan-cache-hit path",
		Mode: modeServedText, TPCH: 0.01, PlanCache: 64,
		Stmts: []statement{ordersWindow(1992), ordersWindow(1993), ordersWindow(1994), ordersWindow(1995)},
	},
}

func workloadByName(name string) *workload {
	for i := range workloads {
		if workloads[i].Name == name {
			return &workloads[i]
		}
	}
	return nil
}

// sf returns the scale factor a schema is loaded at (0 = not loaded).
func (w *workload) sf(schema string, smoke bool) float64 {
	sf := w.TPCH
	if schema == "ssb" {
		sf = w.SSB
	}
	if sf > 0 && smoke {
		return smokeSF
	}
	return sf
}

// stream is one run's seeded inputs: the order statements take within a
// pass and the lookup keys of every pass.
type stream struct {
	seed uint64
	// Order is the seed's permutation of the statement list. Every pass
	// uses it, so per-pass work is the same for every seed while the
	// sequence the engine sees differs.
	Order []int
	// keyLo/keyHi bound statement i's lookup key (keyHi 0 = no parameter).
	keyLo, keyHi []int64
}

func newStream(w *workload, seed uint64, smoke bool) *stream {
	n := len(w.Stmts)
	s := &stream{seed: seed, Order: make([]int, n), keyLo: make([]int64, n), keyHi: make([]int64, n)}
	for i := range s.Order {
		s.Order[i] = i
	}
	for i := n - 1; i > 0; i-- {
		j := int(mix(seed, uint64(i)) % uint64(i+1))
		s.Order[i], s.Order[j] = s.Order[j], s.Order[i]
	}
	counts := tpch.NewGen(w.sf("tpch", smoke)).Counts()
	for i, st := range w.Stmts {
		switch st.KeyTable {
		case "":
		case "nation":
			s.keyLo[i], s.keyHi[i] = 0, counts["nation"]-1
		default:
			s.keyLo[i], s.keyHi[i] = 1, counts[st.KeyTable]
		}
	}
	return s
}

// args draws statement i's parameters for one pass: nothing for fixed
// statements, one key for lookups.
func (s *stream) args(pass, i int) []gignite.Value {
	if s.keyHi[i] == 0 {
		return nil
	}
	draw := mix(s.seed, uint64(1000+pass*len(s.Order)+i))
	return []gignite.Value{gignite.NewInt(s.keyLo[i] + int64(draw%uint64(s.keyHi[i]-s.keyLo[i]+1)))}
}
