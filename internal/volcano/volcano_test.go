package volcano

import (
	"errors"
	"testing"

	"gignite/internal/binder"
	"gignite/internal/catalog"
	"gignite/internal/cost"
	"gignite/internal/hep"
	"gignite/internal/logical"
	"gignite/internal/physical"
	"gignite/internal/rules"
	"gignite/internal/sql"
	"gignite/internal/stats"
)

func testCatalog(t *testing.T) *catalog.Catalog {
	t.Helper()
	cat := catalog.New()
	ddl := []string{
		`CREATE TABLE orders (o_orderkey BIGINT PRIMARY KEY, o_custkey BIGINT, o_total DOUBLE)`,
		`CREATE TABLE lineitem (l_orderkey BIGINT, l_suppkey BIGINT, l_qty DOUBLE, PRIMARY KEY (l_orderkey))`,
		`CREATE TABLE customer (c_custkey BIGINT PRIMARY KEY, c_nationkey BIGINT, c_name VARCHAR(25))`,
		`CREATE REPLICATED TABLE nation (n_nationkey BIGINT PRIMARY KEY, n_name VARCHAR(25))`,
	}
	for _, d := range ddl {
		stmt, err := sql.Parse(d)
		if err != nil {
			t.Fatal(err)
		}
		tbl, err := binder.BindCreateTable(stmt.(*sql.CreateTableStmt))
		if err != nil {
			t.Fatal(err)
		}
		if err := cat.AddTable(tbl); err != nil {
			t.Fatal(err)
		}
	}
	// Canned statistics.
	setStats := func(name string, rows int64, ndv map[string]int64) {
		tbl, _ := cat.Table(name)
		tbl.Stats = &catalog.TableStats{RowCount: rows, NDV: ndv}
	}
	setStats("orders", 15000, map[string]int64{"o_orderkey": 15000, "o_custkey": 1000})
	setStats("lineitem", 60000, map[string]int64{"l_orderkey": 15000, "l_suppkey": 100})
	setStats("customer", 1500, map[string]int64{"c_custkey": 1500, "c_nationkey": 25})
	setStats("nation", 25, map[string]int64{"n_nationkey": 25})
	return cat
}

type variant uint8

const (
	vIC variant = iota
	vICPlus
)

func configFor(v variant, cat *catalog.Catalog, sites int) Config {
	switch v {
	case vIC:
		return Config{
			Rules:      rules.Config{},
			TwoPhase:   false,
			Sites:      sites,
			Est:        stats.New(cat, true),
			CostParams: cost.Params{LegacyUnits: true, ExchangePenaltyBug: true},
		}
	default:
		return Config{
			Rules:                 rules.Config{FilterCorrelate: true, JoinConditionSimplification: true},
			TwoPhase:              true,
			EnableHashJoin:        true,
			FullyDistributedJoins: true,
			Sites:                 sites,
			Est:                   stats.New(cat, false),
			CostParams:            cost.Params{UseDistributionFactor: true},
		}
	}
}

func planQuery(t *testing.T, v variant, sites int, query string) (physical.Node, *Planner) {
	t.Helper()
	cat := testCatalog(t)
	sel, err := sql.ParseSelect(query)
	if err != nil {
		t.Fatal(err)
	}
	lp, err := binder.New(cat).BindSelect(sel)
	if err != nil {
		t.Fatal(err)
	}
	cfg := configFor(v, cat, sites)
	lp = hep.RunGroups(lp, rules.Stage1Groups(cfg.Rules))
	p := New(cfg)
	pp, err := p.Optimize(lp)
	if err != nil {
		t.Fatalf("Optimize: %v", err)
	}
	return pp, p
}

func countNodes(n physical.Node, pred func(physical.Node) bool) int {
	c := 0
	physical.Walk(n, func(m physical.Node) bool {
		if pred(m) {
			c++
		}
		return true
	})
	return c
}

func TestSimpleScanPlansToSingleRoot(t *testing.T) {
	pp, _ := planQuery(t, vICPlus, 4, "SELECT o_orderkey FROM orders WHERE o_total > 10")
	if pp.Dist().Type != physical.Single {
		t.Errorf("root dist = %s", pp.Dist())
	}
	// The partitioned scan needs exactly one exchange to the root.
	if got := countNodes(pp, func(n physical.Node) bool {
		_, ok := n.(*physical.Exchange)
		return ok
	}); got != 1 {
		t.Errorf("exchanges = %d\n%s", got, physical.Format(pp, physical.Estimates))
	}
}

func TestReplicatedScanNeedsNoExchange(t *testing.T) {
	pp, _ := planQuery(t, vICPlus, 4, "SELECT n_name FROM nation")
	if countNodes(pp, func(n physical.Node) bool {
		_, ok := n.(*physical.Exchange)
		return ok
	}) != 0 {
		t.Errorf("replicated scan exchanged:\n%s", physical.Format(pp, physical.Estimates))
	}
}

func TestHashJoinChosenWhenEnabled(t *testing.T) {
	q := `SELECT o_orderkey FROM orders, lineitem WHERE o_orderkey = l_orderkey`
	pp, _ := planQuery(t, vICPlus, 4, q)
	hashJoins := countNodes(pp, func(n physical.Node) bool {
		j, ok := n.(*physical.Join)
		return ok && j.Algo == physical.HashAlgo
	})
	if hashJoins == 0 {
		t.Errorf("no hash join in IC+ plan:\n%s", physical.Format(pp, physical.Estimates))
	}
	// The co-located mapping should win: both tables partitioned on the
	// join key, so no exchange below the join.
	var join *physical.Join
	physical.Walk(pp, func(n physical.Node) bool {
		if j, ok := n.(*physical.Join); ok && join == nil {
			join = j
		}
		return true
	})
	if join.Mapping != "hash" && join.Mapping != "bcast-right" && join.Mapping != "bcast-left" {
		t.Errorf("join mapping = %s, want a distributed mapping\n%s",
			join.Mapping, physical.Format(pp, physical.Estimates))
	}
}

func TestBaselineHasNoHashJoin(t *testing.T) {
	q := `SELECT o_orderkey FROM orders, lineitem WHERE o_orderkey = l_orderkey`
	pp, _ := planQuery(t, vIC, 4, q)
	if countNodes(pp, func(n physical.Node) bool {
		j, ok := n.(*physical.Join)
		return ok && j.Algo == physical.HashAlgo
	}) != 0 {
		t.Errorf("IC plan used hash join:\n%s", physical.Format(pp, physical.Estimates))
	}
}

func TestBroadcastMappingKeepsLargeRelationInPlace(t *testing.T) {
	// customer (small) joined to lineitem-scale orders: with
	// fully-distributed joins the planner should prefer shipping the small
	// side.
	q := `SELECT c_name FROM customer, orders WHERE c_custkey = o_custkey`
	pp, _ := planQuery(t, vICPlus, 8, q)
	var join *physical.Join
	physical.Walk(pp, func(n physical.Node) bool {
		if j, ok := n.(*physical.Join); ok && join == nil {
			join = j
		}
		return true
	})
	if join == nil {
		t.Fatal("no join")
	}
	if join.Mapping == "single" {
		t.Errorf("IC+ shipped everything to one site:\n%s", physical.Format(pp, physical.Estimates))
	}
}

func TestAggregationTwoPhase(t *testing.T) {
	q := `SELECT o_custkey, COUNT(*), SUM(o_total) FROM orders GROUP BY o_custkey`
	pp, _ := planQuery(t, vICPlus, 4, q)
	mapAggs := countNodes(pp, func(n physical.Node) bool {
		a, ok := n.(*physical.HashAggregate)
		return ok && a.Phase == physical.AggMap
	})
	reduceAggs := countNodes(pp, func(n physical.Node) bool {
		a, ok := n.(*physical.HashAggregate)
		return ok && a.Phase == physical.AggReduce
	})
	// Either two-phase (map+reduce) or co-located; both are distributed.
	singleSite := countNodes(pp, func(n physical.Node) bool {
		a, ok := n.(*physical.HashAggregate)
		return ok && a.Phase == physical.AggSinglePhase && a.Dist().Type == physical.Single
	})
	if mapAggs+reduceAggs == 0 && singleSite > 0 {
		t.Logf("plan:\n%s", physical.Format(pp, physical.Estimates))
	}
	if mapAggs != reduceAggs {
		t.Errorf("map=%d reduce=%d", mapAggs, reduceAggs)
	}
}

func TestDistinctAggregateStaysSinglePhase(t *testing.T) {
	q := `SELECT COUNT(DISTINCT o_custkey) FROM orders`
	pp, _ := planQuery(t, vICPlus, 4, q)
	if countNodes(pp, func(n physical.Node) bool {
		a, ok := n.(*physical.HashAggregate)
		return ok && a.Phase == physical.AggMap
	}) != 0 {
		t.Errorf("DISTINCT aggregate was split:\n%s", physical.Format(pp, physical.Estimates))
	}
}

func TestOrderBySatisfiedByEnforcedSort(t *testing.T) {
	q := `SELECT o_orderkey, o_total FROM orders ORDER BY o_total DESC LIMIT 10`
	pp, _ := planQuery(t, vICPlus, 4, q)
	lim, ok := pp.(*physical.Limit)
	if !ok {
		t.Fatalf("root = %T\n%s", pp, physical.Format(pp, physical.Estimates))
	}
	if !physical.CollationSatisfies(lim.Inputs()[0].Collation(),
		lim.Inputs()[0].Collation()) {
		t.Error("collation broken")
	}
	sorts := countNodes(pp, func(n physical.Node) bool {
		_, ok := n.(*physical.Sort)
		return ok
	})
	if sorts == 0 {
		t.Errorf("no sort enforcer:\n%s", physical.Format(pp, physical.Estimates))
	}
}

func TestBudgetExceeded(t *testing.T) {
	cat := testCatalog(t)
	q := `SELECT o_orderkey FROM orders, lineitem, customer
		WHERE o_orderkey = l_orderkey AND o_custkey = c_custkey AND c_nationkey = l_suppkey`
	sel, _ := sql.ParseSelect(q)
	lp, err := binder.New(cat).BindSelect(sel)
	if err != nil {
		t.Fatal(err)
	}
	cfg := configFor(vIC, cat, 4)
	cfg.Budget = 10
	_, err = New(cfg).Optimize(lp)
	if !errors.Is(err, ErrBudgetExceeded) {
		t.Errorf("err = %v, want budget exceeded", err)
	}
}

func TestSinglePhaseChargesMore(t *testing.T) {
	q := `SELECT o_orderkey FROM orders, lineitem, customer
		WHERE o_orderkey = l_orderkey AND o_custkey = c_custkey`
	_, pIC := planQuery(t, vIC, 4, q)
	_, pICPlus := planQuery(t, vICPlus, 4, q)
	if pIC.TicketsUsed <= pICPlus.TicketsUsed {
		t.Errorf("single-phase tickets %d <= two-phase %d",
			pIC.TicketsUsed, pICPlus.TicketsUsed)
	}
}

func TestConditionalPermutationDisabling(t *testing.T) {
	// A 5-join query in two-phase mode must skip join-order exploration
	// (and still plan).
	q := `SELECT orders.o_orderkey FROM orders, lineitem, customer, nation, orders o2
		WHERE orders.o_orderkey = l_orderkey AND orders.o_custkey = c_custkey
		AND c_nationkey = n_nationkey AND o2.o_custkey = c_custkey
		AND o2.o_total > 0`
	pp, p := planQuery(t, vICPlus, 4, q)
	if pp == nil {
		t.Fatal("no plan")
	}
	if p.allowCommute {
		t.Error("commute left enabled for a >4-join query")
	}
}

func TestJoinOrderDPReordersByCost(t *testing.T) {
	// nation (25 rows) joined late in syntax but cheap first: DP should
	// not leave the giant cross-ish order in place. We check the plan is
	// produced and the costed total is finite and positive.
	q := `SELECT c_name FROM orders, customer, nation
		WHERE o_custkey = c_custkey AND c_nationkey = n_nationkey`
	pp, _ := planQuery(t, vICPlus, 4, q)
	if pp.Props().Total.Scalar() <= 0 {
		t.Errorf("total cost = %v", pp.Props().Total)
	}
	joins := countNodes(pp, func(n physical.Node) bool {
		_, ok := n.(*physical.Join)
		return ok
	})
	if joins != 2 {
		t.Errorf("join count = %d\n%s", joins, physical.Format(pp, physical.Estimates))
	}
}

func TestSchemaPreservedThroughOptimization(t *testing.T) {
	queries := []string{
		"SELECT o_orderkey, o_total FROM orders",
		"SELECT c_name FROM customer, nation WHERE c_nationkey = n_nationkey",
		"SELECT o_custkey, SUM(o_total) AS s FROM orders GROUP BY o_custkey ORDER BY s DESC LIMIT 5",
	}
	for _, q := range queries {
		cat := testCatalog(t)
		sel, _ := sql.ParseSelect(q)
		lp, err := binder.New(cat).BindSelect(sel)
		if err != nil {
			t.Fatal(err)
		}
		want := lp.Schema()
		for _, v := range []variant{vIC, vICPlus} {
			cfg := configFor(v, cat, 4)
			lp2 := hep.RunGroups(lp, rules.Stage1Groups(cfg.Rules))
			pp, err := New(cfg).Optimize(lp2)
			if err != nil {
				t.Fatalf("%q: %v", q, err)
			}
			got := pp.Schema()
			if len(got) != len(want) {
				t.Fatalf("%q: schema %v vs %v", q, got, want)
			}
			for i := range want {
				if got[i].Kind != want[i].Kind {
					t.Errorf("%q col %d: kind %s vs %s", q, i, got[i].Kind, want[i].Kind)
				}
			}
		}
	}
}

func TestLogicalSortBecomesCollationRequirement(t *testing.T) {
	// Ordering by the primary key must be satisfiable via the index once
	// one exists.
	cat := testCatalog(t)
	tbl, _ := cat.Table("orders")
	tbl.Indexes = append(tbl.Indexes, catalog.Index{Name: "orders_pk", Columns: []string{"o_orderkey"}})
	sel, _ := sql.ParseSelect("SELECT o_orderkey FROM orders ORDER BY o_orderkey")
	lp, err := binder.New(cat).BindSelect(sel)
	if err != nil {
		t.Fatal(err)
	}
	cfg := configFor(vICPlus, cat, 1)
	pp, err := New(cfg).Optimize(lp)
	if err != nil {
		t.Fatal(err)
	}
	indexScans := countNodes(pp, func(n physical.Node) bool {
		_, ok := n.(*physical.IndexScan)
		return ok
	})
	sorts := countNodes(pp, func(n physical.Node) bool {
		_, ok := n.(*physical.Sort)
		return ok
	})
	if indexScans == 0 || sorts != 0 {
		t.Errorf("index scan not used for ordering (scans=%d sorts=%d):\n%s",
			indexScans, sorts, physical.Format(pp, physical.Estimates))
	}
}

func TestSemiJoinPhysicalization(t *testing.T) {
	q := `SELECT o_orderkey FROM orders WHERE o_custkey IN (SELECT c_custkey FROM customer)`
	pp, _ := planQuery(t, vICPlus, 4, q)
	semis := countNodes(pp, func(n physical.Node) bool {
		j, ok := n.(*physical.Join)
		return ok && j.Type == logical.JoinSemi
	})
	if semis != 1 {
		t.Errorf("semi joins = %d\n%s", semis, physical.Format(pp, physical.Estimates))
	}
}
