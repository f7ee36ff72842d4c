package main

import (
	"context"
	"fmt"
	"strings"

	"gignite"
	"gignite/internal/binder"
	"gignite/internal/catalog"
	"gignite/internal/cluster"
	"gignite/internal/cost"
	"gignite/internal/expr"
	"gignite/internal/faults"
	"gignite/internal/fragment"
	"gignite/internal/hep"
	"gignite/internal/obs"
	"gignite/internal/physical"
	"gignite/internal/plancache"
	"gignite/internal/rules"
	"gignite/internal/simnet"
	"gignite/internal/sql"
	"gignite/internal/ssb"
	"gignite/internal/stats"
	"gignite/internal/storage"
	"gignite/internal/tpch"
	"gignite/internal/types"
	"gignite/internal/volcano"
)

// The staged pipeline is the benchmark's own wiring of the layers' public
// functions, mirroring Engine.New, tpch.Setup, Engine.plan and Engine.run
// call for call, so that a span can be recorded around each layer without
// timers inside the engine. The drift guard (traced.go) proves on every
// run that it still computes exactly what the engine computes.

// stagedDB is one schema loaded into the benchmark's own catalog, store
// and cluster.
type stagedDB struct {
	cat   *catalog.Catalog
	store *storage.Store
	cl    *cluster.Cluster
	rows  int64
}

// staged replays a workload's statements through the staged pipeline.
type staged struct {
	w   *workload
	cfg gignite.Config
	dbs map[string]*stagedDB
	tr  *tracer

	// prepared holds, per statement, what the modes that plan once keep
	// from set-up (what gignite.Stmt keeps).
	prepared []preparedStmt
	// cache is the bench-owned plan cache of the served modes, standing in
	// for the one WithPlanCache gives the engine.
	cache *plancache.Cache
}

type preparedStmt struct {
	sel    *sql.SelectStmt
	entry  *plancache.Entry
	digest uint64
}

// generator is what tpch.Gen and ssb.Gen share.
type generator interface {
	Table(name string) ([]types.Row, error)
}

// openStaged loads the workload's schemas step by step, a span around
// each generator and storage call, and plans what the engine would have
// planned by the end of its own set-up.
func openStaged(w *workload, smoke bool, tr *tracer) (*staged, error) {
	p := &staged{w: w, cfg: gignite.ICPlusM(sites), dbs: make(map[string]*stagedDB), tr: tr}
	for _, schema := range []string{"tpch", "ssb"} {
		sf := w.sf(schema, smoke)
		if sf == 0 {
			continue
		}
		db, err := p.load(schema, sf)
		if err != nil {
			return nil, fmt.Errorf("staged load of %s: %w", schema, err)
		}
		p.dbs[schema] = db
	}
	if w.PlanCache > 0 {
		p.cache = plancache.New(w.PlanCache, plancache.Metrics{})
	}
	if w.Mode == modeAdhoc {
		return p, nil
	}
	for _, st := range w.Stmts {
		sel, err := sql.ParseSelect(st.SQL)
		if err != nil {
			return nil, err
		}
		db := p.dbs[st.Schema]
		digest := plancache.Digest(st.SQL)
		entry, err := p.lookup(db, digest, sel)
		if err != nil {
			return nil, fmt.Errorf("staged plan of %s: %w", st.ID, err)
		}
		p.prepared = append(p.prepared, preparedStmt{sel, entry, digest})
	}
	tr.discard() // planning done during set-up is not per-statement cost
	return p, nil
}

// load mirrors Engine.New followed by tpch.Setup / ssb.Setup.
func (p *staged) load(schema string, sf float64) (*stagedDB, error) {
	ddl, tables, indexDDL := tpch.DDL(), tpch.TableNames(), tpch.IndexDDL()
	var gen generator = tpch.NewGen(sf)
	if schema == "ssb" {
		ddl, tables, indexDDL = ssb.DDL(), ssb.TableNames(), ssb.IndexDDL()
		gen = ssb.NewGen(sf)
	}
	cat := catalog.New()
	store := storage.NewReplicatedStore(cat, p.cfg.Sites, p.cfg.Backups)
	cl := cluster.New(store, simnet.DefaultParams())
	cl.Workers = p.cfg.ExecParallelism
	cl.RowLimit = p.cfg.ExecRowLimit
	cl.Faults = faults.New(p.cfg.Faults)
	db := &stagedDB{cat: cat, store: store, cl: cl}

	t := p.tr
	timed := func(name string, fn func() error) error {
		id := t.begin(0, "setup", name)
		err := fn()
		t.end(id)
		return err
	}
	for _, text := range ddl {
		stmt, err := sql.Parse(text)
		if err != nil {
			return nil, err
		}
		tbl, err := binder.BindCreateTable(stmt.(*sql.CreateTableStmt))
		if err != nil {
			return nil, err
		}
		if err := cat.AddTable(tbl); err != nil {
			return nil, err
		}
	}
	for _, name := range tables {
		var rows []types.Row
		if err := timed(schema+".gen", func() (err error) { rows, err = gen.Table(name); return }); err != nil {
			return nil, err
		}
		db.rows += int64(len(rows))
		if err := timed("storage.load", func() error { return store.Load(name, rows) }); err != nil {
			return nil, err
		}
		if err := timed("storage.index", func() error { return store.BuildIndexes(name) }); err != nil {
			return nil, err
		}
	}
	for _, text := range indexDDL {
		stmt, err := sql.Parse(text)
		if err != nil {
			return nil, err
		}
		ci := stmt.(*sql.CreateIndexStmt)
		tbl, err := cat.Table(ci.Table)
		if err != nil {
			return nil, err
		}
		cols := make([]string, len(ci.Columns))
		for i, c := range ci.Columns {
			cols[i] = strings.ToLower(c)
		}
		tbl.Indexes = append(tbl.Indexes, catalog.Index{Name: strings.ToLower(ci.Name), Columns: cols})
		if err := timed("storage.index", func() error { return store.BuildIndexes(tbl.Name) }); err != nil {
			return nil, err
		}
		cat.BumpVersion()
	}
	for _, name := range cat.Tables() {
		if err := timed("storage.stats", func() error { return store.ComputeStats(name) }); err != nil {
			return nil, err
		}
	}
	cat.BumpVersion()
	t.flush(true)
	return db, nil
}

// optimize mirrors Engine.plan: bind, stage-1 heuristic rules, Volcano.
func (p *staged) optimize(db *stagedDB, sel *sql.SelectStmt, parent int, req string) (*plancache.Entry, error) {
	t := p.tr
	version := db.cat.Version()
	id := t.begin(parent, req, "binder.bind")
	b := binder.New(db.cat)
	lp, err := b.BindSelect(sel)
	t.end(id)
	if err != nil {
		return nil, err
	}
	rc := rules.Config{
		FilterCorrelate:             p.cfg.FilterCorrelate,
		JoinConditionSimplification: p.cfg.JoinConditionSimplification,
	}
	id = t.begin(parent, req, "hep.run")
	lp = hep.RunGroups(lp, rules.Stage1Groups(rc))
	t.end(id)

	id = t.begin(parent, req, "volcano.optimize")
	before := t.heapAllocs()
	est := stats.New(db.cat, !p.cfg.SwamiSchieferEstimation)
	est.Misestimate = p.cfg.StatsMisestimate
	vp := volcano.New(volcano.Config{
		Rules:                 rc,
		TwoPhase:              p.cfg.TwoPhaseOptimization,
		EnableHashJoin:        p.cfg.HashJoin,
		FullyDistributedJoins: p.cfg.FullyDistributedJoins,
		Sites:                 p.cfg.Sites,
		Est:                   est,
		CostParams: cost.Params{
			LegacyUnits:           !p.cfg.StandardCostUnits,
			ExchangePenaltyBug:    !p.cfg.FixExchangePenalty,
			UseDistributionFactor: p.cfg.DistributionFactor,
		},
		Budget: p.cfg.PlanningBudget,
	})
	pp, err := vp.Optimize(lp)
	t.count("volcano.allocs", float64(t.heapAllocs()-before))
	t.end(id)
	if err != nil {
		return nil, err
	}
	t.count("volcano.tickets", float64(vp.TicketsUsed))
	return &plancache.Entry{Plan: pp, ParamKinds: b.ParamKinds(sel.Params), Tickets: vp.TicketsUsed, Version: version}, nil
}

// lookup mirrors Engine.getPlan / Stmt.entry: through the plan cache when
// the workload has one, a fresh plan otherwise.
func (p *staged) lookup(db *stagedDB, digest uint64, sel *sql.SelectStmt) (*plancache.Entry, error) {
	build := func() (*plancache.Entry, error) { return p.optimize(db, sel, 0, "setup") }
	if p.cache == nil {
		return build()
	}
	entry, _, err := p.cache.Get(digest, db.cat.Version(), build)
	return entry, err
}

// exec runs statement i through the staged pipeline, one span per layer
// call, and leaves the statement's spans in the tracer for the caller to
// extend (served workloads add wire spans) and flush, or to discard when
// exec fails.
func (p *staged) exec(ctx context.Context, pass, i int, args []gignite.Value) (*cluster.Result, error) {
	st := &p.w.Stmts[i]
	db := p.dbs[st.Schema]
	t := p.tr
	req := fmt.Sprintf("%d.%s", pass, st.ID)
	root := t.begin(0, req, "stmt")

	var (
		sel   *sql.SelectStmt
		entry *plancache.Entry
		err   error
	)
	parses := p.w.Mode == modeAdhoc || p.w.Mode == modeServedText
	if parses {
		id := t.begin(root, req, "sql.parse")
		sel, err = sql.ParseSelect(st.SQL)
		t.end(id)
		if err != nil {
			return nil, err
		}
	} else {
		sel = p.prepared[i].sel
	}
	shared := true // the plan outlives this execution, so run a clone
	switch p.w.Mode {
	case modeAdhoc:
		entry, err = p.optimize(db, sel, root, req)
		shared = false
	case modePrepared:
		entry = p.prepared[i].entry
	default:
		id := t.begin(root, req, "plancache.hit")
		var digest uint64
		if parses {
			digest = plancache.Digest(st.SQL)
		} else {
			digest = p.prepared[i].digest
		}
		entry, err = p.lookup(db, digest, sel)
		t.end(id)
	}
	if err != nil {
		return nil, err
	}
	pp := entry.Plan
	if shared || len(args) > 0 {
		id := t.begin(root, req, "physical.clone")
		var rewrite func(expr.Expr) expr.Expr
		if len(args) > 0 {
			bound := make([]types.Value, len(args))
			for k, a := range args {
				if bound[k], err = binder.CoerceParam(a, entry.ParamKinds[k]); err != nil {
					return nil, err
				}
			}
			rewrite = func(n expr.Expr) expr.Expr {
				if prm, ok := n.(*expr.Param); ok {
					return expr.NewLit(bound[prm.Ordinal])
				}
				return n
			}
		}
		pp = physical.CloneTree(pp, rewrite)
		t.end(id)
	}
	id := t.begin(root, req, "fragment.split")
	fp := fragment.Split(pp)
	t.end(id)

	run := t.begin(root, req, "cluster.run")
	before := t.heapAllocs()
	res, err := db.cl.Run(ctx, fp, cluster.Opts{
		Variants:  p.cfg.VariantFragments,
		WorkLimit: gignite.DefaultExecWorkLimit,
	})
	t.count("cluster.run_allocs", float64(t.heapAllocs()-before))
	t.end(run)
	t.end(root)
	if err != nil {
		return nil, err
	}
	p.observe(run, req, res)
	return res, nil
}

// observe turns what Cluster.Run already returns into trace data: one
// child span of cluster.run per fragment instance, operator self times by
// operator class, and the exact counts.
func (p *staged) observe(run int, req string, res *cluster.Result) {
	t := p.tr
	runSpan := t.get(run)
	waves := 0
	for _, sp := range res.Obs.Spans {
		t.add(span{
			Parent: run, Req: req, Name: "cluster.instance",
			Detail: fmt.Sprintf("f%d s%d v%d", sp.Frag, sp.Site, sp.Variant),
			Start:  runSpan.Start + sp.StartNanos, End: runSpan.Start + sp.EndNanos,
			Lane: 1 + sp.Site*p.cfg.VariantFragments + sp.Variant,
		})
		waves = max(waves, sp.Wave+1)
	}
	for _, fo := range res.Obs.Fragments {
		for class, ns := range opSelfTimes(fo) {
			t.count("exec."+class, float64(ns))
		}
		for _, op := range fo.Ops {
			t.count("exec.rows_in", float64(op.RowsIn))
		}
	}
	for _, e := range res.Obs.Edges {
		t.count("exec.rows_shipped", float64(e.Rows))
	}
	t.count("exec.work_units", res.Work)
	t.count("fragment.fragments", float64(res.Fragments))
	t.count("cluster.instances", float64(res.Instances))
	t.count("cluster.waves", float64(waves))
}

// opClass names the exec metric an operator's self time is charged to.
func opClass(n physical.Node) string {
	switch t := n.(type) {
	case *physical.TableScan, *physical.IndexScan:
		return "scan"
	case *physical.Filter:
		return "filter"
	case *physical.Project:
		return "project"
	case *physical.HashAggregate:
		return "hashagg"
	case *physical.Sort:
		return "sort"
	case *physical.Sender:
		return "send"
	case *physical.Receiver:
		return "recv"
	case *physical.Join:
		switch t.Algo {
		case physical.HashAlgo:
			return "hashjoin"
		case physical.Merge:
			return "mergejoin"
		default:
			return "nljoin"
		}
	default:
		return "other"
	}
}

// opSelfTimes turns a fragment's inclusive per-operator wall times
// (summed over its instances) into self times by operator class: each
// operator's time minus its children's. A child the optimizer shares
// between parents ran once per parent, so each parent is charged an
// equal share of it.
func opSelfTimes(fo *obs.FragmentObs) map[string]int64 {
	parents := make(map[physical.Node]int64)
	for n := range fo.OpIndex {
		for _, in := range n.Inputs() {
			if _, ok := fo.OpIndex[in]; ok {
				parents[in]++
			}
		}
	}
	out := make(map[string]int64)
	for n, i := range fo.OpIndex {
		self := fo.Ops[i].WallNanos
		for _, in := range n.Inputs() {
			if j, ok := fo.OpIndex[in]; ok {
				self -= fo.Ops[j].WallNanos / parents[in]
			}
		}
		out[opClass(n)] += max(self, 0)
	}
	return out
}
