// Package gignite is a composable distributed in-memory SQL engine — a Go
// reproduction of the Apache Ignite + Apache Calcite system studied in
// "Apache Ignite + Calcite Composable Database System: Experimental
// Evaluation and Analysis" (EDBT 2025).
//
// The engine composes independently usable components — a SQL frontend, a
// rule-driven HepPlanner, a cost-based VolcanoPlanner with distribution
// traits, a partitioned in-memory store, and a fragmented distributed
// executor — behind one Engine facade. Three preset configurations
// reproduce the paper's system variants:
//
//	IC     — the Ignite 2.16 baseline, including its planner defects
//	IC+    — the paper's planner and join improvements (§4, §5.1, §5.2)
//	IC+M   — IC+ plus multi-threaded variant fragments (§5.3)
//
// Every individual improvement is independently togglable through Config
// for ablation studies.
package gignite

import (
	"context"
	"errors"
	"fmt"
	"hash/fnv"
	"slices"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"gignite/internal/adaptive"
	"gignite/internal/binder"
	"gignite/internal/catalog"
	"gignite/internal/cluster"
	"gignite/internal/cost"
	"gignite/internal/faults"
	"gignite/internal/fragment"
	"gignite/internal/governor"
	"gignite/internal/hep"
	"gignite/internal/logical"
	"gignite/internal/obs"
	"gignite/internal/physical"
	"gignite/internal/plancache"
	"gignite/internal/ref"
	"gignite/internal/rules"
	"gignite/internal/simnet"
	"gignite/internal/sql"
	"gignite/internal/stats"
	"gignite/internal/storage"
	"gignite/internal/types"
	"gignite/internal/volcano"
)

// Value and Row re-export the engine's value model for in-module callers
// (examples, benchmarks, the CLI).
type (
	// Value is one scalar datum.
	Value = types.Value
	// Row is one result tuple.
	Row = types.Row
)

// Value constructors, re-exported for prepared-statement arguments
// (Stmt.Query) and programmatic row building. NewDate takes days since
// the Unix epoch; prepared parameters also accept a NewString in
// YYYY-MM-DD form where a DATE is expected.
var (
	NewInt    = types.NewInt
	NewFloat  = types.NewFloat
	NewString = types.NewString
	NewBool   = types.NewBool
	NewDate   = types.NewDate
)

// Errors surfaced by the engine. ErrPlanBudget and ErrQueryTimeout
// reproduce the two baseline failure modes of the paper's §1: planning
// failures and >limit executions. ErrOverloaded and ErrMemoryExceeded are
// the resource governor's shed/abort taxonomy (DESIGN.md §14): test them
// with errors.Is to tell "the engine rejected work it cannot serve" from
// "this one query blew its own budget".
var (
	// ErrViewsUnsupported: SQL views are not supported (TPC-H Q15).
	ErrViewsUnsupported = binder.ErrViewsUnsupported
	// ErrPlanBudget: the cost-based planner exhausted its search budget.
	ErrPlanBudget = volcano.ErrBudgetExceeded
	// ErrQueryTimeout: execution exceeded the configured work limit, the
	// wall-clock QueryTimeout, or a context deadline.
	ErrQueryTimeout = errors.New("gignite: query exceeded the execution work limit")
	// ErrOverloaded: the engine shed the query at admission (queue wait
	// exceeded AdmissionTimeout) or the shared memory pool was exhausted.
	ErrOverloaded = governor.ErrOverloaded
	// ErrMemoryExceeded: the query charged more estimated operator state
	// than Config.QueryMemLimitBytes allows; only the query aborts.
	ErrMemoryExceeded = governor.ErrMemoryExceeded
	// ErrEngineClosed: the engine was Closed — new statements are rejected
	// and a second Close reports it too. The serving layer maps it to the
	// wire protocol's "closing" error code during graceful drain.
	ErrEngineClosed = errors.New("gignite: engine is closed")
)

// FaultPlan is a deterministic fault-injection plan (see package faults
// for the spec grammar: "seed=N;crash=SITE@ORDINAL;slow=SITExFACTOR;
// sendfail=RATE").
type FaultPlan = faults.Plan

// ParseFaults parses a fault-plan spec string. An empty spec returns
// (nil, nil); malformed specs return an error, never panic.
func ParseFaults(spec string) (*FaultPlan, error) { return faults.Parse(spec) }

// Config selects the engine's composition: the one configuration surface.
// Start from IC, ICPlus or ICPlusM and adjust; the zero value is the IC
// baseline on one site with no row limit.
type Config struct {
	// Sites is the number of processing sites in the simulated cluster.
	Sites int
	// Backups is the number of backup replicas each partition keeps on
	// the following sites (Ignite's CacheConfiguration.backups). 0 means
	// no redundancy: a site crash loses its partitions. Values are capped
	// at Sites-1.
	Backups int

	// --- §4 query planner improvements ---

	// SwamiSchieferEstimation uses Equation 3 for join sizes; false keeps
	// the legacy estimator with its collapse-to-1 edge case.
	SwamiSchieferEstimation bool
	// FilterCorrelate adds the missing FILTER_CORRELATE rule.
	FilterCorrelate bool
	// FixExchangePenalty repairs the multi-target exchange cost bug.
	FixExchangePenalty bool
	// StandardCostUnits standardizes cost units (Equation 5 vs 4).
	StandardCostUnits bool
	// DistributionFactor enables Algorithm 2 / Equation 6.
	DistributionFactor bool
	// TwoPhaseOptimization splits the Volcano stage into logical +
	// physical phases with conditional join-permutation disabling (§4.3).
	TwoPhaseOptimization bool

	// --- §5 execution improvements ---

	// HashJoin enables the §5.1.2 hash-join operator.
	HashJoin bool
	// FullyDistributedJoins enables the §5.1.1 broadcast mappings.
	FullyDistributedJoins bool
	// JoinConditionSimplification enables the §5.2 rewrite.
	JoinConditionSimplification bool
	// VariantFragments is the §5.3 per-fragment thread count; values <= 1
	// disable multithreading. The paper found 2 performed best.
	VariantFragments int

	// --- limits and modeling ---

	// ExecParallelism bounds how many fragment instances execute
	// concurrently on host goroutines. 0 uses runtime.GOMAXPROCS(0); 1
	// forces the deterministic sequential path (determinism tests, -par 1).
	// Results and modeled times are identical at every setting — host
	// parallelism changes wall-clock time only, while the paper's
	// per-fragment threads stay accounted for by the simnet cost clock.
	ExecParallelism int
	// PlanningBudget overrides the planner search budget (0 = default).
	PlanningBudget int
	// ExecWorkLimit aborts queries whose execution work exceeds it
	// (0 = default; < 0 = unlimited). It reproduces the paper's four-hour
	// runtime limit.
	ExecWorkLimit float64
	// ExecRowLimit bounds the rows a single fragment instance's joins may
	// materialize before the query aborts with ErrQueryTimeout
	// (0 = unlimited). It backstops ExecWorkLimit against runaway cross
	// products that would exhaust host memory before the work limit
	// trips. The presets use DefaultExecRowLimit.
	ExecRowLimit int64
	// QueryTimeout, when positive, bounds each query's wall-clock time:
	// queries run under a context deadline and return
	// context.DeadlineExceeded when it fires. Explicit deadlines on the
	// context passed to ExecContext/QueryContext take precedence.
	QueryTimeout time.Duration
	// Faults is an optional deterministic fault-injection plan applied to
	// every query (site crashes, slow sites, flaky transport, shrunken
	// site memory pools). nil injects nothing. See ParseFaults.
	Faults *FaultPlan

	// --- resource governance (DESIGN.md §14) ---

	// MaxConcurrentQueries bounds admitted SELECT executions; excess
	// queries wait in a FIFO admission queue up to AdmissionTimeout and
	// are then shed with ErrOverloaded. 0 = unbounded.
	MaxConcurrentQueries int
	// MemoryBudgetBytes is the engine-wide memory pool in-flight queries
	// reserve their estimated operator state (hash builds, aggregation
	// tables, sorts, exchange buffers) against. Admission waits for pool
	// headroom; a reservation that finds none fails the query with
	// ErrOverloaded. 0 = no pool.
	MemoryBudgetBytes int64
	// QueryMemLimitBytes caps one query's cumulative estimated charge;
	// past it the query alone aborts with ErrMemoryExceeded naming the
	// operator. Charges are estimates, deterministic at every
	// ExecParallelism. 0 = unlimited.
	QueryMemLimitBytes int64
	// AdmissionTimeout bounds the admission-queue wait (0 = the
	// governor's 2s default; < 0 = wait as long as the context allows).
	AdmissionTimeout time.Duration
	// AdaptiveExec enables mid-query re-optimization from runtime
	// sketches (DESIGN.md §17): exchange senders summarize the rows they
	// ship, and at every wave barrier the engine may rewrite the
	// not-yet-deployed fragments — swap a hash join's build side or
	// collapse a variant split — when the observed cardinalities
	// contradict the planner's estimates. Results stay byte-identical to
	// the static plan; only the modeled time (and the adaptive counters)
	// change. Off in every preset.
	AdaptiveExec bool
	// StatsMisestimate, when not 0 or 1, multiplies the planner's
	// join-output estimates by the factor — a fault-injection knob for
	// demonstrating (and testing) adaptive execution against controlled
	// misestimation. It perturbs only the estimator, never execution.
	StatsMisestimate float64
	// PlanCacheSize bounds the engine's LRU plan cache in cached plans
	// (DESIGN.md §15). Cached plans are keyed by a normalized digest of the
	// statement text, invalidated whenever the catalog version changes
	// (DDL, ANALYZE), and shared by Exec and prepared statements; every
	// execution runs the entry's one split plan read-only, so results are
	// byte-identical with the cache off. 0 disables caching: each SELECT is
	// planned from scratch. Off in every preset (an extension beyond the
	// paper's system, mirroring Ignite's fronting plan cache for Calcite).
	PlanCacheSize int
	// ExperimentalViews enables CREATE VIEW and view expansion — an
	// extension beyond the paper's system (Ignite+Calcite rejects views,
	// which is what excludes TPC-H Q15). Off in every preset so the
	// reproduction stays faithful; switch it on to run Q15.
	ExperimentalViews bool

	// --- observability ---

	// SlowQueryThreshold, when positive, logs every query whose modeled
	// response time reaches it: query text, plan digest and the top-3
	// operators by modeled time go through Logger. Zero disables the log.
	SlowQueryThreshold time.Duration
	// Logger receives engine log lines (the slow-query log). nil is a
	// no-op logger.
	Logger LogFunc
}

// LogFunc is the pluggable logging hook (Printf-shaped).
type LogFunc func(format string, args ...interface{})

// DefaultExecWorkLimit corresponds to the paper's four-hour limit on the
// modeled testbed profile.
const DefaultExecWorkLimit = 2.5e9

// DefaultExecRowLimit is the presets' per-instance join materialization
// bound. It is calibrated to DefaultExecWorkLimit (one row of emission
// charge per ~100 work units), so it trips on memory-hostile cross
// products at about the point the work limit would.
const DefaultExecRowLimit int64 = 25_000_000

// IC returns the baseline Apache Ignite 2.16 configuration.
func IC(sites int) Config {
	return Config{Sites: sites, ExecRowLimit: DefaultExecRowLimit}
}

// ICPlus returns the paper's improved configuration (§4 + §5.1 + §5.2).
func ICPlus(sites int) Config {
	return Config{
		Sites:                       sites,
		SwamiSchieferEstimation:     true,
		FilterCorrelate:             true,
		FixExchangePenalty:          true,
		StandardCostUnits:           true,
		DistributionFactor:          true,
		TwoPhaseOptimization:        true,
		HashJoin:                    true,
		FullyDistributedJoins:       true,
		JoinConditionSimplification: true,
		ExecRowLimit:                DefaultExecRowLimit,
	}
}

// ICPlusM returns IC+ with dual-threaded variant fragments (§5.3).
func ICPlusM(sites int) Config {
	cfg := ICPlus(sites)
	cfg.VariantFragments = 2
	return cfg
}

// Engine is the composed system: catalog + store + planners + cluster.
type Engine struct {
	cfg     Config
	catalog *catalog.Catalog
	store   *storage.Store
	cluster *cluster.Cluster
	// mu guards the metadata planning reads beyond the catalog's table
	// map: the views and each table's Indexes and Stats. Planning (bind
	// through Volcano) and loads, which rebuild the declared indexes, hold
	// it shared; CREATE INDEX, CREATE VIEW and ANALYZE hold it exclusively.
	mu    sync.RWMutex
	views map[string]*sql.SelectStmt

	metrics *obs.Registry
	em      engineMetrics
	gov     *governor.Governor
	plans   *plancache.Cache // nil when Config.PlanCacheSize == 0
	queryID atomic.Uint64

	// Close/drain state (DESIGN.md §16): closed rejects new statements,
	// ops counts statements between beginOp/endOp, and drained is closed
	// by the last op to finish after Close.
	shutMu  sync.Mutex
	closed  bool
	ops     int
	drained chan struct{}
}

// engineMetrics caches the registry handles the per-query hot path
// touches, so queries never pay a registry lookup.
type engineMetrics struct {
	queries, failed, slow       *obs.Counter
	rows, work, bytes           *obs.Counter
	instances, retries, spans   *obs.Counter
	planHits, planMisses        *obs.Counter
	planEvictions               *obs.Counter
	planSkipped                 *obs.Counter
	replans, planSwitches       *obs.Counter
	inflight                    *obs.Gauge
	modeledSeconds, wallSeconds *obs.Histogram
}

// Open composes an engine with empty storage from functional options —
// the one constructor.
//
// The base configuration is ICPlus(1): the paper's improved planner and
// execution engine (§4, §5.1, §5.2) on a single site. Pass WithPreset
// (or WithConfig, for a Config built programmatically) first to start
// from a different system variant; every other setting is a Config field,
// set by a func(*Config):
//
//	e := gignite.Open(
//	        gignite.WithPreset(gignite.ICPlusM, 4),
//	        gignite.WithPlanCache(64),
//	        func(c *gignite.Config) { c.AdaptiveExec = true },
//	)
func Open(opts ...Option) *Engine {
	cfg := ICPlus(1)
	for _, opt := range opts {
		if opt != nil {
			opt(&cfg)
		}
	}
	if cfg.Sites <= 0 {
		cfg.Sites = 1
	}
	if cfg.ExecWorkLimit == 0 {
		cfg.ExecWorkLimit = DefaultExecWorkLimit
	}
	cat := catalog.New()
	store := storage.NewReplicatedStore(cat, cfg.Sites, cfg.Backups)
	// The modeled hardware profile is the paper's testbed, always.
	cl := cluster.New(store, simnet.DefaultParams())
	cl.Workers = cfg.ExecParallelism
	if cfg.ExecRowLimit > 0 {
		cl.RowLimit = cfg.ExecRowLimit
	}
	cl.Faults = faults.New(cfg.Faults)
	reg := obs.NewRegistry()
	// The governor only exists when a governance knob is set, so ungoverned
	// engines skip admission entirely (a nil governor admits everything).
	var gov *governor.Governor
	if cfg.MaxConcurrentQueries > 0 || cfg.MemoryBudgetBytes > 0 || cfg.QueryMemLimitBytes > 0 {
		gov = governor.New(governor.Params{
			MaxConcurrent:    cfg.MaxConcurrentQueries,
			PoolBytes:        cfg.MemoryBudgetBytes,
			QueryLimitBytes:  cfg.QueryMemLimitBytes,
			AdmissionTimeout: cfg.AdmissionTimeout,
		}, governor.Metrics{
			Queued:   reg.Gauge("queries_queued"),
			Shed:     reg.Counter("queries_shed_total"),
			Reserved: reg.Gauge("mem_reserved_bytes"),
		})
	}
	em := engineMetrics{
		queries:        reg.Counter("queries_total"),
		failed:         reg.Counter("queries_failed_total"),
		slow:           reg.Counter("queries_slow_total"),
		rows:           reg.Counter("rows_returned_total"),
		work:           reg.Counter("exec_work_units_total"),
		bytes:          reg.Counter("bytes_shipped_total"),
		instances:      reg.Counter("fragment_instances_total"),
		retries:        reg.Counter("retries_total"),
		spans:          reg.Counter("trace_spans_total"),
		planHits:       reg.Counter("plan_cache_hits_total"),
		planMisses:     reg.Counter("plan_cache_misses_total"),
		planEvictions:  reg.Counter("plan_cache_evictions_total"),
		planSkipped:    reg.Counter("queries_planning_skipped_total"),
		replans:        reg.Counter("adaptive_replans_total"),
		planSwitches:   reg.Counter("adaptive_plan_switches_total"),
		inflight:       reg.Gauge("queries_inflight"),
		modeledSeconds: reg.Histogram("query_modeled_seconds", obs.DefaultTimeBuckets()),
		wallSeconds:    reg.Histogram("query_wall_seconds", obs.DefaultTimeBuckets()),
	}
	var plans *plancache.Cache
	if cfg.PlanCacheSize > 0 {
		plans = plancache.New(cfg.PlanCacheSize, plancache.Metrics{
			Hits:      em.planHits,
			Misses:    em.planMisses,
			Evictions: em.planEvictions,
		})
	}
	return &Engine{
		cfg:     cfg,
		catalog: cat,
		store:   store,
		cluster: cl,
		views:   make(map[string]*sql.SelectStmt),
		metrics: reg,
		gov:     gov,
		plans:   plans,
		em:      em,
	}
}

// Metrics snapshots the engine's cumulative metrics (counts, totals and
// latency histograms across every query executed so far); per-query views
// live on Result.Obs.
func (e *Engine) Metrics() obs.Snapshot { return e.metrics.Snapshot() }

// Registry exposes the engine's live metrics registry so in-process
// subsystems (the network server, sidecar exporters) can register their
// own series next to the engine's and serve one coherent snapshot.
func (e *Engine) Registry() *obs.Registry { return e.metrics }

// beginOp admits one operation into the engine's lifecycle accounting;
// it fails once Close has been called. Every entry point that touches the
// catalog or the store — statements, Explain, LoadTable, Analyze,
// ReferenceQuery, LogicalPlan — pairs it with endOp, which lets Close
// wait for in-flight work (a bulk load included) to drain.
func (e *Engine) beginOp() error {
	e.shutMu.Lock()
	defer e.shutMu.Unlock()
	if e.closed {
		return ErrEngineClosed
	}
	e.ops++
	return nil
}

func (e *Engine) endOp() {
	e.shutMu.Lock()
	e.ops--
	if e.closed && e.ops == 0 && e.drained != nil {
		close(e.drained)
		e.drained = nil
	}
	e.shutMu.Unlock()
}

// DefaultDrainTimeout bounds Close()'s wait for in-flight queries.
const DefaultDrainTimeout = 30 * time.Second

// Close drains the engine: new statements are rejected with
// ErrEngineClosed immediately, and Close returns once every in-flight
// statement has finished, waiting at most DefaultDrainTimeout. A second
// Close returns ErrEngineClosed. Use CloseContext to bound the drain
// with your own deadline.
func (e *Engine) Close() error {
	ctx, cancel := context.WithTimeout(context.Background(), DefaultDrainTimeout)
	defer cancel()
	return e.CloseContext(ctx)
}

// CloseContext is Close with a caller-supplied drain bound: it marks the
// engine closed, then waits for queries_inflight to reach zero or ctx to
// fire, whichever comes first. When ctx fires first the engine is still
// closed (stragglers finish on their own), and the error reports how many
// statements were still running.
func (e *Engine) CloseContext(ctx context.Context) error {
	e.shutMu.Lock()
	if e.closed {
		e.shutMu.Unlock()
		return fmt.Errorf("%w (Close called twice)", ErrEngineClosed)
	}
	e.closed = true
	var drained chan struct{}
	if e.ops > 0 {
		drained = make(chan struct{})
		e.drained = drained
	}
	e.shutMu.Unlock()
	if drained == nil {
		return nil
	}
	select {
	case <-drained:
		return nil
	case <-ctx.Done():
		e.shutMu.Lock()
		n := e.ops
		e.shutMu.Unlock()
		return fmt.Errorf("gignite: drain interrupted with %d statement(s) in flight: %w", n, ctx.Err())
	}
}

// Config returns the engine's configuration.
func (e *Engine) Config() Config { return e.cfg }

// SetExecParallelism adjusts the host worker-pool bound at runtime (see
// Config.ExecParallelism). It must not be called concurrently with
// in-flight queries; it exists so tools and benchmarks can compare
// sequential and parallel execution on one loaded engine.
func (e *Engine) SetExecParallelism(n int) {
	e.cfg.ExecParallelism = n
	e.cluster.Workers = n
}

// Result is the outcome of one statement.
type Result struct {
	// Columns names the result columns (empty for DDL/DML).
	Columns []string
	// Rows holds the result tuples.
	Rows []Row
	// Modeled is the cost-clock response time on the modeled testbed
	// (zero for DDL/DML).
	Modeled time.Duration
	// PlanText is filled by EXPLAIN and EXPLAIN ANALYZE.
	PlanText string
	// Stats carries execution telemetry. Prefer Report, which unifies
	// Stats and Obs into one serializable record.
	Stats ExecStats
	// Obs is the query's full observation record: per-operator runtime
	// statistics and the distributed trace (one span per fragment-instance
	// attempt). nil for DDL/DML and plain EXPLAIN. Prefer Report for the
	// flattened public view; Obs remains for trace export
	// (obs.ChromeTrace) and span-level inspection.
	Obs *obs.QueryObs

	// compiled counts the expressions this execution compiled (the
	// package's tests check that a cached plan's kernels are reused).
	compiled int
}

// ExecStats is per-query execution telemetry.
type ExecStats = obs.ExecStats

// Exec parses and executes one SQL statement (DDL, INSERT, SELECT or
// EXPLAIN). Exec is safe for concurrent callers: SELECTs run fully in
// parallel (the paper's multi-client AQL setting), while DDL and INSERT
// serialize against the storage and catalog write locks.
func (e *Engine) Exec(query string) (*Result, error) {
	return e.ExecContext(context.Background(), query)
}

// ExecContext is Exec with cancellation: SELECT execution observes ctx
// at wave barriers and row-batch boundaries and returns ctx.Err() (e.g.
// context.DeadlineExceeded) once it fires. DDL and INSERT are not
// cancellable mid-flight.
func (e *Engine) ExecContext(ctx context.Context, query string) (*Result, error) {
	if err := e.beginOp(); err != nil {
		return nil, err
	}
	defer e.endOp()
	stmt, err := sql.Parse(query)
	if err != nil {
		return nil, err
	}
	switch s := stmt.(type) {
	case *sql.CreateTableStmt:
		tbl, err := binder.BindCreateTable(s)
		if err != nil {
			return nil, err
		}
		if err := e.catalog.AddTable(tbl); err != nil {
			return nil, err
		}
		return &Result{}, nil
	case *sql.CreateIndexStmt:
		e.mu.Lock()
		defer e.mu.Unlock()
		tbl, err := e.catalog.Table(s.Table)
		if err != nil {
			return nil, err
		}
		if tbl.IndexByName(s.Name) != nil {
			return nil, fmt.Errorf("gignite: index %s already exists", s.Name)
		}
		cols := make([]string, len(s.Columns))
		for i, c := range s.Columns {
			if tbl.ColumnIndex(c) < 0 {
				return nil, fmt.Errorf("gignite: column %s does not exist in %s", c, s.Table)
			}
			cols[i] = strings.ToLower(c)
		}
		tbl.Indexes = append(tbl.Indexes, catalog.Index{Name: strings.ToLower(s.Name), Columns: cols})
		if err := e.store.BuildIndexes(tbl.Name); err != nil {
			return nil, err
		}
		// Index access paths changed: stale cached plans must replan.
		e.catalog.BumpVersion()
		return &Result{}, nil
	case *sql.CreateViewStmt:
		if !e.cfg.ExperimentalViews {
			return nil, ErrViewsUnsupported
		}
		name := strings.ToLower(s.Name)
		e.mu.Lock()
		defer e.mu.Unlock()
		if _, exists := e.views[name]; exists {
			return nil, fmt.Errorf("gignite: view %s already exists", s.Name)
		}
		if _, err := e.catalog.Table(name); err == nil {
			return nil, fmt.Errorf("gignite: %s already names a table", s.Name)
		}
		e.views[name] = s.Select
		// A new view can resolve names that previously failed to bind, and
		// future plans over it must not reuse pre-view digests.
		e.catalog.BumpVersion()
		return &Result{}, nil
	case *sql.InsertStmt:
		tbl, err := e.catalog.Table(s.Table)
		if err != nil {
			return nil, err
		}
		rows, err := binder.BindInsertRows(tbl, s)
		if err != nil {
			return nil, err
		}
		if err := e.load(tbl.Name, rows); err != nil {
			return nil, err
		}
		return &Result{}, nil
	case *sql.ExplainStmt:
		if s.Analyze {
			return e.explainAnalyze(ctx, s.Query, query)
		}
		return e.explain(s.Query)
	case *sql.SelectStmt:
		return e.query(ctx, s, query)
	default:
		return nil, fmt.Errorf("gignite: unsupported statement %T", stmt)
	}
}

// Query executes a SELECT statement.
func (e *Engine) Query(query string) (*Result, error) {
	return e.QueryContext(context.Background(), query)
}

// QueryContext executes a SELECT under a context (see ExecContext).
func (e *Engine) QueryContext(ctx context.Context, query string) (*Result, error) {
	if err := e.beginOp(); err != nil {
		return nil, err
	}
	defer e.endOp()
	sel, err := sql.ParseSelect(query)
	if err != nil {
		return nil, err
	}
	return e.query(ctx, sel, query)
}

// Explain returns the fragmented physical plan for a SELECT.
func (e *Engine) Explain(query string) (string, error) {
	if err := e.beginOp(); err != nil {
		return "", err
	}
	defer e.endOp()
	sel, err := sql.ParseSelect(query)
	if err != nil {
		return "", err
	}
	res, err := e.explain(sel)
	if err != nil {
		return "", err
	}
	return res.PlanText, nil
}

// LoadTable bulk-loads rows and rebuilds the table's indexes. It is the
// fast path the benchmark generators use. The store copies the rows, so
// the caller may reuse or drop them afterwards.
func (e *Engine) LoadTable(name string, rows []Row) error {
	if err := e.beginOp(); err != nil {
		return err
	}
	defer e.endOp()
	return e.load(name, rows)
}

// load appends rows to a table; the store rebuilds its declared indexes
// before it releases them to readers. It holds e.mu shared, since the
// store reads the table's index list, which CREATE INDEX writes.
func (e *Engine) load(name string, rows []types.Row) error {
	e.mu.RLock()
	defer e.mu.RUnlock()
	return e.store.Load(name, rows)
}

// Analyze collects table statistics (row counts, per-column NDV and
// min/max) for every table — Ignite's "statistics enabled" mode. Call it
// after loading data and before planning queries.
func (e *Engine) Analyze() error {
	if err := e.beginOp(); err != nil {
		return err
	}
	defer e.endOp()
	// Planners read the statistics this writes.
	e.mu.Lock()
	defer e.mu.Unlock()
	for _, t := range e.catalog.Tables() {
		if err := e.store.ComputeStats(t); err != nil {
			return err
		}
	}
	// Fresh statistics change cost estimates; cached plans are stale.
	e.catalog.BumpVersion()
	return nil
}

// Catalog exposes the metadata layer (read-mostly; used by tooling).
func (e *Engine) Catalog() *catalog.Catalog { return e.catalog }

// rulesConfig is the rule-set selection Config implies, shared by the
// planner and LogicalPlan.
func (e *Engine) rulesConfig() rules.Config {
	return rules.Config{
		FilterCorrelate:             e.cfg.FilterCorrelate,
		JoinConditionSimplification: e.cfg.JoinConditionSimplification,
	}
}

// bindLogical binds a SELECT, with the engine's views attached (only
// populated when ExperimentalViews is on), and runs the stage-1 heuristic
// rules rc selects — the front half of planning, shared with LogicalPlan
// and ReferenceQuery. The caller holds e.mu shared.
func (e *Engine) bindLogical(sel *sql.SelectStmt, rc rules.Config) (logical.Node, *binder.Binder, error) {
	b := binder.New(e.catalog).WithViews(e.views)
	lp, err := b.BindSelect(sel)
	if err != nil {
		return nil, nil, err
	}
	return hep.RunGroups(lp, rules.Stage1Groups(rc)), b, nil
}

// newPlanner builds the cost-based planner Config implies, with a fresh
// estimator: both hold per-run memos, so every planning run gets its own.
func (e *Engine) newPlanner() *volcano.Planner {
	est := stats.New(e.catalog, !e.cfg.SwamiSchieferEstimation)
	est.Misestimate = e.cfg.StatsMisestimate
	return volcano.New(volcano.Config{
		Rules:                 e.rulesConfig(),
		TwoPhase:              e.cfg.TwoPhaseOptimization,
		EnableHashJoin:        e.cfg.HashJoin,
		FullyDistributedJoins: e.cfg.FullyDistributedJoins,
		Sites:                 e.cfg.Sites,
		Est:                   est,
		CostParams: cost.Params{
			LegacyUnits:           !e.cfg.StandardCostUnits,
			ExchangePenaltyBug:    !e.cfg.FixExchangePenalty,
			UseDistributionFactor: e.cfg.DistributionFactor,
		},
		Budget: e.cfg.PlanningBudget,
	})
}

// buildEntry runs the full planning pipeline for a SELECT — bind, the
// stage-1 rules, Volcano — and wraps the result as a cache entry with the
// bind-time type hint of every `?` placeholder, stamped with the catalog
// version planning started from. Reading the version first is
// deliberate: a DDL landing mid-plan leaves the entry marked stale, never
// the reverse. Planning holds e.mu shared throughout, so CREATE INDEX and
// ANALYZE wait for it. The plan's expressions are compiled, and the plan
// split (the engine's only fragment.Split), before anyone else can see
// it: every execution, adaptive or not, runs that one split, read-only.
// Entry.Plan stays nil: its last reader, bench/staged.go, fills its own.
func (e *Engine) buildEntry(sel *sql.SelectStmt) (*plancache.Entry, error) {
	version := e.catalog.Version()
	e.mu.RLock()
	defer e.mu.RUnlock()
	lp, b, err := e.bindLogical(sel, e.rulesConfig())
	if err != nil {
		return nil, err
	}
	vp := e.newPlanner()
	pp, err := vp.Optimize(lp)
	if err != nil {
		return nil, err
	}
	physical.Compile(pp)
	return &plancache.Entry{
		Split:      fragment.Split(pp),
		ParamKinds: b.ParamKinds(sel.Params), Tickets: vp.TicketsUsed, Version: version,
	}, nil
}

// getPlan resolves the optimized plan for a parsed SELECT: through the
// plan cache when enabled (filed under the digest the parser left on the
// statement; planning runs only on a miss, and concurrent misses on one
// digest coalesce into a single planning pass), from scratch otherwise.
func (e *Engine) getPlan(sel *sql.SelectStmt) (*plancache.Entry, bool, error) {
	build := func() (*plancache.Entry, error) { return e.buildEntry(sel) }
	if e.plans == nil {
		entry, err := build()
		return entry, false, err
	}
	return e.plans.Get(sel.Digest, e.catalog.Version(), build)
}

// PlanCacheStats snapshots the plan cache. enabled is false (and the
// stats zero) when Config.PlanCacheSize is 0.
func (e *Engine) PlanCacheStats() (s plancache.Stats, enabled bool) {
	if e.plans == nil {
		return plancache.Stats{}, false
	}
	return e.plans.Snapshot(), true
}

func (e *Engine) query(ctx context.Context, sel *sql.SelectStmt, src string) (*Result, error) {
	res, _, err := e.run(ctx, sel, src, nil, nil)
	return res, err
}

// planGetter resolves the plan entry for one execution. skipped reports
// whether planning was skipped (a cache or prepared-statement hit).
type planGetter func() (entry *plancache.Entry, skipped bool, err error)

// run is the shared SELECT execution path behind query, explainAnalyze
// and prepared statements: resolve the plan (cache-aware), execute its
// split with the arguments bound into kernels of this execution's own,
// then attach the observation record and update the engine's cumulative
// metrics (including the slow-query log).
func (e *Engine) run(ctx context.Context, sel *sql.SelectStmt, src string, args []types.Value, get planGetter) (*Result, *fragment.Plan, error) {
	if ctx == nil {
		ctx = context.Background()
	}
	if e.cfg.QueryTimeout > 0 {
		if _, hasDeadline := ctx.Deadline(); !hasDeadline {
			var cancel context.CancelFunc
			ctx, cancel = context.WithTimeout(ctx, e.cfg.QueryTimeout)
			defer cancel()
		}
	}
	e.em.queries.Inc()
	// Admission control: at capacity, the query waits in the governor's
	// FIFO queue and is shed with ErrOverloaded when AdmissionTimeout
	// fires first. The inflight gauge counts admitted queries only.
	lease, err := e.gov.Acquire(ctx)
	if err != nil {
		e.em.failed.Inc()
		if errors.Is(err, context.DeadlineExceeded) {
			return nil, nil, fmt.Errorf("%w: %w", ErrQueryTimeout, err)
		}
		return nil, nil, fmt.Errorf("gignite: %w", err)
	}
	defer lease.Close()
	e.em.inflight.Add(1)
	defer e.em.inflight.Add(-1)
	if len(args) != sel.Params {
		e.em.failed.Inc()
		if sel.Params > 0 && len(args) == 0 {
			return nil, nil, fmt.Errorf("gignite: query has %d parameter(s); prepare it and supply arguments via Stmt.Query", sel.Params)
		}
		return nil, nil, fmt.Errorf("gignite: query has %d parameter(s) but %d argument(s) were supplied", sel.Params, len(args))
	}
	if get == nil {
		get = func() (*plancache.Entry, bool, error) { return e.getPlan(sel) }
	}
	planStart := time.Now()
	entry, skipped, err := get()
	planNanos := time.Since(planStart).Nanoseconds()
	if err != nil {
		e.em.failed.Inc()
		return nil, nil, err
	}
	var bound []types.Value
	if len(args) > 0 {
		bound = make([]types.Value, len(args))
		for i, a := range args {
			v, cerr := binder.CoerceParam(a, entry.ParamKinds[i])
			if cerr != nil {
				e.em.failed.Inc()
				return nil, nil, fmt.Errorf("gignite: parameter %d: %w", i+1, cerr)
			}
			bound[i] = v
		}
	}
	// The plan text shows placeholders, not arguments, so the first
	// execution's rendering of the entry's plan holds for every later one.
	text := entry.Text(func() *plancache.Text { return renderText(entry.Split) })
	variants := e.cfg.VariantFragments
	if variants < 1 {
		variants = 1
	}
	limit := e.cfg.ExecWorkLimit
	if limit < 0 {
		limit = 0
	}
	// Every execution runs the entry's split, which nothing writes. An
	// adaptive one gets a controller of its own, whose decisions live
	// beside the split, so every execution re-adapts from its own runtime
	// evidence and none leaks into the cache.
	fp := entry.Split
	var ac *adaptive.Controller
	if e.cfg.AdaptiveExec {
		ac = adaptive.New(fp, variants)
	}
	res, err := e.cluster.Run(ctx, fp, cluster.Opts{
		Variants:  variants,
		WorkLimit: limit,
		Mem:       lease,
		Adaptive:  ac,
		Args:      bound,
	})
	if err != nil {
		e.em.failed.Inc()
		switch {
		case errors.Is(err, cluster.ErrWorkLimit):
			return nil, nil, fmt.Errorf("%w: %v", ErrQueryTimeout, err)
		case errors.Is(err, context.DeadlineExceeded):
			// Dual-wrap so callers can test either the engine's typed
			// sentinel or the context error.
			return nil, nil, fmt.Errorf("%w: %w", ErrQueryTimeout, err)
		}
		return nil, nil, err
	}
	qobs := res.Obs
	if qobs != nil {
		qobs.QueryID = e.queryID.Add(1)
		qobs.SQL = src
		qobs.PlanDigest = text.Digest
		// Operator lines describe the plan as planned; an adaptive switch
		// is recorded once, in qobs.Replans.
		for _, fo := range qobs.Fragments {
			for i, op := range text.Ops[fo.Frag] {
				fo.Ops[i].Op = op
			}
		}
	}
	out := &Result{
		Columns:  slices.Clone(text.Columns),
		Rows:     res.Rows,
		Modeled:  res.Modeled,
		Obs:      qobs,
		Stats:    res.ExecStats,
		compiled: res.Compiled,
	}
	out.Stats.PlanTickets = entry.Tickets
	out.Stats.PlanNanos = planNanos
	out.Stats.PlanningSkipped = skipped
	e.recordQuery(out, qobs, src)
	return out, fp, nil
}

// recordQuery folds one successful query into the cumulative metrics and
// emits the slow-query log line when the modeled time crosses the
// threshold.
func (e *Engine) recordQuery(res *Result, qobs *obs.QueryObs, src string) {
	e.em.rows.Add(float64(len(res.Rows)))
	e.em.work.Add(res.Stats.Work)
	e.em.bytes.Add(res.Stats.BytesShipped)
	e.em.instances.Add(float64(res.Stats.Instances))
	e.em.retries.Add(float64(res.Stats.Retries))
	e.em.spans.Add(float64(res.Stats.Spans))
	e.em.replans.Add(float64(res.Stats.AdaptiveReplans))
	e.em.planSwitches.Add(float64(res.Stats.AdaptiveSwitches))
	if res.Stats.PlanningSkipped {
		e.em.planSkipped.Inc()
	}
	e.em.modeledSeconds.Observe(res.Modeled.Seconds())
	if qobs != nil {
		e.em.wallSeconds.Observe(time.Duration(qobs.WallNanos).Seconds())
	}
	thr := e.cfg.SlowQueryThreshold
	if thr <= 0 || res.Modeled < thr || qobs == nil {
		return
	}
	e.em.slow.Inc()
	logf := e.cfg.Logger
	if logf == nil {
		return
	}
	var tops strings.Builder
	for i, t := range qobs.TopOperators(3) {
		if i > 0 {
			tops.WriteString(", ")
		}
		fmt.Fprintf(&tops, "frag%d %s work=%.0f", t.Frag, t.Op, t.Work)
	}
	logf("slow query: modeled=%v threshold=%v digest=%s top=[%s] sql=%q",
		res.Modeled, thr, qobs.PlanDigest, tops.String(), src)
}

// renderText renders what every execution of a plan reports about it:
// the digest, each fragment's operator lines and the result columns.
func renderText(fp *fragment.Plan) *plancache.Text {
	t := &plancache.Text{Digest: planDigest(fp), Ops: make([][]string, len(fp.Fragments))}
	for _, f := range fp.Fragments {
		t.Ops[f.ID] = make([]string, len(f.Ops))
		for i, n := range f.Ops {
			t.Ops[f.ID][i] = n.Describe()
		}
		if f.IsRoot {
			t.Columns = f.Root.Schema().Names()
		}
	}
	return t
}

// planDigest is a stable FNV-64a hash of the fragmented plan text,
// identifying the plan shape across runs of the same query.
func planDigest(fp *fragment.Plan) string {
	h := fnv.New64a()
	_, _ = h.Write([]byte(fp.Format()))
	return fmt.Sprintf("%016x", h.Sum64())
}

// explainAnalyze executes the query and renders the physical plan
// annotated with estimated vs. actual per-operator row counts. The result
// rows themselves are dropped: EXPLAIN ANALYZE returns the report.
func (e *Engine) explainAnalyze(ctx context.Context, sel *sql.SelectStmt, src string) (*Result, error) {
	res, fp, err := e.run(ctx, sel, src, nil, nil)
	if err != nil {
		return nil, err
	}
	res.PlanText = formatAnalyzed(fp, res.Obs, &res.Stats)
	res.Columns = nil
	res.Rows = nil
	return res, nil
}

// formatAnalyzed renders the EXPLAIN ANALYZE report: the fragmented plan
// with one "[est=... act=... err=...]" annotation per operator, and an
// "[adaptive: ...]" mark on each operator an adaptive replan changed,
// followed by the replans and a query-level summary.
func formatAnalyzed(fp *fragment.Plan, q *obs.QueryObs, st *ExecStats) string {
	var sb strings.Builder
	for _, f := range fp.Fragments {
		role := "fragment"
		if f.IsRoot {
			role = "root fragment"
		}
		var fo *obs.FragmentObs
		if q != nil && f.ID < len(q.Fragments) {
			fo = q.Fragments[f.ID]
		}
		inst := 0
		if fo != nil {
			inst = fo.Instances
		}
		fmt.Fprintf(&sb, "--- %s %d (instances=%d) ---\n", role, f.ID, inst)
		var replans []obs.Replan
		if q != nil {
			replans = q.Replans
		}
		formatAnalyzedNode(&sb, f, f.Root, fo, replans, 0)
	}
	if q != nil {
		for _, rp := range q.Replans {
			fmt.Fprintf(&sb, "adaptive replan: wave=%d frag=%d %s %s %s -> %s (est=%.0f act=%d)\n",
				rp.Wave, rp.Frag, rp.Kind, rp.Op, rp.From, rp.To, rp.EstRows, rp.ActRows)
		}
		fmt.Fprintf(&sb, "modeled=%v wall=%v work=%.0f bytes=%.0f instances=%d retries=%d spans=%d",
			time.Duration(q.ModeledNanos), time.Duration(q.WallNanos),
			st.Work, st.BytesShipped, st.Instances, st.Retries, st.Spans)
		if st.MemPeakBytes > 0 {
			fmt.Fprintf(&sb, " mem_peak=%d", st.MemPeakBytes)
		}
		if st.AdaptiveReplans > 0 {
			fmt.Fprintf(&sb, " replans=%d switches=%d", st.AdaptiveReplans, st.AdaptiveSwitches)
		}
		sb.WriteByte('\n')
	}
	return sb.String()
}

func formatAnalyzedNode(sb *strings.Builder, f *fragment.Fragment, n physical.Node, fo *obs.FragmentObs, replans []obs.Replan, depth int) {
	fmt.Fprintf(sb, "%s%s", strings.Repeat("  ", depth), n.Describe())
	for _, rp := range replans {
		if rp.Frag == f.ID && rp.OpID == f.OpIDs[n] {
			fmt.Fprintf(sb, "  [adaptive: %s %s→%s]", rp.Kind, rp.From, rp.To)
		}
	}
	if fo != nil {
		if i, ok := fo.OpIndex[n]; ok {
			op := fo.Ops[i]
			fmt.Fprintf(sb, "  [est=%.0f act=%d err=%.1fx work=%.0f wall=%v",
				op.EstRows, op.RowsOut, qerror(op.EstRows, float64(op.RowsOut)),
				op.Work, time.Duration(op.WallNanos))
			if op.BuildRows > 0 {
				fmt.Fprintf(sb, " build=%d", op.BuildRows)
			}
			if op.Batches > 0 {
				fmt.Fprintf(sb, " batches=%d", op.Batches)
			}
			if op.PeakMemBytes > 0 {
				fmt.Fprintf(sb, " mem=%d", op.PeakMemBytes)
			}
			sb.WriteString("]")
		}
	}
	sb.WriteByte('\n')
	for _, in := range n.Inputs() {
		formatAnalyzedNode(sb, f, in, fo, replans, depth+1)
	}
}

// qerror is the symmetric q-error of an estimate, smoothed by +1 on both
// sides so empty results do not divide by zero.
func qerror(est, act float64) float64 {
	q := (est + 1) / (act + 1)
	if inv := 1 / q; inv > q {
		return inv
	}
	return q
}

// explain renders the fragmented plan of a SELECT, resolved through the
// plan cache like an execution's, with its placeholders unbound.
func (e *Engine) explain(sel *sql.SelectStmt) (*Result, error) {
	entry, _, err := e.getPlan(sel)
	if err != nil {
		return nil, err
	}
	var sb strings.Builder
	sb.WriteString(entry.Split.Format())
	fmt.Fprintf(&sb, "planner tickets: %d\n", entry.Tickets)
	return &Result{PlanText: sb.String()}, nil
}

// ReferenceQuery executes a SELECT through the naive single-node
// reference interpreter (package ref). It shares only the binder and the
// stage-1 heuristic rules with the main pipeline, so integration tests use
// it to cross-check the distributed engine's results.
func (e *Engine) ReferenceQuery(query string) ([]Row, error) {
	if err := e.beginOp(); err != nil {
		return nil, err
	}
	defer e.endOp()
	sel, err := sql.ParseSelect(query)
	if err != nil {
		return nil, err
	}
	e.mu.RLock()
	lp, _, err := e.bindLogical(sel, rules.Config{FilterCorrelate: true})
	e.mu.RUnlock()
	if err != nil {
		return nil, err
	}
	return ref.Execute(lp, e.store)
}

// LogicalPlan returns the bound + heuristically optimized logical plan
// text (a debugging aid).
func (e *Engine) LogicalPlan(query string) (string, error) {
	if err := e.beginOp(); err != nil {
		return "", err
	}
	defer e.endOp()
	sel, err := sql.ParseSelect(query)
	if err != nil {
		return "", err
	}
	e.mu.RLock()
	lp, _, err := e.bindLogical(sel, e.rulesConfig())
	e.mu.RUnlock()
	if err != nil {
		return "", err
	}
	return logical.Format(lp), nil
}
