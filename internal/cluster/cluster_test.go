package cluster

import (
	"context"
	"errors"
	"sort"
	"strings"
	"testing"

	"gignite/internal/catalog"
	"gignite/internal/expr"
	"gignite/internal/faults"
	"gignite/internal/fragment"
	"gignite/internal/physical"
	"gignite/internal/simnet"
	"gignite/internal/storage"
	"gignite/internal/types"
)

// testCluster is a cluster whose store holds table t(id, grp): 100 rows,
// grp = id % 4, with the given number of backup replicas.
func testCluster(t *testing.T, sites, backups int) *Cluster {
	t.Helper()
	cat := catalog.New()
	err := cat.AddTable(&catalog.Table{
		Name: "t",
		Columns: []catalog.Column{
			{Name: "id", Kind: types.KindInt},
			{Name: "grp", Kind: types.KindInt},
		},
		PrimaryKey: []string{"id"},
	})
	if err != nil {
		t.Fatal(err)
	}
	st := storage.NewReplicatedStore(cat, sites, backups)
	rows := make([]types.Row, 100)
	for i := range rows {
		rows[i] = types.Row{types.NewInt(int64(i)), types.NewInt(int64(i % 4))}
	}
	if err := st.Load("t", rows); err != nil {
		t.Fatal(err)
	}
	return New(st, simnet.DefaultParams())
}

// scanT is a full scan of table t.
func scanT(t *testing.T, c *Cluster) *physical.TableScan {
	t.Helper()
	td, err := c.Store.Table("t")
	if err != nil {
		t.Fatal(err)
	}
	scan := physical.NewTableScan(td.Def, td.Def.Fields())
	scan.Props().EstRows = 100
	return scan
}

// buildPlan: scan t (all sites) → exchange single → collect at root.
func buildPlan(t *testing.T, c *Cluster) *fragment.Plan {
	t.Helper()
	scan := scanT(t, c)
	ex := physical.NewExchange(scan, physical.SingleDist)
	ex.Props().EstRows = 100
	return fragment.Split(ex)
}

func TestExecuteCollectsAllPartitions(t *testing.T) {
	for _, sites := range []int{1, 3, 5} {
		c := testCluster(t, sites, 0)
		res, err := c.Run(context.Background(), buildPlan(t, c), Opts{Variants: 1})
		if err != nil {
			t.Fatal(err)
		}
		if len(res.Rows) != 100 {
			t.Errorf("%d sites: rows = %d", sites, len(res.Rows))
		}
		if res.Modeled <= 0 {
			t.Errorf("%d sites: modeled = %v", sites, res.Modeled)
		}
		if res.Fragments != 2 {
			t.Errorf("fragments = %d", res.Fragments)
		}
		ids := map[int64]bool{}
		for _, r := range res.Rows {
			ids[r[0].Int()] = true
		}
		if len(ids) != 100 {
			t.Errorf("%d sites: distinct ids = %d", sites, len(ids))
		}
	}
}

func TestVariantsSameResultsMoreInstances(t *testing.T) {
	c := testCluster(t, 2, 0)
	single, err := c.Run(context.Background(), buildPlan(t, c), Opts{Variants: 1})
	if err != nil {
		t.Fatal(err)
	}
	dual, err := c.Run(context.Background(), buildPlan(t, c), Opts{Variants: 2})
	if err != nil {
		t.Fatal(err)
	}
	if len(single.Rows) != len(dual.Rows) {
		t.Fatalf("row counts: %d vs %d", len(single.Rows), len(dual.Rows))
	}
	a := make([]string, len(single.Rows))
	b := make([]string, len(dual.Rows))
	for i := range single.Rows {
		a[i] = single.Rows[i].String()
		b[i] = dual.Rows[i].String()
	}
	sort.Strings(a)
	sort.Strings(b)
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("row %d differs: %s vs %s", i, a[i], b[i])
		}
	}
	if dual.Instances <= single.Instances {
		t.Errorf("instances: single=%d dual=%d", single.Instances, dual.Instances)
	}
	// One variant runs every fragment on one thread, whatever source
	// modes Split recorded.
	for _, s := range single.Obs.Spans {
		if s.Variant != 0 {
			t.Errorf("Variants: 1 ran fragment %d variant %d", s.Frag, s.Variant)
		}
	}
}

// TestParallelMatchesSequential: the wave scheduler must produce
// byte-identical rows, modeled time, work, and instance counts at every
// worker count — host parallelism changes wall-clock only.
func TestParallelMatchesSequential(t *testing.T) {
	for _, variants := range []int{1, 2} {
		c := testCluster(t, 4, 0)
		c.Workers = 1
		seq, err := c.Run(context.Background(), buildPlan(t, c), Opts{Variants: variants})
		if err != nil {
			t.Fatal(err)
		}
		for _, workers := range []int{2, 4, 16} {
			c.Workers = workers
			par, err := c.Run(context.Background(), buildPlan(t, c), Opts{Variants: variants})
			if err != nil {
				t.Fatal(err)
			}
			if len(par.Rows) != len(seq.Rows) {
				t.Fatalf("variants=%d workers=%d: rows %d vs %d",
					variants, workers, len(par.Rows), len(seq.Rows))
			}
			for i := range seq.Rows {
				if par.Rows[i].String() != seq.Rows[i].String() {
					t.Fatalf("variants=%d workers=%d: row %d differs: %s vs %s",
						variants, workers, i, par.Rows[i], seq.Rows[i])
				}
			}
			if par.Modeled != seq.Modeled {
				t.Errorf("variants=%d workers=%d: modeled %v vs %v",
					variants, workers, par.Modeled, seq.Modeled)
			}
			if par.Work != seq.Work || par.Instances != seq.Instances {
				t.Errorf("variants=%d workers=%d: work/instances diverge: %v/%d vs %v/%d",
					variants, workers, par.Work, par.Instances, seq.Work, seq.Instances)
			}
			if par.Workers != workers {
				t.Errorf("reported workers = %d, want %d", par.Workers, workers)
			}
		}
	}
}

// TestParallelWorkLimit: the limit still aborts when instances run on
// multiple goroutines.
func TestParallelWorkLimit(t *testing.T) {
	c := testCluster(t, 4, 0)
	c.Workers = 4
	if _, err := c.Run(context.Background(), buildPlan(t, c), Opts{Variants: 1, WorkLimit: 1}); err == nil {
		t.Error("tiny work limit not enforced under parallel execution")
	}
}

func TestWorkLimitPropagates(t *testing.T) {
	c := testCluster(t, 2, 0)
	_, err := c.Run(context.Background(), buildPlan(t, c), Opts{Variants: 1, WorkLimit: 1})
	if err == nil {
		t.Error("tiny work limit not enforced")
	}
}

func TestFragmentSitesByDistribution(t *testing.T) {
	c := testCluster(t, 4, 0)
	plan := buildPlan(t, c)
	for _, f := range plan.Fragments {
		sites, _ := c.fragmentSites(f)
		if f.IsRoot {
			if sites != 1 {
				t.Errorf("root runs at %d sites, want site 0 alone", sites)
			}
			continue
		}
		// The scan fragment is hash-distributed: all sites.
		if sites != 4 {
			t.Errorf("scan fragment runs at %d sites, want 4", sites)
		}
	}
}

// TestDistributedAggregation wires map/exchange/reduce manually and checks
// partial merging across sites.
func TestDistributedAggregation(t *testing.T) {
	c := testCluster(t, 3, 0)
	scan := scanT(t, c)
	split, err := physical.SplitAggCalls(1, []expr.AggCall{
		{Func: expr.AggCount, Name: "n"},
		{Func: expr.AggAvg, Arg: expr.NewColRef(0, types.KindInt, ""), Name: "avg_id"},
	}, types.Fields{
		{Name: "grp", Kind: types.KindInt},
		{Name: "n", Kind: types.KindInt},
		{Name: "avg_id", Kind: types.KindFloat},
	})
	if err != nil {
		t.Fatal(err)
	}
	mapAgg := physical.NewHashAggregate(scan, []int{1}, split.MapCalls, physical.AggMap, split.MapFields)
	ex := physical.NewExchange(mapAgg, physical.SingleDist)
	reduce := physical.NewHashAggregate(ex, []int{0}, split.ReduceCalls, physical.AggReduce, split.ReduceFields)
	var root physical.Node = reduce
	if split.Finalize != nil {
		root = physical.NewProject(reduce, split.Finalize, types.Fields{
			{Name: "grp", Kind: types.KindInt},
			{Name: "n", Kind: types.KindInt},
			{Name: "avg_id", Kind: types.KindFloat},
		})
	}
	res, err := c.Run(context.Background(), fragment.Split(root), Opts{Variants: 1})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Rows) != 4 {
		t.Fatalf("groups = %d", len(res.Rows))
	}
	for _, r := range res.Rows {
		if r[1].Int() != 25 {
			t.Errorf("group %v count = %v, want 25", r[0], r[1])
		}
		// ids for grp g: g, g+4, ..., g+96 → mean = g + 48.
		want := float64(r[0].Int()) + 48
		if r[2].Float() != want {
			t.Errorf("group %v avg = %v, want %v", r[0], r[2], want)
		}
	}
	if res.BytesShipped <= 0 {
		t.Error("no bytes recorded")
	}
}

// TestHandBuiltPlanRunsAsSplit: a hand-built plan that nothing compiled
// runs as fragment.Split leaves it, since splitting compiles every
// operator's expressions. Its placeholders are bound per execution, and
// the rows are the reference ones, computed from the stored rows.
func TestHandBuiltPlanRunsAsSplit(t *testing.T) {
	c := testCluster(t, 3, 0)
	id, grp := expr.NewColRef(0, types.KindInt, "id"), expr.NewColRef(1, types.KindInt, "grp")
	filter := physical.NewFilter(scanT(t, c), expr.NewBinOp(expr.OpAnd,
		expr.NewBinOp(expr.OpEq, grp, expr.NewParam(0, types.KindInt)),
		expr.NewBinOp(expr.OpLt, id, expr.NewLit(types.NewInt(50)))))
	proj := physical.NewProject(filter, []expr.Expr{id, expr.NewBinOp(expr.OpAdd,
		expr.NewBinOp(expr.OpMul, id, expr.NewLit(types.NewInt(10))), expr.NewParam(1, types.KindInt))},
		types.Fields{{Name: "id", Kind: types.KindInt}, {Name: "x", Kind: types.KindInt}})
	plan := fragment.Split(physical.NewExchange(proj, physical.SingleDist))
	for _, args := range [][2]int64{{1, 5}, {3, -7}} {
		res, err := c.Run(context.Background(), plan, Opts{Variants: 1,
			Args: []types.Value{types.NewInt(args[0]), types.NewInt(args[1])}})
		if err != nil {
			t.Fatal(err)
		}
		if res.Compiled != 2 {
			t.Errorf("args %v: compiled %d expressions, want the 2 holding a placeholder", args, res.Compiled)
		}
		var want []string
		for i := int64(0); i < 50; i++ {
			if i%4 == args[0] {
				want = append(want, types.Row{types.NewInt(i), types.NewInt(10*i + args[1])}.String())
			}
		}
		var got []string
		for _, r := range res.Rows {
			got = append(got, r.String())
		}
		sort.Strings(got)
		sort.Strings(want)
		if strings.Join(got, "\n") != strings.Join(want, "\n") {
			t.Errorf("args %v: rows\n%v\nwant\n%v", args, got, want)
		}
	}
}

// replicatedTestCluster is testCluster with backup replicas and a fault
// plan.
func replicatedTestCluster(t *testing.T, sites, backups int, spec string) *Cluster {
	t.Helper()
	c := testCluster(t, sites, backups)
	plan, err := faults.Parse(spec)
	if err != nil {
		t.Fatal(err)
	}
	c.Faults = faults.New(plan)
	return c
}

// TestFailoverToBackupReplica: a crashed site's instances rerun on the
// partition's backup replica; rows are identical to the healthy run and
// the recovery is visible in Result.Retries.
func TestFailoverToBackupReplica(t *testing.T) {
	healthy := testCluster(t, 4, 0)
	want, err := healthy.Run(context.Background(), buildPlan(t, healthy), Opts{Variants: 1})
	if err != nil {
		t.Fatal(err)
	}
	for _, workers := range []int{1, 8} {
		// Site 2 dies while instance ordinal 2 (its scan) is in flight.
		c := replicatedTestCluster(t, 4, 1, "crash=2@2")
		c.Workers = workers
		got, err := c.Run(context.Background(), buildPlan(t, c), Opts{Variants: 1})
		if err != nil {
			t.Fatalf("workers=%d: %v", workers, err)
		}
		if len(got.Rows) != len(want.Rows) {
			t.Fatalf("workers=%d: rows %d, want %d", workers, len(got.Rows), len(want.Rows))
		}
		for i := range want.Rows {
			if got.Rows[i].String() != want.Rows[i].String() {
				t.Fatalf("workers=%d: row %d differs: %s vs %s",
					workers, i, got.Rows[i], want.Rows[i])
			}
		}
		if got.Retries == 0 {
			t.Errorf("workers=%d: no retries recorded", workers)
		}
		if got.Work <= want.Work {
			t.Errorf("workers=%d: work %g not above healthy %g (lost work uncharged)",
				workers, got.Work, want.Work)
		}
		if got.Modeled <= want.Modeled {
			t.Errorf("workers=%d: modeled %v not above healthy %v",
				workers, got.Modeled, want.Modeled)
		}
	}
}

// TestCrashWithoutBackupsFails: zero redundancy turns a crash into a
// clean error naming the lost partition.
func TestCrashWithoutBackupsFails(t *testing.T) {
	c := replicatedTestCluster(t, 4, 0, "crash=1@0")
	_, err := c.Run(context.Background(), buildPlan(t, c), Opts{Variants: 1})
	if err == nil {
		t.Fatal("crash with no backups must fail")
	}
	if !errors.Is(err, faults.ErrSiteCrash) {
		t.Errorf("err = %v, want ErrSiteCrash in chain", err)
	}
	if !strings.Contains(err.Error(), "partition 1") {
		t.Errorf("error does not name the lost partition: %v", err)
	}
}

// TestCancelledContextStopsExecution: a pre-cancelled context returns
// ctx.Err() without running instances.
func TestCancelledContextStopsExecution(t *testing.T) {
	c := testCluster(t, 4, 0)
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	_, err := c.Run(ctx, buildPlan(t, c), Opts{Variants: 1})
	if !errors.Is(err, context.Canceled) {
		t.Errorf("err = %v, want context.Canceled", err)
	}
}
