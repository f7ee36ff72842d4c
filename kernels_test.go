package gignite_test

import (
	"math"
	"slices"
	"sync"
	"testing"

	"gignite"
	"gignite/internal/expr"
	"gignite/internal/fragment"
	"gignite/internal/harness"
	"gignite/internal/physical"
	"gignite/internal/tpch"
)

// Expression kernels (DESIGN.md §7): compiled once per plan, shared by
// every execution and instance, and no slower to allocate than the
// interpreter they replaced.

// icpm is the benchmark's engine: IC+M on four sites.
func icpm(sf float64) gignite.Option {
	return gignite.WithConfig(harness.ConfigFor(harness.ICPM, 4, sf))
}

// TestPreparedExecutionCompilesNothing: a prepared statement's plan is
// compiled once, when it is planned. Executing it again compiles nothing;
// a parameterised lookup recompiles only the condition its argument was
// substituted into.
func TestPreparedExecutionCompilesNothing(t *testing.T) {
	e := openTPCH(t, 0.001, 4, icpm(0.001))
	for _, c := range []struct {
		name string
		sql  string
		args []gignite.Value
		want int
	}{
		{"Q1", tpch.QueryByID(1).SQL, nil, 0},
		{"Q6", tpch.QueryByID(6).SQL, nil, 0},
		{"lookup", `SELECT c_custkey, c_name, c_acctbal FROM customer WHERE c_custkey = ?`,
			[]gignite.Value{gignite.NewInt(7)}, 1},
	} {
		stmt, err := e.Prepare(c.sql)
		if err != nil {
			t.Fatal(err)
		}
		for run := 0; run < 2; run++ {
			res, err := stmt.Query(c.args...)
			if err != nil {
				t.Fatal(err)
			}
			if got := res.Compiled(); got != c.want {
				t.Errorf("%s run %d: compiled %d expressions, want %d", c.name, run, got, c.want)
			}
		}
	}
}

// q6Allocs is the most heap objects one execution of prepared TPC-H Q6
// may make (IC+M, 4 sites, SF 0.001, one worker): about 10% above the
// measured 201. The kernels and the split plan live with the cached
// entry, an instance's fixed state comes from its wave's slabs, the
// execution is recorded once, in its ledger, an attempt's batches are
// values in one slice, and its scratch is borrowed (exec.Lender). The
// interpreter made 561, splitting the plan per execution 328, the simnet
// trace's maps 238, a heap batch per shipment 217, and heap scratch 209.
const q6Allocs = 221

func TestPreparedQ6Allocations(t *testing.T) {
	e := openTPCH(t, 0.001, 4, icpm(0.001), parallelism(1))
	stmt, err := e.Prepare(tpch.QueryByID(6).SQL)
	if err != nil {
		t.Fatal(err)
	}
	got := testing.AllocsPerRun(10, func() {
		if _, err := stmt.Query(); err != nil {
			t.Fatal(err)
		}
	})
	t.Logf("prepared Q6: %.0f allocs per execution (budget %d)", got, q6Allocs)
	if got > q6Allocs {
		t.Errorf("prepared Q6 allocated %.0f objects per execution, budget %d", got, q6Allocs)
	}
}

// TestConcurrentPreparedKernels: eight goroutines execute one prepared
// statement at once, so every instance of every execution runs the one
// split plan and its compiled kernels (run under -race by make race-cpu).
// Each result is the sequential one. In the parameterised case every
// goroutine binds a key of its own into kernels of its own; afterwards
// the shared split reads as before — its text, its operators and their
// kernels — and a further execution still compiles only its bound one.
func TestConcurrentPreparedKernels(t *testing.T) {
	e := openTPCH(t, 0.001, 4, icpm(0.001))
	for _, c := range []struct {
		name string
		sql  string
		args func(i int) []gignite.Value
	}{
		{"Q1", tpch.QueryByID(1).SQL, func(int) []gignite.Value { return nil }},
		{"lookup", lookups[2].sql, func(i int) []gignite.Value { return []gignite.Value{gignite.NewInt(int64(i + 1))} }},
	} {
		t.Run(c.name, func(t *testing.T) {
			stmt, err := e.Prepare(c.sql)
			if err != nil {
				t.Fatal(err)
			}
			const clients = 8
			want := make([][]string, clients)
			compiled := 0
			for i := range want {
				res, err := stmt.Query(c.args(i)...)
				if err != nil {
					t.Fatal(err)
				}
				want[i], compiled = rowStrings(res), res.Compiled()
				if len(want[i]) == 0 {
					t.Fatalf("client %d's statement returns no rows: the test would compare nothing", i)
				}
			}
			fp := stmt.CachedSplit()
			text, state := splitState(fp)
			var wg sync.WaitGroup
			for i := 0; i < clients; i++ {
				wg.Add(1)
				go func() {
					defer wg.Done()
					for r := 0; r < 3; r++ {
						res, err := stmt.Query(c.args(i)...)
						if err != nil {
							t.Error(err)
							return
						}
						if got := rowStrings(res); !slices.Equal(got, want[i]) {
							t.Errorf("client %d: rows %v, want %v", i, got, want[i])
						}
					}
				}()
			}
			wg.Wait()
			if stmt.CachedSplit() != fp {
				t.Fatal("the statement's split was replaced")
			}
			if gotText, gotState := splitState(fp); gotText != text || !slices.Equal(gotState, state) {
				t.Errorf("executions changed the shared split:\n%s\nwas\n%s", gotText, text)
			}
			res, err := stmt.Query(c.args(0)...)
			if err != nil {
				t.Fatal(err)
			}
			if res.Compiled() != compiled {
				t.Errorf("compiled %d expressions after the concurrent runs, %d before", res.Compiled(), compiled)
			}
		})
	}
}

// splitState is what no execution may change in a split plan it shares:
// its text, and every operator it reaches with that operator's compiled
// kernels, in walk order.
func splitState(fp *fragment.Plan) (string, []any) {
	var state []any
	for _, f := range fp.Fragments {
		physical.Walk(f.Root, func(n physical.Node) bool {
			state = append(state, n)
			switch t := n.(type) {
			case *physical.Filter:
				state = append(state, t.Predicate())
			case *physical.Join:
				state = append(state, t.Residual())
			case *physical.Project:
				state = appendKernels(state, t.Kernels())
			case *physical.HashAggregate:
				state = appendKernels(state, t.Args())
			case *physical.SortAggregate:
				state = appendKernels(state, t.Args())
			}
			return true
		})
	}
	return fp.Format(nil, fragment.Estimates), state
}

func appendKernels(state []any, ks []*expr.Scalar) []any {
	for _, k := range ks {
		state = append(state, k)
	}
	return state
}

// TestFloatModuloByFractionIsNull: a float % divisor in (-1, 1) truncates
// to a zero divisor, which is NULL as a literal zero divisor is. It used
// to panic with an integer divide by zero — in a fragment goroutine when
// a column was the dividend, in the caller's when constant folding met it
// — and kill the process.
func TestFloatModuloByFractionIsNull(t *testing.T) {
	e := openTPCH(t, 0.001, 4, icpm(0.001))
	for _, c := range []struct {
		q    string
		rows int // every one of them NULL
	}{
		{`SELECT l_quantity % 0.5 FROM lineitem LIMIT 1`, 1},
		{`SELECT 7 % 0.5 FROM region`, 5},
		{`SELECT r_regionkey % -0.9 FROM region`, 5},
		{`SELECT r_regionkey FROM region WHERE r_regionkey % 0.5 = 0`, 0},
	} {
		res, err := e.Query(c.q)
		if err != nil {
			t.Fatalf("%s: %v", c.q, err)
		}
		ref, err := e.ReferenceQuery(c.q)
		if err != nil {
			t.Fatalf("reference %s: %v", c.q, err)
		}
		for _, rows := range [][]gignite.Row{res.Rows, ref} {
			if len(rows) != c.rows {
				t.Errorf("%s: %d rows, want %d", c.q, len(rows), c.rows)
			}
			for _, r := range rows {
				if !r[0].IsNull() {
					t.Errorf("%s: %v, want NULL", c.q, r)
				}
			}
		}
	}
	// Where the divisor truncates to a non-zero integer, % still truncates.
	res, err := e.Query(`SELECT 7.5 % 2.5 FROM region LIMIT 1`)
	if err != nil {
		t.Fatal(err)
	}
	if v := res.Rows[0][0]; v.Float() != 1 {
		t.Errorf("7.5 %% 2.5 = %v, want 1", v)
	}
}

// TestDistinctFloatSumIsDeterministic: SUM/AVG(DISTINCT) over floats adds
// the distinct values up in arrival order, which the executor keeps fixed,
// so repeated runs agree to the bit at every worker count. Summed in map
// order it gave 12 different results in 20 runs.
func TestDistinctFloatSumIsDeterministic(t *testing.T) {
	const q = `SELECT SUM(DISTINCT l_extendedprice * (1 - l_discount)),
		AVG(DISTINCT l_extendedprice * (1 - l_discount)) FROM lineitem`
	for _, workers := range []int{1, 8} {
		e := openTPCH(t, 0.001, 4, icpm(0.001), parallelism(workers))
		var sum, avg uint64
		for run := 0; run < 20; run++ {
			res, err := e.Query(q)
			if err != nil {
				t.Fatal(err)
			}
			s, a := math.Float64bits(res.Rows[0][0].Float()), math.Float64bits(res.Rows[0][1].Float())
			if run == 0 {
				sum, avg = s, a
			} else if s != sum || a != avg {
				t.Fatalf("workers=%d run %d: SUM %x AVG %x, first run %x %x", workers, run, s, a, sum, avg)
			}
		}
		ref := func() (uint64, uint64) {
			rows, err := e.ReferenceQuery(q)
			if err != nil {
				t.Fatal(err)
			}
			return math.Float64bits(rows[0][0].Float()), math.Float64bits(rows[0][1].Float())
		}
		s0, a0 := ref()
		for run := 0; run < 5; run++ {
			if s, a := ref(); s != s0 || a != a0 {
				t.Fatalf("reference run %d: SUM %x AVG %x, first %x %x", run, s, a, s0, a0)
			}
		}
	}
}
