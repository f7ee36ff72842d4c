package storage_test

import (
	"math"
	"math/rand"
	"reflect"
	"slices"
	"sort"
	"strings"
	"sync"
	"testing"

	"gignite/internal/binder"
	"gignite/internal/catalog"
	"gignite/internal/sql"
	"gignite/internal/ssb"
	"gignite/internal/storage"
	"gignite/internal/tpch"
	"gignite/internal/types"
)

// benchmarkSchema is one benchmark's tables loaded into a 4-site store.
type benchmarkSchema struct {
	cat   *catalog.Catalog
	store *storage.Store
}

var (
	schemasOnce sync.Once
	schemas     []benchmarkSchema
	schemasErr  error
)

// loadedSchemas returns TPC-H and SSB at SF 0.01, each loaded into its own
// 4-site store with its indexes built (as tpch.Setup and ssb.Setup do on
// an engine) and no statistics computed. Tests share them read-only, and
// ComputeStats is idempotent.
func loadedSchemas(tb testing.TB) []benchmarkSchema {
	tb.Helper()
	schemasOnce.Do(func() {
		for _, sc := range []struct {
			ddl, tables, indexDDL []string
			gen                   func(string) ([]types.Row, error)
		}{
			{tpch.DDL(), tpch.TableNames(), tpch.IndexDDL(), tpch.NewGen(0.01).Table},
			{ssb.DDL(), ssb.TableNames(), ssb.IndexDDL(), ssb.NewGen(0.01).Table},
		} {
			cat, store, err := loadSchema(sc.ddl, sc.tables, sc.indexDDL, sc.gen, 4)
			if err != nil {
				schemasErr = err
				return
			}
			schemas = append(schemas, benchmarkSchema{cat, store})
		}
	})
	if schemasErr != nil {
		tb.Fatal(schemasErr)
	}
	return schemas
}

// loadSchema creates a schema's tables, loads them from gen and builds the
// index DDL's indexes.
func loadSchema(ddl, tables, indexDDL []string, gen func(string) ([]types.Row, error), sites int) (*catalog.Catalog, *storage.Store, error) {
	cat, store, err := createTables(ddl, sites)
	if err != nil {
		return nil, nil, err
	}
	for _, name := range tables {
		rows, err := gen(name)
		if err != nil {
			return nil, nil, err
		}
		if err := store.Load(name, rows); err != nil {
			return nil, nil, err
		}
	}
	for _, text := range indexDDL {
		tbl, err := declareIndex(cat, text)
		if err != nil {
			return nil, nil, err
		}
		if err := store.BuildIndexes(tbl.Name); err != nil {
			return nil, nil, err
		}
	}
	return cat, store, nil
}

// createTables runs a schema's CREATE TABLE statements into a new catalog
// and returns it with an empty store over it.
func createTables(ddl []string, sites int) (*catalog.Catalog, *storage.Store, error) {
	cat := catalog.New()
	for _, text := range ddl {
		stmt, err := sql.Parse(text)
		if err != nil {
			return nil, nil, err
		}
		tbl, err := binder.BindCreateTable(stmt.(*sql.CreateTableStmt))
		if err != nil {
			return nil, nil, err
		}
		if err := cat.AddTable(tbl); err != nil {
			return nil, nil, err
		}
	}
	return cat, storage.NewReplicatedStore(cat, sites, 0), nil
}

// declareIndex adds a CREATE INDEX statement's index to its table's
// definition, as the engine does before it builds the index.
func declareIndex(cat *catalog.Catalog, text string) (*catalog.Table, error) {
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
	return tbl, nil
}

// referenceStats is the statistics pass ComputeStats replaced: one hash
// set of values per column, keyed by Value.Hash and probed with
// types.Equal, and min/max by types.Compare, over the partitions in site
// order (partition 0 alone for a replicated table).
func referenceStats(t *testing.T, s *storage.Store, name string) *catalog.TableStats {
	t.Helper()
	td, err := s.Table(name)
	if err != nil {
		t.Fatal(err)
	}
	cols := td.Def.Columns
	distinct := make([]map[uint64][]types.Value, len(cols))
	for i := range distinct {
		distinct[i] = make(map[uint64][]types.Value)
	}
	mins := make([]types.Value, len(cols))
	maxs := make([]types.Value, len(cols))
	var count int64
	limit := s.Sites()
	if td.Def.Replicated {
		limit = 1
	}
	for site := 0; site < limit; site++ {
		rows, err := s.Partition(name, site)
		if err != nil {
			t.Fatal(err)
		}
		for _, r := range rows {
			count++
			for i, v := range r {
				if v.IsNull() {
					continue
				}
				h := v.Hash()
				found := false
				for _, ex := range distinct[i][h] {
					if types.Equal(ex, v) {
						found = true
						break
					}
				}
				if !found {
					distinct[i][h] = append(distinct[i][h], v)
				}
				if mins[i].IsNull() || types.Compare(v, mins[i]) < 0 {
					mins[i] = v
				}
				if maxs[i].IsNull() || types.Compare(v, maxs[i]) > 0 {
					maxs[i] = v
				}
			}
		}
	}
	stats := &catalog.TableStats{
		RowCount: count,
		NDV:      make(map[string]int64, len(cols)),
		Min:      make(map[string]types.Value, len(cols)),
		Max:      make(map[string]types.Value, len(cols)),
	}
	for i, c := range cols {
		var ndv int64
		for _, bucket := range distinct[i] {
			ndv += int64(len(bucket))
		}
		lc := strings.ToLower(c.Name)
		stats.NDV[lc] = ndv
		stats.Min[lc] = mins[i]
		stats.Max[lc] = maxs[i]
	}
	return stats
}

// checkStatsMatchReference computes a table's statistics and compares them
// with referenceStats.
func checkStatsMatchReference(t *testing.T, s *storage.Store, name string) {
	t.Helper()
	want := referenceStats(t, s, name)
	if err := s.ComputeStats(name); err != nil {
		t.Fatal(err)
	}
	td, _ := s.Table(name)
	if got := td.Def.Stats; !reflect.DeepEqual(got, want) {
		t.Errorf("%s: ComputeStats = %+v\nreference     = %+v", name, *got, *want)
	}
}

// oddTable is a table whose columns hold the values whose equality a
// typed pass must get right: -0 and 0, NaNs of two bit patterns, 1 and
// 1.0 in one numeric column, duplicate and empty strings, an all-NULL
// column, sparse and dense ints and bools.
func oddTable(name string, replicated bool) *catalog.Table {
	return &catalog.Table{
		Name: name,
		Columns: []catalog.Column{
			{Name: "k", Kind: types.KindInt},
			{Name: "f", Kind: types.KindFloat},
			{Name: "num", Kind: types.KindFloat},
			{Name: "s", Kind: types.KindString},
			{Name: "nothing", Kind: types.KindInt},
			{Name: "sparse", Kind: types.KindInt},
			{Name: "d", Kind: types.KindDate},
			{Name: "b", Kind: types.KindBool},
		},
		PrimaryKey: []string{"k"},
		Replicated: replicated,
	}
}

// oddRows returns n rows of oddTable. Partition 0's first row (row first
// of a partitioned table, row 0 of a replicated one) starts every cycle,
// so the first value scanned is never a NaN: a NaN min or max would be
// the same in both passes but unequal to itself under reflect.DeepEqual.
func oddRows(n, first int) []types.Row {
	nan1 := math.Float64frombits(0x7ff8000000000001)
	nan2 := math.Float64frombits(0xfff8000000000002)
	floats := []types.Value{
		types.NewFloat(1.5), types.NewFloat(math.Copysign(0, -1)), types.NewFloat(0),
		types.NewFloat(nan1), types.NewFloat(nan2), types.NewFloat(2), types.NewFloat(-3.25),
		types.NewFloat(nan1), types.Null, types.NewFloat(math.Copysign(0, -1)),
	}
	nums := []types.Value{
		types.NewInt(1), types.NewFloat(1), types.NewFloat(2.5), types.NewInt(3),
		types.NewFloat(3), types.NewInt(-1), types.Null,
	}
	strs := []string{"pending", "", "final", "pending", "ironic", "", "Final"}
	rows := make([]types.Row, n)
	for i := range rows {
		c := i - first + 10*n // ≥ 0
		sparse := types.NewInt(int64(c%11) * 1_000_003)
		if c%5 == 0 {
			sparse = types.Null
		}
		rows[i] = types.Row{
			types.NewInt(int64(i)),
			floats[c%len(floats)],
			nums[c%len(nums)],
			types.NewString(strs[c%len(strs)]),
			types.Null,
			sparse,
			types.NewDate(int64(9000 + c%37)),
			types.NewBool(c%3 == 1),
		}
	}
	return rows
}

// TestComputeStatsMatchesReference: ComputeStats gives exactly the
// statistics of the hash-set pass it replaced, on every TPC-H and SSB
// table at SF 0.01 and on tables whose values test its equality rules.
func TestComputeStatsMatchesReference(t *testing.T) {
	for _, sc := range loadedSchemas(t) {
		for _, name := range sc.cat.Tables() {
			checkStatsMatchReference(t, sc.store, name)
		}
	}

	cat := catalog.New()
	for _, tbl := range []*catalog.Table{oddTable("odd", false), oddTable("oddrep", true), oddTable("empty", false)} {
		if err := cat.AddTable(tbl); err != nil {
			t.Fatal(err)
		}
	}
	const sites = 4
	s := storage.NewReplicatedStore(cat, sites, 0)
	first := 0
	for storage.PartitionOf(types.NewInt(int64(first)), sites) != 0 {
		first++
	}
	if err := s.Load("odd", oddRows(500, first)); err != nil {
		t.Fatal(err)
	}
	if err := s.Load("oddrep", oddRows(300, 0)); err != nil {
		t.Fatal(err)
	}
	for _, name := range []string{"odd", "oddrep", "empty"} {
		checkStatsMatchReference(t, s, name)
	}
	// The fixture reaches the cases it is for.
	td, _ := s.Table("odd")
	st := td.Def.Stats
	for col, want := range map[string]int64{
		"f":       6, // 1.5, ±0, two NaNs, 2, -3.25
		"num":     4, // 1 = 1.0, 2.5, 3 = 3.0, -1
		"s":       5,
		"nothing": 0,
		"b":       2,
	} {
		if got := st.NDV[col]; got != want {
			t.Errorf("odd: NDV(%s) = %d, want %d", col, got, want)
		}
	}
	if !st.Min["nothing"].IsNull() || st.Min["f"].F != -3.25 || types.Compare(st.Max["num"], types.NewInt(3)) != 0 {
		t.Errorf("odd: min(nothing) = %v, min(f) = %v, max(num) = %v", st.Min["nothing"], st.Min["f"], st.Max["num"])
	}
}

// stableOrder is the index order a stable sort of a partition's
// positions by the index's columns gives.
func stableOrder(rows []types.Row, def *catalog.Table, idx catalog.Index) []int {
	keys := make([]types.SortKey, len(idx.Columns))
	for i, cn := range idx.Columns {
		keys[i] = types.SortKey{Col: def.ColumnIndex(cn)}
	}
	perm := make([]int, len(rows))
	for i := range perm {
		perm[i] = i
	}
	sort.SliceStable(perm, func(a, b int) bool {
		return types.CompareRows(rows[perm[a]], rows[perm[b]], keys) < 0
	})
	return perm
}

// checkIndexesMatchStableSort compares every index of a table, at every
// partition, with stableOrder.
func checkIndexesMatchStableSort(t *testing.T, s *storage.Store, name string) {
	t.Helper()
	td, err := s.Table(name)
	if err != nil {
		t.Fatal(err)
	}
	for _, idx := range td.Def.Indexes {
		for site := 0; site < s.Sites(); site++ {
			rows, order, err := s.IndexScanAt(name, idx.Name, site, site)
			if err != nil {
				t.Fatal(err)
			}
			if want := stableOrder(rows, td.Def, idx); !slices.Equal(order, want) {
				t.Errorf("%s.%s at site %d: order differs from a stable sort's", name, idx.Name, site)
			}
		}
	}
}

// TestIndexOrderMatchesStableSort: every index permutation equals a
// stable sort's, for every TPC-H and SSB index at SF 0.01 and for random
// rows with duplicate keys, NULLs, two-column keys and non-int key
// columns, both built from scratch and extended by a second Load.
func TestIndexOrderMatchesStableSort(t *testing.T) {
	for _, sc := range loadedSchemas(t) {
		for _, name := range sc.cat.Tables() {
			checkIndexesMatchStableSort(t, sc.store, name)
		}
	}

	for _, replicated := range []bool{false, true} {
		cat := catalog.New()
		err := cat.AddTable(&catalog.Table{
			Name: "r",
			Columns: []catalog.Column{
				{Name: "id", Kind: types.KindInt},
				{Name: "a", Kind: types.KindInt},
				{Name: "b", Kind: types.KindInt},
				{Name: "d", Kind: types.KindDate},
				{Name: "s", Kind: types.KindString},
				{Name: "f", Kind: types.KindFloat},
			},
			Indexes: []catalog.Index{
				{Name: "by_a", Columns: []string{"a"}},        // NULLs
				{Name: "by_b", Columns: []string{"b"}},        // duplicate ints
				{Name: "by_b_d", Columns: []string{"b", "d"}}, // int, date
				{Name: "by_s", Columns: []string{"s"}},
				{Name: "by_s_b", Columns: []string{"s", "b"}},
				{Name: "by_f", Columns: []string{"f"}},
				{Name: "by_b_d_a", Columns: []string{"b", "d", "a"}},
			},
			PrimaryKey: []string{"id"},
			Replicated: replicated,
		})
		if err != nil {
			t.Fatal(err)
		}
		s := storage.NewReplicatedStore(cat, 4, 0)
		rng := rand.New(rand.NewSource(7))
		randomRows := func(n, from int) []types.Row {
			rows := make([]types.Row, n)
			for i := range rows {
				a := types.NewInt(int64(rng.Intn(50)))
				if rng.Intn(7) == 0 {
					a = types.Null
				}
				rows[i] = types.Row{
					types.NewInt(int64(from + i)),
					a,
					types.NewInt(int64(rng.Intn(20))),
					types.NewDate(int64(rng.Intn(5))),
					types.NewString(string(rune('a' + rng.Intn(8)))),
					types.NewFloat(float64(rng.Intn(30)) / 4),
				}
			}
			return rows
		}
		if err := s.Load("r", randomRows(3000, 0)); err != nil {
			t.Fatal(err)
		}
		checkIndexesMatchStableSort(t, s, "r")
		if err := s.Load("r", randomRows(1000, 3000)); err != nil {
			t.Fatal(err)
		}
		checkIndexesMatchStableSort(t, s, "r")
	}
}

// BenchmarkAnalyze times ANALYZE of every TPC-H table at SF 0.01 on 4
// sites (Engine.Analyze's ComputeStats calls).
func BenchmarkAnalyze(b *testing.B) {
	sc := loadedSchemas(b)[0]
	tables := sc.cat.Tables()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for _, name := range tables {
			if err := sc.store.ComputeStats(name); err != nil {
				b.Fatal(err)
			}
		}
	}
}

// BenchmarkBuildIndexes times building TPC-H's 16 indexes at SF 0.01 on 4
// sites over freshly loaded tables (the CREATE INDEX statements of
// tpch.Setup). Loading is not timed.
func BenchmarkBuildIndexes(b *testing.B) {
	gen := tpch.NewGen(0.01)
	data := make(map[string][]types.Row)
	for _, name := range tpch.TableNames() {
		rows, err := gen.Table(name)
		if err != nil {
			b.Fatal(err)
		}
		data[name] = rows
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		b.StopTimer()
		cat, store, err := createTables(tpch.DDL(), 4)
		if err != nil {
			b.Fatal(err)
		}
		for _, name := range tpch.TableNames() {
			if err := store.Load(name, data[name]); err != nil {
				b.Fatal(err)
			}
		}
		var indexed []string
		for _, text := range tpch.IndexDDL() {
			tbl, err := declareIndex(cat, text)
			if err != nil {
				b.Fatal(err)
			}
			indexed = append(indexed, tbl.Name)
		}
		b.StartTimer()
		for _, name := range indexed {
			if err := store.BuildIndexes(name); err != nil {
				b.Fatal(err)
			}
		}
	}
}
