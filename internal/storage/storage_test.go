package storage

import (
	"math/rand"
	"sort"
	"testing"
	"testing/quick"

	"gignite/internal/catalog"
	"gignite/internal/types"
)

func newTestStore(t *testing.T, sites int) *Store {
	t.Helper()
	cat := catalog.New()
	err := cat.AddTable(&catalog.Table{
		Name: "emp",
		Columns: []catalog.Column{
			{Name: "id", Kind: types.KindInt},
			{Name: "name", Kind: types.KindString},
			{Name: "dept", Kind: types.KindInt},
		},
		PrimaryKey: []string{"id"},
		Indexes: []catalog.Index{
			{Name: "emp_pk", Columns: []string{"id"}},
			{Name: "emp_dept", Columns: []string{"dept", "id"}},
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	err = cat.AddTable(&catalog.Table{
		Name:       "region",
		Columns:    []catalog.Column{{Name: "r_key", Kind: types.KindInt}},
		Replicated: true,
	})
	if err != nil {
		t.Fatal(err)
	}
	return NewReplicatedStore(cat, sites, 0)
}

func empRows(n int) []types.Row {
	out := make([]types.Row, n)
	for i := 0; i < n; i++ {
		out[i] = types.Row{
			types.NewInt(int64(i)),
			types.NewString("emp" + string(rune('a'+i%26))),
			types.NewInt(int64(i % 5)),
		}
	}
	return out
}

func TestLoadPartitionsCompleteAndDisjoint(t *testing.T) {
	s := newTestStore(t, 4)
	rows := empRows(100)
	if err := s.Load("emp", rows); err != nil {
		t.Fatal(err)
	}
	seen := make(map[int64]int)
	for site := 0; site < 4; site++ {
		part, err := s.Partition("emp", site)
		if err != nil {
			t.Fatal(err)
		}
		for _, r := range part {
			seen[r[0].Int()]++
		}
		// Each row must be in the partition its affinity hash dictates.
		for _, r := range part {
			if got := PartitionOf(r[0], 4); got != site {
				t.Errorf("row id=%d at site %d, hash says %d", r[0].Int(), site, got)
			}
		}
	}
	if len(seen) != 100 {
		t.Fatalf("partitions cover %d of 100 rows", len(seen))
	}
	for id, n := range seen {
		if n != 1 {
			t.Errorf("row %d appears %d times", id, n)
		}
	}
}

func TestReplicatedVisibleEverywhere(t *testing.T) {
	s := newTestStore(t, 4)
	rows := []types.Row{{types.NewInt(1)}, {types.NewInt(2)}}
	if err := s.Load("region", rows); err != nil {
		t.Fatal(err)
	}
	for site := 0; site < 4; site++ {
		part, err := s.Partition("region", site)
		if err != nil {
			t.Fatal(err)
		}
		if len(part) != 2 {
			t.Errorf("site %d sees %d replicated rows", site, len(part))
		}
	}
}

func TestLoadValidatesWidth(t *testing.T) {
	s := newTestStore(t, 2)
	if err := s.Load("emp", []types.Row{{types.NewInt(1)}}); err == nil {
		t.Error("accepted short row")
	}
	if err := s.Load("missing", nil); err == nil {
		t.Error("accepted unknown table")
	}
}

func TestIndexScanOrder(t *testing.T) {
	s := newTestStore(t, 2)
	// Insert in reverse order so index ordering is observable.
	rows := empRows(50)
	for i, j := 0, len(rows)-1; i < j; i, j = i+1, j-1 {
		rows[i], rows[j] = rows[j], rows[i]
	}
	if err := s.Load("emp", rows); err != nil {
		t.Fatal(err)
	}
	if err := s.BuildIndexes("emp"); err != nil {
		t.Fatal(err)
	}
	for site := 0; site < 2; site++ {
		got, err := scanIndex(s, "emp", "EMP_PK", site, site)
		if err != nil {
			t.Fatal(err)
		}
		for i := 1; i < len(got); i++ {
			if got[i-1][0].Int() > got[i][0].Int() {
				t.Fatalf("site %d index scan out of order at %d", site, i)
			}
		}
	}
	// Composite index sorts by (dept, id).
	got, err := scanIndex(s, "emp", "emp_dept", 0, 0)
	if err != nil {
		t.Fatal(err)
	}
	for i := 1; i < len(got); i++ {
		d0, d1 := got[i-1][2].Int(), got[i][2].Int()
		if d0 > d1 || (d0 == d1 && got[i-1][0].Int() > got[i][0].Int()) {
			t.Fatalf("composite index out of order at %d", i)
		}
	}
}

// scanIndex reads one partition in index order, as an IndexScan does.
func scanIndex(s *Store, name, index string, partition, host int) ([]types.Row, error) {
	rows, order, err := s.IndexScanAt(name, index, partition, host)
	if err != nil {
		return nil, err
	}
	out := make([]types.Row, len(order))
	for i, ri := range order {
		out[i] = rows[ri]
	}
	return out, nil
}

// TestIndexScanSharesPartition: an index scan hands out the partition the
// store holds and the index's own order, so it copies and allocates
// nothing per scan.
func TestIndexScanSharesPartition(t *testing.T) {
	s := newTestStore(t, 2)
	if err := s.Load("emp", empRows(50)); err != nil {
		t.Fatal(err)
	}
	if err := s.BuildIndexes("emp"); err != nil {
		t.Fatal(err)
	}
	part, err := s.PartitionAt("emp", 1, 1)
	if err != nil {
		t.Fatal(err)
	}
	rows, order, err := s.IndexScanAt("emp", "emp_pk", 1, 1)
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != len(part) || len(order) != len(part) || &rows[0] != &part[0] {
		t.Fatalf("index scan returned %d rows / %d positions, not the %d-row partition", len(rows), len(order), len(part))
	}
	if allocs := testing.AllocsPerRun(10, func() { _, _, _ = s.IndexScanAt("emp", "emp_pk", 1, 1) }); allocs != 0 {
		t.Errorf("IndexScanAt allocated %.0f objects per scan, want 0", allocs)
	}
}

func TestIndexScanErrors(t *testing.T) {
	s := newTestStore(t, 2)
	if err := s.Load("emp", empRows(5)); err != nil {
		t.Fatal(err)
	}
	// An index declared after the load is unusable until BuildIndexes.
	td, err := s.Table("emp")
	if err != nil {
		t.Fatal(err)
	}
	td.Def.Indexes = append(td.Def.Indexes, catalog.Index{Name: "emp_name", Columns: []string{"name"}})
	if _, err := scanIndex(s, "emp", "emp_name", 0, 0); err == nil {
		t.Error("index scan before BuildIndexes succeeded")
	}
	if err := s.BuildIndexes("emp"); err != nil {
		t.Fatal(err)
	}
	if _, err := scanIndex(s, "emp", "emp_name", 0, 0); err != nil {
		t.Errorf("index scan after BuildIndexes: %v", err)
	}
	if _, err := scanIndex(s, "emp", "nope", 0, 0); err == nil {
		t.Error("scan of unknown index succeeded")
	}
	if _, err := scanIndex(s, "emp", "emp_pk", 9, 9); err == nil {
		t.Error("scan of out-of-range site succeeded")
	}
	if _, err := s.Partition("emp", -1); err == nil {
		t.Error("negative site accepted")
	}
}

// TestLoadInvalidatesIndexes: a Load replaces every declared index with
// one over the table's new content before it returns, so no reader finds
// a stale index or none at all, and no BuildIndexes call is needed.
func TestLoadInvalidatesIndexes(t *testing.T) {
	s := newTestStore(t, 1)
	if err := s.Load("emp", empRows(5)); err != nil {
		t.Fatal(err)
	}
	more := empRows(10)[5:]
	for i := range more {
		more[i][0] = types.NewInt(int64(-i))
	}
	if err := s.Load("emp", more); err != nil {
		t.Fatal(err)
	}
	for _, index := range []string{"emp_pk", "emp_dept"} {
		got, err := scanIndex(s, "emp", index, 0, 0)
		if err != nil {
			t.Fatalf("%s after Load: %v", index, err)
		}
		if len(got) != 10 {
			t.Fatalf("%s covers %d rows, want 10", index, len(got))
		}
	}
	got, _ := scanIndex(s, "emp", "emp_pk", 0, 0)
	for i := 1; i < len(got); i++ {
		if got[i-1][0].Int() > got[i][0].Int() {
			t.Fatalf("emp_pk out of order at %d after the second Load", i)
		}
	}
}

// TestLoadExtendsIndexesAsARebuildWould: after every one of many random
// batches — duplicate keys, NULL keys, an index on a replicated table,
// some batches empty — each index's permutation at each site equals a
// from-scratch stable sort of the partition, and a permutation a reader
// took before the batch still reads as it did.
func TestLoadExtendsIndexesAsARebuildWould(t *testing.T) {
	const sites = 3
	cat := catalog.New()
	cols := []catalog.Column{
		{Name: "k", Kind: types.KindInt},
		{Name: "g", Kind: types.KindInt},
		{Name: "s", Kind: types.KindString},
	}
	indexes := []catalog.Index{
		{Name: "by_g", Columns: []string{"g"}},
		{Name: "by_s_g", Columns: []string{"s", "g"}},
	}
	tables := map[string]*catalog.Table{
		"part": {Name: "part", Columns: cols, PrimaryKey: []string{"k"}, Indexes: indexes},
		"repl": {Name: "repl", Columns: cols, Replicated: true, Indexes: indexes},
	}
	for _, tbl := range tables {
		if err := cat.AddTable(tbl); err != nil {
			t.Fatal(err)
		}
	}
	s := NewReplicatedStore(cat, sites, 0)
	rng := rand.New(rand.NewSource(7))
	group := func() types.Value {
		if rng.Intn(5) == 0 {
			return types.Null
		}
		return types.NewInt(int64(rng.Intn(6)))
	}
	next := 0
	for batch := 0; batch < 40; batch++ {
		rows := make([]types.Row, rng.Intn(4)*rng.Intn(12))
		for i := range rows {
			str := types.NewString(string(rune('a' + rng.Intn(3))))
			if rng.Intn(6) == 0 {
				str = types.Null
			}
			rows[i] = types.Row{types.NewInt(int64(next)), group(), str}
			next++
		}
		for _, table := range []string{"part", "repl"} {
			type held struct {
				rows  []types.Row
				order []int
				want  []int
			}
			var before []held
			for _, idx := range indexes {
				for site := 0; site < sites; site++ {
					if r, o, err := s.IndexScanAt(table, idx.Name, site, site); err == nil {
						before = append(before, held{r, o, append([]int(nil), o...)})
					}
				}
			}
			if err := s.Load(table, rows); err != nil {
				t.Fatal(err)
			}
			for _, h := range before {
				for i, pos := range h.order {
					if pos != h.want[i] {
						t.Fatalf("batch %d: %s: Load rewrote a permutation a reader held", batch, table)
					}
				}
			}
			for _, idx := range indexes {
				keys := make([]types.SortKey, len(idx.Columns))
				for i, c := range idx.Columns {
					keys[i] = types.SortKey{Col: tables[table].ColumnIndex(c)}
				}
				for site := 0; site < sites; site++ {
					part, order, err := s.IndexScanAt(table, idx.Name, site, site)
					if err != nil {
						t.Fatal(err)
					}
					want := make([]int, len(part))
					for i := range want {
						want[i] = i
					}
					sort.SliceStable(want, func(a, b int) bool {
						return types.CompareRows(part[want[a]], part[want[b]], keys) < 0
					})
					if len(order) != len(want) {
						t.Fatalf("batch %d: %s.%s site %d: %d positions for %d rows", batch, table, idx.Name, site, len(order), len(want))
					}
					for i := range want {
						if order[i] != want[i] {
							t.Fatalf("batch %d: %s.%s site %d: position %d is row %d, a rebuild gives row %d",
								batch, table, idx.Name, site, i, order[i], want[i])
						}
					}
				}
			}
		}
	}
}

// TestBuildIndexesBuildsOnlyMissing: BuildIndexes sorts the indexes
// declared since the last Load and leaves the built ones alone.
func TestBuildIndexesBuildsOnlyMissing(t *testing.T) {
	s := newTestStore(t, 2)
	if err := s.Load("emp", empRows(20)); err != nil {
		t.Fatal(err)
	}
	_, before, err := s.IndexScanAt("emp", "emp_pk", 0, 0)
	if err != nil {
		t.Fatal(err)
	}
	td, err := s.Table("emp")
	if err != nil {
		t.Fatal(err)
	}
	td.Def.Indexes = append(td.Def.Indexes, catalog.Index{Name: "emp_name", Columns: []string{"name"}})
	if err := s.BuildIndexes("emp"); err != nil {
		t.Fatal(err)
	}
	_, after, err := s.IndexScanAt("emp", "emp_pk", 0, 0)
	if err != nil {
		t.Fatal(err)
	}
	if &after[0] != &before[0] {
		t.Error("BuildIndexes rebuilt emp_pk, which was already built")
	}
	if _, _, err := s.IndexScanAt("emp", "emp_name", 0, 0); err != nil {
		t.Errorf("emp_name after BuildIndexes: %v", err)
	}
}

func TestComputeStats(t *testing.T) {
	s := newTestStore(t, 4)
	if err := s.Load("emp", empRows(100)); err != nil {
		t.Fatal(err)
	}
	if err := s.ComputeStats("emp"); err != nil {
		t.Fatal(err)
	}
	td, _ := s.Table("emp")
	tb := td.Def
	if tb.Stats == nil {
		t.Fatal("stats not set")
	}
	if tb.Stats.RowCount != 100 {
		t.Errorf("RowCount = %d", tb.Stats.RowCount)
	}
	if got := tb.Stats.NDVOf("id"); got != 100 {
		t.Errorf("NDV(id) = %d", got)
	}
	if got := tb.Stats.NDVOf("dept"); got != 5 {
		t.Errorf("NDV(dept) = %d", got)
	}
	if mn := tb.Stats.Min["id"]; mn.Int() != 0 {
		t.Errorf("Min(id) = %v", mn)
	}
	if mx := tb.Stats.Max["id"]; mx.Int() != 99 {
		t.Errorf("Max(id) = %v", mx)
	}
}

// TestPartitioningProperty: for any values and any site count, partitions
// are complete (every row lands somewhere valid) and placement is
// deterministic.
func TestPartitioningProperty(t *testing.T) {
	f := func(keys []int64, sitesRaw uint8) bool {
		sites := int(sitesRaw%8) + 1
		for _, k := range keys {
			v := types.NewInt(k)
			p := PartitionOf(v, sites)
			if p < 0 || p >= sites {
				return false
			}
			if p != PartitionOf(v, sites) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestPartitionOfSingleSite(t *testing.T) {
	if PartitionOf(types.NewInt(12345), 1) != 0 {
		t.Error("single-site partition != 0")
	}
	if PartitionOf(types.NewInt(12345), 0) != 0 {
		t.Error("zero-site partition != 0")
	}
}

// newReplicatedTestStore mirrors newTestStore with backup partitions.
func newReplicatedTestStore(t *testing.T, sites, backups int) *Store {
	t.Helper()
	s := newTestStore(t, sites)
	return NewReplicatedStore(s.cat, sites, backups)
}

func TestReplicaChains(t *testing.T) {
	s := newReplicatedTestStore(t, 4, 1)
	if s.Backups() != 1 {
		t.Fatalf("backups = %d", s.Backups())
	}
	for p := 0; p < 4; p++ {
		chain := s.ReplicaSites(p)
		want := []int{p, (p + 1) % 4}
		if len(chain) != 2 || chain[0] != want[0] || chain[1] != want[1] {
			t.Errorf("partition %d chain = %v, want %v", p, chain, want)
		}
		for site := 0; site < 4; site++ {
			holds := site == want[0] || site == want[1]
			if s.HoldsReplica(p, site) != holds {
				t.Errorf("HoldsReplica(%d, %d) = %v", p, site, !holds)
			}
		}
	}
	// Backups are capped at sites-1.
	if got := NewReplicatedStore(catalog.New(), 3, 99).Backups(); got != 2 {
		t.Errorf("capped backups = %d, want 2", got)
	}
}

func TestPartitionAtReadsFromBackup(t *testing.T) {
	s := newReplicatedTestStore(t, 4, 1)
	if err := s.Load("emp", empRows(100)); err != nil {
		t.Fatal(err)
	}
	for p := 0; p < 4; p++ {
		owner, err := s.PartitionAt("emp", p, p)
		if err != nil {
			t.Fatal(err)
		}
		backup, err := s.PartitionAt("emp", p, (p+1)%4)
		if err != nil {
			t.Fatalf("backup read of partition %d: %v", p, err)
		}
		if len(owner) != len(backup) {
			t.Fatalf("partition %d: owner %d rows, backup %d rows", p, len(owner), len(backup))
		}
		for i := range owner {
			if owner[i].String() != backup[i].String() {
				t.Fatalf("partition %d row %d differs across replicas", p, i)
			}
		}
		// A site outside the chain must refuse the read.
		if _, err := s.PartitionAt("emp", p, (p+2)%4); err == nil {
			t.Errorf("partition %d readable from non-replica site", p)
		}
	}
	// Replicated tables are readable from any host.
	if err := s.Load("region", []types.Row{{types.NewInt(1)}}); err != nil {
		t.Fatal(err)
	}
	for host := 0; host < 4; host++ {
		rows, err := s.PartitionAt("region", 0, host)
		if err != nil || len(rows) != 1 {
			t.Errorf("replicated read at host %d: rows=%d err=%v", host, len(rows), err)
		}
	}
}

func TestIndexScanAtFromBackup(t *testing.T) {
	s := newReplicatedTestStore(t, 4, 1)
	if err := s.Load("emp", empRows(80)); err != nil {
		t.Fatal(err)
	}
	if err := s.BuildIndexes("emp"); err != nil {
		t.Fatal(err)
	}
	for p := 0; p < 4; p++ {
		owner, err := scanIndex(s, "emp", "emp_pk", p, p)
		if err != nil {
			t.Fatal(err)
		}
		backup, err := scanIndex(s, "emp", "emp_pk", p, (p+1)%4)
		if err != nil {
			t.Fatalf("backup index scan of partition %d: %v", p, err)
		}
		if len(owner) != len(backup) {
			t.Fatalf("partition %d: index rows differ: %d vs %d", p, len(owner), len(backup))
		}
		for i := range owner {
			if owner[i].String() != backup[i].String() {
				t.Fatalf("partition %d index row %d differs across replicas", p, i)
			}
		}
		if _, err := scanIndex(s, "emp", "emp_pk", p, (p+2)%4); err == nil {
			t.Errorf("partition %d index readable from non-replica site", p)
		}
	}
}
