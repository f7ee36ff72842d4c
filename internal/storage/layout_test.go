package storage

import (
	"fmt"
	"runtime"
	"sync"
	"testing"
	"unsafe"

	"gignite/internal/types"
)

// valueBytes is the size of one stored value, the stride between the
// values of a slab.
const valueBytes = int(unsafe.Sizeof(types.Value{}))

// checkSlab fails unless rows are consecutive views of one backing array,
// each exactly width values long and wide.
func checkSlab(t *testing.T, what string, rows []types.Row, width int) {
	t.Helper()
	for k, r := range rows {
		if len(r) != width || cap(r) != width {
			t.Fatalf("%s row %d: len %d cap %d, want both %d", what, k, len(r), cap(r), width)
		}
		if k == 0 {
			continue
		}
		prev := unsafe.Pointer(unsafe.SliceData(rows[k-1]))
		if got, want := unsafe.Pointer(unsafe.SliceData(r)), unsafe.Add(prev, width*valueBytes); got != want {
			t.Fatalf("%s row %d starts at %p, want %p (right after row %d)", what, k, got, want, k-1)
		}
	}
}

func partitionRows(t *testing.T, s *Store, name string, site int) []types.Row {
	t.Helper()
	rows, err := s.Partition(name, site)
	if err != nil {
		t.Fatal(err)
	}
	return rows
}

func TestLoadLaysOutEachPartitionInOneSlab(t *testing.T) {
	const sites = 4
	s := newTestStore(t, sites)
	in := empRows(200)
	if err := s.Load("emp", in); err != nil {
		t.Fatal(err)
	}
	first := make([][]types.Row, sites)
	total := 0
	for site := range first {
		first[site] = partitionRows(t, s, "emp", site)
		checkSlab(t, "emp", first[site], 3)
		total += len(first[site])
	}
	if total != len(in) {
		t.Fatalf("partitions hold %d rows, loaded %d", total, len(in))
	}

	// The store copied: writing to the caller's rows changes nothing.
	want := make(map[int64]string, len(in))
	for _, r := range in {
		want[r[0].Int()] = r[1].Str()
	}
	for _, r := range in {
		r[1] = types.NewString("overwritten")
	}
	for site := range first {
		for _, r := range first[site] {
			if got := r[1].Str(); got != want[r[0].Int()] {
				t.Fatalf("site %d id %d: name %q after the input was overwritten, want %q",
					site, r[0].Int(), got, want[r[0].Int()])
			}
		}
	}

	// A second Load appends a slab of its own and leaves the first
	// Load's rows where they were, with their values.
	more := empRows(400)[200:]
	if err := s.Load("emp", more); err != nil {
		t.Fatal(err)
	}
	for site := range first {
		rows := partitionRows(t, s, "emp", site)
		old := len(first[site])
		for k, r := range first[site] {
			if unsafe.SliceData(rows[k]) != unsafe.SliceData(r) {
				t.Fatalf("site %d row %d moved on the second Load", site, k)
			}
			if rows[k][1].Str() != want[rows[k][0].Int()] {
				t.Fatalf("site %d row %d changed on the second Load", site, k)
			}
		}
		checkSlab(t, "second emp load", rows[old:], 3)
	}
}

func TestLoadLaysOutReplicatedTableInOneSlab(t *testing.T) {
	s := newTestStore(t, 4)
	in := make([]types.Row, 50)
	for i := range in {
		in[i] = types.Row{types.NewInt(int64(i))}
	}
	if err := s.Load("region", in); err != nil {
		t.Fatal(err)
	}
	in[0][0] = types.NewInt(-1)
	for site := 0; site < 4; site++ {
		rows := partitionRows(t, s, "region", site)
		if len(rows) != len(in) {
			t.Fatalf("site %d sees %d rows, want %d", site, len(rows), len(in))
		}
		checkSlab(t, "region", rows, 1)
		for i, r := range rows {
			if r[0].Int() != int64(i) {
				t.Fatalf("site %d row %d = %d, want %d", site, i, r[0].Int(), i)
			}
		}
	}
}

// TestLoadAddsFewHeapObjects holds the store to a handful of heap objects
// per Load, not one per row: the collector marks every live object on
// every cycle. It measures the whole heap, so it must not run in parallel
// with other tests.
func TestLoadAddsFewHeapObjects(t *testing.T) {
	const n = 20000
	s := newTestStore(t, 4)
	// Touch the table first so its metadata is not counted.
	if err := s.Load("emp", nil); err != nil {
		t.Fatal(err)
	}
	before := liveHeapObjects()
	// The input rows are garbage once Load returns.
	if err := s.Load("emp", constNameRows(n)); err != nil {
		t.Fatal(err)
	}
	added := int64(liveHeapObjects()) - int64(before)
	t.Logf("%d rows added %d live heap objects", n, added)
	if added >= n/100 {
		t.Fatalf("loading %d rows added %d live heap objects, want < %d", n, added, n/100)
	}
	runtime.KeepAlive(s)
}

// constNameRows builds n emp rows whose strings are shared constants, so
// the rows themselves are the only objects per row.
func constNameRows(n int) []types.Row {
	names := [...]string{"alpha", "beta", "gamma", "delta"}
	rows := make([]types.Row, n)
	for i := range rows {
		rows[i] = types.Row{types.NewInt(int64(i)), types.NewString(names[i%len(names)]), types.NewInt(int64(i % 7))}
	}
	return rows
}

func liveHeapObjects() uint64 {
	runtime.GC()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return ms.HeapObjects
}

// TestConcurrentLoadAndScan reads every stored value through both read
// paths while a writer keeps loading: under -race it fails if a Load
// writes memory a reader of an earlier snapshot can see.
func TestConcurrentLoadAndScan(t *testing.T) {
	const (
		sites   = 4
		batches = 20
		batch   = 50
	)
	s := newTestStore(t, sites)
	if err := s.Load("emp", empRows(batch)); err != nil {
		t.Fatal(err)
	}
	done := make(chan struct{})
	var wg sync.WaitGroup
	errs := make(chan error, 1)
	for site := 0; site < sites; site++ {
		wg.Add(1)
		go func(site int) {
			defer wg.Done()
			for {
				select {
				case <-done:
					return
				default:
				}
				rows, err := s.PartitionAt("emp", site, site)
				if err == nil {
					err = readAll(rows, nil, site, sites)
				}
				if err == nil {
					var order []int
					rows, order, err = s.IndexScanAt("emp", "emp_dept", site, site)
					if err == nil {
						err = readAll(rows, order, site, sites)
					}
				}
				if err != nil {
					select {
					case errs <- err:
					default:
					}
					return
				}
			}
		}(site)
	}
	for b := 1; b <= batches; b++ {
		if err := s.Load("emp", empRows((b + 1) * batch)[b*batch:]); err != nil {
			t.Fatal(err)
		}
	}
	close(done)
	wg.Wait()
	select {
	case err := <-errs:
		t.Fatal(err)
	default:
	}
	total := 0
	for site := 0; site < sites; site++ {
		total += len(partitionRows(t, s, "emp", site))
	}
	if want := (batches + 1) * batch; total != want {
		t.Fatalf("partitions hold %d rows, want %d", total, want)
	}
}

// readAll reads every value of a partition snapshot (in order's order
// when it is an index scan) and checks each row belongs to the site.
func readAll(rows []types.Row, order []int, site, sites int) error {
	if order != nil && len(order) != len(rows) {
		return fmt.Errorf("index of %d positions over %d rows", len(order), len(rows))
	}
	for k := range rows {
		r := rows[k]
		if order != nil {
			r = rows[order[k]]
		}
		if p := PartitionOf(r[0], sites); p != site {
			return fmt.Errorf("row id=%d read at site %d, belongs to %d", r[0].Int(), site, p)
		}
		if len(r[1].Str()) == 0 || r[2].Int() != r[0].Int()%5 {
			return fmt.Errorf("row id=%d read as %v", r[0].Int(), r)
		}
	}
	return nil
}
