// Package storage implements gignite's in-memory partitioned row store —
// the substrate Apache Ignite provides in the composed system the paper
// studies. Partitioned tables hash their affinity key across N sites;
// replicated tables keep a full copy at every site. Secondary indexes are
// per-partition sorted permutations, giving index scans a collation the
// planner can exploit (the paper's Q14 sort-order improvement relies on
// this).
package storage

import (
	"cmp"
	"fmt"
	"math/bits"
	"runtime"
	"slices"
	"strings"
	"sync"
	"sync/atomic"

	"gignite/internal/catalog"
	"gignite/internal/types"
)

// PartitionOf returns the partition for an affinity-key value among n
// sites. It is exported because the distributed hash-join mapping must
// compute the same placement the storage layer used.
func PartitionOf(v types.Value, n int) int {
	if n <= 1 {
		return 0
	}
	return int(v.Hash() % uint64(n))
}

// Store is the cluster-wide storage: every site's partitions live here,
// indexed by site ordinal. One Store instance backs one simulated cluster.
// A Store is safe for concurrent use: reads (PartitionAt, IndexScanAt)
// share an RWMutex read lock, so concurrent SELECT clients
// proceed in parallel while loads and index builds take the write lock.
//
// With backups > 0 every hash partition has an ordered replica chain
// (owner site first, then the backup sites), mirroring Ignite's backup
// partitions. Partition content is stored once per partition; the chain
// determines which sites may serve reads of that partition, so a scan
// whose owner site died can fail over to any surviving replica and read
// identical rows.
type Store struct {
	mu      sync.RWMutex
	sites   int
	backups int
	cat     *catalog.Catalog
	tables  map[string]*TableData
}

// NewReplicatedStore creates storage keeping `backups` extra copies of
// every hash partition. The count is capped at sites-1 (there is no point
// replicating a partition onto a site twice).
func NewReplicatedStore(cat *catalog.Catalog, sites, backups int) *Store {
	if sites < 1 {
		sites = 1
	}
	if backups < 0 {
		backups = 0
	}
	if backups > sites-1 {
		backups = sites - 1
	}
	return &Store{sites: sites, backups: backups, cat: cat, tables: make(map[string]*TableData)}
}

// Sites returns the cluster size.
func (s *Store) Sites() int { return s.sites }

// Backups returns the configured backup count per hash partition.
func (s *Store) Backups() int { return s.backups }

// ReplicaSites returns the ordered replica chain of a hash partition: the
// owner site first, then the backup sites in failover order.
func (s *Store) ReplicaSites(partition int) []int {
	out := make([]int, 0, s.backups+1)
	for k := 0; k <= s.backups; k++ {
		out = append(out, (partition+k)%s.sites)
	}
	return out
}

// HoldsReplica reports whether a site holds a copy of a hash partition.
func (s *Store) HoldsReplica(partition, site int) bool {
	for k := 0; k <= s.backups; k++ {
		if (partition+k)%s.sites == site {
			return true
		}
	}
	return false
}

// TableData is the stored content of one table across all sites.
type TableData struct {
	Def *catalog.Table
	// partitions[site] is the rows stored at that site. For replicated
	// tables every site holds an identical full copy (stored once, in
	// partition 0), so reads at any site see all rows. Each Load copies
	// the rows a partition receives into one value slab of its own, in
	// arrival order, and stores views of width values into it (capacity
	// = width); an earlier Load's slab is never copied again.
	partitions [][]types.Row
	// indexes[name][site] is a row-ordinal permutation of partitions[site]
	// sorted by the index key columns.
	indexes map[string][][]int
}

// ensureTable returns (creating if needed) the TableData for a table.
func (s *Store) ensureTable(name string) (*TableData, error) {
	key := strings.ToLower(name)
	s.mu.Lock()
	defer s.mu.Unlock()
	if td, ok := s.tables[key]; ok {
		return td, nil
	}
	def, err := s.cat.Table(name)
	if err != nil {
		return nil, err
	}
	td := &TableData{
		Def:        def,
		partitions: make([][]types.Row, s.sites),
		indexes:    make(map[string][][]int),
	}
	s.tables[key] = td
	return td, nil
}

// Table returns the TableData for a table, creating the (empty) storage on
// first touch.
func (s *Store) Table(name string) (*TableData, error) {
	s.mu.RLock()
	td, ok := s.tables[strings.ToLower(name)]
	s.mu.RUnlock()
	if ok {
		return td, nil
	}
	return s.ensureTable(name)
}

// Load bulk-inserts rows into a table, distributing partitioned tables by
// affinity-key hash and storing replicated tables once for all sites. It
// copies the rows (see TableData.partitions), so the caller may reuse or
// drop them afterwards. Every catalog-declared index covers the new rows
// before the lock is released, so a concurrent index scan never finds one
// missing or stale.
func (s *Store) Load(name string, rows []types.Row) error {
	td, err := s.ensureTable(name)
	if err != nil {
		return err
	}
	width := len(td.Def.Columns)
	for _, r := range rows {
		if len(r) != width {
			return fmt.Errorf("storage: row width %d does not match table %s (%d columns)",
				len(r), td.Def.Name, width)
		}
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	had := make([]int, len(td.partitions))
	for site, part := range td.partitions {
		had[site] = len(part)
	}
	// dest[i] is row i's partition. A replicated table keeps its single
	// copy in partition 0; readers at any site read partition 0.
	dest := make([]int, len(rows))
	counts := make([]int, len(td.partitions))
	aff := td.Def.AffinityOrdinal()
	for i, r := range rows {
		if !td.Def.Replicated {
			dest[i] = PartitionOf(r[aff], s.sites)
		}
		counts[dest[i]]++
	}
	// Copy the rows into one value slab per receiving partition, each
	// stored row a view of exactly width values (so an append to one
	// cannot write into its neighbour). The collector then marks one
	// object per slab instead of one per row.
	slabs := make([][]types.Value, len(td.partitions))
	for p, n := range counts {
		if n > 0 {
			slabs[p] = make([]types.Value, n*width)
			td.partitions[p] = slices.Grow(td.partitions[p], n)
		}
	}
	for i, r := range rows {
		p := dest[i]
		row := slabs[p][:width:width]
		slabs[p] = slabs[p][width:]
		copy(row, r)
		td.partitions[p] = append(td.partitions[p], row)
	}
	// Extend every built index over the appended rows; one no longer
	// declared is dropped.
	indexes := make(map[string][][]int, len(td.Def.Indexes))
	for _, idx := range td.Def.Indexes {
		name := strings.ToLower(idx.Name)
		if perSite, built := td.indexes[name]; built {
			indexes[name] = s.indexSites(td, idx, perSite, had)
		}
	}
	td.indexes = indexes
	s.buildIndexesLocked(td)
	return nil
}

// BuildIndexes builds the catalog-declared indexes of a table that are
// not built yet (one declared since the last Load).
func (s *Store) BuildIndexes(name string) error {
	td, err := s.Table(name)
	if err != nil {
		return err
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	s.buildIndexesLocked(td)
	return nil
}

// buildIndexesLocked sorts each declared index missing from td.indexes
// (caller holds s.mu).
func (s *Store) buildIndexesLocked(td *TableData) {
	for _, idx := range td.Def.Indexes {
		name := strings.ToLower(idx.Name)
		if _, built := td.indexes[name]; built {
			continue
		}
		td.indexes[name] = s.indexSites(td, idx, nil, nil)
	}
}

// indexSites orders one index's positions per site: from scratch when
// prev is nil, else by extending prev[site] over the rows appended past
// had[site]. The sites sort on up to GOMAXPROCS goroutines. A replicated
// table's sites all read partition 0, so they share one permutation.
func (s *Store) indexSites(td *TableData, idx catalog.Index, prev [][]int, had []int) [][]int {
	keys := make([]types.SortKey, len(idx.Columns))
	for i, cn := range idx.Columns {
		keys[i] = types.SortKey{Col: td.Def.ColumnIndex(cn)}
	}
	perSite := make([][]int, s.sites)
	sorted := s.sites
	if td.Def.Replicated {
		sorted = 1
	}
	parallel(sorted, func(site int) {
		rows := td.partitionLocked(site)
		if prev == nil {
			perSite[site] = sortPositions(rows, keys, 0)
		} else {
			perSite[site] = extendIndex(rows, keys, prev[site], had[site])
		}
	})
	for site := sorted; site < s.sites; site++ {
		perSite[site] = perSite[0]
	}
	return perSite
}

// sortPositions returns the positions from, from+1, … of rows sorted by
// keys, equal keys in position order: the permutation a stable sort
// gives, from an unstable O(n log n) sort with a tie-break on position.
// Int-like keys sort as packed words (packKeys); others compare rows.
// Input already in key order costs one pass.
func sortPositions(rows []types.Row, keys []types.SortKey, from int) []int {
	perm := make([]int, len(rows)-from)
	if packed, posBits := packKeys(rows, keys, from); packed != nil {
		if !slices.IsSorted(packed) {
			slices.Sort(packed)
		}
		mask := uint64(1)<<posBits - 1
		for i, w := range packed {
			perm[i] = from + int(w&mask)
		}
		return perm
	}
	for i := range perm {
		perm[i] = from + i
	}
	byKeys := func(a, b int) int {
		if c := types.CompareRows(rows[a], rows[b], keys); c != 0 {
			return c
		}
		return cmp.Compare(a, b)
	}
	if !slices.IsSortedFunc(perm, byKeys) {
		slices.SortFunc(perm, byKeys)
	}
	return perm
}

// packKeys packs each of rows from, from+1, … into one word: every key
// column's offset from the column's least value, then the row's offset
// from from, each in as many bits as its range needs, most significant
// first. The words then order as CompareRows orders the rows, ties by
// position. That holds when every key is ascending and its column holds
// one of the kinds KindInt, KindDate and KindBool, the same in every such
// row, with no NULL: within one such kind types.Compare orders by the int
// payload. It returns nil when they do not, or the fields need more than
// 64 bits.
func packKeys(rows []types.Row, keys []types.SortKey, from int) (packed []uint64, posBits int) {
	rows = rows[from:]
	if len(rows) == 0 {
		return nil, 0
	}
	lo := make([]int64, len(keys))
	width := make([]int, len(keys))
	posBits = bits.Len(uint(len(rows) - 1))
	total := posBits
	for i, k := range keys {
		kind := rows[0][k.Col].K
		if k.Desc || k.NullsLast || (kind != types.KindInt && kind != types.KindDate && kind != types.KindBool) {
			return nil, 0
		}
		hi := rows[0][k.Col].I
		lo[i] = hi
		for _, r := range rows {
			v := r[k.Col]
			if v.K != kind {
				return nil, 0
			}
			lo[i], hi = min(lo[i], v.I), max(hi, v.I)
		}
		width[i] = bits.Len64(uint64(hi) - uint64(lo[i]))
		total += width[i]
	}
	if total > 64 {
		return nil, 0
	}
	packed = make([]uint64, len(rows))
	for p, r := range rows {
		var w uint64
		for i, k := range keys {
			w = w<<width[i] | (uint64(r[k.Col].I) - uint64(lo[i]))
		}
		packed[p] = w<<posBits | uint64(p)
	}
	return packed, posBits
}

// extendIndex returns the stable sort by keys of rows' positions, given
// perm, the one of its first had positions: the appended positions are
// sorted alone and merged in, old entries first on ties — what a full
// stable sort gives, since every old position precedes every appended
// one. perm itself is left as it is: readers may still hold it.
func extendIndex(rows []types.Row, keys []types.SortKey, perm []int, had int) []int {
	if had == len(rows) {
		return perm
	}
	added := sortPositions(rows, keys, had)
	out := make([]int, 0, len(rows))
	i, j := 0, 0
	for i < len(perm) && j < len(added) {
		if types.CompareRows(rows[added[j]], rows[perm[i]], keys) < 0 {
			out = append(out, added[j])
			j++
		} else {
			out = append(out, perm[i])
			i++
		}
	}
	out = append(out, perm[i:]...)
	return append(out, added[j:]...)
}

// partitionLocked returns the rows visible at a site (caller holds s.mu).
func (td *TableData) partitionLocked(site int) []types.Row {
	if td.Def.Replicated {
		return td.partitions[0]
	}
	return td.partitions[site]
}

// Partition returns the rows visible at a site. For replicated tables this
// is the full table regardless of site.
func (s *Store) Partition(name string, site int) ([]types.Row, error) {
	return s.PartitionAt(name, site, site)
}

// PartitionAt returns one hash partition's rows as read by a host site
// (see replicaAt). This is the failover read path: a retried fragment
// instance keeps its logical partition but executes at a backup host.
func (s *Store) PartitionAt(name string, partition, host int) ([]types.Row, error) {
	td, err := s.replicaAt(name, partition, host)
	if err != nil {
		return nil, err
	}
	s.mu.RLock()
	defer s.mu.RUnlock()
	return td.partitionLocked(partition), nil
}

// IndexScanAt returns one logical partition's rows and the index's order
// over them, as read by a host site (see replicaAt): rows[order[0]],
// rows[order[1]], … is the partition in index order. Both belong to the
// store and must not be modified. Indexes are per-partition permutations,
// so a backup host scans the same index in the same order the owner would
// have.
func (s *Store) IndexScanAt(name, index string, partition, host int) (rows []types.Row, order []int, err error) {
	td, err := s.replicaAt(name, partition, host)
	if err != nil {
		return nil, nil, err
	}
	s.mu.RLock()
	defer s.mu.RUnlock()
	perm, ok := td.indexes[strings.ToLower(index)]
	if !ok {
		return nil, nil, fmt.Errorf("storage: index %s on %s not built", index, name)
	}
	order = perm[partition]
	if td.Def.Replicated {
		order = perm[0]
	}
	return td.partitionLocked(partition), order, nil
}

// replicaAt returns a table for reading one partition at a host site,
// validating that the host actually holds a replica of that partition (the
// owner or one of its backups). Replicated tables are present at every
// site, so any host qualifies.
func (s *Store) replicaAt(name string, partition, host int) (*TableData, error) {
	td, err := s.Table(name)
	if err != nil {
		return nil, err
	}
	if partition < 0 || partition >= s.sites {
		return nil, fmt.Errorf("storage: site %d out of range [0,%d)", partition, s.sites)
	}
	if host < 0 || host >= s.sites {
		return nil, fmt.Errorf("storage: host site %d out of range [0,%d)", host, s.sites)
	}
	if !td.Def.Replicated && !s.HoldsReplica(partition, host) {
		return nil, fmt.Errorf("storage: site %d holds no replica of partition %d (%s, backups=%d)",
			host, partition, td.Def.Name, s.backups)
	}
	return td, nil
}

// parallel calls f(0), …, f(n-1) on up to GOMAXPROCS goroutines, the
// calling one among them, and returns when every call has returned.
func parallel(n int, f func(i int)) {
	workers := min(runtime.GOMAXPROCS(0), n)
	var next atomic.Int64
	claim := func() {
		for i := int(next.Add(1) - 1); i < n; i = int(next.Add(1) - 1) {
			f(i)
		}
	}
	var wg sync.WaitGroup
	for w := 1; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			claim()
		}()
	}
	claim()
	wg.Wait()
}
