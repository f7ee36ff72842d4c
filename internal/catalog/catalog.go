// Package catalog holds the metadata layer of gignite: table and index
// definitions, partitioning (affinity) configuration and table statistics.
//
// In the composed architecture the paper studies, Apache Ignite owns this
// metadata and serves it to Apache Calcite through provider hooks. The
// Catalog type plays the same role here: the planner and binder consume it
// through narrow interfaces (StatsProvider) so that alternative metadata
// sources can be composed in, and — exactly as Calcite does — estimation
// falls back to conservative no-op defaults when statistics are absent.
package catalog

import (
	"fmt"
	"sort"
	"strings"
	"sync"
	"sync/atomic"

	"gignite/internal/types"
)

// Column describes one table column.
type Column struct {
	Name string
	Kind types.Kind
}

// Index describes a secondary index: an ordered list of key columns. All
// gignite indexes are per-partition sorted projections (the analogue of
// Ignite's B+-tree indexes); they provide sorted scans and point/range
// lookups within each partition.
type Index struct {
	Name    string
	Columns []string
}

// Table is a table definition.
type Table struct {
	Name    string
	Columns []Column
	// PrimaryKey lists the primary key column(s). Informational plus used
	// to derive the default affinity key.
	PrimaryKey []string
	// AffinityKey is the column whose hash determines the partition. Empty
	// for replicated tables.
	AffinityKey string
	// Replicated tables hold a full copy at every site.
	Replicated bool
	Indexes    []Index
	// Stats is populated when statistics collection is enabled (the paper
	// runs Ignite with "statistics enabled"). Nil means no statistics: the
	// planner falls back to NO-OP defaults.
	Stats *TableStats
}

// Fields returns the table's row schema.
func (t *Table) Fields() types.Fields {
	fs := make(types.Fields, len(t.Columns))
	for i, c := range t.Columns {
		fs[i] = types.Field{Name: c.Name, Kind: c.Kind}
	}
	return fs
}

// ColumnIndex returns the ordinal of the named column, or -1.
func (t *Table) ColumnIndex(name string) int {
	for i, c := range t.Columns {
		if strings.EqualFold(c.Name, name) {
			return i
		}
	}
	return -1
}

// AffinityOrdinal returns the ordinal of the affinity column, or -1 for
// replicated tables.
func (t *Table) AffinityOrdinal() int {
	if t.AffinityKey == "" {
		return -1
	}
	return t.ColumnIndex(t.AffinityKey)
}

// IndexByName returns the named index, or nil.
func (t *Table) IndexByName(name string) *Index {
	for i := range t.Indexes {
		if strings.EqualFold(t.Indexes[i].Name, name) {
			return &t.Indexes[i]
		}
	}
	return nil
}

// TableStats carries the per-table statistics the planner consumes.
type TableStats struct {
	RowCount int64
	// NDV is the number of distinct values per column name (lower-cased).
	NDV map[string]int64
	// Min and Max per column name; only meaningful for orderable kinds.
	Min map[string]types.Value
	Max map[string]types.Value
}

// NDVOf returns the distinct-value count for a column, or 0 when unknown.
func (s *TableStats) NDVOf(column string) int64 {
	if s == nil || s.NDV == nil {
		return 0
	}
	return s.NDV[strings.ToLower(column)]
}

// Catalog is the schema registry. It is safe for concurrent use.
type Catalog struct {
	mu      sync.RWMutex
	tables  map[string]*Table
	version atomic.Uint64
}

// Version returns the catalog's monotonically increasing schema version.
// It changes whenever metadata that can affect planning changes (tables
// added, indexes created, statistics refreshed); consumers such
// as the plan cache compare versions to detect stale plans.
func (c *Catalog) Version() uint64 { return c.version.Load() }

// BumpVersion advances the schema version. Callers that mutate planning-
// relevant metadata outside AddTable (index creation, ANALYZE,
// view registration) must call it so cached plans are invalidated.
func (c *Catalog) BumpVersion() { c.version.Add(1) }

// New returns an empty catalog.
func New() *Catalog {
	return &Catalog{tables: make(map[string]*Table)}
}

// AddTable registers a table definition. Adding a duplicate name is an
// error; the benchmarks drop-and-recreate instead of redefining.
func (c *Catalog) AddTable(t *Table) error {
	if t.Name == "" {
		return fmt.Errorf("catalog: table with empty name")
	}
	if len(t.Columns) == 0 {
		return fmt.Errorf("catalog: table %s has no columns", t.Name)
	}
	seen := make(map[string]bool, len(t.Columns))
	for _, col := range t.Columns {
		lc := strings.ToLower(col.Name)
		if seen[lc] {
			return fmt.Errorf("catalog: table %s has duplicate column %s", t.Name, col.Name)
		}
		seen[lc] = true
	}
	if !t.Replicated {
		if t.AffinityKey == "" && len(t.PrimaryKey) > 0 {
			t.AffinityKey = t.PrimaryKey[0]
		}
		if t.AffinityKey == "" {
			return fmt.Errorf("catalog: partitioned table %s needs an affinity key", t.Name)
		}
		if t.ColumnIndex(t.AffinityKey) < 0 {
			return fmt.Errorf("catalog: table %s affinity key %s is not a column", t.Name, t.AffinityKey)
		}
	} else if t.AffinityKey != "" {
		return fmt.Errorf("catalog: replicated table %s cannot have an affinity key", t.Name)
	}
	for _, idx := range t.Indexes {
		for _, col := range idx.Columns {
			if t.ColumnIndex(col) < 0 {
				return fmt.Errorf("catalog: index %s on %s references unknown column %s",
					idx.Name, t.Name, col)
			}
		}
	}
	key := strings.ToLower(t.Name)
	c.mu.Lock()
	defer c.mu.Unlock()
	if _, ok := c.tables[key]; ok {
		return fmt.Errorf("catalog: table %s already exists", t.Name)
	}
	c.tables[key] = t
	c.version.Add(1)
	return nil
}

// Table looks up a table by name (case-insensitive).
func (c *Catalog) Table(name string) (*Table, error) {
	c.mu.RLock()
	defer c.mu.RUnlock()
	t, ok := c.tables[strings.ToLower(name)]
	if !ok {
		return nil, fmt.Errorf("catalog: table %s does not exist", name)
	}
	return t, nil
}

// Tables returns all table names, sorted.
func (c *Catalog) Tables() []string {
	c.mu.RLock()
	defer c.mu.RUnlock()
	out := make([]string, 0, len(c.tables))
	for _, t := range c.tables {
		out = append(out, t.Name)
	}
	sort.Strings(out)
	return out
}

// StatsProvider is the provider-hook interface the planner consumes.
// Implementations that lack information return zero values; estimation
// code treats those as "unknown" and substitutes defaults, mirroring
// Calcite's NO-OP provider fallbacks.
type StatsProvider interface {
	// RowCount returns the table cardinality, or 0 when unknown.
	RowCount(table string) int64
	// NDV returns the distinct-value count of a column, or 0 when unknown.
	NDV(table, column string) int64
	// MinMax returns a column's value range; ok is false when unknown.
	MinMax(table, column string) (min, max types.Value, ok bool)
}

// RowCount implements StatsProvider using collected statistics.
func (c *Catalog) RowCount(table string) int64 {
	t, err := c.Table(table)
	if err != nil || t.Stats == nil {
		return 0
	}
	return t.Stats.RowCount
}

// NDV implements StatsProvider using collected statistics.
func (c *Catalog) NDV(table, column string) int64 {
	t, err := c.Table(table)
	if err != nil {
		return 0
	}
	return t.Stats.NDVOf(column)
}

// MinMax implements StatsProvider using collected statistics.
func (c *Catalog) MinMax(table, column string) (types.Value, types.Value, bool) {
	t, err := c.Table(table)
	if err != nil || t.Stats == nil {
		return types.Null, types.Null, false
	}
	lc := strings.ToLower(column)
	mn, okMin := t.Stats.Min[lc]
	mx, okMax := t.Stats.Max[lc]
	if !okMin || !okMax || mn.IsNull() || mx.IsNull() {
		return types.Null, types.Null, false
	}
	return mn, mx, true
}
