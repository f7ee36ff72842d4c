package storage

import (
	"math"
	"math/bits"
	"slices"
	"strings"

	"gignite/internal/catalog"
	"gignite/internal/types"
)

// ComputeStats scans a table and fills its catalog statistics: row count,
// per-column NDV and min/max. It mirrors Ignite running with statistics
// collection enabled. Each column is one pass over the partitions, and
// the columns run on up to GOMAXPROCS goroutines (scanColumn).
func (s *Store) ComputeStats(name string) error {
	td, err := s.Table(name)
	if err != nil {
		return err
	}
	// Full lock, not RLock: the scan is a read, but the final assignment
	// publishes td.Def.Stats, which concurrent planners read.
	s.mu.Lock()
	defer s.mu.Unlock()
	parts := td.partitions
	if td.Def.Replicated {
		parts = parts[:1]
	}
	var count int
	for _, p := range parts {
		count += len(p)
	}
	cols := td.Def.Columns
	got := make([]columnStats, len(cols))
	parallel(len(cols), func(i int) { got[i] = scanColumn(parts, i, count) })
	stats := &catalog.TableStats{
		RowCount: int64(count),
		NDV:      make(map[string]int64, len(cols)),
		Min:      make(map[string]types.Value, len(cols)),
		Max:      make(map[string]types.Value, len(cols)),
	}
	for i, c := range cols {
		lc := strings.ToLower(c.Name)
		stats.NDV[lc] = got[i].ndv
		stats.Min[lc] = got[i].min
		stats.Max[lc] = got[i].max
	}
	td.Def.Stats = stats
	return nil
}

// columnStats is one column's distinct non-NULL values and its least and
// greatest non-NULL value (NULL when the column holds none).
type columnStats struct {
	ndv      int64
	min, max types.Value
}

// scanColumn computes column col's statistics over parts, which hold rows
// rows in all. When every non-NULL value has one kind, the payloads go
// into a typed slice whose distinct values are counted by sorting it (or
// in a bitset, for a dense int range). The counts equal a hash set under
// types.Equal: within one kind two values are Equal exactly when their
// payloads are, save that a float's -0 equals 0 and a NaN equals only a
// NaN of the same bits (the one it shares a Hash with). Min and max are
// the first least and first greatest value in storage order, as
// types.Compare orders them. A column that mixes kinds takes
// mixedColumn.
func scanColumn(parts [][]types.Row, col, rows int) columnStats {
	var cs columnStats
	var ints []int64    // KindInt, KindDate and KindBool payloads
	var floats []uint64 // KindFloat bits, -0 as 0
	var strs []string
	for _, part := range parts {
		for _, r := range part {
			v := r[col]
			if v.K == types.KindNull {
				continue
			}
			if cs.min.K == types.KindNull {
				cs.min, cs.max = v, v
				switch v.K {
				case types.KindFloat:
					floats = make([]uint64, 0, rows)
				case types.KindString:
					strs = make([]string, 0, rows)
				default:
					ints = make([]int64, 0, rows)
				}
			} else if v.K != cs.min.K {
				return mixedColumn(parts, col)
			}
			switch v.K {
			case types.KindFloat:
				if v.F < cs.min.F {
					cs.min = v
				}
				if v.F > cs.max.F {
					cs.max = v
				}
				if v.F == 0 {
					floats = append(floats, 0)
				} else {
					floats = append(floats, math.Float64bits(v.F))
				}
			case types.KindString:
				if v.S < cs.min.S {
					cs.min = v
				}
				if v.S > cs.max.S {
					cs.max = v
				}
				strs = append(strs, v.S)
			default:
				if v.I < cs.min.I {
					cs.min = v
				}
				if v.I > cs.max.I {
					cs.max = v
				}
				ints = append(ints, v.I)
			}
		}
	}
	switch {
	case floats != nil:
		cs.ndv = distinctSorted(floats)
	case strs != nil:
		cs.ndv = distinctSorted(strs)
	case ints != nil:
		cs.ndv = distinctInts(ints, cs.min.I, cs.max.I)
	}
	return cs
}

// distinctSorted sorts vals and counts its distinct values.
func distinctSorted[T int64 | uint64 | string](vals []T) int64 {
	slices.Sort(vals)
	var n int64
	for i, v := range vals {
		if i == 0 || v != vals[i-1] {
			n++
		}
	}
	return n
}

// distinctInts counts the distinct values of vals, which lie in [lo, hi]:
// in a bitset over the range when it is at most 8 bits per value wide,
// else by sorting.
func distinctInts(vals []int64, lo, hi int64) int64 {
	span := uint64(hi) - uint64(lo) // no overflow: hi >= lo
	if span >= 8*uint64(len(vals)) {
		return distinctSorted(vals)
	}
	seen := make([]uint64, span/64+1)
	for _, v := range vals {
		d := uint64(v) - uint64(lo)
		seen[d/64] |= 1 << (d % 64)
	}
	var n int64
	for _, w := range seen {
		n += int64(bits.OnesCount64(w))
	}
	return n
}

// mixedColumn computes the statistics of a column whose non-NULL values
// have more than one kind by hash set under types.Equal, so that the int
// 1 and the float 1.0 count once, and min and max by types.Compare.
func mixedColumn(parts [][]types.Row, col int) columnStats {
	var cs columnStats
	distinct := make(map[uint64][]types.Value)
	for _, part := range parts {
		for _, r := range part {
			v := r[col]
			if v.IsNull() {
				continue
			}
			h := v.Hash()
			if !slices.ContainsFunc(distinct[h], func(ex types.Value) bool { return types.Equal(ex, v) }) {
				distinct[h] = append(distinct[h], v)
				cs.ndv++
			}
			if cs.min.IsNull() || types.Compare(v, cs.min) < 0 {
				cs.min = v
			}
			if cs.max.IsNull() || types.Compare(v, cs.max) > 0 {
				cs.max = v
			}
		}
	}
	return cs
}
