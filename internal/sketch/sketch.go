// Package sketch implements the runtime statistics sketch adaptive query
// execution consumes (DESIGN.md §17): a per-exchange summary of the rows
// an exchange sender shipped, built incrementally on the send path and
// merged at wave barriers.
//
// A Sketch combines two summaries over the stream of key hashes it is
// fed:
//
//   - an exact row count, and
//   - a KMV (k-minimum-values) distinct-count estimator.
//
// Both are order-independent: Merge is associative and commutative, so
// sketches merged at a wave barrier in any grouping produce identical
// state. That property is what lets the adaptive re-planner key decisions
// off sketches without breaking the engine's determinism contract
// (results identical at every worker count).
package sketch

import "sort"

// k is the KMV synopsis size: the k smallest distinct key hashes are
// retained, giving a relative NDV error around 1/sqrt(k-2) (~8% at
// k=160; we use 256 for ~6%).
const k = 256

// Sketch summarizes one exchange's shipped rows. The zero value is an
// empty sketch.
type Sketch struct {
	rows int64
	// kmv holds the k smallest distinct (finalized) hashes, sorted.
	kmv []uint64
}

// New creates an empty sketch.
func New() *Sketch { return &Sketch{} }

// mix finalizes a key hash (splitmix64) so the KMV order statistics are
// uniform even when the input hash is weak on low entropy keys.
func mix(h uint64) uint64 {
	h += 0x9e3779b97f4a7c15
	h = (h ^ (h >> 30)) * 0xbf58476d1ce4e5b9
	h = (h ^ (h >> 27)) * 0x94d049bb133111eb
	return h ^ (h >> 31)
}

// Add feeds one row's key hash into the sketch.
func (s *Sketch) Add(keyHash uint64) {
	s.rows++
	h := mix(keyHash)

	// KMV: insert h into the sorted k-minimum set if it qualifies.
	if len(s.kmv) < k || h < s.kmv[len(s.kmv)-1] {
		i := sort.Search(len(s.kmv), func(i int) bool { return s.kmv[i] >= h })
		if i == len(s.kmv) || s.kmv[i] != h {
			s.kmv = append(s.kmv, 0)
			copy(s.kmv[i+1:], s.kmv[i:])
			s.kmv[i] = h
			if len(s.kmv) > k {
				s.kmv = s.kmv[:k]
			}
		}
	}
}

// Rows returns the exact number of rows fed into the sketch.
func (s *Sketch) Rows() int64 { return s.rows }

// NDV estimates the number of distinct keys. With fewer than k distinct
// hashes observed the count is exact; past that the KMV estimator
// (k-1)/max_normalized applies.
func (s *Sketch) NDV() float64 {
	if len(s.kmv) < k {
		return float64(len(s.kmv))
	}
	kth := s.kmv[k-1]
	if kth == 0 {
		return float64(k)
	}
	// (k-1) / (kth / 2^64)
	return float64(k-1) / (float64(kth) / float64(1<<63) / 2)
}

// Merge folds another sketch into this one. Merge is associative and
// commutative: any merge tree over the same leaf sketches yields the same
// state, which is what makes barrier-order merging deterministic.
func (s *Sketch) Merge(o *Sketch) {
	if o == nil {
		return
	}
	s.rows += o.rows
	// KMV union: merge two sorted distinct lists, keep the k smallest.
	merged := make([]uint64, 0, len(s.kmv)+len(o.kmv))
	i, j := 0, 0
	for i < len(s.kmv) || j < len(o.kmv) {
		switch {
		case j >= len(o.kmv) || (i < len(s.kmv) && s.kmv[i] < o.kmv[j]):
			merged = append(merged, s.kmv[i])
			i++
		case i >= len(s.kmv) || o.kmv[j] < s.kmv[i]:
			merged = append(merged, o.kmv[j])
			j++
		default: // equal
			merged = append(merged, s.kmv[i])
			i, j = i+1, j+1
		}
		if len(merged) == k {
			break
		}
	}
	s.kmv = merged
}
