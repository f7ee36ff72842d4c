package adaptive

import (
	"sort"

	"gignite/internal/exec"
	"gignite/internal/fragment"
	"gignite/internal/physical"
)

// k is the KMV synopsis size: the k smallest distinct key hashes are
// retained, giving a relative NDV error around 1/sqrt(k-2) (~8% at
// k=160; we use 256 for ~6%).
const k = 256

// Sketch is a KMV (k-minimum-values) distinct-count estimator over the
// key hashes of what sender instances shipped. Its state is
// order-independent (merge is associative and commutative), which lets
// the controller key decisions off it without breaking the engine's
// determinism contract.
type Sketch struct {
	// kmv holds the k smallest distinct (finalized) hashes, sorted.
	kmv []uint64
}

// Sketch summarizes what fragment f's surviving attempt shipped (its
// exec.Context.Sent) on the keys New chose for f's exchange, reading one
// target's batch of a broadcast. It returns nil when nothing was shipped
// or no join reads the exchange on mapped keys. It reads only the plan
// and those keys, so workers call it concurrently; the barrier merges
// the results (Merge).
func (c *Controller) Sketch(f *fragment.Fragment, sent []exec.Batch) *Sketch {
	if f.IsRoot || c.ex[f.ExchangeID].keys == nil {
		return nil
	}
	keys := c.ex[f.ExchangeID].keys
	if f.Root.(*physical.Sender).Target.Type == physical.Broadcast {
		sent = sent[:min(len(sent), 1)]
	}
	n := 0
	for _, b := range sent {
		n += len(b.Rows)
	}
	if n == 0 {
		return nil
	}
	sk := &Sketch{kmv: make([]uint64, 0, min(n, k))}
	for _, b := range sent {
		for _, r := range b.Rows {
			sk.add(r.Hash(keys))
		}
	}
	return sk
}

// mix finalizes a key hash (splitmix64) so the KMV order statistics are
// uniform even when the input hash is weak on low entropy keys.
func mix(h uint64) uint64 {
	h += 0x9e3779b97f4a7c15
	h = (h ^ (h >> 30)) * 0xbf58476d1ce4e5b9
	h = (h ^ (h >> 27)) * 0x94d049bb133111eb
	return h ^ (h >> 31)
}

// add feeds one row's key hash into the sketch.
func (s *Sketch) add(keyHash uint64) {
	h := mix(keyHash)
	// Insert h into the sorted k-minimum set if it qualifies.
	if len(s.kmv) < k || h < s.kmv[len(s.kmv)-1] {
		i := sort.Search(len(s.kmv), func(i int) bool { return s.kmv[i] >= h })
		if i == len(s.kmv) || s.kmv[i] != h {
			// A full set drops its largest hash instead of growing.
			if len(s.kmv) < k {
				s.kmv = append(s.kmv, 0)
			}
			copy(s.kmv[i+1:], s.kmv[i:])
			s.kmv[i] = h
		}
	}
}

// ndv estimates the number of distinct keys (0 for a nil sketch). With
// fewer than k distinct hashes observed the count is exact; past that the
// KMV estimator (k-1)/max_normalized applies.
func (s *Sketch) ndv() float64 {
	if s == nil {
		return 0
	}
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

// merge folds another sketch into this one: the union of the two sorted
// distinct lists, of which the k smallest stay. The union is written into
// *scratch, which then swaps with s.kmv; it is reallocated only when too
// small, so merges that share a scratch make few objects.
func (s *Sketch) merge(o *Sketch, scratch *[]uint64) {
	merged := (*scratch)[:0]
	if need := min(len(s.kmv)+len(o.kmv), k); cap(merged) < need {
		merged = make([]uint64, 0, k)
	}
	i, j := 0, 0
	for (i < len(s.kmv) || j < len(o.kmv)) && len(merged) < k {
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
	}
	s.kmv, *scratch = merged, s.kmv
}
