// Package physical defines the trait-bearing physical operators the
// cost-based planner produces — the gignite analogue of Ignite's physical
// RelNodes. Each operator carries a distribution trait (§3.2.2) and a
// collation trait, estimated cardinality, and its self cost under the
// active cost model. Operators are descriptions only: their expressions
// are compiled apart from them (Compile), into the kernel table a split
// fragment keeps by operator id.
package physical

import (
	"fmt"
	"strconv"
	"strings"
)

// DistType enumerates the three distribution trait values of §3.2.2.
type DistType uint8

const (
	// Single: the operator executes at a single site.
	Single DistType = iota
	// Broadcast: the operator executes at all sites, each holding all
	// rows.
	Broadcast
	// Hash: the operator executes at the sites a hash function assigns.
	Hash
)

var distNames = [...]string{Single: "single", Broadcast: "broadcast", Hash: "hash"}

// String names the distribution type.
func (d DistType) String() string { return distNames[d] }

// Distribution is the distribution trait: a type plus, for Hash, the
// output column ordinals the hash function is applied to. Keys may be
// empty for Hash, meaning "partitioned, but on no visible column" (the
// partition key was projected away); such a distribution cannot satisfy a
// keyed Hash requirement.
type Distribution struct {
	Type DistType
	Keys []int
}

// SingleDist, BroadcastDist are the keyless distribution singletons.
var (
	SingleDist    = Distribution{Type: Single}
	BroadcastDist = Distribution{Type: Broadcast}
)

// HashDist builds a hash distribution on the given output columns.
func HashDist(keys ...int) Distribution {
	return Distribution{Type: Hash, Keys: keys}
}

// String renders the trait.
func (d Distribution) String() string {
	if d.Type != Hash {
		return d.Type.String()
	}
	parts := make([]string, len(d.Keys))
	for i, k := range d.Keys {
		parts[i] = strconv.Itoa(k)
	}
	return "hash[" + strings.Join(parts, ",") + "]"
}

// KeysEqual reports whether two hash key lists are identical (order
// matters: the hash function consumes them positionally).
func (d Distribution) KeysEqual(o Distribution) bool {
	if len(d.Keys) != len(o.Keys) {
		return false
	}
	for i := range d.Keys {
		if d.Keys[i] != o.Keys[i] {
			return false
		}
	}
	return true
}

// Satisfies implements the distribution satisfaction matrix (Table 1 of
// the paper): a source satisfies a target when the source executes at a
// superset of the target's sites with compatible placement.
//
//	          target:  Single  Broadcast  Hash
//	source Single      yes     no         no
//	source Broadcast   yes     yes        yes
//	source Hash        no      yes*       yes*
//
// (*) only when the source hash placement covers the target: for a Hash
// target this means the same hash keys; a Hash source never has every row
// at every site, so the Broadcast case requires the degenerate one-site
// cluster, which callers model by passing sites=1.
func (d Distribution) Satisfies(target Distribution, sites int) bool {
	switch d.Type {
	case Single:
		return target.Type == Single
	case Broadcast:
		return true
	case Hash:
		switch target.Type {
		case Single:
			return false
		case Broadcast:
			return sites <= 1
		case Hash:
			if len(d.Keys) == 0 && len(target.Keys) == 0 {
				// A keyless-hash requirement only ever arises as "stay in
				// place" (derived from this very input's distribution), so
				// identity satisfies it.
				return true
			}
			return len(d.Keys) > 0 && d.KeysEqual(target)
		}
	}
	panic(fmt.Sprintf("physical: unknown distribution %d", d.Type))
}

// RemapKeys rewrites hash keys through a column mapping (old ordinal →
// new ordinal, -1 = dropped). If any key is dropped the result is a
// keyless hash distribution: still partitioned, no longer addressable.
func (d Distribution) RemapKeys(mapping []int) Distribution {
	if d.Type != Hash || len(d.Keys) == 0 {
		return d
	}
	keys := make([]int, 0, len(d.Keys))
	for _, k := range d.Keys {
		if k >= len(mapping) || mapping[k] < 0 {
			return Distribution{Type: Hash}
		}
		keys = append(keys, mapping[k])
	}
	return Distribution{Type: Hash, Keys: keys}
}

// ShiftKeys adds delta to every hash key (used when an input is embedded
// on the right side of a join output).
func (d Distribution) ShiftKeys(delta int) Distribution {
	if d.Type != Hash || len(d.Keys) == 0 {
		return d
	}
	keys := make([]int, len(d.Keys))
	for i, k := range d.Keys {
		keys[i] = k + delta
	}
	return Distribution{Type: Hash, Keys: keys}
}
