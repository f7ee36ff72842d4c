// Package joinfilter implements the compact key-membership filters the
// runtime join-filter pushdown ships from a hash join's build side to its
// probe-side producer fragment (DESIGN.md §13). A filter answers "could
// this key hash be in the build table?": false means definitely not (the
// probe row can be dropped before it is batched and shipped), true means
// maybe (the join re-checks exact equality, so false positives only cost
// wasted shipping, never wrong results).
//
// Keys are the same uint64 hashes the hash-join operator computes with
// types.Row.Hash over the equi-key columns, which is what makes false
// negatives impossible: a row the join would match hashes to a value the
// builder inserted.
//
// Small builds (at most smallKeys distinct hashes) keep the exact hash
// set; larger builds use a blocked-free classic bloom filter with a
// power-of-two bit array and double hashing. Both representations are
// insertion-order independent, so a filter built from the same key set is
// byte-identical at every host worker count. The sizing is fixed: no
// caller ever asked for anything but these values.
package joinfilter

import "fmt"

const (
	// maxBytes caps one bloom filter's bit array, bounding the per-filter
	// control-plane shipment. It must be a power of two.
	maxBytes = 64 << 10
	// smallKeys is the exact-set threshold: builds with at most this many
	// distinct key hashes skip the bloom filter and keep the exact set.
	smallKeys = 1024
	// bitsPerKey sizes the bloom bit array: 10 bits/key ≈ 1%
	// false-positive rate with 7 probes.
	bitsPerKey  = 10
	bloomProbes = 7
)

// Builder accumulates the distinct key hashes of one build side.
type Builder struct {
	seen  map[uint64]struct{}
	order []uint64
}

// NewBuilder creates an empty builder.
func NewBuilder() *Builder {
	return &Builder{seen: make(map[uint64]struct{})}
}

// Add inserts one key hash (duplicates are ignored).
func (b *Builder) Add(h uint64) {
	if _, ok := b.seen[h]; ok {
		return
	}
	b.seen[h] = struct{}{}
	b.order = append(b.order, h)
}

// Merge folds another builder's keys in (the per-site → union merge).
func (b *Builder) Merge(o *Builder) {
	for _, h := range o.order {
		b.Add(h)
	}
}

// Build freezes the builder into a filter.
func (b *Builder) Build() *Filter {
	f := &Filter{keys: len(b.order)}
	if len(b.order) <= smallKeys {
		f.exact = make(map[uint64]struct{}, len(b.order))
		for _, h := range b.order {
			f.exact[h] = struct{}{}
		}
		return f
	}
	// More than smallKeys keys: at least 16 Ki bits, so whole words.
	bits := min(nextPow2(uint64(len(b.order))*bitsPerKey), maxBytes*8)
	f.mask = bits - 1
	f.words = make([]uint64, bits/64)
	for _, h := range b.order {
		f.insert(h)
	}
	return f
}

// Filter is a frozen membership filter over key hashes.
type Filter struct {
	// exact is the small-build representation (nil for bloom filters).
	exact map[uint64]struct{}
	// words/mask are the bloom bit array (power-of-two bits).
	words []uint64
	mask  uint64
	keys  int
}

// mix is a 64-bit finalizer (splitmix64) deriving the second probe hash.
func mix(h uint64) uint64 {
	h ^= h >> 30
	h *= 0xbf58476d1ce4e5b9
	h ^= h >> 27
	h *= 0x94d049bb133111eb
	h ^= h >> 31
	return h
}

func (f *Filter) insert(h uint64) {
	h2 := mix(h) | 1
	for i := uint64(0); i < bloomProbes; i++ {
		bit := (h + i*h2) & f.mask
		f.words[bit/64] |= 1 << (bit % 64)
	}
}

// Test reports whether the key hash may be in the build set. nil filters
// pass everything (a missing filter must never drop rows).
func (f *Filter) Test(h uint64) bool {
	if f == nil {
		return true
	}
	if f.exact != nil {
		_, ok := f.exact[h]
		return ok
	}
	h2 := mix(h) | 1
	for i := uint64(0); i < bloomProbes; i++ {
		bit := (h + i*h2) & f.mask
		if f.words[bit/64]&(1<<(bit%64)) == 0 {
			return false
		}
	}
	return true
}

// Keys returns the distinct build-key count the filter was built from.
func (f *Filter) Keys() int {
	if f == nil {
		return 0
	}
	return f.keys
}

// SizeBytes is the filter's modeled wire size: 8 bytes per exact key, or
// the bloom bit array.
func (f *Filter) SizeBytes() int64 {
	if f == nil {
		return 0
	}
	if f.exact != nil {
		return int64(len(f.exact)) * 8
	}
	return int64(len(f.words)) * 8
}

// String renders the filter for EXPLAIN output.
func (f *Filter) String() string {
	if f == nil {
		return "filter(nil)"
	}
	if f.exact != nil {
		return fmt.Sprintf("exact(keys=%d)", f.keys)
	}
	return fmt.Sprintf("bloom(keys=%d bits=%d)", f.keys, f.mask+1)
}

func nextPow2(v uint64) uint64 {
	if v == 0 {
		return 1
	}
	v--
	v |= v >> 1
	v |= v >> 2
	v |= v >> 4
	v |= v >> 8
	v |= v >> 16
	v |= v >> 32
	return v + 1
}
