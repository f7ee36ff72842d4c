package types

import (
	"fmt"
	"strings"
)

// Row is a tuple of values. Rows are passed by reference through the
// executor, and whether a consumer may keep one depends on its producer.
// Rows from the store, a plan's Values, a published exchange (a
// Receiver's input), a Sort, an aggregate or a finished fragment are
// stable: nothing overwrites them, and nobody may modify them. Rows from
// a Project or a pair-emitting join that does not feed a breaker directly
// live in that operator's scratch arena, which the next batch overwrites;
// Filter, Limit and semi/anti joins pass their input rows on as stable as
// they came. The executor says which it is with every batch
// (internal/exec's stage.push), and an operator that keeps a scratch row
// past the call — a join's collected side, Sort, the Sender, the fragment
// result — copies it first.
type Row []Value

// Clone returns a deep copy of the row.
func (r Row) Clone() Row {
	out := make(Row, len(r))
	copy(out, r)
	return out
}

// Concat returns a new row holding r followed by other.
func (r Row) Concat(other Row) Row {
	out := make(Row, 0, len(r)+len(other))
	out = append(out, r...)
	out = append(out, other...)
	return out
}

// Hash is the placement hash: it combines the hashes of the values at the
// given column offsets. A multi-key exchange routes rows by it, and
// sketches key on it, so changing it would move rows between sites. An operator's own hash table is free to hash keys its own
// way.
func (r Row) Hash(cols []int) uint64 {
	const prime64 = 1099511628211
	h := uint64(14695981039346656037)
	for _, c := range cols {
		h = (h ^ r[c].Hash()) * prime64
	}
	return h
}

// HasNull reports whether any value at the given column offsets is NULL
// (an equi-join key with a NULL never matches).
func (r Row) HasNull(cols []int) bool {
	for _, c := range cols {
		if r[c].IsNull() {
			return true
		}
	}
	return false
}

// Width returns the modeled byte width of the row.
func (r Row) Width() int64 {
	var w int64
	for _, v := range r {
		w += v.Width()
	}
	return w
}

// String renders the row for tests and debugging.
func (r Row) String() string {
	parts := make([]string, len(r))
	for i, v := range r {
		parts[i] = v.String()
	}
	return "[" + strings.Join(parts, ", ") + "]"
}

// EqualOn reports whether rows a and b agree on the given column offsets of
// each (used by join probes: aCols indexes a, bCols indexes b).
func EqualOn(a Row, aCols []int, b Row, bCols []int) bool {
	if len(aCols) != len(bCols) {
		panic("types: EqualOn with mismatched key lengths")
	}
	for i := range aCols {
		if !Equal(a[aCols[i]], b[bCols[i]]) {
			return false
		}
	}
	return true
}

// CompareRows orders two rows lexicographically over the given sort keys.
type SortKey struct {
	Col  int
	Desc bool
	// NullsLast places NULLs after non-NULL values regardless of direction.
	NullsLast bool
}

// CompareRows compares rows a and b under keys, returning -1, 0 or 1.
func CompareRows(a, b Row, keys []SortKey) int {
	for _, k := range keys {
		av, bv := a[k.Col], b[k.Col]
		if k.NullsLast && (av.IsNull() || bv.IsNull()) {
			switch {
			case av.IsNull() && bv.IsNull():
				continue
			case av.IsNull():
				return 1
			default:
				return -1
			}
		}
		c := Compare(av, bv)
		if c == 0 {
			continue
		}
		if k.Desc {
			return -c
		}
		return c
	}
	return 0
}

// Field describes one column of a row schema: its name and scalar kind.
type Field struct {
	Name string
	Kind Kind
}

// Fields is an ordered row schema.
type Fields []Field

// Names returns the field names in order.
func (fs Fields) Names() []string {
	out := make([]string, len(fs))
	for i, f := range fs {
		out[i] = f.Name
	}
	return out
}

// Concat returns the concatenation of two schemas (join output shape).
func (fs Fields) Concat(other Fields) Fields {
	out := make(Fields, 0, len(fs)+len(other))
	out = append(out, fs...)
	out = append(out, other...)
	return out
}

// String renders the schema as "(name kind, ...)".
func (fs Fields) String() string {
	parts := make([]string, len(fs))
	for i, f := range fs {
		parts[i] = fmt.Sprintf("%s %s", f.Name, f.Kind)
	}
	return "(" + strings.Join(parts, ", ") + ")"
}
