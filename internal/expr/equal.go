package expr

import (
	"math"

	"gignite/internal/types"
)

// Equal reports whether two expressions are structurally identical: the
// same node types carrying the same operators, flags, column ordinals and
// literal values, recursively. It is stricter than comparing String()
// renderings, which are labels and drop information: Equal also compares
// a literal's kind (`1` and `1.0` render alike), a column reference's
// kind and a parameter's kind hint. A ColRef's advisory name takes part,
// so Equal separates exactly what the rendering separates plus those
// cases. An Expr implementation from outside this package is equal only
// to itself.
func Equal(a, b Expr) bool {
	if a == b {
		return true
	}
	if a == nil || b == nil {
		return false
	}
	switch x := a.(type) {
	case *ColRef:
		y, ok := b.(*ColRef)
		return ok && x.Index == y.Index && x.Typ == y.Typ && x.Name == y.Name
	case *Lit:
		y, ok := b.(*Lit)
		return ok && EqualValue(x.Val, y.Val)
	case *Param:
		y, ok := b.(*Param)
		return ok && x.Ordinal == y.Ordinal && x.Typ == y.Typ
	case *BinOp:
		y, ok := b.(*BinOp)
		return ok && x.Op == y.Op && Equal(x.L, y.L) && Equal(x.R, y.R)
	case *Not:
		y, ok := b.(*Not)
		return ok && Equal(x.E, y.E)
	case *Neg:
		y, ok := b.(*Neg)
		return ok && Equal(x.E, y.E)
	case *IsNull:
		y, ok := b.(*IsNull)
		return ok && x.Negate == y.Negate && Equal(x.E, y.E)
	case *InList:
		y, ok := b.(*InList)
		return ok && x.Negate == y.Negate && Equal(x.E, y.E) && EqualAll(x.List, y.List)
	case *Case:
		y, ok := b.(*Case)
		if !ok || len(x.Whens) != len(y.Whens) || !Equal(x.Else, y.Else) {
			return false
		}
		for i, w := range x.Whens {
			if !Equal(w.Cond, y.Whens[i].Cond) || !Equal(w.Result, y.Whens[i].Result) {
				return false
			}
		}
		return true
	case *Cast:
		y, ok := b.(*Cast)
		return ok && x.To == y.To && Equal(x.E, y.E)
	case *Like:
		y, ok := b.(*Like)
		return ok && x.Negate == y.Negate && x.Pattern == y.Pattern && Equal(x.E, y.E)
	case *Func:
		y, ok := b.(*Func)
		return ok && x.Name == y.Name && EqualAll(x.Args, y.Args)
	default:
		return false
	}
}

// EqualAll reports whether two expression lists are Equal element-wise.
func EqualAll(a, b []Expr) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if !Equal(a[i], b[i]) {
			return false
		}
	}
	return true
}

// EqualValue reports whether two values are the same datum of the same
// kind. Floats compare by bit pattern, so a NaN equals itself and the two
// zeros differ — identity, not SQL comparison.
func EqualValue(a, b types.Value) bool {
	return a.K == b.K && a.I == b.I && a.S == b.S &&
		math.Float64bits(a.F) == math.Float64bits(b.F)
}

// Equal reports whether two aggregate calls compute the same thing: same
// function, DISTINCT flag and argument. The output label is not compared.
func (a AggCall) Equal(b AggCall) bool {
	return a.Func == b.Func && a.Distinct == b.Distinct && Equal(a.Arg, b.Arg)
}

// Hash is consistent with Equal: equal expressions hash alike. Unequal
// ones may collide, so a hash match is a hint to call Equal, never proof.
// It builds no strings and allocates nothing.
func Hash(e Expr) uint64 { return hashExpr(hashSeed, e) }

// Hash is consistent with AggCall.Equal.
func (a AggCall) Hash() uint64 {
	h := HashMix(hashSeed, uint64(a.Func))
	if a.Distinct {
		h = HashMix(h, 1)
	}
	return hashExpr(h, a.Arg)
}

// FNV-1a parameters; HashMix folds whole 64-bit words instead of bytes.
const (
	hashSeed  uint64 = 14695981039346656037
	hashPrime uint64 = 1099511628211
)

// HashMix folds one word into a running hash.
func HashMix(h, v uint64) uint64 { return (h ^ v) * hashPrime }

// HashString folds a string into a running hash.
func HashString(h uint64, s string) uint64 {
	for i := 0; i < len(s); i++ {
		h = (h ^ uint64(s[i])) * hashPrime
	}
	return HashMix(h, uint64(len(s)))
}

// HashValue folds a value, kind included, into a running hash.
func HashValue(h uint64, v types.Value) uint64 {
	h = HashMix(h, uint64(v.K))
	h = HashMix(h, uint64(v.I))
	h = HashMix(h, math.Float64bits(v.F))
	return HashString(h, v.S)
}

// Per-type tags keep `NOT x` and `-x` (same child, different node) apart.
const (
	tagNil = iota + 1
	tagColRef
	tagLit
	tagParam
	tagBinOp
	tagNot
	tagNeg
	tagIsNull
	tagInList
	tagCase
	tagCast
	tagLike
	tagFunc
	tagForeign
)

func hashBool(h uint64, b bool) uint64 {
	if b {
		return HashMix(h, 1)
	}
	return HashMix(h, 0)
}

func hashExpr(h uint64, e Expr) uint64 {
	if e == nil {
		return HashMix(h, tagNil)
	}
	switch x := e.(type) {
	case *ColRef:
		h = HashMix(HashMix(h, tagColRef), uint64(x.Index))
		return HashString(HashMix(h, uint64(x.Typ)), x.Name)
	case *Lit:
		return HashValue(HashMix(h, tagLit), x.Val)
	case *Param:
		return HashMix(HashMix(HashMix(h, tagParam), uint64(x.Ordinal)), uint64(x.Typ))
	case *BinOp:
		h = HashMix(HashMix(h, tagBinOp), uint64(x.Op))
		return hashExpr(hashExpr(h, x.L), x.R)
	case *Not:
		return hashExpr(HashMix(h, tagNot), x.E)
	case *Neg:
		return hashExpr(HashMix(h, tagNeg), x.E)
	case *IsNull:
		return hashExpr(hashBool(HashMix(h, tagIsNull), x.Negate), x.E)
	case *InList:
		h = hashExpr(hashBool(HashMix(h, tagInList), x.Negate), x.E)
		for _, item := range x.List {
			h = hashExpr(h, item)
		}
		return HashMix(h, uint64(len(x.List)))
	case *Case:
		h = HashMix(h, tagCase)
		for _, w := range x.Whens {
			h = hashExpr(hashExpr(h, w.Cond), w.Result)
		}
		return hashExpr(HashMix(h, uint64(len(x.Whens))), x.Else)
	case *Cast:
		return hashExpr(HashMix(HashMix(h, tagCast), uint64(x.To)), x.E)
	case *Like:
		h = hashBool(HashMix(h, tagLike), x.Negate)
		return hashExpr(HashString(h, x.Pattern), x.E)
	case *Func:
		h = HashString(HashMix(h, tagFunc), string(x.Name))
		for _, a := range x.Args {
			h = hashExpr(h, a)
		}
		return h
	default:
		// A foreign implementation is Equal only to itself; any constant
		// is consistent with that.
		return HashMix(h, tagForeign)
	}
}
