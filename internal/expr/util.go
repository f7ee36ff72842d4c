package expr

import "gignite/internal/types"

// True and False are the boolean literal singletons used by rewrites.
var (
	True  Expr = NewLit(types.NewBool(true))
	False Expr = NewLit(types.NewBool(false))
)

// IsLiteralTrue reports whether e is the constant TRUE.
func IsLiteralTrue(e Expr) bool {
	l, ok := e.(*Lit)
	return ok && l.Val.K == types.KindBool && l.Val.Bool()
}

// IsLiteralFalse reports whether e is the constant FALSE.
func IsLiteralFalse(e Expr) bool {
	l, ok := e.(*Lit)
	return ok && l.Val.K == types.KindBool && !l.Val.Bool()
}

// SplitConjuncts flattens a tree of ANDs into its conjuncts.
func SplitConjuncts(e Expr) []Expr {
	if b, ok := e.(*BinOp); ok && b.Op == OpAnd {
		return append(SplitConjuncts(b.L), SplitConjuncts(b.R)...)
	}
	if IsLiteralTrue(e) {
		return nil
	}
	return []Expr{e}
}

// SplitDisjuncts flattens a tree of ORs into its disjuncts.
func SplitDisjuncts(e Expr) []Expr {
	if b, ok := e.(*BinOp); ok && b.Op == OpOr {
		return append(SplitDisjuncts(b.L), SplitDisjuncts(b.R)...)
	}
	return []Expr{e}
}

// Conjunction rebuilds an AND tree from conjuncts. An empty list yields
// TRUE.
func Conjunction(conjuncts []Expr) Expr {
	if len(conjuncts) == 0 {
		return True
	}
	out := conjuncts[0]
	for _, c := range conjuncts[1:] {
		out = NewBinOp(OpAnd, out, c)
	}
	return out
}

// Disjunction rebuilds an OR tree from disjuncts. An empty list yields
// FALSE.
func Disjunction(disjuncts []Expr) Expr {
	if len(disjuncts) == 0 {
		return False
	}
	out := disjuncts[0]
	for _, d := range disjuncts[1:] {
		out = NewBinOp(OpOr, out, d)
	}
	return out
}

// ColumnSet is a set of input column ordinals.
type ColumnSet map[int]struct{}

// Add inserts a column into the set.
func (s ColumnSet) Add(c int) { s[c] = struct{}{} }

// AllBelow reports whether every column is < bound.
func (s ColumnSet) AllBelow(bound int) bool {
	for c := range s {
		if c >= bound {
			return false
		}
	}
	return true
}

// AllAtOrAbove reports whether every column is >= bound.
func (s ColumnSet) AllAtOrAbove(bound int) bool {
	for c := range s {
		if c < bound {
			return false
		}
	}
	return true
}

// ColumnsUsed returns the set of input columns referenced by e.
func ColumnsUsed(e Expr) ColumnSet {
	s := make(ColumnSet)
	collectColumns(e, s)
	return s
}

func collectColumns(e Expr, s ColumnSet) {
	if c, ok := e.(*ColRef); ok {
		s.Add(c.Index)
		return
	}
	for _, ch := range e.Children() {
		collectColumns(ch, s)
	}
}

// Transform rewrites an expression bottom-up: fn is applied to every node
// after its children have been rewritten. fn returning its argument
// unchanged is the identity.
func Transform(e Expr, fn func(Expr) Expr) Expr {
	children := e.Children()
	if len(children) > 0 {
		newChildren := make([]Expr, len(children))
		changed := false
		for i, ch := range children {
			newChildren[i] = Transform(ch, fn)
			if newChildren[i] != ch {
				changed = true
			}
		}
		if changed {
			e = e.WithChildren(newChildren)
		}
	}
	return fn(e)
}

// Remap rewrites column references through a mapping from old ordinal to
// new ordinal. Mapping entries of -1 indicate a column that must not be
// referenced; hitting one panics, signalling a planner bug.
func Remap(e Expr, mapping []int) Expr {
	return Transform(e, func(n Expr) Expr {
		c, ok := n.(*ColRef)
		if !ok {
			return n
		}
		if c.Index >= len(mapping) || mapping[c.Index] < 0 {
			panic("expr: Remap hit an unmapped column reference")
		}
		if mapping[c.Index] == c.Index {
			return n
		}
		return NewColRef(mapping[c.Index], c.Typ, c.Name)
	})
}

// Shift adds delta to every column reference at or above start. It is used
// when predicates move across join inputs.
func Shift(e Expr, start, delta int) Expr {
	if delta == 0 {
		return e
	}
	return Transform(e, func(n Expr) Expr {
		c, ok := n.(*ColRef)
		if !ok || c.Index < start {
			return n
		}
		return NewColRef(c.Index+delta, c.Typ, c.Name)
	})
}

// IsConstant reports whether e references no columns and no unbound
// parameters — i.e. it is safe to evaluate without a row at plan time.
func IsConstant(e Expr) bool {
	switch e.(type) {
	case *ColRef, *Param:
		return false
	}
	for _, ch := range e.Children() {
		if !IsConstant(ch) {
			return false
		}
	}
	return true
}

// ExtractCommonConjuncts implements the paper's §5.2 join-condition
// simplification. Given a predicate that is an OR of AND-bundles
//
//	(c1 ∧ c2 ∧ c3) ∨ (c1 ∧ c4 ∧ c5) ∨ (c1 ∧ c6 ∧ c7)
//
// it pulls every conjunct present in all disjuncts out of the OR:
//
//	c1 ∧ ((c2 ∧ c3) ∨ (c4 ∧ c5) ∨ (c6 ∧ c7))
//
// It returns the common conjuncts and the residual predicate. If no
// common conjunct exists (or the input is not an OR), common is nil and
// residual is the input unchanged.
func ExtractCommonConjuncts(pred Expr) (common []Expr, residual Expr) {
	disjuncts := SplitDisjuncts(pred)
	if len(disjuncts) < 2 {
		return nil, pred
	}
	bundles := make([][]Expr, len(disjuncts))
	for i, d := range disjuncts {
		bundles[i] = SplitConjuncts(d)
	}
	// A conjunct is common if a structurally identical conjunct appears in
	// every bundle.
	for _, cand := range bundles[0] {
		inAll := true
		for _, bundle := range bundles[1:] {
			found := false
			for _, c := range bundle {
				if Equal(cand, c) {
					found = true
					break
				}
			}
			if !found {
				inAll = false
				break
			}
		}
		if inAll {
			common = append(common, cand)
		}
	}
	if len(common) == 0 {
		return nil, pred
	}
	// Rebuild the residual OR from the bundles minus the common conjuncts.
	newDisjuncts := make([]Expr, len(bundles))
	for i, bundle := range bundles {
		var rest []Expr
		for _, c := range bundle {
			isCommon := false
			for _, cc := range common {
				if Equal(c, cc) {
					isCommon = true
					break
				}
			}
			if !isCommon {
				rest = append(rest, c)
			}
		}
		newDisjuncts[i] = Conjunction(rest)
	}
	// If any disjunct became empty (pure TRUE), the residual OR is TRUE.
	for _, d := range newDisjuncts {
		if IsLiteralTrue(d) {
			return common, True
		}
	}
	return common, Disjunction(newDisjuncts)
}

// EquiKey is one equality column pair of a join condition, expressed in
// each side's local column space.
type EquiKey struct {
	Left  int // column ordinal in the left input
	Right int // column ordinal in the right input
}

// SplitJoinCondition analyzes a join predicate over a concatenated
// (left ++ right) row with leftWidth columns from the left input. It
// returns the equi-join key pairs and the remaining non-equi conjuncts.
// A conjunct qualifies as an equi key when it is `leftCol = rightCol`
// (either operand order).
func SplitJoinCondition(cond Expr, leftWidth int) (keys []EquiKey, remaining []Expr) {
	for _, c := range SplitConjuncts(cond) {
		if k, ok := asEquiKey(c, leftWidth); ok {
			keys = append(keys, k)
			continue
		}
		remaining = append(remaining, c)
	}
	return keys, remaining
}

func asEquiKey(c Expr, leftWidth int) (EquiKey, bool) {
	b, ok := c.(*BinOp)
	if !ok || b.Op != OpEq {
		return EquiKey{}, false
	}
	lc, lok := b.L.(*ColRef)
	rc, rok := b.R.(*ColRef)
	if !lok || !rok {
		return EquiKey{}, false
	}
	switch {
	case lc.Index < leftWidth && rc.Index >= leftWidth:
		return EquiKey{Left: lc.Index, Right: rc.Index - leftWidth}, true
	case rc.Index < leftWidth && lc.Index >= leftWidth:
		return EquiKey{Left: rc.Index, Right: lc.Index - leftWidth}, true
	default:
		return EquiKey{}, false
	}
}

// ClassifyPredicate reports which side(s) of a join a predicate touches
// given the left input width: "left", "right", "both" or "none".
func ClassifyPredicate(e Expr, leftWidth int) string {
	cols := ColumnsUsed(e)
	switch {
	case len(cols) == 0:
		return "none"
	case cols.AllBelow(leftWidth):
		return "left"
	case cols.AllAtOrAbove(leftWidth):
		return "right"
	default:
		return "both"
	}
}
