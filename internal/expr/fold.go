package expr

// Fold performs constant folding and trivial boolean simplification:
// constant sub-expressions are evaluated, TRUE/FALSE identities in AND/OR
// are collapsed, and double negation is removed. Fold never changes the
// semantics of an expression (including three-valued logic: x AND FALSE
// folds to FALSE, but x AND NULL does not fold because x may be FALSE).
func Fold(e Expr) Expr {
	return Transform(e, foldNode)
}

func foldNode(e Expr) Expr {
	switch n := e.(type) {
	case *BinOp:
		switch n.Op {
		case OpAnd:
			switch {
			case IsLiteralFalse(n.L) || IsLiteralFalse(n.R):
				return False
			case IsLiteralTrue(n.L):
				return n.R
			case IsLiteralTrue(n.R):
				return n.L
			}
		case OpOr:
			switch {
			case IsLiteralTrue(n.L) || IsLiteralTrue(n.R):
				return True
			case IsLiteralFalse(n.L):
				return n.R
			case IsLiteralFalse(n.R):
				return n.L
			}
		}
		if isFoldableConst(n.L) && isFoldableConst(n.R) {
			return NewLit(n.Eval(nil))
		}
		return n
	case *Not:
		if inner, ok := n.E.(*Not); ok {
			return inner.E
		}
		if IsLiteralTrue(n.E) {
			return False
		}
		if IsLiteralFalse(n.E) {
			return True
		}
		return n
	case *Neg:
		if isFoldableConst(n.E) {
			return NewLit(n.Eval(nil))
		}
		return n
	case *Cast:
		if isFoldableConst(n.E) {
			return NewLit(n.Eval(nil))
		}
		return n
	case *Func:
		for _, a := range n.Args {
			if !isFoldableConst(a) {
				return n
			}
		}
		return NewLit(n.Eval(nil))
	default:
		return e
	}
}

// isFoldableConst reports whether e is a literal whose evaluation cannot
// depend on a row. (IsConstant would also admit non-literal constant trees;
// restricting folding to direct literals keeps the rewrite cheap because
// Transform already folded the children bottom-up.)
func isFoldableConst(e Expr) bool {
	_, ok := e.(*Lit)
	return ok
}
