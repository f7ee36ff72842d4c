package expr

// ObserveLeaves calls fn with every expression the kernel compiler hands
// to an Eval leaf. It returns the function that undoes it.
func ObserveLeaves(fn func(Expr)) (restore func()) {
	testHooks.leaf = fn
	return func() { testHooks.leaf = nil }
}
