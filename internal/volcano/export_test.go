package volcano

import "gignite/internal/logical"

// SetConstantHash makes every structural hash collide, so that interning
// rests on sameOperator alone. It returns the function that undoes it.
func SetConstantHash() (restore func()) {
	testHooks.constantHash = true
	return func() { testHooks.constantHash = false }
}

// ObserveInterning calls fn with every distinct logical node a planner
// interns and the group it lands in (ids are per planning run). It
// returns the function that undoes it.
func ObserveInterning(fn func(n logical.Node, group int)) (restore func()) {
	testHooks.interned = fn
	return func() { testHooks.interned = nil }
}
