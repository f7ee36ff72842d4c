//go:build !race

package exec

// poisonReleased is off outside race builds: a released buffer keeps its
// values until its next borrower writes it.
const poisonReleased = false
