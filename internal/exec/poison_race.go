//go:build race

package exec

// poisonReleased makes Lender.Release overwrite every buffer it takes
// back with its pool's sentinel. Race builds run the concurrency and
// result-lifetime tests, so a row still reading storage an execution has
// released shows there as a sentinel instead of as another execution's
// values.
const poisonReleased = true
