package exec

// SetBatchSize shrinks the pipeline's batch size for a test (package-
// internal and external tests of this directory alike) and returns the
// function that restores it. Nothing outside this package's tests can
// reach it.
func SetBatchSize(n int) (restore func()) {
	old := batchSize
	batchSize = n
	return func() { batchSize = old }
}
