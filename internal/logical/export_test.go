package logical

// CountLabels calls fn for every label rendered — Digest() and
// DescribeKeys() — until the returned function is called.
func CountLabels(fn func()) (restore func()) {
	labelHook = fn
	return func() { labelHook = nil }
}
