//go:build !race

package gignite_test

// raceBuild reports a race build (race_test.go).
const raceBuild = false
