//go:build race

package gignite_test

// raceBuild reports a race build, where sync.Pool drops a quarter of what
// is put back, so an execution re-makes part of what it borrows.
const raceBuild = true
