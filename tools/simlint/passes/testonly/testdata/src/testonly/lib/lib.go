// Package lib declares exports with and without production callers.
package lib

// Used is called from another package's non-test file.
func Used() {}

// BenchOnly is called only from the bench module.
func BenchOnly() {}

func TestOnly() {} // want `TestOnly is exported but no non-test file`

// Counter's Add is called by app; Reset only by lib_test.go.
type Counter struct{ n int }

func (c *Counter) Add() { c.n++ }

func (c *Counter) Reset() { c.n = 0 } // want `Counter.Reset is exported but no non-test file`

// unexported declarations are out of scope whoever calls them.
func helper() {}
