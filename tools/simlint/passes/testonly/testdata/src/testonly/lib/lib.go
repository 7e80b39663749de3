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

// Stats has one field per case of the field rule; app writes and reads
// them as each comment says.
type Stats struct {
	Total   int  // written and read by app
	Calls   int  // want `Stats.Calls is exported but no non-test file in the module or bench/ reads it`
	Verbose bool // want `Stats.Verbose is exported but no non-test file in the module or bench/ writes it`
	Bench   int  // written by app, read only by bench
	Tested  int  // want `Stats.Tested is exported but no non-test file in the module or bench/ reads it`
	hidden  int  // unexported fields are out of scope
}

// Pair is only ever built by a positional literal, which writes both
// fields.
type Pair struct{ A, B int }
