// Command app is the production caller that clears lib's exports.
// simlint-fixture: clean
package main

import "testonly/lib"

func main() {
	lib.Used()
	var c lib.Counter
	c.Add()
	s := lib.Stats{Total: 1, Bench: 2}
	s.Calls++
	s.Tested = s.Total
	if s.Verbose {
		return
	}
	p := lib.Pair{1, 2}
	_ = p.A + p.B
}
