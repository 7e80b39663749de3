// Command bench stands in for the repository benchmark: a module of its
// own beside the root whose references count as production callers.
package main

import "testonly/lib"

func main() {
	lib.BenchOnly()
	var s lib.Stats
	_ = s.Bench
}
