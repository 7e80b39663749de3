// Command app is the production caller that clears lib's exports.
// simlint-fixture: clean
package main

import "testonly/lib"

func main() {
	lib.Used()
	var c lib.Counter
	c.Add()
}
