package lib

import "testing"

// Exported declarations in a test file are never findings.
func Fixture() *Counter { return &Counter{} }

func TestLib(t *testing.T) {
	TestOnly()
	c := Fixture()
	c.Reset()
	helper()
	var s Stats
	s.Verbose = true
	_ = s.Tested + s.Calls + s.hidden
}
