// Package suppressed shows a reasoned testonly suppression and a bare
// directive, which suppresses nothing and is itself a finding.
package suppressed

//simlint:allow testonly — fixture: other packages' tests inspect it
func Inspect() int { return 0 }

//simlint:allow testonly // want "bare //simlint:allow testonly"
func Bare() int { return 0 } // want `Bare is exported but no non-test file`

// Probe's field is kept for tests the way a function is.
type Probe struct {
	//simlint:allow testonly — fixture: other packages' tests read it
	Level int
}
