package testonly_test

import (
	"os"
	"path/filepath"
	"testing"

	"fsdinference/tools/simlint/analysis/analysistest"
	"fsdinference/tools/simlint/passes/testonly"
)

// The fixture is a module of its own (testdata/src/testonly/go.mod)
// with a second module under bench/ standing in for the repository
// benchmark. The source importer resolves imports with `go list` in the
// working directory, so the test runs from the fixture module's root as
// `make lint` runs from the repository's.
func TestTestonly(t *testing.T) {
	testdata, err := filepath.Abs("testdata")
	if err != nil {
		t.Fatal(err)
	}
	wd, err := os.Getwd()
	if err != nil {
		t.Fatal(err)
	}
	if err := os.Chdir(filepath.Join(testdata, "src", "testonly")); err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { os.Chdir(wd) })
	analysistest.Run(t, testdata, testonly.Analyzer,
		"testonly/lib",
		"testonly/app",
		"testonly/iface",
		"testonly/suppressed",
	)
}
