// Package golden pins a test's output to a text file under the calling
// package's testdata/, named from the test: testdata/<t.Name()>.golden, so
// each subtest has its own file. Run with -update (`make golden`), Check
// rewrites the file from this run's output instead of comparing, and the
// moved lines show as the file's git diff.
package golden

import (
	"flag"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

var update = flag.Bool("update", false, "rewrite each testdata/<test>.golden file from this run's output")

// Check fails t with one `-`/`+` pair per moved line, each named
// file:line, when got differs from t's golden file.
//
//simlint:allow testonly — test support: every TestGolden* calls it, and no program does
func Check(t testing.TB, got string) {
	t.Helper()
	path := filepath.Join("testdata", filepath.FromSlash(t.Name())+".golden")
	if *update {
		if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
			t.Fatalf("%v", err)
		}
		if err := os.WriteFile(path, []byte(got), 0o644); err != nil {
			t.Fatalf("%v", err)
		}
		return
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("%v (run `make golden` to capture it)", err)
	}
	if got == string(want) {
		return
	}
	gotLines, wantLines := strings.Split(got, "\n"), strings.Split(string(want), "\n")
	if len(gotLines) != len(wantLines) {
		t.Errorf("%d lines, %s has %d", len(gotLines), path, len(wantLines))
	}
	for i := 0; i < len(gotLines) && i < len(wantLines); i++ {
		if gotLines[i] != wantLines[i] {
			t.Errorf("%s:%d\n-%s\n+%s", path, i+1, wantLines[i], gotLines[i])
		}
	}
}
