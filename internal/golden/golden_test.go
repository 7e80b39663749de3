package golden

import (
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"strings"
	"testing"
)

// recorder is a testing.TB named as a golden test would be, that keeps what
// Check reports instead of failing the real test.
type recorder struct {
	testing.TB
	name string
	msgs []string
}

func (r *recorder) Name() string { return r.name }
func (r *recorder) Helper()      {}
func (r *recorder) Errorf(format string, args ...any) {
	r.msgs = append(r.msgs, fmt.Sprintf(format, args...))
}
func (r *recorder) Fatalf(format string, args ...any) {
	r.Errorf(format, args...)
	runtime.Goexit()
}

// check runs Check as the test name would, with -update set or not, in a
// goroutine of its own so that a Fatalf stops Check alone, and returns
// what it reported.
func check(t *testing.T, name, got string, rewrite bool) []string {
	defer func(old bool) { *update = old }(*update)
	*update = rewrite
	r := &recorder{TB: t, name: name}
	done := make(chan struct{})
	go func() {
		defer close(done)
		Check(r, got)
	}()
	<-done
	return r.msgs
}

// inTempDir runs the test from an empty directory, so the testdata/ that
// Check reads and writes is the test's own.
func inTempDir(t *testing.T) {
	wd, err := os.Getwd()
	if err != nil {
		t.Fatal(err)
	}
	if err := os.Chdir(t.TempDir()); err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() {
		if err := os.Chdir(wd); err != nil {
			t.Fatal(err)
		}
	})
}

func TestCheckNamesEachMovedLine(t *testing.T) {
	inTempDir(t)
	if msgs := check(t, "TestCell/a", "one\ntwo\nthree\n", true); len(msgs) != 0 {
		t.Fatalf("update reported %q", msgs)
	}
	if msgs := check(t, "TestCell/a", "one\ntwo\nthree\n", false); len(msgs) != 0 {
		t.Fatalf("an unchanged output reported %q", msgs)
	}
	msgs := check(t, "TestCell/a", "one\n2\nthree\n", false)
	want := "testdata/TestCell/a.golden:2\n-two\n+2"
	if len(msgs) != 1 || msgs[0] != filepath.FromSlash(want) {
		t.Fatalf("one moved line reported %q, want [%q]", msgs, want)
	}
}

func TestCheckMissingFileNamesMakeGolden(t *testing.T) {
	inTempDir(t)
	msgs := check(t, "TestNothing", "text\n", false)
	if len(msgs) != 1 || !strings.Contains(msgs[0], "make golden") {
		t.Fatalf("a missing golden file reported %q, want one message naming `make golden`", msgs)
	}
}

func TestUpdateRewritesOnlyItsOwnCell(t *testing.T) {
	inTempDir(t)
	cells := map[string]string{"TestCell/a": "a\n", "TestCell/b": "b\nno trailing newline"}
	for name, got := range cells {
		check(t, name, got, true)
	}
	// Re-running one subtest (-run TestCell/a) rewrites its file alone.
	cells["TestCell/a"] = "a, moved\n"
	check(t, "TestCell/a", cells["TestCell/a"], true)
	for name, got := range cells {
		b, err := os.ReadFile(filepath.Join("testdata", name+".golden"))
		if err != nil {
			t.Fatal(err)
		}
		if string(b) != got {
			t.Errorf("%s holds %q, want exactly %q", name, b, got)
		}
	}
}
