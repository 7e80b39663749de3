package experiments

import (
	"flag"
	"os"
	"strings"
	"testing"
)

var update = flag.Bool("update", false, "rewrite testdata/quick.golden from this run's tables")

// TestQuickGolden pins every registered experiment's table at QuickScale:
// testdata/quick.golden is what `fsdbench -exp all -scale quick` prints, less
// the wall-clock "(<id> regenerated in ...)" lines and with one blank line
// between tables. Every simulated number the paper's evaluation reports goes
// through these tables, so a change that claims to move none of them leaves
// the file alone, and a declared model change updates it
// (`go test ./internal/experiments -run TestQuickGolden -update`) and shows
// the moved cells as the file's diff. The tables are the ones the shape tests
// of this package already regenerate once per test binary, so the comparison
// adds no run of its own; `make tables` runs it alone.
func TestQuickGolden(t *testing.T) {
	var sb strings.Builder
	for _, r := range Registry() {
		sb.WriteString(table(t, r.ID).String())
		sb.WriteByte('\n')
	}
	got := sb.String()
	const path = "testdata/quick.golden"
	if *update {
		if err := os.WriteFile(path, []byte(got), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
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
