package main

import (
	"strings"
	"testing"

	"fsdinference/internal/golden"
)

// TestGoldenOutput pins fsdpart's table at a small shape (N=256, L=2, P=4):
// every scheme's row transfers, pairs, rows per pair, largest part and
// non-zero imbalance. A change to the table, or to a partition the schemes
// pick, rewrites testdata/TestGoldenOutput.golden with `make golden` and
// shows as its diff.
func TestGoldenOutput(t *testing.T) {
	var stdout, stderr strings.Builder
	if err := run([]string{"-neurons", "256", "-layers", "2", "-workers", "4"}, &stdout, &stderr); err != nil {
		t.Fatalf("%v\n%s", err, stderr.String())
	}
	golden.Check(t, stdout.String())
}

// TestRunRejectsBadFlags: a flag error or an impossible dimension is an
// error from run that names the flag, not a table; -workers 0 printed the
// model line and a table header before BuildPlan refused it.
func TestRunRejectsBadFlags(t *testing.T) {
	for _, tc := range []struct {
		args []string
		want string
	}{
		{[]string{"-workers", "0"}, "-workers"},
		{[]string{"-workers", "-3"}, "-workers"},
		{[]string{"-neurons", "0"}, "-neurons"},
		{[]string{"-layers", "0"}, "-layers"},
		{[]string{"-workers", "x"}, "-workers"},
		{[]string{"-nosuch"}, "-nosuch"},
	} {
		var stdout, stderr strings.Builder
		err := run(tc.args, &stdout, &stderr)
		if err == nil || !strings.Contains(err.Error(), tc.want) {
			t.Errorf("run(%v) = %v, want an error naming %s", tc.args, err, tc.want)
		}
		if stdout.Len() != 0 {
			t.Errorf("run(%v) printed a table:\n%s", tc.args, stdout.String())
		}
	}
}
