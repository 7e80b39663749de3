package main

import (
	"strings"
	"testing"

	"fsdinference/internal/experiments"
)

// TestRunList prints one line per registered experiment, id first.
func TestRunList(t *testing.T) {
	var stdout, stderr strings.Builder
	if err := run([]string{"-list"}, &stdout, &stderr); err != nil {
		t.Fatal(err)
	}
	lines := strings.Split(strings.TrimSuffix(stdout.String(), "\n"), "\n")
	reg := experiments.Registry()
	if len(lines) != len(reg) {
		t.Fatalf("%d lines for %d experiments:\n%s", len(lines), len(reg), stdout.String())
	}
	for i, r := range reg {
		if !strings.HasPrefix(lines[i], r.ID+" ") || !strings.HasSuffix(lines[i], r.Desc) {
			t.Errorf("line %d is %q, want %s and its description", i, lines[i], r.ID)
		}
	}
}

// TestRunOneExperiment regenerates the cheapest experiment at the quick
// scale: its table, then the regeneration line.
func TestRunOneExperiment(t *testing.T) {
	var stdout, stderr strings.Builder
	if err := run([]string{"-exp", "quota", "-scale", "quick"}, &stdout, &stderr); err != nil {
		t.Fatal(err)
	}
	r, _ := experiments.Find("quota")
	tab, err := r.Run(experiments.NewLab(experiments.QuickScale()))
	if err != nil {
		t.Fatal(err)
	}
	out := stdout.String()
	if !strings.HasPrefix(out, tab.String()+"\n(quota regenerated in ") {
		t.Errorf("output is not the quota table and its regeneration line:\n%s", out)
	}
}

// TestRunRejectsUnknown: an unknown experiment, at either scale, or an
// unknown scale is an error that names it, and nothing runs or prints.
func TestRunRejectsUnknown(t *testing.T) {
	for _, tc := range []struct {
		args []string
		want string
	}{
		{[]string{"-exp", "fig99"}, "fig99"},
		{[]string{"-exp", "fig99", "-scale", "default"}, "fig99"},
		{[]string{"-scale", "huge"}, "huge"},
		{[]string{"-nosuch"}, "-nosuch"},
	} {
		var stdout, stderr strings.Builder
		err := run(tc.args, &stdout, &stderr)
		if err == nil || !strings.Contains(err.Error(), tc.want) {
			t.Errorf("run(%v) = %v, want an error naming %s", tc.args, err, tc.want)
		}
		if stdout.Len() != 0 {
			t.Errorf("run(%v) printed:\n%s", tc.args, stdout.String())
		}
	}
}
