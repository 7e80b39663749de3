package main

import (
	"strings"
	"testing"
)

// TestRunEverySpelling serves one small request over every -channel and
// -scheme spelling; each must verify against reference inference and
// report its channel and worker count (Serial runs on one instance, and
// its partitioning line is not printed).
func TestRunEverySpelling(t *testing.T) {
	channels := map[string]string{
		"serial": "FSD-Inf-Serial, P=1", "queue": "FSD-Inf-Queue, P=3", "object": "FSD-Inf-Object, P=3",
		"memory": "FSD-Inf-Memory, P=3", "hybrid": "FSD-Inf-Hybrid, P=3",
	}
	for _, ch := range []string{"serial", "queue", "object", "memory", "hybrid"} {
		for _, sch := range []string{"block", "random", "hgp"} {
			var stdout, stderr strings.Builder
			args := []string{"-neurons", "64", "-layers", "2", "-workers", "3", "-batch", "4", "-channel", ch, "-scheme", sch}
			if err := run(args, &stdout, &stderr); err != nil {
				t.Fatalf("%s/%s: %v\n%s", ch, sch, err, stderr.String())
			}
			out := stdout.String()
			for _, w := range []string{channels[ch] + ", batch=4", "query latency:", "cost:", "output verified against reference inference"} {
				if !strings.Contains(out, w) {
					t.Errorf("%s/%s: output lacks %q:\n%s", ch, sch, w, out)
				}
			}
			if partitioned := strings.Contains(out, "partitioning across 3 workers ("+sch+")"); partitioned != (ch != "serial") {
				t.Errorf("%s/%s: partitioning line printed %v:\n%s", ch, sch, partitioned, out)
			}
		}
	}
}

// TestRunWithoutVerify prints the report and no verification line.
func TestRunWithoutVerify(t *testing.T) {
	var stdout, stderr strings.Builder
	if err := run([]string{"-neurons", "64", "-layers", "2", "-workers", "2", "-batch", "4", "-verify=false"}, &stdout, &stderr); err != nil {
		t.Fatal(err)
	}
	if out := stdout.String(); !strings.Contains(out, "bytes shipped:") || strings.Contains(out, "verified") {
		t.Errorf("output:\n%s", out)
	}
}

// TestRunRejectsBadFlags: an unknown spelling or flag is an error that
// names it, and nothing prints; an impossible dimension is an error too.
func TestRunRejectsBadFlags(t *testing.T) {
	for _, tc := range []struct {
		args  []string
		want  string
		quiet bool
	}{
		{[]string{"-channel", "carrier-pigeon"}, "carrier-pigeon", true},
		{[]string{"-scheme", "metis"}, "metis", true},
		{[]string{"-nosuch"}, "-nosuch", true},
		{[]string{"-neurons", "64", "-layers", "2", "-workers", "0"}, "", false},
		{[]string{"-neurons", "0"}, "", false},
	} {
		var stdout, stderr strings.Builder
		err := run(tc.args, &stdout, &stderr)
		if err == nil || !strings.Contains(err.Error(), tc.want) {
			t.Errorf("run(%v) = %v, want an error naming %q", tc.args, err, tc.want)
		}
		if tc.quiet && stdout.Len() != 0 {
			t.Errorf("run(%v) printed:\n%s", tc.args, stdout.String())
		}
	}
}
