package main

import (
	"encoding/json"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// small is the smallest replay every case shares: six queries of four
// samples over two two-layer endpoints.
var small = []string{"-queries", "6", "-sizes", "64,128", "-batch", "4", "-layers", "2"}

// TestRunFlags runs each flag README documents at the smallest scale and
// checks the output's shape: the report with the configuration the flags
// asked for, and each summary or file a flag adds.
func TestRunFlags(t *testing.T) {
	dir := t.TempDir()
	tracePath := filepath.Join(dir, "trace.json")
	csvPath := filepath.Join(dir, "mon.csv")
	for _, tc := range []struct {
		name string
		args []string
		want []string
		// files maps a path the run writes to a line it must contain.
		files map[string]string
	}{
		{
			name: "fixed pool, verified",
			args: []string{"-replicas", "1", "-verify"},
			want: []string{"endpoints [n64 n128]", "serving report: 6 queries (24 samples), 0 failed",
				"endpoint n64 (N=64, FSD-Inf-Serial, 1 replica(s))", "fixed(1) scaling",
				"all outputs verified against reference inference"},
		},
		{
			name: "autoscale",
			args: []string{"-autoscale", "-max-replicas", "2", "-run-concurrency", "2", "-coalesce-batch", "8", "-coalesce-delay", "50ms"},
			want: []string{"autoscale(1..2) scaling"},
		},
		{
			name:  "trace",
			args:  []string{"-workers", "2", "-channel", "memory", "-trace", tracePath, "-trace-sample", "1"},
			want:  []string{"FSD-Inf-Memory x2", "wrote " + tracePath, "flame summary (1 in 1 requests sampled)", "metrics:", "runs_total{endpoint=n64,channel=FSD-Inf-Memory}"},
			files: map[string]string{tracePath: `"traceEvents"`},
		},
		{
			name: "queue by worker count",
			args: []string{"-workers", "2", "-verify"},
			want: []string{"FSD-Inf-Queue x2", "all outputs verified"},
		},
		{
			name: "hybrid, monitor default SLO",
			args: []string{"-workers", "2", "-channel", "hybrid", "-monitor", "-monitor-interval", "2m"},
			want: []string{"FSD-Inf-Hybrid x2", "hybrid routing:", "burn-rate alerts (scrape every 2m0s of simulated time)", "monitor snapshot (prometheus text)"},
		},
		{
			name:  "slo and csv",
			args:  []string{"-slo", "latency:p95<=2s@0.99,endpoint=n64", "-slo", "availability@0.999", "-monitor-csv", csvPath},
			want:  []string{"burn-rate alerts", "wrote " + csvPath},
			files: map[string]string{csvPath: "endpoint"},
		},
	} {
		t.Run(tc.name, func(t *testing.T) {
			var stdout, stderr strings.Builder
			if err := run(append(append([]string{}, small...), tc.args...), &stdout, &stderr); err != nil {
				t.Fatalf("%v\n%s", err, stderr.String())
			}
			for _, w := range tc.want {
				if !strings.Contains(stdout.String(), w) {
					t.Errorf("output lacks %q:\n%s", w, stdout.String())
				}
			}
			for path, w := range tc.files {
				b, err := os.ReadFile(path)
				if err != nil {
					t.Fatal(err)
				}
				if !strings.Contains(string(b), w) {
					t.Errorf("%s lacks %q", path, w)
				}
			}
		})
	}
	b, err := os.ReadFile(tracePath)
	if err != nil {
		t.Fatal(err)
	}
	if !json.Valid(b) {
		t.Errorf("%s is not JSON", tracePath)
	}
}

// TestRunRejectsBadFlags: a flag error names the flag and prints nothing;
// an autoscaled pool is bounded by at least one replica.
func TestRunRejectsBadFlags(t *testing.T) {
	for _, tc := range []struct {
		args []string
		want string
	}{
		{[]string{"-autoscale", "-max-replicas", "0"}, "-max-replicas"},
		{[]string{"-autoscale", "-max-replicas", "-3"}, "-max-replicas"},
		{[]string{"-sizes", "64,x"}, "-sizes"},
		{[]string{"-sizes", ""}, "-sizes"},
		{[]string{"-channel", "carrier-pigeon"}, "carrier-pigeon"},
		{[]string{"-slo", "latency:p95"}, "latency:p95"},
		{[]string{"-nosuch"}, "-nosuch"},
	} {
		var stdout, stderr strings.Builder
		err := run(append(append([]string{}, small...), tc.args...), &stdout, &stderr)
		if err == nil || !strings.Contains(err.Error(), tc.want) {
			t.Errorf("run(%v) = %v, want an error naming %s", tc.args, err, tc.want)
		}
		if stdout.Len() != 0 {
			t.Errorf("run(%v) printed:\n%s", tc.args, stdout.String())
		}
	}
}

// TestRunReportsUnwritableFiles: a trace or CSV path that cannot be created
// is an error after the report, not a crash.
func TestRunReportsUnwritableFiles(t *testing.T) {
	missing := filepath.Join(t.TempDir(), "no", "such", "dir", "out")
	for _, args := range [][]string{{"-trace", missing}, {"-monitor", "-monitor-csv", missing}} {
		var stdout, stderr strings.Builder
		err := run(append(append([]string{}, small...), args...), &stdout, &stderr)
		if err == nil || !strings.Contains(err.Error(), "writing") {
			t.Errorf("run(%v) = %v, want a writing error", args, err)
		}
	}
}
