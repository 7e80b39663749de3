package main

import (
	"fmt"
	"strings"
	"testing"

	"fsdinference/internal/golden"
)

// TestWorkloadForRejectsImpossibleDimensions: -workers 0 used to divide by
// zero, and negative layers, batches and volumes flowed into the cost model
// unchecked.
func TestWorkloadForRejectsImpossibleDimensions(t *testing.T) {
	w, err := workloadFor(16384, 120, 42, 10000, 0)
	if err != nil {
		t.Fatal(err)
	}
	if w.Workers != 42 || w.Layers != 120 || w.PairsPerLayer != 42*6 || w.Frame.Rows <= 0 || w.ModelBytes <= 0 {
		t.Fatalf("default workload = %+v", w)
	}
	for _, tc := range []struct {
		neurons, layers, workers, batch int
		queries                         int64
		flag                            string
	}{
		{0, 120, 42, 10000, 0, "-neurons"},
		{16384, 0, 42, 10000, 0, "-layers"},
		{16384, -3, 42, 10000, 0, "-layers"},
		{16384, 120, 0, 10000, 0, "-workers"},
		{16384, 120, -1, 10000, 0, "-workers"},
		{16384, 120, 42, 0, 0, "-batch"},
		{16384, 120, 42, 10000, -1, "-queries"},
		{16, 120, 42, 10000, 0, "-workers"},
	} {
		_, err := workloadFor(tc.neurons, tc.layers, tc.workers, tc.batch, tc.queries)
		if err == nil || !strings.Contains(err.Error(), tc.flag) {
			t.Errorf("workloadFor(%d, %d, %d, %d, %d) = %v, want an error naming %s",
				tc.neurons, tc.layers, tc.workers, tc.batch, tc.queries, err, tc.flag)
		}
	}
}

// TestPairsNeverExceedWorkerPairs: the per-layer pair count was P·6 at any
// P, so -workers 2 priced 12 pairs where 2 exist.
func TestPairsNeverExceedWorkerPairs(t *testing.T) {
	for _, tc := range []struct {
		workers int
		pairs   int64
	}{{1, 0}, {2, 2}, {3, 6}, {7, 42}, {8, 48}, {42, 252}} {
		w, err := workloadFor(16384, 120, tc.workers, 10000, 0)
		if err != nil {
			t.Fatal(err)
		}
		if w.PairsPerLayer != tc.pairs {
			t.Errorf("-workers %d: %d pairs per layer, want %d", tc.workers, w.PairsPerLayer, tc.pairs)
		}
	}
}

// TestRunSmallWorkerCounts: -workers 2 prints its two pairs, and -workers 1,
// with no pairs to price, prints no 0/0 ratio and no break-even of 0.
func TestRunSmallWorkerCounts(t *testing.T) {
	for _, tc := range []struct{ workers, pairs, breakEven string }{
		{"1", "pairs=0", "no break-even"},
		{"2", "pairs=2", "break-even ~"},
	} {
		var stdout, stderr strings.Builder
		if err := run([]string{"-workers", tc.workers}, &stdout, &stderr); err != nil {
			t.Fatalf("-workers %s: %v\n%s", tc.workers, err, stderr.String())
		}
		out := stdout.String()
		if !strings.Contains(out, "("+tc.pairs+")") {
			t.Errorf("-workers %s: report lacks %q:\n%s", tc.workers, tc.pairs, out)
		}
		if !strings.Contains(out, tc.breakEven) {
			t.Errorf("-workers %s: report lacks %q:\n%s", tc.workers, tc.breakEven, out)
		}
		if strings.Contains(out, "NaN") {
			t.Errorf("-workers %s: report prints NaN:\n%s", tc.workers, out)
		}
	}
}

// TestOneWorkerHasNoPerPairVerdict: with one worker no pair exchanges
// anything, so no channel verdict may cite a per-pair volume; -workers 1
// pruned Queue for "per-pair volume 39321600 B needs 150 publish chunks".
// Two workers at each size still carry one, so the check can fail.
func TestOneWorkerHasNoPerPairVerdict(t *testing.T) {
	for _, n := range []string{"4096", "16384", "65536"} {
		for _, q := range []string{"0", "10000000"} {
			for _, workers := range []string{"1", "2"} {
				args := []string{"-neurons", n, "-queries", q, "-workers", workers}
				var stdout, stderr strings.Builder
				if err := run(args, &stdout, &stderr); err != nil {
					t.Fatalf("%v: %v\n%s", args, err, stderr.String())
				}
				_, verdicts, ok := strings.Cut(stdout.String(), "channel verdicts")
				if !ok {
					t.Fatalf("%v: report has no channel verdicts:\n%s", args, stdout.String())
				}
				if perPair := strings.Contains(verdicts, "per-pair"); perPair != (workers != "1") {
					t.Errorf("%v: a verdict cites a per-pair volume: %v, want %v:\n%s", args, perPair, workers != "1", verdicts)
				}
			}
		}
	}
}

// TestGoldenOutput pins fsdcost's report, a "$ fsdcost <args>" line before
// each, over N in {4096, 16384, 65536} at an unknown (sporadic) and a
// sustained 10M/day volume. A change to the report rewrites
// testdata/TestGoldenOutput.golden with `make golden` and shows as its diff.
func TestGoldenOutput(t *testing.T) {
	var b strings.Builder
	for _, n := range []string{"4096", "16384", "65536"} {
		for _, q := range []string{"0", "10000000"} {
			args := []string{"-neurons", n, "-queries", q}
			fmt.Fprintf(&b, "$ fsdcost %s\n", strings.Join(args, " "))
			var stderr strings.Builder
			if err := run(args, &b, &stderr); err != nil {
				t.Fatalf("%v: %v\n%s", args, err, stderr.String())
			}
			b.WriteByte('\n')
		}
	}
	golden.Check(t, b.String())
}

// TestRunRejectsBadFlags: a flag error or an impossible dimension is an
// error from run, not a report.
func TestRunRejectsBadFlags(t *testing.T) {
	for _, args := range [][]string{{"-neurons", "x"}, {"-workers", "0"}, {"-nosuch"}} {
		var stdout, stderr strings.Builder
		if err := run(args, &stdout, &stderr); err == nil {
			t.Errorf("run(%v) = nil, want an error", args)
		}
		if stdout.Len() != 0 {
			t.Errorf("run(%v) printed a report:\n%s", args, stdout.String())
		}
	}
}
