package main

import (
	"strings"
	"testing"
)

// TestWorkloadForRejectsImpossibleDimensions: -workers 0 used to divide by
// zero, and negative layers, batches and volumes flowed into the cost model
// unchecked.
func TestWorkloadForRejectsImpossibleDimensions(t *testing.T) {
	w, err := workloadFor(16384, 120, 42, 10000, 0)
	if err != nil {
		t.Fatal(err)
	}
	if w.Workers != 42 || w.Layers != 120 || w.PairsPerLayer != 42*6 || w.BytesPerPairPerLayer <= 0 || w.ModelBytes <= 0 {
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
	} {
		_, err := workloadFor(tc.neurons, tc.layers, tc.workers, tc.batch, tc.queries)
		if err == nil || !strings.Contains(err.Error(), tc.flag) {
			t.Errorf("workloadFor(%d, %d, %d, %d, %d) = %v, want an error naming %s",
				tc.neurons, tc.layers, tc.workers, tc.batch, tc.queries, err, tc.flag)
		}
	}
}
