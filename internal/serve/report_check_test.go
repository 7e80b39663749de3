package serve

import (
	"strings"
	"testing"
	"time"
)

// TestReportCheck breaks a consistent report one invariant at a time: Check
// must pass the sound report and name each break.
func TestReportCheck(t *testing.T) {
	sound := func() *Report {
		lat := func(n int) LatencyStats { return LatencyStats{Count: n, Max: 2 * time.Second} }
		return &Report{
			Queries: 10, Failed: 1, Samples: 54, Horizon: time.Minute, Latency: lat(9),
			Endpoints: []EndpointReport{
				{Name: "a", Queries: 6, Failed: 1, Samples: 30, Latency: lat(5),
					PerPriority: []PriorityLatency{{Priority: 1, Latency: lat(2)}, {Priority: 0, Latency: lat(3)}}},
				{Name: "b", Queries: 4, Samples: 24, Latency: lat(4)},
			},
		}
	}
	if err := sound().Check(); err != nil {
		t.Fatalf("sound report rejected: %v", err)
	}
	if err := (&Report{}).Check(); err != nil {
		t.Fatalf("empty report rejected: %v", err)
	}
	for _, tc := range []struct {
		name   string
		mutate func(*Report)
		want   string
	}{
		{"endpoint queries", func(r *Report) { r.Endpoints[1].Queries++; r.Endpoints[1].Latency.Count++ }, "endpoints sum to 11 queries"},
		{"endpoint failed", func(r *Report) { r.Endpoints[1].Failed++; r.Endpoints[1].Latency.Count-- }, "endpoints sum to 10 queries, 2 failed"},
		{"endpoint samples", func(r *Report) { r.Endpoints[0].Samples-- }, "53 samples"},
		{"total latency count", func(r *Report) { r.Latency.Count = 10 }, "10 latencies for 10 queries, 1 failed"},
		{"endpoint latency count", func(r *Report) { r.Endpoints[1].Latency.Count = 3 }, "endpoint b has 3 latencies for 4 queries"},
		// The streaming replay's defect: class 0 requests before the first
		// classed one were left out of the breakdown.
		{"priority classes", func(r *Report) { r.Endpoints[0].PerPriority[1].Latency.Count = 1 }, "endpoint a has 5 latencies, its priority classes 3"},
		{"latency beyond horizon", func(r *Report) { r.Horizon = time.Second }, "slowest request took 2s, the replay 1s"},
	} {
		rep := sound()
		tc.mutate(rep)
		if err := rep.Check(); err == nil || !strings.Contains(err.Error(), tc.want) {
			t.Errorf("%s: got %v, want an error containing %q", tc.name, err, tc.want)
		}
	}
}
