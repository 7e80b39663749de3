package serve

import (
	"testing"
	"time"

	"fsdinference/internal/cloud/env"
	"fsdinference/internal/core"
	"fsdinference/internal/workload"
)

// The planner-hysteresis regression (ROADMAP open item): a workload
// hovering at the memory break-even — its EWMA arrival rate oscillating
// ~10% either side — previously produced back-to-back ReplanEvents,
// flapping the deployment between Queue and Memory on every wiggle. With
// the +-20% hysteresis band the endpoint holds its configuration, although
// the trace crosses the plain threshold in every block.
func TestBreakEvenHysteresisDampsFlapping(t *testing.T) {
	if testing.Short() {
		t.Skip("replay with planner trials is a long simulation")
	}
	m := testModel(t, 256, 6)
	build := func() (*Service, *Endpoint) {
		t.Helper()
		svc, err := NewService(env.NewDefault(),
			WithEndpoint("slo", m, WithSLO(SLOOptions{
				LatencyWeight: 0, // cost objective: the break-even decides
				Channels:      []core.ChannelKind{core.Queue, core.Memory},
				Workers:       []int{2},
				ProbeBatch:    4,
				MinRuns:       1,
			})),
			WithCoalescing(4, 0),
		)
		if err != nil {
			t.Fatal(err)
		}
		return svc, svc.byName["slo"]
	}

	// Probe the break-even once; the replayed service shares model, grid
	// and seed, so its measured break-even agrees.
	_, ep := build()
	be := ep.slo.planner.Last().MemoryBreakEvenQueriesPerDay
	if be <= 0 {
		t.Fatal("initial decision measured no memory break-even")
	}

	// Oscillating arrival rate: alternating blocks whose steady rates
	// project to ~1.10x and ~0.90x the break-even — crossing the plain
	// threshold every block, never clearing the +-20% band.
	hiGap := time.Duration(float64(24*time.Hour) / (1.10 * float64(be)))
	loGap := time.Duration(float64(24*time.Hour) / (0.90 * float64(be)))
	var trace []workload.Query
	at := time.Duration(0)
	for block := 0; block < 4; block++ {
		gap := hiGap
		if block%2 == 1 {
			gap = loGap
		}
		for i := 0; i < 14; i++ {
			at += gap
			trace = append(trace, workload.Query{At: at, Neurons: 256, Samples: 4})
		}
	}

	svc, _ := build()
	rep, err := svc.Replay(trace, ReplayOptions{Seed: 11})
	if err != nil {
		t.Fatal(err)
	}
	if rep.Failed != 0 {
		t.Fatalf("%d failed queries", rep.Failed)
	}
	if n := len(rep.Endpoints[0].Replans); n != 0 {
		t.Fatalf("with the hysteresis band the hovering trace still produced %d replans, want 0", n)
	}
}
