package plan

import (
	"crypto/sha256"
	"fmt"
	"strings"
	"testing"

	"fsdinference/internal/collective"
	"fsdinference/internal/core"
)

// TestGoldenCollectivePrefilter pins the analytic pre-filter's verdicts on
// a grid that explores collective topologies on every distributed channel:
// {Queue, Object, Memory, Hybrid} x {flat, tree, ring} x P in {8, 32}, under
// the default weighted objective (feasibility and collective-dominance
// rules), under a pure cost objective at a sporadic volume (the
// cost-dominance rules on top), and under a sustained volume at a batch wide
// enough that the reduce estimate crosses the Hybrid routing threshold at
// both worker counts (Hybrid's collectives priced over its object route,
// hybridFanout wide). Elsewhere only the collectives experiment reaches
// pruneCollective, and only on Memory. The digest covers every trial's
// candidate, verdict and reason, and the pick — captured while the planner
// still carried its own copy of the channel traits.
func TestGoldenCollectivePrefilter(t *testing.T) {
	if testing.Short() {
		t.Skip("three plans over a 24-candidate grid")
	}
	golden := map[string]string{
		"weighted": "468f95e709872e88",
		"cost":     "5b1dd42f41ede042",
		"wide":     "f1b9b51b9b994c35",
	}
	m := testModel(t, 256, 4)
	grid := Grid{
		Channels:    []core.ChannelKind{core.Queue, core.Object, core.Memory, core.Hybrid},
		Workers:     []int{8, 32},
		Collectives: collective.Algorithms(),
	}
	cells := []struct {
		name    string
		obj     Objective
		profile WorkloadProfile
	}{
		{"weighted", nil, WorkloadProfile{BatchSamples: 8}},
		{"cost", CostObjective(), WorkloadProfile{QueriesPerDay: 20, BatchSamples: 8}},
		{"wide", CostObjective(), WorkloadProfile{QueriesPerDay: 50_000_000, BatchSamples: 4200, Concurrency: 64}},
	}
	for _, c := range cells {
		t.Run(c.name, func(t *testing.T) {
			p, err := New(m, Options{Objective: c.obj, Grid: grid})
			if err != nil {
				t.Fatal(err)
			}
			d, err := p.Plan(c.profile)
			if err != nil {
				t.Fatal(err)
			}
			var b strings.Builder
			for _, tr := range d.Trials {
				fmt.Fprintf(&b, "%v pruned=%v %q\n", tr.Candidate, tr.Pruned, tr.PruneReason)
			}
			fmt.Fprintf(&b, "pick %v\n", d.Best)
			sum := sha256.Sum256([]byte(b.String()))
			if got := fmt.Sprintf("%x", sum[:8]); got != golden[c.name] {
				t.Errorf("pre-filter verdicts moved: got %q, want %q\n%s", got, golden[c.name], b.String())
			}
		})
	}
}
