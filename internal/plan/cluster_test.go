package plan

import (
	"strings"
	"testing"

	"fsdinference/internal/core"
	"fsdinference/internal/wire"
)

// The hysteresis band around the break-even: crossings inside the band
// do not fire, crossings past its far edge do, and the degenerate band
// reproduces the plain side comparison.
func TestCrossedBreakEvenHysteresis(t *testing.T) {
	const be = 1000
	cases := []struct {
		prev, now int64
		band      float64
		want      bool
	}{
		{500, 1100, 0.2, false},  // up, inside the band: hold
		{500, 1201, 0.2, true},   // up, past the band: flip
		{1500, 900, 0.2, false},  // down, inside the band: hold
		{1500, 799, 0.2, true},   // down, past the band: flip
		{500, 1100, 0, true},     // no band: plain crossing
		{1500, 999, 0, true},     // no band: plain crossing
		{500, 900, 0.2, false},   // no crossing at all
		{1500, 1100, 0.2, false}, // still above: no crossing
		{500, 1100, -1, true},    // negative band degenerates to none
	}
	for _, c := range cases {
		if got := CrossedBreakEven(c.prev, c.now, be, c.band); got != c.want {
			t.Errorf("CrossedBreakEven(%d, %d, %d, %.1f) = %v, want %v",
				c.prev, c.now, be, c.band, got, c.want)
		}
	}
	if CrossedBreakEven(500, 2000, 0, 0.2) {
		t.Error("no break-even measured, but a crossing fired")
	}
}

// A sustained volume that saturates one node's request-rate ceiling
// steers the planner to a sharded memory cluster: the pre-filter rules
// the single node out as infeasible, and the surviving 2-shard candidate
// wins the cost objective at that volume.
func TestPlannerPicksShardedClusterForSaturatingVolume(t *testing.T) {
	m := testModel(t, 256, 6)
	p, err := New(m, Options{
		Objective: CostObjective(),
		Grid: Grid{
			Channels:    []core.ChannelKind{core.Queue, core.Memory},
			Workers:     []int{8},
			KVNodeTypes: []string{"cache.t3.small"},
			KVNodes:     []int{1, 2},
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	// ~8M queries/day drives the per-query op count past one
	// cache.t3.small's 40k ops/s ceiling but within two shards'.
	d, err := p.Plan(WorkloadProfile{QueriesPerDay: 8_000_000, BatchSamples: 8})
	if err != nil {
		t.Fatal(err)
	}
	if d.Best.Channel != core.Memory || d.Best.KVNodes != 2 {
		t.Fatalf("saturating volume picked %v, want the 2-shard memory cluster", d.Best)
	}
	if d.Config.KVNodes != 2 {
		t.Fatalf("decision config deploys %d shards, want 2", d.Config.KVNodes)
	}
	var single *Trial
	for i := range d.Trials {
		c := d.Trials[i].Candidate
		if c.Channel == core.Memory && c.KVNodes == 1 {
			single = &d.Trials[i]
		}
	}
	if single == nil || !single.Pruned || !strings.Contains(single.PruneReason, "saturat") {
		t.Fatalf("single-node candidate not pruned as saturated: %+v", single)
	}
}

// Below saturation, a pure cost objective keeps only the single-node
// memory variant: shards and replicas add node-hours with no per-request
// savings, so the pre-filter prunes them as dominated before any trial.
func TestCostObjectivePrunesClusterVariantsWhenSingleNodeSuffices(t *testing.T) {
	m := testModel(t, 256, 6)
	p, err := New(m, Options{
		Objective: CostObjective(),
		Grid: Grid{
			Channels:   []core.ChannelKind{core.Queue, core.Memory},
			Workers:    []int{2},
			KVNodes:    []int{1, 2},
			KVReplicas: []int{0, 1},
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	d, err := p.Plan(WorkloadProfile{QueriesPerDay: 200_000, BatchSamples: 8})
	if err != nil {
		t.Fatal(err)
	}
	if d.Best.Channel != core.Memory || d.Best.KVNodes != 1 || d.Best.KVReplicas != 0 {
		t.Fatalf("sustained volume picked %v, want the single-node memory store", d.Best)
	}
	dominated := 0
	for _, tr := range d.Trials {
		c := tr.Candidate
		if c.Channel != core.Memory || c.clusterNodes() <= 1 {
			continue
		}
		if !tr.Pruned || !strings.Contains(tr.PruneReason, "dominated") {
			t.Fatalf("cluster variant %v not dominance-pruned: %+v", c, tr)
		}
		dominated++
	}
	if dominated != 3 {
		t.Fatalf("pruned %d cluster variants, want 3 (2 shards x {0,1} replicas + 1 shard x 1 replica)", dominated)
	}
}

// TestHybridClusterDominatedWhenOneNodeCarriesIt: Hybrid provisions the
// same store, so under a pure cost objective its larger clusters are
// dominated as Memory's are, and kept when one node would saturate.
func TestHybridClusterDominatedWhenOneNodeCarriesIt(t *testing.T) {
	w := core.Workload{Workers: 8, PairsPerLayer: 48, Layers: 12, Frame: wire.Frame{Rows: 8191, Batch: 1}, QueriesPerDay: 200_000}
	c := Candidate{Channel: core.Hybrid, Workers: 8, KVNodeType: core.DefaultKVNodeType, KVNodes: 2}
	if reason, _ := analyticPrune(c, w, true, true); !strings.Contains(reason, "dominated") {
		t.Fatalf("2-shard hybrid at %d/day: %q", w.QueriesPerDay, reason)
	}
	w.QueriesPerDay = 100_000_000 // ~1.37M store ops/s: one node saturates, 64 shards carry it
	c.KVNodes = 64
	if reason, _ := analyticPrune(c, w, true, true); reason != "" {
		t.Fatalf("64-shard hybrid where one node saturates: %q", reason)
	}
}

// The replicated candidate's flat daily bill prices every cluster node,
// so its scored cost under a daily volume carries the replica premium.
func TestReplicatedCandidateCarriesReplicaNodeCost(t *testing.T) {
	m := testModel(t, 256, 6)
	p, err := New(m, Options{
		Objective:        CostObjective(),
		Grid:             Grid{Channels: []core.ChannelKind{core.Memory}, Workers: []int{2}, KVReplicas: []int{0, 2}},
		DisablePrefilter: true,
	})
	if err != nil {
		t.Fatal(err)
	}
	d, err := p.Plan(WorkloadProfile{QueriesPerDay: 200_000, BatchSamples: 8})
	if err != nil {
		t.Fatal(err)
	}
	var plain, replicated *Trial
	for i := range d.Trials {
		switch d.Trials[i].Candidate.KVReplicas {
		case 0:
			plain = &d.Trials[i]
		case 2:
			replicated = &d.Trials[i]
		}
	}
	if plain == nil || replicated == nil || plain.Err != nil || replicated.Err != nil {
		t.Fatalf("missing trials: %+v", d.Trials)
	}
	if want := plain.NodeDailyCost * 3; replicated.NodeDailyCost < want*0.999 || replicated.NodeDailyCost > want*1.001 {
		t.Fatalf("R=2 daily node bill $%.4f, want 3x the plain $%.4f", replicated.NodeDailyCost, plain.NodeDailyCost)
	}
	if d.Best.KVReplicas != 0 {
		t.Fatalf("cost objective picked %v; replicas cost more with no cost benefit", d.Best)
	}
}
