package plan

import (
	"fmt"
	"strings"
	"testing"

	"fsdinference/internal/collective"
	"fsdinference/internal/core"
	"fsdinference/internal/golden"
	"fsdinference/internal/wire"
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
// pruneCollective, and only on Memory. Each cell's file lists every trial's
// candidate, verdict and reason, and the pick — captured while the planner
// still carried its own copy of the channel traits.
func TestGoldenCollectivePrefilter(t *testing.T) {
	if testing.Short() {
		t.Skip("three plans over a 24-candidate grid")
	}
	m := testModel(t, 256, 4)
	grid := Grid{
		Channels:    []core.ChannelKind{core.Queue, core.Object, core.Memory, core.Hybrid},
		Workers:     []int{8, 32},
		Collectives: []collective.Algorithm{collective.Flat, collective.Tree, collective.Ring},
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
			golden.Check(t, b.String())
		})
	}
}

// TestGoldenPrefilterVerdicts pins PrefilterChannels' rows — every kind's
// verdict and reason — over a grid of analytic workloads: each pair ships a
// dense raw frame of rows x batch, at batch 1 and 10 000, with sizes near
// 1 KiB, 100 KiB, 232 800 B, 1, 2, 4 and 64 MiB, on both sides of the
// Queue body limit at either batch and of the store's single-value cap;
// daily volumes from unknown through sporadic to store-saturating; and P
// in {8, 42}. The P=42 model does not fit one instance, so Serial's row
// prunes there and trials at P=8.
func TestGoldenPrefilterVerdicts(t *testing.T) {
	frames := []struct {
		rows  int64
		batch int
	}{
		{127, 1}, {12799, 1}, {29099, 1}, {32754, 1}, {32755, 1}, {131071, 1},
		{6, 10000}, {7, 10000}, {26, 10000}, {52, 10000}, {105, 10000}, {1677, 10000}, {1678, 10000},
	}
	var b strings.Builder
	for _, p := range []int{8, 42} {
		modelBytes := int64(1 << 30)
		if p == 42 {
			modelBytes = 4 << 30
		}
		for _, f := range frames {
			frame := wire.Frame{Rows: f.rows, Batch: f.batch}
			for _, qpd := range []int64{0, 1, 20_000, 10_000_000} {
				w := core.Workload{
					ModelBytes: modelBytes, MemOverhead: 5.5, InstanceCapMB: 10240,
					Workers: p, Frame: frame, PairsPerLayer: int64(6 * p), Layers: 120,
					QueriesPerDay: qpd,
				}
				for _, v := range PrefilterChannels(w) {
					fmt.Fprintf(&b, "P=%d frame=%dx%d (%d B) qpd=%d %v pruned=%v %q\n",
						p, f.rows, f.batch, frame.Bytes(), qpd, v.Channel, v.Pruned, v.Reason)
				}
			}
		}
	}
	golden.Check(t, b.String())
}
