package cost_test

import (
	"strings"
	"testing"

	"fsdinference/internal/cloud/pricing"
	"fsdinference/internal/core"
	"fsdinference/internal/cost"
	"fsdinference/internal/plan"
)

// The channel advice fsdcost prints is the planner's pre-filter run on a
// cost.Workload; these tests hold its verdicts on paper-scale workloads:
// a 4 GiB model that no single instance holds, so Serial is pruned.

// moderate is 42 workers exchanging 100 KiB per pair per layer.
func moderate(queriesPerDay int64) cost.Workload {
	return cost.Workload{
		ModelBytes: 4 << 30, MemOverhead: 5.5, InstanceCapMB: 10240,
		Workers: 42, BytesPerPairPerLayer: 100 * 1024, PairsPerLayer: 500, Layers: 120,
		QueriesPerDay: queriesPerDay,
	}
}

// verdict returns plan.PrefilterChannels' row for kind.
func verdict(t *testing.T, w cost.Workload, kind core.ChannelKind) plan.PruneVerdict {
	t.Helper()
	for _, v := range plan.PrefilterChannels(w) {
		if v.Channel == kind {
			return v
		}
	}
	t.Fatalf("PrefilterChannels has no %v row", kind)
	return plan.PruneVerdict{}
}

func TestRecommendQueueForModerateVolumes(t *testing.T) {
	w := moderate(0)
	if v := verdict(t, w, core.Queue); v.Pruned {
		t.Fatalf("queue pruned at 100 KiB per pair: %q", v.Reason)
	}
	if v := verdict(t, w, core.Object); !v.Pruned || !strings.Contains(v.Reason, "cheaper") {
		t.Fatalf("object at 100 KiB per pair: %+v", v)
	}
	if v := verdict(t, w, core.Serial); !v.Pruned {
		t.Fatal("serial kept for a 22 GB footprint")
	}
}

func TestRecommendObjectForHugeVolumes(t *testing.T) {
	w := cost.Workload{
		ModelBytes: 4 << 30, MemOverhead: 5.5, InstanceCapMB: 10240,
		Workers: 62, BytesPerPairPerLayer: 64 << 20, PairsPerLayer: 2000, Layers: 120,
	}
	if v := verdict(t, w, core.Object); v.Pruned {
		t.Fatalf("object pruned at 64 MiB per pair: %q", v.Reason)
	}
	if v := verdict(t, w, core.Queue); !v.Pruned || !strings.Contains(v.Reason, "saturating pub-sub") {
		t.Fatalf("queue at 64 MiB per pair: %+v", v)
	}
}

func TestRecommendMemoryForSustainedVolume(t *testing.T) {
	// 20 000 queries/day is far above the provisioned node's break-even
	// and, at ~28 000 store ops/s, under one node's request ceiling
	// (200 000/day would saturate it).
	w := moderate(20_000)
	if be := cost.MemoryBreakEvenQueriesPerDay(pricing.Default(), w); w.QueriesPerDay <= be {
		t.Fatalf("break-even %d/day is not below %d/day", be, w.QueriesPerDay)
	}
	if v := verdict(t, w, core.Memory); v.Pruned {
		t.Fatalf("memory pruned under sustained load: %q", v.Reason)
	}
}

func TestRecommendAvoidsMemoryForSporadicVolume(t *testing.T) {
	// One query a day: the node bills while idle, far below its
	// break-even; the queue stays in and the verdict says why memory lost.
	w := moderate(1)
	if v := verdict(t, w, core.Memory); !v.Pruned || !strings.Contains(v.Reason, "idle billing") {
		t.Fatalf("memory at 1 query/day: %+v", v)
	}
	if v := verdict(t, w, core.Queue); v.Pruned {
		t.Fatalf("queue pruned on the sporadic trace: %q", v.Reason)
	}
}
