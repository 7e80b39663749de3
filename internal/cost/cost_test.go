package cost

import (
	"strings"
	"testing"

	"fsdinference/internal/cloud/pricing"
)

func TestQueueAPIRequestsCheaperAtModerateVolume(t *testing.T) {
	// §IV-C: for payloads within publish capacity, pub-sub/queueing API
	// costs are 1-2 OOM below object storage.
	cat := pricing.Default()
	q, o := APICost(cat, 100, 32*1024)
	if q*10 > o {
		t.Fatalf("queue API cost %v not ~1 OOM below object %v", q, o)
	}
}

func TestObjectWinsAtHugeVolumes(t *testing.T) {
	// When each pair ships hundreds of MB, publish amplification makes the
	// queue channel more expensive than per-request object pricing.
	cat := pricing.Default()
	q, o := APICost(cat, 100, 512*1024*1024)
	if q < o {
		t.Fatalf("queue API cost %v should exceed object %v at 512 MB/pair", q, o)
	}
}

func TestAPICostZeroPairs(t *testing.T) {
	q, o := APICost(pricing.Default(), 0, 1000)
	if q != 0 || o != 0 {
		t.Fatalf("zero pairs costed %v/%v", q, o)
	}
}

func TestRecommendSerialForSmallModels(t *testing.T) {
	adv := Recommend(Workload{
		ModelBytes: 30 << 20, MemOverhead: 5.5, InstanceCapMB: 10240,
		Workers: 8, BytesPerPairPerLayer: 10_000, PairsPerLayer: 50, Layers: 120,
	})
	if adv.Channel != ChannelSerial {
		t.Fatalf("recommended %v, want serial (model fits)", adv.Channel)
	}
	if len(adv.Reasons) == 0 {
		t.Fatal("no reasoning returned")
	}
}

func TestRecommendQueueForModerateVolumes(t *testing.T) {
	adv := Recommend(Workload{
		ModelBytes: 4 << 30, MemOverhead: 5.5, InstanceCapMB: 10240,
		Workers: 42, BytesPerPairPerLayer: 100 * 1024, PairsPerLayer: 500, Layers: 120,
	})
	if adv.Channel != ChannelQueue {
		t.Fatalf("recommended %v, want queue", adv.Channel)
	}
}

func TestRecommendObjectForHugeVolumes(t *testing.T) {
	adv := Recommend(Workload{
		ModelBytes: 4 << 30, MemOverhead: 5.5, InstanceCapMB: 10240,
		Workers: 62, BytesPerPairPerLayer: 64 << 20, PairsPerLayer: 2000, Layers: 120,
	})
	if adv.Channel != ChannelObject {
		t.Fatalf("recommended %v, want object", adv.Channel)
	}
}

func TestRecommendMemoryForSustainedVolume(t *testing.T) {
	// 200k queries/day at moderate per-query request volume: metered
	// per-request charges dwarf a $3.58/day provisioned node.
	adv := Recommend(Workload{
		ModelBytes: 4 << 30, MemOverhead: 5.5, InstanceCapMB: 10240,
		Workers: 42, BytesPerPairPerLayer: 100 * 1024, PairsPerLayer: 500, Layers: 120,
		QueriesPerDay: 200_000,
	})
	if adv.Channel != ChannelMemory {
		t.Fatalf("recommended %v, want memory under sustained load", adv.Channel)
	}
	if len(adv.Reasons) == 0 {
		t.Fatal("no reasoning returned")
	}
}

func TestRecommendAvoidsMemoryForSporadicVolume(t *testing.T) {
	// 20 queries/day: the node bills while idle; queue stays cheapest and
	// the advice records why memory lost.
	adv := Recommend(Workload{
		ModelBytes: 4 << 30, MemOverhead: 5.5, InstanceCapMB: 10240,
		Workers: 42, BytesPerPairPerLayer: 100 * 1024, PairsPerLayer: 500, Layers: 120,
		QueriesPerDay: 20,
	})
	if adv.Channel != ChannelQueue {
		t.Fatalf("recommended %v, want queue on the sporadic trace", adv.Channel)
	}
	found := false
	for _, r := range adv.Reasons {
		if strings.Contains(r, "idle") {
			found = true
		}
	}
	if !found {
		t.Fatalf("advice does not explain the idle-billing rejection: %v", adv.Reasons)
	}
}

func TestMemoryBreakEvenSeparatesRegimes(t *testing.T) {
	cat := pricing.Default()
	w := Workload{
		ModelBytes: 4 << 30, MemOverhead: 5.5, InstanceCapMB: 10240,
		Workers: 42, BytesPerPairPerLayer: 100 * 1024, PairsPerLayer: 500, Layers: 120,
	}
	be := MemoryBreakEvenQueriesPerDay(cat, w)
	if be <= 0 {
		t.Fatalf("break-even = %d", be)
	}
	w.QueriesPerDay = be * 2
	if MemoryDailyCost(cat, w) >= RequestDailyCost(cat, w) {
		t.Fatal("memory not cheaper above break-even")
	}
	w.QueriesPerDay = be / 2
	if MemoryDailyCost(cat, w) <= RequestDailyCost(cat, w) {
		t.Fatal("memory not dearer below break-even")
	}
}

func TestRecommendSkipsMemoryAboveValueCap(t *testing.T) {
	// A per-pair volume above the store's 64 MB value cap cannot ride
	// the chunk-free memory channel, however sustained the workload.
	adv := Recommend(Workload{
		ModelBytes: 4 << 30, MemOverhead: 5.5, InstanceCapMB: 10240,
		Workers: 62, BytesPerPairPerLayer: 100 << 20, PairsPerLayer: 2000, Layers: 120,
		QueriesPerDay: 200_000,
	})
	if adv.Channel == ChannelMemory {
		t.Fatal("recommended memory for values above the store's value cap")
	}
}
