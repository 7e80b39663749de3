package cost

import (
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

// TestPublishChunks: a pair's layer volume publishes in 256 KiB chunks,
// and even an empty one is one message.
func TestPublishChunks(t *testing.T) {
	for _, tc := range []struct{ bytes, want int64 }{
		{0, 1}, {1, 1}, {256 << 10, 1}, {256<<10 + 1, 2}, {1 << 20, 4},
	} {
		if got := PublishChunks(tc.bytes); got != tc.want {
			t.Errorf("PublishChunks(%d) = %d, want %d", tc.bytes, got, tc.want)
		}
	}
}
