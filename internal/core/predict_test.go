package core

import (
	"testing"

	"fsdinference/internal/cloud/pricing"
)

// layerCost prices one layer of pairs exchanging bytesPerPair each on kind's
// transport row: the §IV-C per-request comparison.
func layerCost(t *testing.T, kind ChannelKind, pairs, bytesPerPair int64) float64 {
	t.Helper()
	m, err := PredictQuery(Workload{PairsPerLayer: pairs, BytesPerPairPerLayer: bytesPerPair, Layers: 1}, Config{Channel: kind})
	if err != nil {
		t.Fatal(err)
	}
	return m.Cost(pricing.Default()).Total()
}

func TestQueueAPIRequestsCheaperAtModerateVolume(t *testing.T) {
	// §IV-C: for payloads within publish capacity, pub-sub/queueing API
	// costs are 1-2 OOM below object storage.
	q, o := layerCost(t, Queue, 100, 32*1024), layerCost(t, Object, 100, 32*1024)
	if q*10 > o {
		t.Fatalf("queue API cost %v not ~1 OOM below object %v", q, o)
	}
}

func TestObjectWinsAtHugeVolumes(t *testing.T) {
	// When each pair ships hundreds of MB, publish amplification makes the
	// queue channel more expensive than per-request object pricing.
	q, o := layerCost(t, Queue, 100, 512*1024*1024), layerCost(t, Object, 100, 512*1024*1024)
	if q < o {
		t.Fatalf("queue API cost %v should exceed object %v at 512 MB/pair", q, o)
	}
}

// TestRequestRowsBillNothingWithoutPairs: with no pairs nothing crosses a
// channel, whatever the per-pair volume.
func TestRequestRowsBillNothingWithoutPairs(t *testing.T) {
	q, o := layerCost(t, Queue, 0, 1000), layerCost(t, Object, 0, 1000)
	if q != 0 || o != 0 {
		t.Fatalf("zero pairs costed %v/%v", q, o)
	}
}

// TestPublishChunks: a pair's layer volume publishes in 256 KiB chunks,
// and even an empty one is one message.
func TestPublishChunks(t *testing.T) {
	for _, tc := range []struct{ bytes, want int64 }{
		{0, 1}, {1, 1}, {256 << 10, 1}, {256<<10 + 1, 2}, {1 << 20, 4},
	} {
		if got := publishChunks(tc.bytes); got != tc.want {
			t.Errorf("publishChunks(%d) = %d, want %d", tc.bytes, got, tc.want)
		}
	}
}

// TestHybridParksBulkInObjectStorage: a per-pair volume over the routing
// threshold bills one PUT and one GET per chunk and leaves one store push
// and pop per pair, as a small value does.
func TestHybridParksBulkInObjectStorage(t *testing.T) {
	w := Workload{Workers: 8, PairsPerLayer: 48, Layers: 12, BytesPerPairPerLayer: 3 << 20}
	m, err := PredictQuery(w, Config{Channel: Hybrid})
	if err != nil {
		t.Fatal(err)
	}
	if want := int64(48 * 12 * 3); m.S3PutCalls != want || m.S3GetCalls != want {
		t.Fatalf("%d PUTs and %d GETs for 3 MiB in 1 MiB chunks, want %d each", m.S3PutCalls, m.S3GetCalls, want)
	}
	small, err := PredictQuery(Workload{Workers: 8, PairsPerLayer: 48, Layers: 12, BytesPerPairPerLayer: 1 << 10}, Config{Channel: Hybrid})
	if err != nil {
		t.Fatal(err)
	}
	if m.KVOps != small.KVOps || small.S3PutCalls != 0 {
		t.Fatalf("bulk %d store ops, inline %d (with %d PUTs)", m.KVOps, small.KVOps, small.S3PutCalls)
	}
}
