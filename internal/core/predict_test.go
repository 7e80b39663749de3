package core

import (
	"testing"

	"fsdinference/internal/cloud/pricing"
	"fsdinference/internal/cloud/sns"
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

// TestPublishChunks: a pair's layer volume publishes in chunks of the body
// buildMessages encodes to, each repeating the frame header, and even an
// empty one is one message. Ten pairs' messages fill one receive a chunk.
func TestPublishChunks(t *testing.T) {
	limit := int64(queueBodyLimit(sns.DefaultConfig()))
	for _, tc := range []struct{ bytes, want int64 }{
		{0, 1}, {1, 1}, {limit, 1}, {limit + 1, 2}, {256 << 10, 2}, {1 << 20, 5},
	} {
		m, err := predictQueue(Workload{PairsPerLayer: 10, BytesPerPairPerLayer: tc.bytes, Layers: 1}, Config{})
		if err != nil {
			t.Fatal(err)
		}
		if m.SQSReceiveCalls != tc.want {
			t.Errorf("%d B a pair: %d chunks, want %d", tc.bytes, m.SQSReceiveCalls, tc.want)
		}
	}
}

// TestHybridParksBulkInObjectStorage: a per-pair volume over the routing
// threshold bills one PUT and one GET per chunk and leaves one store push
// and pop per pair, as a small value does. Every 1 MiB chunk repeats the
// frame header, so a 3 MiB frame takes four.
func TestHybridParksBulkInObjectStorage(t *testing.T) {
	w := Workload{Workers: 8, PairsPerLayer: 48, Layers: 12, BytesPerPairPerLayer: 3 << 20}
	m, err := PredictQuery(w, Config{Channel: Hybrid})
	if err != nil {
		t.Fatal(err)
	}
	if want := int64(48 * 12 * 4); m.S3PutCalls != want || m.S3GetCalls != want {
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

// TestReduceContributionBytesKeepsItsFormula: wire's raw row size gives
// the closing collectives the payload they were always picked by, the even
// row share's ids and dense values, so no AutoAlgo pick moves.
func TestReduceContributionBytesKeepsItsFormula(t *testing.T) {
	for _, n := range []int{1, 7, 64, 1000, 16384, 65536} {
		for _, p := range []int{1, 2, 3, 8, 32, 42, 100} {
			for _, batch := range []int{1, 4, 64, 10000} {
				want := int64(n) / int64(p) * int64(batch+1) * 4
				if got := ReduceContributionBytes(n, p, batch); got != want {
					t.Errorf("ReduceContributionBytes(%d, %d, %d) = %d, want %d", n, p, batch, got, want)
				}
			}
		}
	}
}
