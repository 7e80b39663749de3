package core

import (
	"testing"

	"fsdinference/internal/cloud/env"
	"fsdinference/internal/cloud/pricing"
	"fsdinference/internal/cloud/sns"
	"fsdinference/internal/wire"
)

// layerCost prices one layer of pairs exchanging a batch-1 frame of rows
// each on kind's transport row: the §IV-C per-request comparison.
func layerCost(t *testing.T, kind ChannelKind, pairs, rows int64) float64 {
	t.Helper()
	m, err := PredictQuery(Workload{PairsPerLayer: pairs, Frame: wire.Frame{Rows: rows, Batch: 1}, Layers: 1}, Config{Channel: kind})
	if err != nil {
		t.Fatal(err)
	}
	return m.Cost(pricing.Default()).Total()
}

func TestQueueAPIRequestsCheaperAtModerateVolume(t *testing.T) {
	// §IV-C: for payloads within publish capacity, pub-sub/queueing API
	// costs are 1-2 OOM below object storage.
	q, o := layerCost(t, Queue, 100, 4095), layerCost(t, Object, 100, 4095) // 32 KiB
	if q*10 > o {
		t.Fatalf("queue API cost %v not ~1 OOM below object %v", q, o)
	}
}

func TestObjectWinsAtHugeVolumes(t *testing.T) {
	// When each pair ships hundreds of MB, publish amplification makes the
	// queue channel more expensive than per-request object pricing.
	q, o := layerCost(t, Queue, 100, 64<<20-1), layerCost(t, Object, 100, 64<<20-1) // 512 MiB
	if q < o {
		t.Fatalf("queue API cost %v should exceed object %v at 512 MB/pair", q, o)
	}
}

// TestRequestRowsBillNothingWithoutPairs: with no pairs nothing crosses a
// channel, whatever the per-pair volume.
func TestRequestRowsBillNothingWithoutPairs(t *testing.T) {
	q, o := layerCost(t, Queue, 0, 124), layerCost(t, Object, 0, 124)
	if q != 0 || o != 0 {
		t.Fatalf("zero pairs costed %v/%v", q, o)
	}
}

// TestPublishChunks: a pair's frame publishes in the chunks buildMessages
// cuts at the Queue body limit, 262 048 B: 29 115 one-value rows or 6 rows
// of 10 000 a chunk (the split keeps a byte of slack a row, so 32 754
// one-value rows, 262 042 B, take two), and even an empty frame is one
// message. Ten pairs' messages fill one receive a chunk.
func TestPublishChunks(t *testing.T) {
	for _, tc := range []struct {
		f    wire.Frame
		want int64
	}{
		{wire.Frame{Rows: 0, Batch: 1}, 1}, {wire.Frame{Rows: 1, Batch: 1}, 1},
		{wire.Frame{Rows: 29115, Batch: 1}, 1}, {wire.Frame{Rows: 29116, Batch: 1}, 2},
		{wire.Frame{Rows: 32754, Batch: 1}, 2}, {wire.Frame{Rows: 131071, Batch: 1}, 5},
		{wire.Frame{Rows: 6, Batch: 10000}, 1}, {wire.Frame{Rows: 7, Batch: 10000}, 2},
		{wire.Frame{Rows: 39, Batch: 10000}, 7},
	} {
		m, err := predictQueue(Workload{PairsPerLayer: 10, Frame: tc.f, Layers: 1}, Config{})
		if err != nil {
			t.Fatal(err)
		}
		if m.SQSReceiveCalls != tc.want {
			t.Errorf("%+v a pair: %d chunks, want %d", tc.f, m.SQSReceiveCalls, tc.want)
		}
	}
	if _, err := predictQueue(Workload{PairsPerLayer: 10, Frame: wire.Frame{Rows: 1, Batch: 70000}, Layers: 1}, Config{}); err == nil {
		t.Error("a row wider than the body limit priced")
	}
}

// TestHybridParksBulkInObjectStorage: a frame over the routing threshold
// bills one PUT and one GET per chunk and leaves one store push and pop per
// pair, as a small value does. A 1 MiB chunk holds 116 507 one-value rows,
// so a 3 MiB frame takes four.
func TestHybridParksBulkInObjectStorage(t *testing.T) {
	w := Workload{Workers: 8, PairsPerLayer: 48, Layers: 12, Frame: wire.Frame{Rows: 3<<17 - 1, Batch: 1}}
	m, err := PredictQuery(w, Config{Channel: Hybrid})
	if err != nil {
		t.Fatal(err)
	}
	if want := int64(48 * 12 * 4); m.S3PutCalls != want || m.S3GetCalls != want {
		t.Fatalf("%d PUTs and %d GETs for 3 MiB in 1 MiB chunks, want %d each", m.S3PutCalls, m.S3GetCalls, want)
	}
	small, err := PredictQuery(Workload{Workers: 8, PairsPerLayer: 48, Layers: 12, Frame: wire.Frame{Rows: 127, Batch: 1}}, Config{Channel: Hybrid})
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

// TestQueueRowBillsWhatSendPacks: fsdcost's default pair, 39 dense rows of
// 10 000 values (1 560 166 B), cuts 7 chunks at the Queue body limit, six
// of 240 034 B and one of 120 022 B. Each ships alone, as the next never
// fits beside it, so buildMessages and packBatches bill 4 increments for
// each and 2 for the rest: 26. The row bills the same for that pair, and
// 26 for each of P=42's 252 pairs.
func TestQueueRowBillsWhatSendPacks(t *testing.T) {
	f := wire.Frame{Rows: 39, Batch: 10000}
	chunks, err := f.Chunks(queueBodyLimit(sns.DefaultConfig()))
	if err != nil || len(chunks) != 7 {
		t.Fatalf("%+v cuts %d chunks (%v), want 7", f, len(chunks), err)
	}
	rs := wire.NewRowSet(f.Batch)
	vals := make([]float32, f.Batch)
	for i := range vals {
		vals[i] = float32(i + 1)
	}
	for r := int32(0); r < int32(f.Rows); r++ {
		rs.Add(r, vals)
	}
	w := &worker{d: &Deployment{Env: env.NewDefault()}, run: &runState{id: "fsd1-run3"}, id: 5, metrics: &WorkerMetrics{},
		rankBufs: rankBufs{chanBufs: new(chanBufs)}}
	if err := buildMessages(w, tag{dataKind, 3}, 7, rs); err != nil {
		t.Fatal(err)
	}
	msgs := w.msgs
	sizes := make([]int, len(msgs))
	for i, m := range msgs {
		sizes[i] = m.Size()
		if got := int64(len(m.Body)); got != chunks[i].Bytes() {
			t.Errorf("chunk %d: %d B cut, %d sized", i, got, chunks[i].Bytes())
		}
	}
	_, billed := packBatches(sns.DefaultConfig(), sizes, nil)
	if billed != 26 {
		t.Fatalf("send bills %d publishes for the pair, want 26", billed)
	}
	for _, tc := range []struct{ workers, pairs int }{{1, 1}, {42, 252}} {
		m, err := predictQueue(Workload{Workers: tc.workers, PairsPerLayer: int64(tc.pairs), Frame: f, Layers: 1}, Config{})
		if err != nil {
			t.Fatal(err)
		}
		if want := billed * int64(tc.pairs); m.SNSBilledPublishes != want {
			t.Errorf("P=%d, %d pairs: the row bills %d publishes, send %d", tc.workers, tc.pairs, m.SNSBilledPublishes, want)
		}
	}
}
