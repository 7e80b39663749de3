package serve

import (
	"strings"
	"testing"
	"time"

	"fsdinference/internal/model"
	"fsdinference/internal/workload"
)

// TestReplayStreamMatchesBatchReplay drives the same trace through the
// batch and streaming replays on identical fresh services: the simulated
// timelines must be identical (exact counts, horizon, mean/min/max), with
// only the percentile fields bucket-quantised.
func TestReplayStreamMatchesBatchReplay(t *testing.T) {
	trace := workload.Day(40*6, []int{64, 128, 256}, 6, 9)
	opts := ReplayOptions{Seed: 17}

	batch, err := lanesTestService(t).Replay(trace, opts)
	if err != nil {
		t.Fatal(err)
	}
	// A small feed batch forces many JIT pulls mid-run.
	stream, err := lanesTestService(t).ReplayStream(workload.Stream(trace, 7), opts)
	if err != nil {
		t.Fatal(err)
	}

	if stream.Queries != batch.Queries || stream.Failed != batch.Failed || stream.Samples != batch.Samples {
		t.Fatalf("counts diverge: stream %d/%d/%d, batch %d/%d/%d",
			stream.Queries, stream.Failed, stream.Samples, batch.Queries, batch.Failed, batch.Samples)
	}
	if stream.Horizon != batch.Horizon {
		t.Fatalf("horizon diverges: stream %v, batch %v", stream.Horizon, batch.Horizon)
	}
	if stream.Latency.Count != batch.Latency.Count ||
		stream.Latency.Mean != batch.Latency.Mean ||
		stream.Latency.Min != batch.Latency.Min ||
		stream.Latency.Max != batch.Latency.Max {
		t.Fatalf("exact latency stats diverge:\nstream %+v\nbatch  %+v", stream.Latency, batch.Latency)
	}
	// Percentiles are bucket upper bounds: never below the exact value,
	// within a sub-bucket's width above it.
	for _, q := range []struct {
		name          string
		approx, exact time.Duration
	}{
		{"p50", stream.Latency.P50, batch.Latency.P50},
		{"p95", stream.Latency.P95, batch.Latency.P95},
		{"p99", stream.Latency.P99, batch.Latency.P99},
	} {
		if q.approx < q.exact {
			t.Errorf("%s: histogram %v below exact %v", q.name, q.approx, q.exact)
		}
		if float64(q.approx) > float64(q.exact)*1.07 {
			t.Errorf("%s: histogram %v more than ~6%% above exact %v", q.name, q.approx, q.exact)
		}
	}
	if stream.TotalCost.Total() != batch.TotalCost.Total() {
		t.Errorf("cost diverges: stream $%v, batch $%v", stream.TotalCost.Total(), batch.TotalCost.Total())
	}
	if len(stream.Endpoints) != len(batch.Endpoints) {
		t.Fatalf("endpoint count diverges")
	}
	for i := range stream.Endpoints {
		se, be := stream.Endpoints[i], batch.Endpoints[i]
		if se.Queries != be.Queries || se.Samples != be.Samples || se.Runs != be.Runs ||
			se.ColdStarts != be.ColdStarts || se.WarmStarts != be.WarmStarts {
			t.Errorf("endpoint %s diverges: stream %+v, batch %+v", se.Name, se, be)
		}
	}
}

// TestReplayStreamVerifies checks outputs against reference inference in a
// streaming replay: each is checked as its request resolves, while it is
// still live, over several feed batches and two endpoints.
func TestReplayStreamVerifies(t *testing.T) {
	trace := workload.Day(20*6, []int{64, 128}, 6, 1)
	rep, err := lanesTestService(t).ReplayStream(workload.Stream(trace, 6), ReplayOptions{Seed: 3, Verify: true})
	if err != nil {
		t.Fatal(err)
	}
	if rep.Queries != len(trace) || rep.Failed != 0 || rep.Latency.Count != len(trace) {
		t.Fatalf("verified stream resolved %d of %d queries, %d failed:\n%s", rep.Latency.Count, len(trace), rep.Failed, rep)
	}
	for _, er := range rep.Endpoints[:2] {
		if er.Queries == 0 {
			t.Fatalf("endpoint %s served nothing:\n%s", er.Name, rep)
		}
	}
}

// TestReplayStreamBoundedAhead checks the feeder's just-in-time property:
// the number of unresolved requests never exceeds the feed batch plus the
// requests genuinely in flight at one virtual instant.
func TestReplayStreamBoundedAhead(t *testing.T) {
	svc := lanesTestService(t)
	trace := workload.Day(60*6, []int{64, 128, 256}, 6, 4)
	peak := 0
	_, err := svc.ReplayStream(&peakStream{inner: workload.Stream(trace, 5), svc: svc, peak: &peak}, ReplayOptions{Seed: 3})
	if err != nil {
		t.Fatal(err)
	}
	// With a feed batch of 5 and sporadic day-spread arrivals, pending
	// should stay near the batch size — far below the 360-query trace.
	if peak > 60 {
		t.Fatalf("streaming kept %d requests pending at once (trace is 360)", peak)
	}
}

type peakStream struct {
	inner workload.TraceStream
	svc   *Service
	peak  *int
}

func (p *peakStream) Next() []workload.Query {
	if n := len(p.svc.pending); n > *p.peak {
		*p.peak = n
	}
	return p.inner.Next()
}

// batches is a TraceStream over fixed batches, in whatever order they hold.
type batches [][]workload.Query

func (b *batches) Next() []workload.Query {
	if len(*b) == 0 {
		return nil
	}
	next := (*b)[0]
	*b = (*b)[1:]
	return next
}

// TestReplayStreamRejectsDisorderAcrossBatches feeds a second batch that
// starts before the first one's last arrival. Served, the late query would
// be clamped to the pull time, an hour after it was due.
func TestReplayStreamRejectsDisorderAcrossBatches(t *testing.T) {
	stream := &batches{
		{{At: time.Hour, Neurons: 64, Samples: 6}},
		{{At: time.Minute, Neurons: 64, Samples: 6}},
	}
	_, err := lanesTestService(t).ReplayStream(stream, ReplayOptions{})
	if err == nil || !strings.Contains(err.Error(), "arrivals out of order") {
		t.Fatalf("disordered batches: got %v, want the arrivals-out-of-order error", err)
	}
}

// TestReplayVerifyCatchesWrongOutput holds the check Verify makes in the
// notify path: a resolved request whose output is not its input's reference
// inference becomes the run's error, named by trace index.
func TestReplayVerifyCatchesWrongOutput(t *testing.T) {
	svc := lanesTestService(t)
	in := model.GenerateInputs(64, 4, 0.2, 1)
	h := svc.Submit("s64", in, 0)
	if _, err := h.Wait(); err != nil {
		t.Fatal(err)
	}
	run := &replayRun{s: svc}
	if run.verify(h, in, 7); run.err != nil {
		t.Fatalf("the request's own input fails verification: %v", run.err)
	}
	run.verify(h, model.GenerateInputs(64, 4, 0.2, 2), 7)
	if run.err == nil || !strings.Contains(run.err.Error(), "query 7") {
		t.Fatalf("a foreign input's reference passed verification: %v", run.err)
	}
}
