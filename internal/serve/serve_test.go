package serve

import (
	"fmt"
	"strings"
	"testing"
	"time"

	"fsdinference/internal/cloud/env"
	"fsdinference/internal/core"
	"fsdinference/internal/model"
	"fsdinference/internal/sparse"
	"fsdinference/internal/workload"
)

func testModel(t *testing.T, neurons, layers int) *model.Model {
	t.Helper()
	m, err := model.Generate(model.GraphChallengeSpec(neurons, layers, 1))
	if err != nil {
		t.Fatal(err)
	}
	return m
}

// twoEndpointService builds a service with a serial "small" endpoint and a
// distributed queue-channel "large" endpoint sharing one environment.
func twoEndpointService(t *testing.T, opts ...Option) (*Service, *model.Model, *model.Model) {
	t.Helper()
	small := testModel(t, 128, 6)
	large := testModel(t, 256, 6)
	base := []Option{
		WithEndpoint("small", small),
		WithEndpoint("large", large, WithChannel(core.Queue), WithWorkers(3)),
	}
	svc, err := NewService(env.NewDefault(), append(base, opts...)...)
	if err != nil {
		t.Fatal(err)
	}
	return svc, small, large
}

func TestConcurrentSubmitsToDifferentEndpointsBothComplete(t *testing.T) {
	svc, small, large := twoEndpointService(t)
	inSmall := model.GenerateInputs(128, 8, 0.2, 2)
	inLarge := model.GenerateInputs(256, 8, 0.2, 3)

	// Overlapping in virtual time: both arrive in the first second, and
	// the distributed run takes much longer than a serial one.
	hSmall := svc.Submit("small", inSmall, 100*time.Millisecond)
	hLarge := svc.Submit("large", inLarge, 0)

	rSmall, err := hSmall.Wait()
	if err != nil {
		t.Fatalf("small: %v", err)
	}
	rLarge, err := hLarge.Wait()
	if err != nil {
		t.Fatalf("large: %v", err)
	}
	if !model.OutputsClose(rSmall.Output(), model.Reference(small, inSmall), 1e-2) {
		t.Fatal("small output diverges from reference")
	}
	if !model.OutputsClose(rLarge.Output(), model.Reference(large, inLarge), 1e-2) {
		t.Fatal("large output diverges from reference")
	}
	if rSmall.Output().NNZ() == 0 || rLarge.Output().NNZ() == 0 {
		t.Fatal("degenerate all-zero outputs")
	}
	// Both ran inside one kernel drive: the serial request resolved
	// while the distributed one was still in flight.
	if svc.Now() <= 0 {
		t.Fatal("virtual clock did not advance")
	}
	if rSmall.Latency >= rLarge.Latency {
		t.Fatalf("serial request (%v) should resolve before the distributed one (%v)",
			rSmall.Latency, rLarge.Latency)
	}
}

func TestCoalescingMergesRequestsIntoOneRun(t *testing.T) {
	svc, small, _ := twoEndpointService(t,
		WithCoalescing(64, 200*time.Millisecond))
	ep := svc.byName["small"]

	in1 := model.GenerateInputs(128, 4, 0.2, 2)
	in2 := model.GenerateInputs(128, 4, 0.2, 3)
	in3 := model.GenerateInputs(128, 4, 0.2, 4)
	h1 := svc.Submit("small", in1, 0)
	h2 := svc.Submit("small", in2, 50*time.Millisecond)
	h3 := svc.Submit("small", in3, 120*time.Millisecond)
	if err := svc.Run(); err != nil {
		t.Fatal(err)
	}
	if ep.stats.Runs != 1 {
		t.Fatalf("runs = %d, want 1 coalesced run", ep.stats.Runs)
	}
	for i, h := range []*Handle{h1, h2, h3} {
		if _, err := h.Wait(); err != nil {
			t.Fatalf("request %d: %v", i, err)
		}
	}
	er := ep.report(0, &endpointAcc{lat: &latencySink{}})
	if er.Runs != 1 || er.MaxRunSamples != 12 || er.AvgRunRequests != 3 {
		t.Fatalf("report: %d runs, widest %d samples, %.1f requests a run; want 1/12/3",
			er.Runs, er.MaxRunSamples, er.AvgRunRequests)
	}
	// Each coalesced slice must still be that request's own answer.
	r1, _ := h1.Wait()
	r3, _ := h3.Wait()
	if !model.OutputsClose(r1.Output(), model.Reference(small, in1), 1e-2) {
		t.Fatal("first coalesced request got the wrong slice")
	}
	if !model.OutputsClose(r3.Output(), model.Reference(small, in3), 1e-2) {
		t.Fatal("last coalesced request got the wrong slice")
	}
}

func TestCoalescingFlushesAtMaxBatch(t *testing.T) {
	svc, _, _ := twoEndpointService(t,
		WithCoalescing(8, time.Hour)) // window would never expire on its own
	ep := svc.byName["small"]
	h1 := svc.Submit("small", model.GenerateInputs(128, 4, 0.2, 2), 0)
	h2 := svc.Submit("small", model.GenerateInputs(128, 4, 0.2, 3), 0)
	if _, err := h1.Wait(); err != nil {
		t.Fatal(err)
	}
	if _, err := h2.Wait(); err != nil {
		t.Fatal(err)
	}
	if ep.stats.Runs != 1 {
		t.Fatalf("runs = %d, want 1 (flush at maxBatch)", ep.stats.Runs)
	}
	if got := svc.Now(); got >= time.Hour {
		t.Fatalf("batch waited for the delay timer (now=%v), want maxBatch flush", got)
	}
}

func TestBacklogQueuesBehindBusyReplica(t *testing.T) {
	// One replica, no same-instant arrivals: the second request must
	// queue and then ride its own run.
	svc, small, _ := twoEndpointService(t)
	ep := svc.byName["small"]
	in1 := model.GenerateInputs(128, 4, 0.2, 2)
	in2 := model.GenerateInputs(128, 4, 0.2, 3)
	h1 := svc.Submit("small", in1, 0)
	h2 := svc.Submit("small", in2, 10*time.Millisecond) // arrives mid-run
	r1, err := h1.Wait()
	if err != nil {
		t.Fatal(err)
	}
	r2, err := h2.Wait()
	if err != nil {
		t.Fatal(err)
	}
	if ep.stats.Runs != 2 {
		t.Fatalf("runs = %d, want 2", ep.stats.Runs)
	}
	if r2.Latency <= r1.Latency {
		t.Fatalf("queued request latency %v should exceed first request %v", r2.Latency, r1.Latency)
	}
	if !model.OutputsClose(r2.Output(), model.Reference(small, in2), 1e-2) {
		t.Fatal("queued request got the wrong output")
	}
}

func TestSubmitErrors(t *testing.T) {
	svc, _, _ := twoEndpointService(t)
	if _, err := svc.Submit("nope", model.GenerateInputs(128, 4, 0.2, 2), 0).Wait(); err == nil {
		t.Fatal("unknown endpoint accepted")
	}
	if _, err := svc.Submit("small", model.GenerateInputs(64, 4, 0.2, 2), 0).Wait(); err == nil {
		t.Fatal("wrong input shape accepted")
	}
	if _, err := svc.Submit("small", nil, 0).Wait(); err == nil {
		t.Fatal("nil input accepted")
	}
}

func TestNewServiceValidation(t *testing.T) {
	e := env.NewDefault()
	if _, err := NewService(e); err == nil {
		t.Fatal("service without endpoints built")
	}
	m := testModel(t, 128, 4)
	if _, err := NewService(e, WithEndpoint("a", m), WithEndpoint("a", m)); err == nil {
		t.Fatal("duplicate endpoint accepted")
	}
	if _, err := NewService(e, WithEndpoint("a", nil)); err == nil {
		t.Fatal("nil model accepted")
	}
	if _, err := NewService(e, WithEndpoint("a", m, WithChannel(core.Queue))); err == nil {
		t.Fatal("queue channel with one worker accepted")
	}
}

// replayService builds the acceptance-scale service: >= 2 endpoints, one
// of them distributed, with coalescing and a small warm pool.
func replayService(t *testing.T) *Service {
	t.Helper()
	svc, _, _ := twoEndpointService(t,
		WithCoalescing(64, 500*time.Millisecond),
		WithReplicas(2))
	return svc
}

func replayTrace() []workload.Query {
	// 120 queries x 8 samples over one simulated day, spread over both
	// model sizes (workload.Day alternates sizes per query).
	return workload.Day(120*8, []int{128, 256}, 8, 7)
}

func TestReplaySporadicDayMeasuresRealServing(t *testing.T) {
	if testing.Short() {
		t.Skip("replay is a long simulation")
	}
	svc := replayService(t)
	trace := replayTrace()
	if len(trace) < 100 {
		t.Fatalf("trace has %d queries, want >= 100", len(trace))
	}
	rep, err := svc.Replay(trace, ReplayOptions{Verify: true, Seed: 11})
	if err != nil {
		t.Fatal(err)
	}
	if rep.Queries != len(trace) || rep.Failed != 0 {
		t.Fatalf("queries = %d failed = %d, want %d/0", rep.Queries, rep.Failed, len(trace))
	}
	if rep.Latency.P50 <= 0 || rep.Latency.P95 <= 0 || rep.Latency.P99 <= 0 {
		t.Fatalf("zero latency percentiles: %+v", rep.Latency)
	}
	if rep.Latency.P50 > rep.Latency.P95 || rep.Latency.P95 > rep.Latency.P99 {
		t.Fatalf("percentiles out of order: %+v", rep.Latency)
	}
	if len(rep.Endpoints) != 2 {
		t.Fatalf("endpoint reports = %d, want 2", len(rep.Endpoints))
	}
	for _, ep := range rep.Endpoints {
		if ep.Queries == 0 || ep.Runs == 0 {
			t.Fatalf("endpoint %s served nothing: %+v", ep.Name, ep)
		}
		if ep.Cost.Total() <= 0 {
			t.Fatalf("endpoint %s has no cost: %+v", ep.Name, ep.Cost)
		}
		if ep.AvgRunSamples <= 0 || ep.MaxRunSamples <= 0 {
			t.Fatalf("endpoint %s missing coalescing stats: %+v", ep.Name, ep)
		}
	}
	if rep.TotalCost.Total() <= 0 {
		t.Fatalf("no metered cost: %+v", rep.TotalCost)
	}
	if rep.ColdStarts == 0 {
		t.Fatal("a sporadic day should meter cold starts")
	}
	// The queue endpoint's reconstructed ledger cost should roughly
	// agree with its share of the metered total (§VI-F-style check):
	// the ledger sum across endpoints tracks the metered bill.
	ledger := 0.0
	for _, ep := range rep.Endpoints {
		ledger += ep.Cost.Total()
	}
	metered := rep.TotalCost.Total()
	if ledger <= 0 || metered <= 0 {
		t.Fatal("missing cost measurements")
	}
	ratio := ledger / metered
	if ratio < 0.85 || ratio > 1.15 {
		t.Fatalf("ledger cost $%.6f vs metered $%.6f (ratio %.3f): reconstruction drifted", ledger, metered, ratio)
	}
}

func TestReplayDeterministic(t *testing.T) {
	if testing.Short() {
		t.Skip("replay is a long simulation")
	}
	run := func() string {
		svc := replayService(t)
		rep, err := svc.Replay(replayTrace(), ReplayOptions{Seed: 11})
		if err != nil {
			t.Fatal(err)
		}
		return rep.String()
	}
	a, b := run(), run()
	if a != b {
		t.Fatalf("same trace + seed produced different reports:\n--- a ---\n%s\n--- b ---\n%s", a, b)
	}
	if !strings.Contains(a, "endpoint small") || !strings.Contains(a, "endpoint large") {
		t.Fatalf("report missing endpoint sections:\n%s", a)
	}
}

func TestFailedRunFailsItsRequestsButNotTheService(t *testing.T) {
	// An endpoint whose function timeout is far too small fails its
	// requests with a real error; a healthy endpoint sharing the
	// service still serves correctly.
	small := testModel(t, 128, 6)
	doomed := testModel(t, 256, 6)
	svc, err := NewService(env.NewDefault(),
		WithEndpoint("ok", small),
		WithEndpoint("doomed", doomed, WithChannel(core.Queue), WithWorkers(3),
			WithDeployOverride(func(c *core.Config) { c.FunctionTimeout = 400 * time.Millisecond })),
	)
	if err != nil {
		t.Fatal(err)
	}
	in := model.GenerateInputs(128, 4, 0.2, 2)
	hOK := svc.Submit("ok", in, 0)
	hBad := svc.Submit("doomed", model.GenerateInputs(256, 4, 0.2, 2), 0)
	if _, err := hBad.Wait(); err == nil {
		t.Fatal("doomed request succeeded")
	}
	resp, err := hOK.Wait()
	if err != nil {
		t.Fatalf("healthy endpoint failed: %v", err)
	}
	if !model.OutputsClose(resp.Output(), model.Reference(small, in), 1e-2) {
		t.Fatal("healthy endpoint wrong output")
	}
}

// Submit and trace replay on one multi-model service: two overlapping
// asynchronous requests to different endpoints, then a replay that
// continues on the same service after them.
func TestPublicServiceSubmitAndReplay(t *testing.T) {
	mSmall, err := model.Generate(model.GraphChallengeSpec(128, 6, 1))
	if err != nil {
		t.Fatal(err)
	}
	mLarge, err := model.Generate(model.GraphChallengeSpec(256, 6, 1))
	if err != nil {
		t.Fatal(err)
	}
	svc, err := NewService(env.NewDefault(),
		WithEndpoint("small", mSmall),
		WithEndpoint("large", mLarge,
			WithChannel(core.Queue),
			WithWorkers(3)),
		WithCoalescing(64, 200*time.Millisecond),
		WithReplicas(2),
	)
	if err != nil {
		t.Fatal(err)
	}

	// Async submits: two overlapping requests to different endpoints in
	// one simulated-time run.
	inSmall := model.GenerateInputs(128, 8, 0.2, 2)
	inLarge := model.GenerateInputs(256, 8, 0.2, 3)
	hSmall := svc.Submit("small", inSmall, 0)
	hLarge := svc.Submit("large", inLarge, 0)
	rSmall, err := hSmall.Wait()
	if err != nil {
		t.Fatal(err)
	}
	rLarge, err := hLarge.Wait()
	if err != nil {
		t.Fatal(err)
	}
	if !model.OutputsClose(rSmall.Output(), model.Reference(mSmall, inSmall), 1e-2) {
		t.Fatal("small endpoint output diverges from reference")
	}
	if !model.OutputsClose(rLarge.Output(), model.Reference(mLarge, inLarge), 1e-2) {
		t.Fatal("large endpoint output diverges from reference")
	}

	// Trace replay continues on the same service, after the submits.
	trace := workload.Day(30*8, []int{128, 256}, 8, 7)
	rep, err := svc.Replay(trace, ReplayOptions{Seed: 11, Verify: true})
	if err != nil {
		t.Fatal(err)
	}
	if rep.Failed != 0 || rep.Queries != len(trace) {
		t.Fatalf("replay served %d/%d with %d failures", rep.Queries, len(trace), rep.Failed)
	}
	if rep.Latency.P50 <= 0 || rep.TotalCost.Total() <= 0 {
		t.Fatalf("report missing measurements: %+v", rep.Latency)
	}
}

// TestEndpointCountsArePerReplayWindow replays the shedding shape twice on
// one service: first with deadlines, so the window sheds, then the same
// trace without them. The registry counts every event since the service
// was built; the second report must still describe its own window alone.
func TestEndpointCountsArePerReplayWindow(t *testing.T) {
	svc := goldenSheddingService(t)
	trace, opts := goldenSheddingReplay()
	first, err := svc.Replay(trace, opts)
	if err != nil {
		t.Fatal(err)
	}
	shed := 0
	for _, er := range first.Endpoints {
		shed += er.Shed
	}
	if shed == 0 {
		t.Fatalf("the first window shed nothing:\n%s", first)
	}
	failedRuns := map[string]int64{}
	for _, ep := range svc.eps {
		failedRuns[ep.name] = ep.met.failedRuns.Value()
	}
	second, err := svc.Replay(trace, ReplayOptions{Seed: opts.Seed})
	if err != nil {
		t.Fatal(err)
	}
	for _, er := range second.Endpoints {
		failed := svc.byName[er.Name].met.failedRuns.Value() - failedRuns[er.Name]
		if er.Shed != 0 || failed != 0 {
			t.Errorf("endpoint %s: %d shed, %d failed runs in a window without deadlines",
				er.Name, er.Shed, failed)
		}
		if starts := er.ColdStarts + er.WarmStarts; starts != er.Runs*er.Workers {
			t.Errorf("endpoint %s: %d starts for %d runs x %d workers", er.Name, starts, er.Runs, er.Workers)
		}
	}
}

// TestFailedRunsCountInTheRegistry fails every run with a one-millisecond
// function timeout on an untraced service. The registry counts the failed
// runs, and its request counters are the report's, so each failed request
// shows in both.
func TestFailedRunsCountInTheRegistry(t *testing.T) {
	svc, err := NewService(env.NewDefault(),
		WithEndpoint("s64", testModel(t, 64, 3), WithDeployOverride(func(c *core.Config) {
			c.FunctionTimeout = time.Millisecond
		})))
	if err != nil {
		t.Fatal(err)
	}
	rep, err := svc.Replay(workload.Day(10*6, []int{64}, 6, 3), ReplayOptions{Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	er := rep.Endpoints[0]
	m := svc.byName["s64"].met
	if m.failedRuns.Value() == 0 || er.Runs != 0 || er.Failed != er.Queries {
		t.Fatalf("run_failures_total %d, %d runs, %d of %d queries failed; want every run to fail",
			m.failedRuns.Value(), er.Runs, er.Failed, er.Queries)
	}
	if m.Requests.Value() != int64(er.Queries) || m.Failures.Value() != int64(er.Failed) {
		t.Errorf("requests_total %d, request_failures_total %d; report %d queries, %d failed",
			m.Requests.Value(), m.Failures.Value(), er.Queries, er.Failed)
	}
}

// Submit enqueues one asynchronous request: input arrives at the named
// endpoint at virtual time at (clamped to now if already past). The
// returned handle resolves once the simulation has been driven past the
// request's completion — via Run, Replay, or the handle's own Wait.
func (s *Service) Submit(name string, input *sparse.Dense, at time.Duration) *Handle {
	return s.SubmitWith(name, input, at, SubmitOptions{})
}

// SubmitWith is Submit with per-request scheduling metadata: a completion
// deadline for the admission policy.
func (s *Service) SubmitWith(name string, input *sparse.Dense, at time.Duration, opts SubmitOptions) *Handle {
	idx := submitSeqs[s]
	submitSeqs[s]++
	return s.submit(name, input, at, opts, nil, idx)
}

// submitSeqs numbers each service's one-at-a-time Submits for trace
// sampling, as a replay numbers its trace's queries. The package's tests
// do not run in parallel.
var submitSeqs = map[*Service]int{}

// Done reports whether the request has resolved.
func (h *Handle) Done() bool { return h.done }

// Err returns the request's error, if resolved and failed.
func (h *Handle) Err() error { return h.err }

// Wait drives the simulation until the request resolves and returns its
// response. Any number of handles may be waited in any order; the first
// Wait drains every in-flight request in one simulated-time run.
func (h *Handle) Wait() (*Response, error) {
	if !h.done {
		if err := h.svc.Run(); err != nil && !h.done {
			return nil, err
		}
	}
	if !h.done {
		return nil, fmt.Errorf("serve: request to %q did not complete", h.endpoint)
	}
	return h.resp, h.err
}
