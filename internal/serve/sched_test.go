package serve

import (
	"errors"
	"fmt"
	"strings"
	"testing"
	"time"

	"fsdinference/internal/cloud/env"
	"fsdinference/internal/cloud/faas"
	"fsdinference/internal/core"
	"fsdinference/internal/model"
	"fsdinference/internal/obs"
	"fsdinference/internal/plan"
	"fsdinference/internal/workload"
)

// Scheduler subsystem tests: policy-ordered admission (a policy's order,
// deadline shedding and rerouting), autoscaling replica pools with deterministic
// replay, SLO-driven AutoSelect, and Queue-channel run multiplexing.

func TestPriorityAdmissionDispatchesHighPriorityFirst(t *testing.T) {
	// One replica, one run at a time, 4-sample batches that cannot merge
	// (maxBatch 4): a filler run occupies the replica while a low- and a
	// high-priority request queue behind it. Under a policy that ranks the
	// earlier deadline higher, the high-priority request must dispatch
	// first despite arriving later.
	m := testModel(t, 128, 6)
	svc, err := NewService(env.NewDefault(),
		WithEndpoint("ep", m),
		WithCoalescing(4, 0),
		WithAdmission(earliestDeadlineFirst{}),
	)
	if err != nil {
		t.Fatal(err)
	}
	filler := svc.Submit("ep", model.GenerateInputs(128, 4, 0.2, 2), 0)
	low := svc.SubmitWith("ep", model.GenerateInputs(128, 4, 0.2, 3), 10*time.Millisecond, SubmitOptions{Deadline: time.Hour})
	high := svc.SubmitWith("ep", model.GenerateInputs(128, 4, 0.2, 4), 20*time.Millisecond, SubmitOptions{Deadline: time.Minute})
	if err := svc.Run(); err != nil {
		t.Fatal(err)
	}
	for name, h := range map[string]*Handle{"filler": filler, "low": low, "high": high} {
		if h.err != nil {
			t.Fatalf("%s failed: %v", name, h.err)
		}
	}
	if high.finished >= low.finished {
		t.Fatalf("high priority finished at %v, low at %v: want high first",
			high.finished, low.finished)
	}
	if ep := svc.byName["ep"]; ep.stats.Runs != 3 {
		t.Fatalf("runs = %d, want 3 separate runs", ep.stats.Runs)
	}
}

func TestDeadlineAdmissionShedsUnmeetableRequests(t *testing.T) {
	m := testModel(t, 128, 6)
	svc, err := NewService(env.NewDefault(),
		WithEndpoint("ep", m),
		WithCoalescing(4, 0),
		WithAdmission(DeadlineAdmission(false)),
	)
	if err != nil {
		t.Fatal(err)
	}
	// The filler occupies the single replica; the doomed request's
	// deadline expires long before the filler's run completes.
	filler := svc.Submit("ep", model.GenerateInputs(128, 4, 0.2, 2), 0)
	doomed := svc.SubmitWith("ep", model.GenerateInputs(128, 4, 0.2, 3), 1*time.Millisecond,
		SubmitOptions{Deadline: 2 * time.Millisecond})
	fine := svc.SubmitWith("ep", model.GenerateInputs(128, 4, 0.2, 4), 1*time.Millisecond,
		SubmitOptions{Deadline: time.Hour})
	if err := svc.Run(); err != nil {
		t.Fatal(err)
	}
	if _, err := filler.Wait(); err != nil {
		t.Fatalf("filler failed: %v", err)
	}
	if _, err := doomed.Wait(); !errors.Is(err, ErrShed) {
		t.Fatalf("doomed request: got %v, want ErrShed", err)
	}
	resp, err := fine.Wait()
	if err != nil {
		t.Fatalf("deadline-meeting request failed: %v", err)
	}
	if resp.Output() == nil {
		t.Fatal("deadline-meeting request got no output")
	}
	ep := svc.byName["ep"]
	if ep.met.Shed.Value() != 1 {
		t.Fatalf("shed = %d, want 1", ep.met.Shed.Value())
	}
}

func TestDeadlineRerouteMovesRequestToSiblingEndpoint(t *testing.T) {
	// Two endpoints serving the same model size. "a" is blocked by a
	// filler; a tight-deadline request queued on it is rerouted to the
	// idle "b" instead of being shed.
	m := testModel(t, 128, 6)
	svc, err := NewService(env.NewDefault(),
		WithEndpoint("a", m),
		WithEndpoint("b", m),
		WithCoalescing(4, 0),
	)
	if err != nil {
		t.Fatal(err)
	}
	setAdmission(svc.byName["a"], DeadlineAdmission(true))
	filler := svc.Submit("a", model.GenerateInputs(128, 4, 0.2, 2), 0)
	in := model.GenerateInputs(128, 4, 0.2, 3)
	urgent := svc.SubmitWith("a", in, 1*time.Millisecond, SubmitOptions{Deadline: 3 * time.Millisecond})
	if err := svc.Run(); err != nil {
		t.Fatal(err)
	}
	if _, err := filler.Wait(); err != nil {
		t.Fatalf("filler failed: %v", err)
	}
	resp, err := urgent.Wait()
	if err != nil {
		t.Fatalf("urgent request should have been rerouted, got: %v", err)
	}
	if served := svc.byName["b"].met.Requests.Value(); served != 1 {
		t.Fatalf("requests_total{endpoint=b} = %d, want the rerouted request", served)
	}
	if !model.OutputsClose(resp.Output(), model.Reference(m, in), 1e-2) {
		t.Fatal("rerouted request got the wrong output")
	}
	if a := svc.byName["a"]; a.met.Rerouted.Value() != 1 || a.met.Shed.Value() != 0 {
		t.Fatalf("endpoint a rerouted=%d shed=%d, want 1/0", a.met.Rerouted.Value(), a.met.Shed.Value())
	}
}

func TestDeadlineReroutePicksLeastLoadedSibling(t *testing.T) {
	// Three endpoints serving the same model size. "a" is blocked by a
	// filler; "b" — the FIRST sibling in registration order — is
	// saturated with a deep backlog; "c" is idle. A tight-deadline
	// request shed from "a" must land on "c", not on "b" where it would
	// only queue behind the backlog (load-aware rerouting, not
	// first-sibling).
	m := testModel(t, 128, 6)
	svc, err := NewService(env.NewDefault(),
		WithEndpoint("a", m),
		WithEndpoint("b", m),
		WithEndpoint("c", m),
		WithCoalescing(4, 0),
	)
	if err != nil {
		t.Fatal(err)
	}
	setAdmission(svc.byName["a"], DeadlineAdmission(true))
	fillerA := svc.Submit("a", model.GenerateInputs(128, 4, 0.2, 2), 0)
	// Saturate b: one run in flight plus a backlog that outlives a's
	// filler (4-sample batches cannot merge under maxBatch 4).
	var fillersB []*Handle
	for i := 0; i < 4; i++ {
		fillersB = append(fillersB, svc.Submit("b", model.GenerateInputs(128, 4, 0.2, int64(10+i)), 0))
	}
	in := model.GenerateInputs(128, 4, 0.2, 3)
	urgent := svc.SubmitWith("a", in, 1*time.Millisecond, SubmitOptions{Deadline: 3 * time.Millisecond})
	if err := svc.Run(); err != nil {
		t.Fatal(err)
	}
	if _, err := fillerA.Wait(); err != nil {
		t.Fatalf("filler on a failed: %v", err)
	}
	for i, h := range fillersB {
		if _, err := h.Wait(); err != nil {
			t.Fatalf("filler %d on b failed: %v", i, err)
		}
	}
	resp, err := urgent.Wait()
	if err != nil {
		t.Fatalf("urgent request should have been rerouted, got: %v", err)
	}
	if served := svc.byName["c"].met.Requests.Value(); served != 1 {
		t.Fatalf("requests_total{endpoint=c} = %d, want the urgent request on the idle sibling", served)
	}
	if !model.OutputsClose(resp.Output(), model.Reference(m, in), 1e-2) {
		t.Fatal("rerouted request got the wrong output")
	}
	if a := svc.byName["a"]; a.met.Rerouted.Value() != 1 {
		t.Fatalf("endpoint a rerouted=%d, want 1", a.met.Rerouted.Value())
	}
}

func TestOverlappingRunsTearDownQueuesAndSubscriptions(t *testing.T) {
	// Several overlapping WithRunConcurrency runs on a Queue-channel
	// endpoint: once they all end, the environment must hold no orphan
	// per-run SQS queues or SNS subscriptions (sns.Unsubscribe /
	// sqs.DeleteQueue teardown).
	e := env.NewDefault()
	m := testModel(t, 256, 6)
	svc, err := NewService(e,
		WithEndpoint("ep", m, WithChannel(core.Queue), WithWorkers(3)),
		WithCoalescing(4, 0),
		WithRunConcurrency(2),
	)
	if err != nil {
		t.Fatal(err)
	}
	baseQueues := e.SQS.NumQueues()
	baseSubs := e.SNS.NumSubscriptions()
	var handles []*Handle
	for i := 0; i < 4; i++ {
		handles = append(handles, svc.Submit("ep", model.GenerateInputs(256, 4, 0.2, int64(2+i)), 0))
	}
	if err := svc.Run(); err != nil {
		t.Fatal(err)
	}
	maxConc := 0
	for i, h := range handles {
		if _, err := h.Wait(); err != nil {
			t.Fatalf("run %d failed: %v", i, err)
		}
	}
	if maxConc = svc.byName["ep"].stats.MaxConcurrent; maxConc < 2 {
		t.Fatalf("runs never overlapped (max concurrent %d); teardown untested", maxConc)
	}
	if got := e.SQS.NumQueues(); got != baseQueues {
		t.Fatalf("orphan SQS queues: %d live, baseline %d", got, baseQueues)
	}
	if got := e.SNS.NumSubscriptions(); got != baseSubs {
		t.Fatalf("orphan SNS subscriptions: %d live, baseline %d", got, baseSubs)
	}
}

func TestMemoryChannelEndpointServesAndMetersGBHours(t *testing.T) {
	// A Memory-channel endpoint behind the Service: verified outputs, a
	// replay report carrying the provisioned store's metered GB-hours,
	// and no per-run keyspace leaks.
	e := env.NewDefault()
	m := testModel(t, 256, 6)
	svc, err := NewService(e,
		WithEndpoint("mem", m, WithChannel(core.Memory), WithWorkers(3)),
		WithCoalescing(16, 100*time.Millisecond),
	)
	if err != nil {
		t.Fatal(err)
	}
	trace := workload.Day(8*8, []int{256}, 8, 7)
	rep, err := svc.Replay(trace, ReplayOptions{Seed: 11, Verify: true})
	if err != nil {
		t.Fatal(err)
	}
	if rep.Failed != 0 {
		t.Fatalf("%d failed queries", rep.Failed)
	}
	if rep.Usage.KVGBHours <= 0 || rep.Usage.KVOps == 0 {
		t.Fatalf("replay metered no store usage: %.3f GB-hours, %d ops", rep.Usage.KVGBHours, rep.Usage.KVOps)
	}
	if rep.TotalCost.KV <= 0 {
		t.Fatalf("replay billed no node-hours: %+v", rep.TotalCost)
	}
	// The whole KV bill is provisioned hours: a day-long sporadic window
	// bills ~24 node-hours however few queries arrived — the idle-billing
	// behaviour that prices memory out of sporadic traces.
	if got := rep.TotalCost.KV; got < 20*e.Pricing.KVNodeHourly["cache.m6g.large"] {
		t.Fatalf("day-long window billed only $%.4f; idle hours not accrued", got)
	}
	if n := e.KV.NumKeys(); n != 0 {
		t.Fatalf("%d keys left after replay", n)
	}
	if !strings.Contains(rep.String(), "provisioned memory store") {
		t.Fatal("report does not surface the provisioned-store meter")
	}
}

func TestScaleDownReleasesProvisionedMemoryNodes(t *testing.T) {
	// An autoscaled Memory-channel endpoint: the burst grows the pool
	// (each replica provisions a cache node), and scale-down must release
	// the victims' nodes — an unreleased node would keep billing
	// node-hours forever, inverting the autoscaler's cost win.
	e := env.NewDefault()
	m := testModel(t, 256, 6)
	svc, err := NewService(e,
		WithEndpoint("mem", m, WithChannel(core.Memory), WithWorkers(3)),
		WithCoalescing(4, 0),
		WithScaling(Autoscaler(AutoscalerOptions{Min: 1, Max: 3, IdleGrace: 5 * time.Second})),
	)
	if err != nil {
		t.Fatal(err)
	}
	var handles []*Handle
	for i := 0; i < 3; i++ {
		handles = append(handles, svc.Submit("mem", model.GenerateInputs(256, 4, 0.2, int64(2+i)), 0))
	}
	// A straggler well past the grace period forces the shrink decision.
	handles = append(handles, svc.Submit("mem", model.GenerateInputs(256, 4, 0.2, 9), 5*time.Minute))
	if err := svc.Run(); err != nil {
		t.Fatal(err)
	}
	for i, h := range handles {
		if _, err := h.Wait(); err != nil {
			t.Fatalf("request %d failed: %v", i, err)
		}
	}
	ep := svc.byName["mem"]
	if ep.stats.ScaleDowns == 0 {
		t.Fatalf("pool never shrank (peak %d, now %d); release untested",
			ep.stats.PeakReplicas, len(ep.sched.pool))
	}
	if got, want := e.KV.NumNodes(), len(ep.sched.pool); got != want {
		t.Fatalf("%d provisioned nodes still billing for a pool of %d replicas", got, want)
	}
}

func TestRefusedScaleUpDegradesThePool(t *testing.T) {
	// The scale-up deploy (the environment's second, fsd2) collides with a
	// function already registered under its coordinator's name. The burst
	// must still be served, the refusal counted, and the half-built
	// deployment's cache node released rather than left billing.
	e := env.NewDefault()
	if err := e.FaaS.Register(faas.FunctionConfig{
		Name: "fsd2-coordinator", MemoryMB: 128, Timeout: time.Minute,
		Handler: func(*faas.Ctx, []byte) ([]byte, error) { return nil, nil },
	}); err != nil {
		t.Fatal(err)
	}
	m := testModel(t, 256, 6)
	svc, err := NewService(e,
		WithEndpoint("mem", m, WithChannel(core.Memory), WithWorkers(3)),
		WithCoalescing(4, 0),
		WithScaling(Autoscaler(AutoscalerOptions{Min: 1, Max: 3})),
		WithTracing(1),
	)
	if err != nil {
		t.Fatal(err)
	}
	burst := make([]workload.Query, 3)
	for i := range burst {
		burst[i] = workload.Query{Neurons: 256, Samples: 4}
	}
	rep, err := svc.Replay(burst, ReplayOptions{Seed: 3, Verify: true})
	if err != nil {
		t.Fatal(err)
	}
	if rep.Failed != 0 {
		t.Fatalf("%d of the burst failed:\n%s", rep.Failed, rep)
	}
	er := rep.Endpoints[0]
	if er.DeployFailures < 1 || !strings.Contains(rep.String(), "deploy failures: ") {
		t.Fatalf("refused deploy not reported (%d):\n%s", er.DeployFailures, rep)
	}
	if got := svc.Metrics().Counter("deploy_failures_total", "endpoint", "mem").Value(); got != int64(er.DeployFailures) {
		t.Fatalf("deploy_failures_total = %d, report %d", got, er.DeployFailures)
	}
	if got, want := e.KV.NumNodes(), len(svc.byName["mem"].sched.pool); got != want {
		t.Fatalf("%d provisioned nodes for a pool of %d replicas", got, want)
	}
}

func TestQueueChannelRunsOverlapOnOneReplica(t *testing.T) {
	// A distributed Queue endpoint with ONE replica but run concurrency 2:
	// two same-instant requests that cannot coalesce (maxBatch 4) must run
	// as two overlapping engine runs on the single deployment.
	large := testModel(t, 256, 6)
	svc, err := NewService(env.NewDefault(),
		WithEndpoint("large", large, WithChannel(core.Queue), WithWorkers(3)),
		WithCoalescing(4, 0),
		WithRunConcurrency(2),
		WithTracing(1),
	)
	if err != nil {
		t.Fatal(err)
	}
	inA := model.GenerateInputs(256, 4, 0.2, 2)
	inB := model.GenerateInputs(256, 4, 0.2, 3)
	hA := svc.Submit("large", inA, 0)
	hB := svc.Submit("large", inB, 0)
	rA, err := hA.Wait()
	if err != nil {
		t.Fatal(err)
	}
	rB, err := hB.Wait()
	if err != nil {
		t.Fatal(err)
	}
	if !model.OutputsClose(rA.Output(), model.Reference(large, inA), 1e-2) {
		t.Fatal("first overlapped run diverges from reference")
	}
	if !model.OutputsClose(rB.Output(), model.Reference(large, inB), 1e-2) {
		t.Fatal("second overlapped run diverges from reference")
	}
	ep := svc.byName["large"]
	if len(ep.sched.pool) != 1 {
		t.Fatalf("pool size = %d, want 1", len(ep.sched.pool))
	}
	if ep.stats.Runs != 2 {
		t.Fatalf("runs = %d, want 2", ep.stats.Runs)
	}
	if ep.stats.MaxConcurrent < 2 {
		t.Fatalf("max concurrent runs per replica = %d, want >= 2", ep.stats.MaxConcurrent)
	}
	// Overlap, not serialisation: each run starts before the other ends.
	var runs []obs.Span
	for _, sp := range svc.Tracer().Spans() {
		if sp.Name == "run" {
			runs = append(runs, sp)
		}
	}
	if len(runs) != 2 {
		t.Fatalf("%d run spans, want 2", len(runs))
	}
	if runs[0].Start >= runs[1].End || runs[1].Start >= runs[0].End {
		t.Fatalf("runs serialised: [%v, %v] and [%v, %v]",
			runs[0].Start, runs[0].End, runs[1].Start, runs[1].End)
	}
}

// autoscaleTrace is a sporadic day with an evening burst: mostly idle, so
// a fixed pool wastes replica-hours, with enough clustered load that the
// autoscaler must grow.
func autoscaleTrace() []workload.Query {
	day := workload.Day(40*8, []int{128}, 8, 7)
	burst := make([]workload.Query, 0, 10)
	for i := 0; i < 10; i++ {
		burst = append(burst, workload.Query{
			At:      18*time.Hour + time.Duration(i)*400*time.Millisecond,
			Neurons: 128,
			Samples: 8,
		})
	}
	return append(day, burst...)
}

func autoscaleReplay(t *testing.T, scaling ScalingPolicy) *Report {
	t.Helper()
	m := testModel(t, 128, 6)
	svc, err := NewService(env.NewDefault(),
		WithEndpoint("ep", m),
		WithCoalescing(16, 100*time.Millisecond),
		WithScaling(scaling),
	)
	if err != nil {
		t.Fatal(err)
	}
	rep, err := svc.Replay(autoscaleTrace(), ReplayOptions{Seed: 11})
	if err != nil {
		t.Fatal(err)
	}
	if rep.Failed != 0 {
		t.Fatalf("%d failed queries", rep.Failed)
	}
	return rep
}

func TestAutoscalerUsesFewerReplicaHoursThanFixedPool(t *testing.T) {
	if testing.Short() {
		t.Skip("replay is a long simulation")
	}
	fixed := autoscaleReplay(t, FixedPool(3))
	auto := autoscaleReplay(t, Autoscaler(AutoscalerOptions{Min: 1, Max: 3}))

	fep, aep := fixed.Endpoints[0], auto.Endpoints[0]
	if aep.ReplicaSeconds >= fep.ReplicaSeconds {
		t.Fatalf("autoscaler replica-seconds %.0f, fixed %.0f: want fewer",
			aep.ReplicaSeconds, fep.ReplicaSeconds)
	}
	// The acceptance bar: lower provisioned capacity at equal or better
	// tail latency.
	if auto.Latency.P95 > fixed.Latency.P95 {
		t.Fatalf("autoscaler p95 %v worse than fixed %v", auto.Latency.P95, fixed.Latency.P95)
	}
	if aep.ScaleUps == 0 || aep.ScaleDowns == 0 {
		t.Fatalf("autoscaler never scaled: %d up / %d down", aep.ScaleUps, aep.ScaleDowns)
	}
	if aep.PeakReplicas <= 1 {
		t.Fatalf("autoscaler peak replicas = %d, want growth beyond 1", aep.PeakReplicas)
	}
}

func TestAutoscaledReplayDeterministic(t *testing.T) {
	if testing.Short() {
		t.Skip("replay is a long simulation")
	}
	run := func() string {
		return autoscaleReplay(t, Autoscaler(AutoscalerOptions{Min: 1, Max: 3})).String()
	}
	a, b := run(), run()
	if a != b {
		t.Fatalf("same trace + seed under autoscaling produced different reports:\n--- a ---\n%s\n--- b ---\n%s", a, b)
	}
}

func TestSLODeploysThePlannersPick(t *testing.T) {
	if testing.Short() {
		t.Skip("AutoSelect trials are long simulations")
	}
	m := testModel(t, 128, 6)
	svc, err := NewService(env.NewDefault(),
		WithEndpoint("slo", m, WithSLO(SLOOptions{
			LatencyWeight: 0.5,
			Workers:       []int{2},
			ProbeBatch:    4,
			MinRuns:       2,
		})),
		WithCoalescing(64, 0),
	)
	if err != nil {
		t.Fatal(err)
	}
	ep := svc.byName["slo"]
	// The endpoint picked its own configuration: whatever a one-shot
	// plan under the same options chooses, the deployment must match it
	// and serve correctly (the WithSLO back-compat guarantee).
	oneShot, err := plan.New(m, plan.Options{
		Objective:        plan.WeightedObjective(0.5),
		Grid:             plan.Grid{Workers: []int{2}},
		DisablePrefilter: true,
		Seed:             1,
	})
	if err != nil {
		t.Fatal(err)
	}
	want, err := oneShot.Plan(plan.WorkloadProfile{BatchSamples: 4})
	if err != nil {
		t.Fatal(err)
	}
	if ep.cfg.Channel != want.Best.Channel || ep.cfg.Workers() != want.Best.Workers {
		t.Fatalf("endpoint deployed %v x%d, a one-shot plan chose %v x%d",
			ep.cfg.Channel, ep.cfg.Workers(), want.Best.Channel, want.Best.Workers)
	}
	h := svc.Submit("slo", model.GenerateInputs(128, 4, 0.2, 2), 0)
	if _, err := h.Wait(); err != nil {
		t.Fatal(err)
	}
}

// TestReplanFlipsChannelAcrossBreakEven drives an SLO endpoint through a
// day whose arrival rate crosses the memory channel's break-even volume
// mid-trace: a sporadic morning (queue: the provisioned node would bill
// mostly idle), a sustained burst (the flat node rate undercuts
// per-request charges — flip to memory), then a cool-down (flip back).
// The Report must record both re-plan events.
func TestReplanFlipsChannelAcrossBreakEven(t *testing.T) {
	if testing.Short() {
		t.Skip("replay with planner trials is a long simulation")
	}
	m := testModel(t, 256, 6)
	svc, err := NewService(env.NewDefault(),
		WithEndpoint("slo", m, WithSLO(SLOOptions{
			LatencyWeight: 0, // cost objective: the break-even decides
			Channels:      []core.ChannelKind{core.Queue, core.Memory},
			Workers:       []int{2},
			ProbeBatch:    4,
			MinRuns:       2,
		})),
		WithCoalescing(4, 0),
	)
	if err != nil {
		t.Fatal(err)
	}
	ep := svc.byName["slo"]
	if ep.cfg.Channel != core.Queue {
		t.Fatalf("initial pick %v, want queue (probe cost scoring)", ep.cfg.Channel)
	}
	be := ep.slo.planner.Last().MemoryBreakEvenQueriesPerDay
	if be <= 0 {
		t.Fatal("initial decision measured no memory break-even")
	}

	rep, err := svc.Replay(goldenSLOTrace(5*time.Minute, 0), ReplayOptions{Seed: 11})
	if err != nil {
		t.Fatal(err)
	}
	if rep.Failed != 0 {
		t.Fatalf("%d failed queries", rep.Failed)
	}
	er := rep.Endpoints[0]
	if len(er.Replans) < 2 {
		t.Fatalf("replans = %d, want the ramp-up and cool-down flips:\n%s", len(er.Replans), rep)
	}
	up, down := er.Replans[0], er.Replans[len(er.Replans)-1]
	if up.From != core.Queue || up.To != core.Memory {
		t.Fatalf("ramp-up replan %v -> %v, want queue -> memory", up.From, up.To)
	}
	if qpd := crossedVolume(t, up); qpd < be {
		t.Fatalf("ramp-up scored %d queries/day, below break-even %d", qpd, be)
	}
	if down.From != core.Memory || down.To != core.Queue {
		t.Fatalf("cool-down replan %v -> %v, want memory -> queue", down.From, down.To)
	}
	if qpd := crossedVolume(t, down); qpd >= be {
		t.Fatalf("cool-down scored %d queries/day, above break-even %d", qpd, be)
	}
	if er.Channel != core.Queue {
		t.Fatalf("endpoint ended on %v, want queue after cool-down", er.Channel)
	}
	if er.Reselections < 2 {
		t.Fatalf("reselections = %d, want >= 2", er.Reselections)
	}
	// The memory phase provisions a store: the replay must meter its
	// GB-hours, and the report must surface the re-plan events.
	if rep.Usage.KVGBHours <= 0 {
		t.Fatal("memory phase metered no provisioned GB-hours")
	}
	if !strings.Contains(rep.String(), "replan @") {
		t.Fatalf("report does not surface re-plan events:\n%s", rep)
	}
}

// crossedVolume is the observed daily volume a break-even re-plan scored,
// read from the reason the event reports.
func crossedVolume(t *testing.T, ev ReplanEvent) int64 {
	t.Helper()
	var qpd, be int64
	if _, err := fmt.Sscanf(ev.Reason, "arrival rate crossed the memory break-even (%d vs ~%d queries/day)", &qpd, &be); err != nil {
		t.Fatalf("replan reason %q: %v", ev.Reason, err)
	}
	return qpd
}

func TestRunErrorSurfacesOnAllUnresolvedHandles(t *testing.T) {
	// A doomed distributed endpoint (timeout far too small) and a healthy
	// serial endpoint. The healthy handle resolves first inside the same
	// kernel run; the doomed handles must each surface the run error even
	// though another handle already resolved, and Wait must never report
	// the generic "did not complete".
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
	hOK := svc.Submit("ok", model.GenerateInputs(128, 4, 0.2, 2), 0)
	hBad1 := svc.Submit("doomed", model.GenerateInputs(256, 4, 0.2, 2), 0)
	hBad2 := svc.Submit("doomed", model.GenerateInputs(256, 4, 0.2, 3), time.Second)
	if _, err := hOK.Wait(); err != nil {
		t.Fatalf("healthy endpoint failed: %v", err)
	}
	for i, h := range []*Handle{hBad1, hBad2} {
		_, err := h.Wait()
		if err == nil {
			t.Fatalf("doomed request %d succeeded", i)
		}
		if !h.Done() {
			t.Fatalf("doomed request %d still pending after Wait", i)
		}
	}
}

// The scheduler options together on one service: autoscaling replica
// pools, deadline shedding and a replay that reports both policies.
func TestPublicSchedulerPolicies(t *testing.T) {
	m, err := model.Generate(model.GraphChallengeSpec(128, 6, 1))
	if err != nil {
		t.Fatal(err)
	}
	svc, err := NewService(env.NewDefault(),
		WithEndpoint("ep", m),
		WithCoalescing(4, 0),
		WithAdmission(DeadlineAdmission(false)),
		WithScaling(Autoscaler(AutoscalerOptions{Min: 1, Max: 2})),
	)
	if err != nil {
		t.Fatal(err)
	}
	// Two fillers saturate the autoscaler's Max of 2 replicas, so the
	// tight-deadline request must queue — and shed once it cannot finish
	// in time.
	filler1 := svc.Submit("ep", model.GenerateInputs(128, 4, 0.2, 2), 0)
	filler2 := svc.Submit("ep", model.GenerateInputs(128, 4, 0.2, 4), 0)
	doomed := svc.SubmitWith("ep", model.GenerateInputs(128, 4, 0.2, 3), time.Millisecond,
		SubmitOptions{Deadline: 2 * time.Millisecond})
	if _, err := filler1.Wait(); err != nil {
		t.Fatalf("filler failed: %v", err)
	}
	if _, err := filler2.Wait(); err != nil {
		t.Fatalf("second filler failed: %v", err)
	}
	if _, err := doomed.Wait(); !errors.Is(err, ErrShed) {
		t.Fatalf("doomed: got %v, want ErrShed", err)
	}

	// A replay under autoscaling reports the scheduler metrics.
	trace := workload.Day(20*8, []int{128}, 8, 7)
	rep, err := svc.Replay(trace, ReplayOptions{Seed: 11})
	if err != nil {
		t.Fatal(err)
	}
	ep := rep.Endpoints[0]
	if ep.ReplicaSeconds <= 0 {
		t.Fatalf("replay reported no replica-seconds: %+v", ep)
	}
	if ep.Scaling == "" || ep.Admission == "" {
		t.Fatalf("replay missing policy names: %+v", ep)
	}
}

// setAdmission gives one endpoint its own admission policy: options set
// one policy for the whole service.
func setAdmission(ep *Endpoint, p AdmissionPolicy) {
	ep.sched.admission = p
	ep.sched.queue.use(p)
}

// earliestDeadlineFirst dispatches the request with the earlier absolute
// deadline first, arrival order on a tie. Unlike DeadlineAdmission it never
// sheds, so only its order decides.
type earliestDeadlineFirst struct{}

func (earliestDeadlineFirst) Name() string { return "edf" }
func (earliestDeadlineFirst) Less(a, b RequestInfo) bool {
	if a.Deadline != b.Deadline {
		return a.Deadline < b.Deadline
	}
	return a.Seq < b.Seq
}
func (earliestDeadlineFirst) Shed(_, _ time.Duration, _ RequestInfo) bool { return false }
func (earliestDeadlineFirst) Reroute() bool                               { return false }

// TestFullWindowFlushesOnce: under zero-delay coalescing a window that
// fills at its first instant flushes at once, and the flush already
// scheduled for that instant finds nothing left to do.
func TestFullWindowFlushesOnce(t *testing.T) {
	svc, err := NewService(env.NewDefault(),
		WithEndpoint("ep", testModel(t, 128, 2)),
		WithCoalescing(4, 0),
	)
	if err != nil {
		t.Fatal(err)
	}
	a := svc.Submit("ep", model.GenerateInputs(128, 2, 0.2, 1), 0)
	b := svc.Submit("ep", model.GenerateInputs(128, 2, 0.2, 2), 0)
	if err := svc.Run(); err != nil {
		t.Fatal(err)
	}
	if a.err != nil || b.err != nil {
		t.Fatalf("requests failed: %v, %v", a.err, b.err)
	}
	if st := svc.byName["ep"].stats; st.Runs != 1 || st.MaxSamples != 4 {
		t.Fatalf("%d run(s), largest %d samples; want one run of both requests", st.Runs, st.MaxSamples)
	}
}

// zeroPool is a scaling policy that asks for no replicas at all.
type zeroPool struct{}

func (zeroPool) Name() string             { return "zero" }
func (zeroPool) Target(PoolState) int     { return 0 }
func (zeroPool) IdleGrace() time.Duration { return 0 }

// TestPoolKeepsOneReplica: the scheduler clamps a policy's target to one
// replica, at deploy time and after, so a request is still served.
func TestPoolKeepsOneReplica(t *testing.T) {
	svc, err := NewService(env.NewDefault(),
		WithEndpoint("ep", testModel(t, 128, 2)),
		WithScaling(zeroPool{}),
	)
	if err != nil {
		t.Fatal(err)
	}
	h := svc.Submit("ep", model.GenerateInputs(128, 2, 0.2, 1), time.Second)
	if err := svc.Run(); err != nil {
		t.Fatal(err)
	}
	if h.err != nil {
		t.Fatalf("request failed: %v", h.err)
	}
	if n := len(svc.byName["ep"].sched.pool); n != 1 {
		t.Fatalf("pool holds %d replicas, want 1", n)
	}
}
