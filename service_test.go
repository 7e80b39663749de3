package fsdinference_test

import (
	"errors"
	"testing"
	"time"

	"fsdinference"
)

// The public serving API, end to end: a multi-model Service with
// asynchronous Submit and trace replay, exercised exactly as a library
// consumer would use it.

func TestPublicServiceSubmitAndReplay(t *testing.T) {
	mSmall, err := fsdinference.GenerateModel(fsdinference.GraphChallengeSpec(128, 6, 1))
	if err != nil {
		t.Fatal(err)
	}
	mLarge, err := fsdinference.GenerateModel(fsdinference.GraphChallengeSpec(256, 6, 1))
	if err != nil {
		t.Fatal(err)
	}
	svc, err := fsdinference.NewService(fsdinference.NewEnv(),
		fsdinference.WithEndpoint("small", mSmall),
		fsdinference.WithEndpoint("large", mLarge,
			fsdinference.WithChannel(fsdinference.Queue),
			fsdinference.WithWorkers(3)),
		fsdinference.WithCoalescing(64, 200*time.Millisecond),
		fsdinference.WithReplicas(2),
	)
	if err != nil {
		t.Fatal(err)
	}

	// Async submits: two overlapping requests to different endpoints in
	// one simulated-time run.
	inSmall := fsdinference.GenerateInputs(128, 8, 0.2, 2)
	inLarge := fsdinference.GenerateInputs(256, 8, 0.2, 3)
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
	if !fsdinference.OutputsClose(rSmall.Output, fsdinference.Reference(mSmall, inSmall), 1e-2) {
		t.Fatal("small endpoint output diverges from reference")
	}
	if !fsdinference.OutputsClose(rLarge.Output, fsdinference.Reference(mLarge, inLarge), 1e-2) {
		t.Fatal("large endpoint output diverges from reference")
	}

	// Trace replay continues on the same service, after the submits.
	trace := fsdinference.WorkloadDay(30*8, []int{128, 256}, 8, 7)
	rep, err := svc.Replay(trace, fsdinference.ReplayOptions{Seed: 11, Verify: true})
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

// The scheduler surface of the public API: autoscaling replica pools,
// priority submits and deadline shedding, exercised as a library consumer
// would.
func TestPublicSchedulerPolicies(t *testing.T) {
	m, err := fsdinference.GenerateModel(fsdinference.GraphChallengeSpec(128, 6, 1))
	if err != nil {
		t.Fatal(err)
	}
	svc, err := fsdinference.NewService(fsdinference.NewEnv(),
		fsdinference.WithEndpoint("ep", m),
		fsdinference.WithCoalescing(4, 0),
		fsdinference.WithAdmission(fsdinference.DeadlineAdmission(false)),
		fsdinference.WithScaling(fsdinference.Autoscaler(fsdinference.AutoscalerOptions{Min: 1, Max: 2})),
	)
	if err != nil {
		t.Fatal(err)
	}
	// Two fillers saturate the autoscaler's Max of 2 replicas, so the
	// tight-deadline request must queue — and shed once it cannot finish
	// in time.
	filler1 := svc.Submit("ep", fsdinference.GenerateInputs(128, 4, 0.2, 2), 0)
	filler2 := svc.Submit("ep", fsdinference.GenerateInputs(128, 4, 0.2, 4), 0)
	doomed := svc.SubmitWith("ep", fsdinference.GenerateInputs(128, 4, 0.2, 3), time.Millisecond,
		fsdinference.SubmitOptions{Deadline: 2 * time.Millisecond})
	if _, err := filler1.Wait(); err != nil {
		t.Fatalf("filler failed: %v", err)
	}
	if _, err := filler2.Wait(); err != nil {
		t.Fatalf("second filler failed: %v", err)
	}
	if _, err := doomed.Wait(); !errors.Is(err, fsdinference.ErrShed) {
		t.Fatalf("doomed: got %v, want ErrShed", err)
	}

	// A replay under autoscaling reports the scheduler metrics.
	trace := fsdinference.WorkloadDay(20*8, []int{128}, 8, 7)
	rep, err := svc.Replay(trace, fsdinference.ReplayOptions{Seed: 11})
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

// Deploy/Infer must keep working unchanged as the one-shot compatibility
// path alongside the Service API.
func TestDeployInferCompatibilityPath(t *testing.T) {
	m, err := fsdinference.GenerateModel(fsdinference.GraphChallengeSpec(128, 6, 1))
	if err != nil {
		t.Fatal(err)
	}
	d, err := fsdinference.Deploy(fsdinference.NewEnv(), fsdinference.Config{
		Model: m, Channel: fsdinference.Serial,
	})
	if err != nil {
		t.Fatal(err)
	}
	input := fsdinference.GenerateInputs(128, 8, 0.2, 2)
	res, err := d.Infer(input)
	if err != nil {
		t.Fatal(err)
	}
	if !fsdinference.OutputsClose(res.Output, fsdinference.Reference(m, input), 1e-2) {
		t.Fatal("compat path output diverges from reference")
	}
	if res.Cost.Total() <= 0 || res.Latency <= 0 {
		t.Fatal("compat path lost metering")
	}
}

// The public Planner API, exercised exactly as a library consumer would:
// plan under an assumed sporadic workload, observe the pruning stats,
// re-plan under a sustained one, deploy the pick, and plan one-shot (the
// weighted objective, no pre-filter, no profile beyond the probe batch).
func TestPublicPlannerPlanAndReplan(t *testing.T) {
	m, err := fsdinference.GenerateModel(fsdinference.GraphChallengeSpec(256, 6, 1))
	if err != nil {
		t.Fatal(err)
	}
	p, err := fsdinference.NewPlanner(m, fsdinference.PlannerOptions{
		Objective: fsdinference.CostObjective(),
		Grid: fsdinference.PlannerGrid{
			Channels: []fsdinference.ChannelKind{fsdinference.Queue, fsdinference.Memory},
			Workers:  []int{2},
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	d, err := p.Plan(fsdinference.WorkloadProfile{QueriesPerDay: 20, BatchSamples: 8})
	if err != nil {
		t.Fatal(err)
	}
	if d.Best.Channel != fsdinference.Queue {
		t.Fatalf("sporadic plan picked %v, want queue", d.Best.Channel)
	}
	if d.Pruned == 0 {
		t.Fatal("analytic pre-filter pruned nothing on the sporadic cost plan")
	}
	d2, err := p.Replan(fsdinference.WorkloadProfile{QueriesPerDay: 200_000, BatchSamples: 8})
	if err != nil {
		t.Fatal(err)
	}
	if d2.Best.Channel != fsdinference.Memory || !d2.Changed {
		t.Fatalf("sustained replan picked %v (changed=%v), want a flip to memory", d2.Best.Channel, d2.Changed)
	}
	// The decision's config deploys and serves on a caller environment.
	dep, err := fsdinference.Deploy(fsdinference.NewEnv(), d2.Config)
	if err != nil {
		t.Fatal(err)
	}
	in := fsdinference.GenerateInputs(256, 8, 0.2, 2)
	res, err := dep.Infer(in)
	if err != nil {
		t.Fatal(err)
	}
	if !fsdinference.OutputsClose(res.Output, fsdinference.Reference(m, in), 1e-2) {
		t.Fatal("planned config produced wrong output")
	}

	oneShot, err := fsdinference.NewPlanner(m, fsdinference.PlannerOptions{
		Objective:        fsdinference.WeightedObjective(1),
		Grid:             fsdinference.PlannerGrid{Workers: []int{2}},
		DisablePrefilter: true,
	})
	if err != nil {
		t.Fatal(err)
	}
	sel, err := oneShot.Plan(fsdinference.WorkloadProfile{BatchSamples: 8})
	if err != nil {
		t.Fatal(err)
	}
	if sel.Best.Channel != fsdinference.Serial {
		t.Fatalf("latency-weighted one-shot plan picked %v, want serial for a model this small", sel.Best.Channel)
	}
}
