package core

import (
	"errors"
	"regexp"
	"strings"
	"testing"
	"time"

	"fsdinference/internal/cloud/env"
	"fsdinference/internal/model"
	"fsdinference/internal/partition"
	"fsdinference/internal/wire"
)

// Failure-injection tests: the engine must fail loudly and cleanly when
// platform limits bite mid-run, rather than hanging or returning wrong
// results.

func TestWorkerOOMFailsRunWithRealError(t *testing.T) {
	// Workers sized far below the partition's needs die with OOM; the
	// run must surface that error (not a bare timeout, not a hang).
	m, err := model.Generate(model.GraphChallengeSpec(2048, 100, 1))
	if err != nil {
		t.Fatal(err)
	}
	plan, err := partition.BuildPlan(m, 2, partition.Block, partition.Options{Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	d, err := Deploy(env.NewDefault(), Config{
		Model: m, Plan: plan, Channel: Queue,
		// Each worker's row block is ~26 MB raw, ~144 MB at the modelled
		// runtime footprint: over the 128 MB instance.
		WorkerMemoryMB: 128,
		PollWait:       2 * time.Second,
		// Keep the run short: surviving workers stop at this timeout.
		FunctionTimeout: 30 * time.Second,
	})
	if err != nil {
		t.Fatal(err)
	}
	_, err = d.Infer(model.GenerateInputs(2048, 4, 0.2, 2))
	if err == nil {
		t.Fatal("run with OOM-sized workers succeeded")
	}
	if !strings.Contains(err.Error(), "out of memory") {
		t.Fatalf("err = %v, want the OOM cause surfaced", err)
	}
}

func TestRuntimeLimitSurfacesAsTimeout(t *testing.T) {
	// A function timeout far below the workload's needs kills workers
	// mid-run; the request must fail rather than hang the simulation.
	m, err := model.Generate(model.GraphChallengeSpec(256, 8, 1))
	if err != nil {
		t.Fatal(err)
	}
	plan, err := partition.BuildPlan(m, 3, partition.Block, partition.Options{Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	d, err := Deploy(env.NewDefault(), Config{
		Model: m, Plan: plan, Channel: Queue,
		FunctionTimeout: 1 * time.Second, // below launch + load + FSI
		PollWait:        2 * time.Second,
	})
	if err != nil {
		t.Fatal(err)
	}
	_, err = d.Infer(model.GenerateInputs(256, 8, 0.2, 2))
	if err == nil {
		t.Fatal("run with impossible timeout succeeded")
	}
	if !strings.Contains(err.Error(), "timed out") && !strings.Contains(err.Error(), "out of runtime") {
		t.Fatalf("err = %v, want timeout cause", err)
	}
}

// TestRefusedLaunchSurfacesTheInvokeError: a child invoke the platform
// refuses at its concurrency limit fails the run with that refusal, naming
// the invoker and the child, under every launch mode. The refusal used to
// sit unread while the run reported the root's timeout 15 minutes later.
func TestRefusedLaunchSurfacesTheInvokeError(t *testing.T) {
	m, err := model.Generate(model.GraphChallengeSpec(256, 2, 1))
	if err != nil {
		t.Fatal(err)
	}
	plan, err := partition.BuildPlan(m, 12, partition.Block, partition.Options{Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	refused := regexp.MustCompile(`(coordinator|worker \d+) invoking worker \d+: faas: concurrency limit`)
	for _, mode := range []LaunchMode{Hierarchical, Centralized, TwoLevel} {
		ecfg := env.DefaultConfig()
		ecfg.FaaS.ConcurrencyLimit = 6
		d, err := Deploy(env.New(ecfg), Config{Model: m, Plan: plan, Channel: Memory, Launch: mode})
		if err != nil {
			t.Fatal(err)
		}
		_, err = d.Infer(model.GenerateInputs(256, 4, 0.2, 2))
		if err == nil || !refused.MatchString(err.Error()) {
			t.Errorf("%v: err = %v, want the refused invoke naming its invoker and child", mode, err)
		}
	}
}

func TestDeploymentRecoversAfterFailedRun(t *testing.T) {
	// After a failed request, the same deployment must serve the next
	// request correctly (queues may hold stale messages from the dead
	// run; the run-id attribute filters them).
	m, err := model.Generate(model.GraphChallengeSpec(256, 6, 1))
	if err != nil {
		t.Fatal(err)
	}
	plan, err := partition.BuildPlan(m, 3, partition.Block, partition.Options{Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	e := env.NewDefault()
	d, err := Deploy(e, Config{
		Model: m, Plan: plan, Channel: Queue,
		FunctionTimeout: 400 * time.Millisecond, // enough to launch, not to finish FSI
		PollWait:        time.Second,
	})
	if err != nil {
		t.Fatal(err)
	}
	input := model.GenerateInputs(256, 8, 0.2, 2)
	if _, err := d.Infer(input); err == nil {
		t.Fatal("expected the strangled run to fail")
	}

	// Relax the timeout and run again on the same deployment.
	d.Cfg.FunctionTimeout = 15 * time.Minute
	if err := redeployFunctions(d); err != nil {
		t.Fatal(err)
	}
	res, err := d.Infer(input)
	if err != nil {
		t.Fatalf("recovery run failed: %v", err)
	}
	want := model.Reference(m, input)
	if !model.OutputsClose(res.Output, want, 1e-2) {
		t.Fatal("recovery run produced wrong output")
	}
}

// TestFailedInputEncodeFailsTheStart: an input that cannot be staged is the
// request's failure, reported by Start (and so by Infer) — not a panic that
// takes the replay down — and it leaves nothing behind: no registered run,
// no per-run queues, and the deployment serves the next request.
func TestFailedInputEncodeFailsTheStart(t *testing.T) {
	m, err := model.Generate(model.GraphChallengeSpec(128, 4, 1))
	if err != nil {
		t.Fatal(err)
	}
	plan, err := partition.BuildPlan(m, 2, partition.Block, partition.Options{Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	boom := errors.New("compressor out of memory")
	defer func(enc func([]float32, int, []int32, bool) ([]byte, error)) { encodeInput = enc }(encodeInput)

	for _, cfg := range []Config{
		{Model: m, Channel: Serial},
		{Model: m, Plan: plan, Channel: Queue, PollWait: time.Second},
	} {
		e := env.NewDefault()
		d, err := Deploy(e, cfg)
		if err != nil {
			t.Fatal(err)
		}
		queues := e.SQS.NumQueues()
		input := model.GenerateInputs(128, 4, 0.2, 2)

		encodeInput = func([]float32, int, []int32, bool) ([]byte, error) { return nil, boom }
		called := false
		id, err := d.Start(input, func(*Result, error) { called = true })
		if !errors.Is(err, boom) || id != "" {
			t.Fatalf("%v: Start = %q, %v; want the encode error", cfg.Channel, id, err)
		}
		if _, err := d.Infer(input); !errors.Is(err, boom) {
			t.Fatalf("%v: Infer = %v; want the encode error", cfg.Channel, err)
		}
		if err := e.K.Run(); err != nil || called {
			t.Fatalf("%v: a failed Start left work on the kernel (run: %v, done called: %v)", cfg.Channel, err, called)
		}
		if len(d.runs) != 0 || e.SQS.NumQueues() != queues {
			t.Fatalf("%v: a failed Start left %d runs and %d queues behind", cfg.Channel, len(d.runs), e.SQS.NumQueues()-queues)
		}

		encodeInput = wire.EncodeMatrixRows
		res, err := d.Infer(input)
		if err != nil {
			t.Fatalf("%v: request after the failed one: %v", cfg.Channel, err)
		}
		if !model.OutputsClose(res.Output, model.Reference(m, input), 1e-2) {
			t.Fatalf("%v: request after the failed one produced wrong output", cfg.Channel)
		}
	}
}

// redeployFunctions re-registers the deployment's functions with fresh
// settings under new names (FaaS registrations are immutable).
func redeployFunctions(d *Deployment) error {
	d.fnWorker += "-v2"
	d.fnCoordinator += "-v2"
	return d.registerFunctions()
}
