package core

import (
	"math"
	"testing"
	"time"

	"fsdinference/internal/cloud/env"
	"fsdinference/internal/collective"
	"fsdinference/internal/model"
	"fsdinference/internal/partition"
)

// The prepare/run split: multiple runs, on deployments sharing one
// environment, progress inside a single Kernel.Run instead of each Infer
// owning the kernel.

func TestConcurrentStartsShareOneKernelRun(t *testing.T) {
	e := env.NewDefault()
	mSmall, err := model.Generate(model.GraphChallengeSpec(128, 6, 1))
	if err != nil {
		t.Fatal(err)
	}
	mLarge, err := model.Generate(model.GraphChallengeSpec(256, 6, 1))
	if err != nil {
		t.Fatal(err)
	}
	plan, err := partition.BuildPlan(mLarge, 3, partition.HGPDNN, partition.Options{Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	dSerial, err := Deploy(e, Config{Model: mSmall, Channel: Serial})
	if err != nil {
		t.Fatal(err)
	}
	dQueue, err := Deploy(e, Config{Model: mLarge, Plan: plan, Channel: Queue, PollWait: 2 * time.Second})
	if err != nil {
		t.Fatal(err)
	}

	inSmall := model.GenerateInputs(128, 8, 0.2, 2)
	inLarge := model.GenerateInputs(256, 8, 0.2, 3)
	var rSerial, rQueue *Result
	var eSerial, eQueue error
	if _, err := dSerial.Start(inSmall, func(r *Result, err error) { rSerial, eSerial = r, err }); err != nil {
		t.Fatal(err)
	}
	if _, err := dQueue.Start(inLarge, func(r *Result, err error) { rQueue, eQueue = r, err }); err != nil {
		t.Fatal(err)
	}
	if err := e.K.Run(); err != nil {
		t.Fatal(err)
	}
	if eSerial != nil || eQueue != nil {
		t.Fatalf("run errors: serial=%v queue=%v", eSerial, eQueue)
	}
	if !model.OutputsClose(rSerial.Output, model.Reference(mSmall, inSmall), 1e-2) {
		t.Fatal("serial output diverges from reference")
	}
	if !model.OutputsClose(rQueue.Output, model.Reference(mLarge, inLarge), 1e-2) {
		t.Fatal("queue output diverges from reference")
	}
	// Overlap in virtual time: the serial run must finish before the
	// distributed one, proving neither monopolised the kernel.
	if rSerial.Latency >= rQueue.Latency {
		t.Fatalf("serial latency %v should be below distributed %v", rSerial.Latency, rQueue.Latency)
	}
}

// Run-id partitioned queue consumption: two Queue-channel runs started on
// ONE deployment must overlap in virtual time and both produce reference
// outputs — the restriction the replica pool used to enforce is gone.
func TestOverlappingQueueRunsOnOneDeployment(t *testing.T) {
	e := env.NewDefault()
	m, err := model.Generate(model.GraphChallengeSpec(256, 6, 1))
	if err != nil {
		t.Fatal(err)
	}
	plan, err := partition.BuildPlan(m, 3, partition.HGPDNN, partition.Options{Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	d, err := Deploy(e, Config{Model: m, Plan: plan, Channel: Queue, PollWait: 2 * time.Second})
	if err != nil {
		t.Fatal(err)
	}

	inA := model.GenerateInputs(256, 8, 0.2, 2)
	inB := model.GenerateInputs(256, 8, 0.2, 3)
	type out struct {
		res *Result
		err error
		end time.Duration
	}
	var a, b out
	if _, err := d.Start(inA, func(r *Result, err error) { a = out{r, err, e.K.Now()} }); err != nil {
		t.Fatal(err)
	}
	if _, err := d.Start(inB, func(r *Result, err error) { b = out{r, err, e.K.Now()} }); err != nil {
		t.Fatal(err)
	}
	if err := e.K.Run(); err != nil {
		t.Fatal(err)
	}
	if a.err != nil || b.err != nil {
		t.Fatalf("run errors: a=%v b=%v", a.err, b.err)
	}
	if !model.OutputsClose(a.res.Output, model.Reference(m, inA), 1e-2) {
		t.Fatal("run A output diverges from reference")
	}
	if !model.OutputsClose(b.res.Output, model.Reference(m, inB), 1e-2) {
		t.Fatal("run B output diverges from reference")
	}
	// Overlap: both started at t=0, so serialised execution would make
	// run B's completion time at least the sum of both latencies.
	if b.end >= a.res.Latency+b.res.Latency {
		t.Fatalf("runs serialised: B finished at %v, latencies %v + %v",
			b.end, a.res.Latency, b.res.Latency)
	}
}

// Per-run keyspace isolation: two Memory-channel runs started on ONE
// deployment must overlap in virtual time, both produce reference
// outputs, and leave no keys behind — the memory channel composes with
// run multiplexing exactly like the run-partitioned queues.
func TestOverlappingMemoryRunsOnOneDeployment(t *testing.T) {
	e := env.NewDefault()
	m, err := model.Generate(model.GraphChallengeSpec(256, 6, 1))
	if err != nil {
		t.Fatal(err)
	}
	plan, err := partition.BuildPlan(m, 3, partition.HGPDNN, partition.Options{Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	d, err := Deploy(e, Config{Model: m, Plan: plan, Channel: Memory})
	if err != nil {
		t.Fatal(err)
	}

	inA := model.GenerateInputs(256, 8, 0.2, 2)
	inB := model.GenerateInputs(256, 8, 0.2, 3)
	type out struct {
		res *Result
		err error
		end time.Duration
	}
	var a, b out
	if _, err := d.Start(inA, func(r *Result, err error) { a = out{r, err, e.K.Now()} }); err != nil {
		t.Fatal(err)
	}
	if _, err := d.Start(inB, func(r *Result, err error) { b = out{r, err, e.K.Now()} }); err != nil {
		t.Fatal(err)
	}
	if err := e.K.Run(); err != nil {
		t.Fatal(err)
	}
	if a.err != nil || b.err != nil {
		t.Fatalf("run errors: a=%v b=%v", a.err, b.err)
	}
	if !model.OutputsClose(a.res.Output, model.Reference(m, inA), 1e-2) {
		t.Fatal("run A output diverges from reference")
	}
	if !model.OutputsClose(b.res.Output, model.Reference(m, inB), 1e-2) {
		t.Fatal("run B output diverges from reference")
	}
	if b.end >= a.res.Latency+b.res.Latency {
		t.Fatalf("runs serialised: B finished at %v, latencies %v + %v",
			b.end, a.res.Latency, b.res.Latency)
	}
	if n := e.KV.NumKeys(); n != 0 {
		t.Fatalf("%d keys left after overlapping runs", n)
	}
}

// TestAsyncUsageReconstructionMatchesMeter is the §VI-F claim as a test: for
// a run that does not overlap another, the usage Start reconstructs from the
// worker-side ledgers (the rows' bill hooks) is the metered window count for
// count, on every kind under every topology. The cells with AllreduceOutput
// are missing on purpose: there the run is torn down while ranks still wait
// for their copy and the reconstruction is wrong (ROADMAP direction 1, which
// must extend this list when it fixes that).
func TestAsyncUsageReconstructionMatchesMeter(t *testing.T) {
	for _, kind := range ChannelKinds() {
		for _, alg := range []collective.Algorithm{collective.Flat, collective.Tree, collective.Ring} {
			// Thresholds low enough that Hybrid bills both of its sides.
			d, _, input := testSetup(t, 256, 6, 8, kind, func(c *Config) {
				c.Collective = alg
				c.HybridThresholdBytes, c.HybridChunkBytes = 256, 1<<10
			})
			snap := d.Env.Meter.Snapshot()
			var res *Result
			var runErr error
			if _, err := d.Start(input, func(r *Result, err error) { res, runErr = r, err }); err != nil {
				t.Fatal(err)
			}
			if err := d.Env.K.Run(); err != nil {
				t.Fatal(err)
			}
			if runErr != nil {
				t.Fatal(runErr)
			}
			used := d.Env.Meter.Sub(snap)
			rec := &res.Usage
			for _, c := range []struct {
				name     string
				rec, met int64
			}{
				{"Lambda invocations", rec.LambdaInvocations, used.LambdaInvocations},
				{"SNS billed publishes", rec.SNSBilledPublishes, used.SNSBilledPublishes},
				{"SNS delivered bytes", rec.SNSDeliveredBytes, used.SNSDeliveredBytes},
				{"SQS requests", rec.SQSRequests(), used.SQSRequests()},
				{"S3 PUTs", rec.S3PutCalls, used.S3PutCalls},
				{"S3 GETs", rec.S3GetCalls, used.S3GetCalls},
				{"S3 LISTs", rec.S3ListCalls, used.S3ListCalls},
			} {
				if c.rec != c.met {
					t.Errorf("%v/%v: %s: reconstructed %d, metered %d", kind, alg, c.name, c.rec, c.met)
				}
			}
			if diff := math.Abs(rec.LambdaGBSeconds - used.LambdaGBSeconds); diff > 1e-9*used.LambdaGBSeconds {
				t.Errorf("%v/%v: Lambda GB-seconds: reconstructed %v, metered %v", kind, alg, rec.LambdaGBSeconds, used.LambdaGBSeconds)
			}
			// Node-hours are attributed per run pessimistically (runUsage);
			// a lone run's share is the metered window's, up to the order
			// the float hours were added in.
			kvRec, kvMet := res.Cost.KV, used.Cost(d.Env.Pricing).KV
			if math.Abs(kvRec-kvMet) > 1e-9*kvMet {
				t.Errorf("%v/%v: KV dollars: reconstructed %v, metered %v", kind, alg, kvRec, kvMet)
			}
		}
	}
}
