package core

import (
	"fmt"
	"runtime"
	"testing"
	"time"

	"fsdinference/internal/cloud/env"
	"fsdinference/internal/model"
	"fsdinference/internal/partition"
	"fsdinference/internal/sparse"
)

// A worker writes a layer's output, its outgoing rows and its arrivals into
// buffers it keeps for the whole run (worker.zbuf, sendIDs, recvIDs): the
// two tests below pin what that must and must not change.

// arenaDeployment deploys an N=256, P=4 Block plan of layers layers on kind,
// compression off, and returns it with a batch-16 input.
func arenaDeployment(t *testing.T, layers int, kind ChannelKind, allreduce bool) (*Deployment, *model.Model, *sparse.Dense) {
	t.Helper()
	m, err := model.Generate(model.GraphChallengeSpec(256, layers, 1))
	if err != nil {
		t.Fatal(err)
	}
	plan, err := partition.BuildPlan(m, 4, partition.Block, partition.Options{Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	d, err := Deploy(env.NewDefault(), Config{
		Model: m, Plan: plan, Channel: kind, PollWait: 2 * time.Second,
		AllreduceOutput: allreduce,
	})
	if err != nil {
		t.Fatal(err)
	}
	return d, m, model.GenerateInputs(256, 16, 0.2, 2)
}

// TestLayerBytesDoNotGrowWithDepth: what one more layer costs the host is
// the frames it ships and the service calls that carry them, not a fresh
// output matrix, send set and decoded set per layer. Six extra layers (L=8
// against L=2, the least TotalAlloc of three runs each) measured per layer
// 129.4 kB on Queue and 158.3 kB on Memory while each layer allocated its
// own, and 54.8 kB and 83.7 kB with the buffers kept (Memory frames every
// value twice, once for the store's header, and logs it for failover); the
// bound sits between. The figures repeat to the byte, alone and inside the
// package's suite. TotalAlloc counts the whole process, so the test must not
// run in parallel with others.
func TestLayerBytesDoNotGrowWithDepth(t *testing.T) {
	const bound = 100 << 10 // host bytes per extra layer
	for _, kind := range []ChannelKind{Queue, Memory} {
		perRun := func(layers int) uint64 {
			d, m, input := arenaDeployment(t, layers, kind, false)
			least := uint64(0)
			for i := 0; i < 3; i++ {
				var before, after runtime.MemStats
				runtime.ReadMemStats(&before)
				res, err := d.Infer(input)
				runtime.ReadMemStats(&after)
				if err != nil {
					t.Fatal(err)
				}
				if i == 0 {
					checkCorrect(t, m, input, res)
				}
				if n := after.TotalAlloc - before.TotalAlloc; i == 0 || n < least {
					least = n
				}
			}
			return least
		}
		shallow, deep := perRun(2), perRun(8)
		perLayer := (float64(deep) - float64(shallow)) / 6
		t.Logf("%v: %d B at L=2, %d B at L=8, %.1f kB per extra layer", kind, shallow, deep, perLayer/1024)
		if perLayer > bound {
			t.Errorf("%v: %.1f kB per extra layer, bound %.1f kB: a per-layer copy is back",
				kind, perLayer/1024, float64(bound)/1024)
		}
	}
}

// TestOverlappingRunsKeepTheirOwnBuffers: two runs started on one
// deployment before either is waited on run the same worker ranks side by
// side; each worker's buffers are its own invocation's, so both outputs
// match the reference on every kind, with and without AllreduceOutput
// (whose collectives decode into sets of their own, not into the arena).
func TestOverlappingRunsKeepTheirOwnBuffers(t *testing.T) {
	for _, kind := range ChannelKinds() {
		if kind == Serial {
			continue
		}
		for _, allreduce := range []bool{false, true} {
			t.Run(fmt.Sprintf("%v/allreduce=%v", kind, allreduce), func(t *testing.T) {
				d, m, _ := arenaDeployment(t, 4, kind, allreduce)
				inputs := []*sparse.Dense{
					model.GenerateInputs(256, 16, 0.2, 5),
					model.GenerateInputs(256, 16, 0.2, 6),
				}
				results := make([]*Result, len(inputs))
				errs := make([]error, len(inputs))
				for i, in := range inputs {
					i := i
					if _, err := d.Start(in, func(r *Result, err error) { results[i], errs[i] = r, err }); err != nil {
						t.Fatal(err)
					}
				}
				if err := d.Env.K.Run(); err != nil {
					t.Fatal(err)
				}
				for i, in := range inputs {
					if errs[i] != nil {
						t.Fatalf("run %d: %v", i, errs[i])
					}
					checkCorrect(t, m, in, results[i])
					for id, out := range results[i].AllOutputs {
						if !model.OutputsClose(out, results[i].Output, 0) {
							t.Fatalf("run %d: worker %d's allreduced output differs from the result", i, id)
						}
					}
				}
			})
		}
	}
}
