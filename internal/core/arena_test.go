package core

import (
	"fmt"
	"runtime"
	"slices"
	"strings"
	"testing"
	"time"

	"fsdinference/internal/cloud/env"
	"fsdinference/internal/collective"
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

// TestFSIRunBytesMoved is the FSI path's allocation budget, the twin of
// TestSerialRunBytesMoved: a warm run, on a deployment that has already
// served one, of a 256 x 1024 batch (1 MiB) through two layers at P=4,
// uncompressed, may allocate so many times the batch's own bytes and no
// more. Each rank starts from the row table, layer outputs and send and
// receive arenas its rank's last run gave back, decodes its input rows into
// that arena, contributes a view of its last z to the gather, and the root
// gathers straight into the result, so a warm run allocates (measured, in
// batches) 9.76 on Queue, 8.68 on Object, 13.50 on Memory and 8.85 on
// Hybrid: the frames the services are handed, the sets the collective
// decodes, the result matrix. While every run allocated its buffers afresh
// and the root unioned the gathered sets before copying them into the
// result, the same runs took 24.97, 22.26, 27.07 and 21.62; a cold run here
// still takes 20.7 to 25.8. Each budget leaves about two batches of
// headroom. TotalAlloc counts the whole process, so the test must not run
// in parallel with others.
func TestFSIRunBytesMoved(t *testing.T) {
	budget := map[ChannelKind]float64{Queue: 12, Object: 11, Memory: 16, Hybrid: 11}
	for _, kind := range ChannelKinds() {
		if kind == Serial {
			continue
		}
		d, m, _ := arenaDeployment(t, 2, kind, false)
		for run := 0; run < 2; run++ {
			input := model.GenerateInputs(256, 1024, 0.2, int64(50+run))
			var before, after runtime.MemStats
			runtime.ReadMemStats(&before)
			res, err := d.Infer(input)
			runtime.ReadMemStats(&after)
			if err != nil {
				t.Fatal(err)
			}
			checkCorrect(t, m, input, res)
			moved := float64(after.TotalAlloc-before.TotalAlloc) / float64(input.Bytes())
			t.Logf("%v run %d allocated %.2f x the batch's %d bytes", kind, run+1, moved, input.Bytes())
			if run == 1 && moved > budget[kind] {
				t.Errorf("%v: a warm run allocated %.2f x its batch's bytes, budget %.2f", kind, moved, budget[kind])
			}
		}
	}
}

// TestMemoryRunMallocs is the Memory channel's allocation-count budget at
// the repository benchmark's collective_p32 run shape (N=256 x 6, Block
// P=32, a batch of 16, AllreduceOutput, compressed): a warm run, on a
// deployment that has served one, may make so many mallocs and no more.
// Measured per warm run: 16 470 - 16 520 under flat, 17 650 - 17 680 under
// tree and 34 190 - 34 220 under ring. While every push built its own RPUSH closure and sender-log
// slice, the store allocated a list entry per refilled inbox, every comm
// thread was named with fmt.Sprintf and every popped value's kind was a
// fresh string, the same runs took 28 738, 30 170 and 53 215. Each budget
// leaves about a quarter of headroom. Mallocs counts the whole process, so the
// test must not run in parallel with others.
func TestMemoryRunMallocs(t *testing.T) {
	m, err := model.Generate(model.GraphChallengeSpec(256, 6, 1))
	if err != nil {
		t.Fatal(err)
	}
	plan, err := partition.BuildPlan(m, 32, partition.Block, partition.Options{Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	for _, tc := range []struct {
		alg    collective.Algorithm
		budget uint64
	}{{collective.Flat, 21_000}, {collective.Tree, 22_000}, {collective.Ring, 42_000}} {
		d, err := Deploy(env.NewDefault(), Config{
			Model: m, Plan: plan, Channel: Memory, Collective: tc.alg,
			AllreduceOutput: true, Compress: true,
		})
		if err != nil {
			t.Fatal(err)
		}
		for run := 0; run < 2; run++ {
			input := model.GenerateInputs(256, 16, 0.2, int64(80+run))
			var before, after runtime.MemStats
			runtime.ReadMemStats(&before)
			res, err := d.Infer(input)
			runtime.ReadMemStats(&after)
			if err != nil {
				t.Fatal(err)
			}
			checkCorrect(t, m, input, res)
			mallocs := after.Mallocs - before.Mallocs
			t.Logf("%v run %d made %d mallocs", tc.alg, run+1, mallocs)
			if run == 1 && mallocs > tc.budget {
				t.Errorf("%v: a warm run made %d mallocs, budget %d", tc.alg, mallocs, tc.budget)
			}
		}
	}
}

// TestFSIReusedBuffersStayIsolated: runs of widths 64, 3 and 64 on one
// deployment each equal bit for bit a fresh deployment's run of the same
// input, on every kind with and without AllreduceOutput. The second run
// reshapes the row table, layer outputs and arenas the first gave back to
// a narrower batch, the third grows them again, so a row one run left in a
// recycled buffer would reach another's output here. Then a run whose root
// times out, holding the buffers a successful run gave back, is followed by
// a run that still matches model.Reference: the rank that timed out gives
// nothing back, and what the ranks that finished gave back was emptied.
func TestFSIReusedBuffersStayIsolated(t *testing.T) {
	for _, kind := range ChannelKinds() {
		if kind == Serial {
			continue
		}
		for _, allreduce := range []bool{false, true} {
			t.Run(fmt.Sprintf("%v/allreduce=%v", kind, allreduce), func(t *testing.T) {
				d, m, _ := arenaDeployment(t, 4, kind, allreduce)
				for i, width := range []int{64, 3, 64} {
					input := model.GenerateInputs(256, width, 0.2, int64(60+i))
					res, err := d.Infer(input)
					if err != nil {
						t.Fatal(err)
					}
					fresh, _, _ := arenaDeployment(t, 4, kind, allreduce)
					want, err := fresh.Infer(input)
					if err != nil {
						t.Fatal(err)
					}
					if !sameBits(res.Output.Data, want.Output.Data) {
						t.Fatalf("run %d (width %d): output differs from a fresh deployment's", i+1, width)
					}
					for id, out := range res.AllOutputs {
						if !sameBits(out.Data, want.AllOutputs[id].Data) {
							t.Fatalf("run %d (width %d): worker %d's allreduced output differs from a fresh deployment's", i+1, width, id)
						}
					}
				}

				input := model.GenerateInputs(256, 64, 0.2, 70)
				d.Cfg.FunctionTimeout = 300 * time.Millisecond // enough to launch, not to finish
				if err := redeployFunctions(d); err != nil {
					t.Fatal(err)
				}
				if _, err := d.Infer(input); err == nil || !strings.Contains(err.Error(), "timed out") {
					t.Fatalf("strangled run: err = %v, want a worker timeout", err)
				}
				// A rank that timed out took its slot's buffers and gives
				// nothing back; one that finished gave them back emptied.
				emptied := 0
				for r, b := range d.bufs {
					if b.x == nil {
						emptied++
						continue
					}
					if len(b.xTouched) > 0 || len(b.recvIDs) > 0 || slices.ContainsFunc(b.x, func(row []float32) bool { return row != nil }) {
						t.Fatalf("rank %d gave its buffers back with rows in them", r)
					}
				}
				if emptied == 0 {
					t.Fatal("every rank's slot holds buffers after a run whose worker timed out")
				}
				d.Cfg.FunctionTimeout = 15 * time.Minute
				if err := redeployFunctions(d); err != nil {
					t.Fatal(err)
				}
				res, err := d.Infer(input)
				if err != nil {
					t.Fatalf("run after the failed one: %v", err)
				}
				checkCorrect(t, m, input, res)
			})
		}
	}
}
