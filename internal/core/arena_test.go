package core

import (
	"fmt"
	"reflect"
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
	"fsdinference/internal/wire"
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
// own, 45.2 kB and 70.8 kB with the buffers kept while Memory framed every
// value twice, once for the store's header, and 42.8 kB and 35.9 kB since a
// value is its header and its frame in one allocation; the bound sits
// between. The figures repeat to the byte, alone and inside the package's
// suite. TotalAlloc counts the whole process, so the test must not run in
// parallel with others.
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
// batches) 8.99 on Queue, 7.92 on Object, 7.90 on Memory and 7.92 on
// Hybrid: the frames the services are handed, the sets the collective
// decodes, the result matrix. While a store value copied its frame behind
// its header, the Memory and Hybrid runs took 12.74 and 8.09 (and Queue and
// Object 9.00 and 7.93 while the result frame and the send lists were
// allocated per run); while every run allocated its buffers afresh and the
// root unioned the gathered sets before copying them into the result, the
// same runs took 24.97, 22.26, 27.07 and 21.62; a cold run here still
// takes 20.0 to 21.8. Each budget leaves about two batches of headroom.
// TotalAlloc counts the whole process, so the test must not run in
// parallel with others.
func TestFSIRunBytesMoved(t *testing.T) {
	budget := map[ChannelKind]float64{Queue: 11, Object: 10, Memory: 10, Hybrid: 10}
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
// P=32, a batch of 16, AllreduceOutput, compressed), and the Queue channel's
// at BenchmarkEngineRun/queue-warm's (the same model, Block P=4, a batch of
// 16, neither allreduce nor compression): a warm run, on a deployment that
// has served one, may make so many mallocs and no more. Measured per warm
// run: 5 985 - 6 095 under flat, 6 585 - 6 640 under tree, 10 940 - 11 045
// under ring and 1 012 - 1 015 on Queue. While every comm-pool call built
// its pool, wait group and thread body afresh and every Proc started a
// goroutine of its own, the same runs took 7 850 - 8 000, 8 775 - 8 855,
// 18 710 - 18 810 and 1 180 - 1 183. While a Queue send built a message
// slice per target, a publish its own size, bound and receipt-handle lists
// and task closure, a chunked encode a closure and a growing list, every
// poll pass a fresh shard list, every message its own queue entry, a popped
// shard dropped its front so that the next delivery reallocated, a Memory
// push built a task closure per send and every barrier hop an empty set,
// the same runs took 8 235 - 8 270, 9 145 - 9 185, 20 020 - 20 065 and
// 2 310 - 2 315. Before a decoded set filled the rank's one header, the send
// groups' sets and lists were cut from the rank's buffers, a store value was
// one allocation (header and frame), a collective hop allocated no list or
// closure of its own and the result and staged input frames were written
// from their matrices, they took 16 430 - 16 445, 17 620 - 17 655,
// 34 120 - 34 240 and 2 531; while every push built its own RPUSH closure
// and sender-log slice, the store allocated a list entry per refilled inbox,
// every comm thread was named with fmt.Sprintf and every popped value's kind
// was a fresh string, the Memory runs took 28 738, 30 170 and 53 215. Each
// budget leaves about a quarter of headroom. Mallocs counts the whole process, so the test must
// not run in parallel with others.
func TestMemoryRunMallocs(t *testing.T) {
	m, err := model.Generate(model.GraphChallengeSpec(256, 6, 1))
	if err != nil {
		t.Fatal(err)
	}
	plan, err := partition.BuildPlan(m, 32, partition.Block, partition.Options{Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	plan4, err := partition.BuildPlan(m, 4, partition.Block, partition.Options{Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	p32 := func(alg collective.Algorithm) Config {
		return Config{Model: m, Plan: plan, Channel: Memory, Collective: alg, AllreduceOutput: true, Compress: true}
	}
	for _, tc := range []struct {
		name   string
		cfg    Config
		budget uint64
	}{
		{"memory/flat", p32(collective.Flat), 7_650},
		{"memory/tree", p32(collective.Tree), 8_300},
		{"memory/ring", p32(collective.Ring), 13_800},
		{"queue", Config{Model: m, Plan: plan4, Channel: Queue}, 1_270},
	} {
		d, err := Deploy(env.NewDefault(), tc.cfg)
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
			t.Logf("%s run %d made %d mallocs", tc.name, run+1, mallocs)
			if run == 1 && mallocs > tc.budget {
				t.Errorf("%s: a warm run made %d mallocs, budget %d", tc.name, mallocs, tc.budget)
			}
		}
	}
}

// TestWarmSlotsHoldNoFrames: the buffers a run gives back to its rank's slot
// keep no row-set header that points anywhere. The receive header (recvSet),
// the send groups' headers (sendSets) and the send list (outs) are reused
// from layer to layer and run to run, and each memoises, or lists sets that
// memoise, the frames the layer decoded or sent; emptied as every layer ends
// and as the buffers go back, they do not keep a run's last frames alive in
// the deployment between runs. So do the Queue channel's buffers: the chunk
// list and messages a send published and the receipt handles a poll
// deleted, over their whole capacity, and the publish's size and bound
// lists. So do the comm pools: a kept task closure would keep the send it
// ran for, and through it the frames, alive.
func TestWarmSlotsHoldNoFrames(t *testing.T) {
	for _, kind := range ChannelKinds() {
		if kind == Serial {
			continue
		}
		for _, allreduce := range []bool{false, true} {
			d, m, _ := arenaDeployment(t, 4, kind, allreduce)
			for run := 0; run < 2; run++ {
				input := model.GenerateInputs(256, 16, 0.2, int64(90+run))
				res, err := d.Infer(input)
				if err != nil {
					t.Fatal(err)
				}
				checkCorrect(t, m, input, res)
			}
			for r, b := range d.bufs {
				if len(b.sendSets) == 0 || len(b.outs) == 0 {
					t.Fatalf("%v allreduce=%v: rank %d's slot holds no send headers to check", kind, allreduce, r)
				}
				if !reflect.DeepEqual(b.recvSet, wire.RowSet{}) {
					t.Errorf("%v allreduce=%v: rank %d's receive header still holds a set of %d rows", kind, allreduce, r, b.recvSet.Len())
				}
				for i := range b.sendSets {
					if !reflect.DeepEqual(b.sendSets[i], wire.RowSet{}) {
						t.Errorf("%v allreduce=%v: rank %d's send header %d still holds a set of %d rows", kind, allreduce, r, i, b.sendSets[i].Len())
					}
				}
				for i, o := range b.outs {
					if o != (targetRows{}) {
						t.Errorf("%v allreduce=%v: rank %d's send slot %d still lists a set for worker %d", kind, allreduce, r, i, o.target)
					}
				}
				if kind == Queue && (cap(b.chunks) == 0 || cap(b.msgs) == 0 || cap(b.handles) == 0 || cap(b.sizes) == 0 || cap(b.bounds) == 0) {
					t.Fatalf("Queue allreduce=%v: rank %d's slot holds no Queue buffers to check", allreduce, r)
				}
				for i, c := range b.chunks[:cap(b.chunks)] {
					if c != nil {
						t.Errorf("%v allreduce=%v: rank %d's chunk slot %d still holds a %d-byte frame", kind, allreduce, r, i, len(c))
					}
				}
				for i, m := range b.msgs[:cap(b.msgs)] {
					if m.Body != nil || m.Attributes != nil {
						t.Errorf("%v allreduce=%v: rank %d's message slot %d still holds a %d-byte body", kind, allreduce, r, i, len(m.Body))
					}
				}
				for i, h := range b.handles[:cap(b.handles)] {
					if h != "" {
						t.Errorf("%v allreduce=%v: rank %d's receipt slot %d still holds %q", kind, allreduce, r, i, h)
					}
				}
				if len(b.sizes) != 0 || len(b.bounds) != 0 {
					t.Errorf("%v allreduce=%v: rank %d's publish lists hold %d sizes and %d bounds", kind, allreduce, r, len(b.sizes), len(b.bounds))
				}
				if len(b.pools) == 0 {
					t.Fatalf("%v allreduce=%v: rank %d's slot holds no comm pool to check", kind, allreduce, r)
				}
				for i, pool := range b.pools {
					if pool.task != nil {
						t.Errorf("%v allreduce=%v: rank %d's comm pool %d still holds its last task", kind, allreduce, r, i)
					}
					if pool.err != nil {
						t.Errorf("%v allreduce=%v: rank %d's comm pool %d still holds the error %v", kind, allreduce, r, i, pool.err)
					}
				}
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
