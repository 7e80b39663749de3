package fsdinference_test

import (
	"testing"
	"time"

	"fsdinference"
	"fsdinference/internal/core"
	"fsdinference/internal/model"
	"fsdinference/internal/partition"
	"fsdinference/internal/serve"
	"fsdinference/internal/sim"
	"fsdinference/internal/sparse"
	"fsdinference/internal/wire"
)

// Micro-benchmarks a developer runs by hand (`go test -run '^$' -bench
// <name> .`) and `make profile` profiles. The paper's tables and figures are
// `go run ./cmd/fsdbench`; what a change did to host speed is judged by the
// repository benchmark (bench/, BENCHMARK.json), not by these.

func BenchmarkSparseMulGather(b *testing.B) {
	m, err := model.Generate(model.GraphChallengeSpec(1024, 1, 1))
	if err != nil {
		b.Fatal(err)
	}
	w := m.Layers[0]
	x := model.GenerateInputs(1024, 64, 0.2, 2)
	z := sparse.NewDense(w.Rows, 64)
	lookup := func(c int32) []float32 {
		if x.RowIsZero(int(c)) {
			return nil
		}
		return x.Row(int(c))
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		z.Zero()
		sparse.MulGatherInto(w, lookup, z)
	}
}

func BenchmarkWireEncodeChunksCompressed(b *testing.B) {
	rs := wire.NewRowSet(64)
	row := make([]float32, 64)
	for i := range row {
		if i%3 == 0 {
			row[i] = float32(i)
		}
	}
	for r := 0; r < 512; r++ {
		rs.Add(int32(r), row)
	}
	b.SetBytes(rs.RawBytes())
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := wire.EncodeChunks(rs, 240*1024, true); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkHypergraphPartition(b *testing.B) {
	m, err := model.Generate(model.GraphChallengeSpec(512, 6, 1))
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := partition.BuildPlan(m, 8, partition.HGPDNN, partition.Options{Seed: 1}); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkSimKernelEvents(b *testing.B) {
	for i := 0; i < b.N; i++ {
		k := sim.New()
		c := sim.NewCond(k)
		for p := 0; p < 16; p++ {
			k.Go("w", func(p *sim.Proc) {
				for j := 0; j < 100; j++ {
					p.Sleep(1)
				}
				c.Broadcast()
			})
		}
		if err := k.Run(); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkMillionQueryReplay streams a one-million-query diurnal day
// through a live endpoint end-to-end — streaming trace generation,
// admission, coalescing, batched inference, incremental report folding —
// in bounded memory. It reports sustained queries/sec and is what
// `make profile` profiles.
func BenchmarkMillionQueryReplay(b *testing.B) {
	m, err := fsdinference.GenerateModel(fsdinference.GraphChallengeSpec(64, 2, 1))
	if err != nil {
		b.Fatal(err)
	}
	const total = 1_000_000
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		// Payload compression is the data plane's cost, measured by the
		// compression ablation; switching it off here keeps the gate on
		// the replay engine itself (scheduling, coalescing, dispatch,
		// folding) rather than on zlib throughput.
		svc, err := fsdinference.NewService(fsdinference.NewEnv(),
			fsdinference.WithEndpoint("m64", m,
				serve.WithDeployOverride(func(c *core.Config) { c.Compress = false })),
			fsdinference.WithCoalescing(4096, 5*time.Minute),
		)
		if err != nil {
			b.Fatal(err)
		}
		rep, err := svc.ReplayStream(
			fsdinference.DiurnalDay(total, []int{64}, 1, 7, 8192),
			fsdinference.ReplayOptions{Seed: 11})
		if err != nil {
			b.Fatal(err)
		}
		if rep.Queries != total || rep.Failed != 0 {
			b.Fatalf("replayed %d queries, %d failed", rep.Queries, rep.Failed)
		}
	}
	b.ReportMetric(float64(total)*float64(b.N)/b.Elapsed().Seconds(), "queries/sec")
}

// BenchmarkPlanner measures one full Plan/Replan cycle of the
// workload-aware planner: analytic pre-filter, probe trials for the
// surviving candidates, then a re-plan under a sustained profile that
// must re-score cached measurements rather than re-simulate.
func BenchmarkPlanner(b *testing.B) {
	m, err := fsdinference.GenerateModel(fsdinference.GraphChallengeSpec(256, 6, 1))
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		p, err := fsdinference.NewPlanner(m, fsdinference.PlannerOptions{
			Objective: fsdinference.CostObjective(),
			Grid: fsdinference.PlannerGrid{
				Channels: []fsdinference.ChannelKind{fsdinference.Queue, fsdinference.Memory},
				Workers:  []int{2},
			},
		})
		if err != nil {
			b.Fatal(err)
		}
		d, err := p.Plan(fsdinference.WorkloadProfile{QueriesPerDay: 20, BatchSamples: 8})
		if err != nil {
			b.Fatal(err)
		}
		d2, err := p.Replan(fsdinference.WorkloadProfile{QueriesPerDay: 200_000, BatchSamples: 8})
		if err != nil {
			b.Fatal(err)
		}
		if d.Best.Channel == d2.Best.Channel {
			b.Fatalf("replan did not flip the channel: %v", d.Best.Channel)
		}
	}
}

// BenchmarkClusterChannel drives one inference run over the sharded,
// replicated memory-store cluster — slot routing, async replication and
// per-shard limiters all on the hot path.
func BenchmarkClusterChannel(b *testing.B) {
	m, err := fsdinference.GenerateModel(fsdinference.GraphChallengeSpec(256, 6, 1))
	if err != nil {
		b.Fatal(err)
	}
	plan, err := fsdinference.BuildPlan(m, 4, fsdinference.Block, fsdinference.PartitionOptions{Seed: 1})
	if err != nil {
		b.Fatal(err)
	}
	input := fsdinference.GenerateInputs(256, 16, 0.2, 2)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		d, err := fsdinference.Deploy(fsdinference.NewEnv(), fsdinference.Config{
			Model: m, Plan: plan, Channel: fsdinference.Memory,
			KVNodes: 2, KVReplicas: 1,
		})
		if err != nil {
			b.Fatal(err)
		}
		if _, err := d.Infer(input); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkEngineQueueRun(b *testing.B) {
	m, err := fsdinference.GenerateModel(fsdinference.GraphChallengeSpec(256, 6, 1))
	if err != nil {
		b.Fatal(err)
	}
	plan, err := fsdinference.BuildPlan(m, 4, fsdinference.Block, fsdinference.PartitionOptions{Seed: 1})
	if err != nil {
		b.Fatal(err)
	}
	input := fsdinference.GenerateInputs(256, 16, 0.2, 2)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		d, err := fsdinference.Deploy(fsdinference.NewEnv(), fsdinference.Config{
			Model: m, Plan: plan, Channel: fsdinference.Queue,
		})
		if err != nil {
			b.Fatal(err)
		}
		if _, err := d.Infer(input); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkAllreduce drives one inference whose closing reduce is a true
// allreduce at P=32 on the memory channel, flat versus binomial tree —
// the collectives subsystem's hot path, where the flat
// root frames the combined result once per target and the tree amortises
// that over ceil(log2 P) rounds.
func BenchmarkAllreduce(b *testing.B) {
	m, err := fsdinference.GenerateModel(fsdinference.GraphChallengeSpec(256, 6, 1))
	if err != nil {
		b.Fatal(err)
	}
	plan, err := fsdinference.BuildPlan(m, 32, fsdinference.Block, fsdinference.PartitionOptions{Seed: 1})
	if err != nil {
		b.Fatal(err)
	}
	input := fsdinference.GenerateInputs(256, 16, 0.2, 2)
	for _, tc := range []struct {
		name string
		alg  fsdinference.CollectiveAlgorithm
	}{{"flat", fsdinference.FlatCollective}, {"tree", fsdinference.TreeCollective}} {
		b.Run(tc.name, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				d, err := fsdinference.Deploy(fsdinference.NewEnv(), fsdinference.Config{
					Model: m, Plan: plan, Channel: fsdinference.Memory,
					Collective: tc.alg, AllreduceOutput: true, Compress: true,
				})
				if err != nil {
					b.Fatal(err)
				}
				if _, err := d.Infer(input); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkHybridChannel drives one inference over the size-aware hybrid
// channel with a threshold low enough that both paths run hot: control
// values ride the in-memory store, bulk values chunk into object storage
// behind inline pointers with pipelined fetch.
func BenchmarkHybridChannel(b *testing.B) {
	m, err := fsdinference.GenerateModel(fsdinference.GraphChallengeSpec(256, 6, 1))
	if err != nil {
		b.Fatal(err)
	}
	plan, err := fsdinference.BuildPlan(m, 8, fsdinference.HGPDNN, fsdinference.PartitionOptions{Seed: 1})
	if err != nil {
		b.Fatal(err)
	}
	input := fsdinference.GenerateInputs(256, 64, 0.2, 2)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		d, err := fsdinference.Deploy(fsdinference.NewEnv(), fsdinference.Config{
			Model: m, Plan: plan, Channel: fsdinference.Hybrid,
			HybridThresholdBytes: 2 << 10,
		})
		if err != nil {
			b.Fatal(err)
		}
		res, err := d.Infer(input)
		if err != nil {
			b.Fatal(err)
		}
		if res.Usage.HybridBulkValues == 0 || res.Usage.HybridSmallValues == 0 {
			b.Fatalf("hybrid split not exercised: %d small / %d bulk",
				res.Usage.HybridSmallValues, res.Usage.HybridBulkValues)
		}
	}
}
