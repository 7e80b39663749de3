package core

import (
	"fmt"
	"strings"
	"testing"
	"time"

	"fsdinference/internal/cloud/env"
	"fsdinference/internal/collective"
	"fsdinference/internal/golden"
	"fsdinference/internal/model"
	"fsdinference/internal/partition"
)

// resultDump renders every simulated field of a Result — latency, usage,
// cost and each worker's metrics, field by field, one line per worker — as
// each cell's golden file holds it, so a moved field shows in the file's
// diff by name. A worker's calls to the services are not listed: the run's
// usage line holds them.
func resultDump(res *Result) string {
	var b strings.Builder
	copies := 0
	for _, out := range res.AllOutputs {
		if out != nil {
			copies++
		}
	}
	c := res.Cost
	fmt.Fprintf(&b, "latency=%d launch=%d coord=%d batch=%d copies=%d\nusage=%+v\ncost=%v %v %v %v %v %v %v\n",
		res.Latency, res.LaunchComplete, res.CoordinatorRuntime, res.Batch, copies, res.Usage,
		c.Lambda, c.SNS, c.SQS, c.S3, c.EC2, c.KV, c.KVReplica)
	for _, w := range res.Workers {
		fmt.Fprintf(&b, "{ID:%d StartedAt:%v FinishedAt:%v Warm:%t LoadTime:%v BarrierTime:%v ReduceTime:%v "+
			"MACs:%v RowsSent:%d RowsRecv:%d BytesSent:%d MessagesSent:%d Fetches:%d PeakMemBytes:%d}\n",
			w.ID, w.StartedAt, w.FinishedAt, w.Warm, w.LoadTime, w.BarrierTime, w.ReduceTime,
			w.MACs, w.RowsSent, w.RowsRecv, w.BytesSent, w.MessagesSent, w.Fetches, w.PeakMemBytes)
	}
	return b.String()
}

// TestGoldenResultP32 pins the simulated outcome of the collective_p32
// shape (N=256x6, Block P=32, AllreduceOutput) on every channel under every
// concrete topology to the values the engine produced before encoded
// frames were shared across fan-out sends and collective forwards: host
// work may be skipped, but every per-target charge must still be made.
func TestGoldenResultP32(t *testing.T) {
	if testing.Short() {
		t.Skip("12 P=32 runs")
	}
	m, err := model.Generate(model.GraphChallengeSpec(256, 6, 1))
	if err != nil {
		t.Fatal(err)
	}
	plan, err := partition.BuildPlan(m, 32, partition.Block, partition.Options{Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	input := model.GenerateInputs(256, 16, 0.2, 2)
	want := model.Reference(m, input)

	for _, kind := range []ChannelKind{Queue, Object, Memory, Hybrid} {
		for _, alg := range topologies {
			name := fmt.Sprintf("%v/%v", kind, alg)
			t.Run(name, func(t *testing.T) {
				d, err := Deploy(env.NewDefault(), Config{
					Model: m, Plan: plan, Channel: kind, Collective: alg,
					AllreduceOutput: true, Compress: true,
					PollWait: 2 * time.Second, HybridThresholdBytes: 8 << 10,
				})
				if err != nil {
					t.Fatal(err)
				}
				res, err := d.Infer(input)
				if err != nil {
					t.Fatal(err)
				}
				// On the Queue channel under tree and ring the run ends (and
				// its queues are torn down) when the root finishes, before
				// every rank has received the broadcast; the dump pins how
				// many copies exist, and every copy that does must be right.
				if res.AllOutputs[0] == nil {
					t.Fatal("root did not materialise the reduced output")
				}
				for id, out := range res.AllOutputs {
					if out != nil && !model.OutputsClose(out, want, 1e-2) {
						t.Fatalf("worker %d's copy diverges from reference inference", id)
					}
				}
				golden.Check(t, resultDump(res))
			})
		}
	}
}

// TestGoldenChannelPaths pins the channel paths TestGoldenResultP32 does not
// reach — chunked queue messages packed across targets, the Hybrid bulk
// route, sender-log recovery after a lossy failover, short polling — to the
// values the engine produced while each channel still carried its own
// receive loop. Each cell first proves it reached its path.
func TestGoldenChannelPaths(t *testing.T) {
	if testing.Short() {
		t.Skip("includes a failover run")
	}
	m, err := model.Generate(model.GraphChallengeSpec(256, 6, 1))
	if err != nil {
		t.Fatal(err)
	}
	plan, err := partition.BuildPlan(m, 4, partition.HGPDNN, partition.Options{Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	input := model.GenerateInputs(256, 8, 0.2, 2)
	want := model.Reference(m, input)

	// logicalSends is the number of values a flat barrier + gather run
	// ships: one per send-map entry, P-1 up and P-1 down for the barrier,
	// P-1 for the gather. More messages than that means values were chunked.
	logicalSends := int64(3 * (plan.Workers - 1))
	for k := range plan.Sends {
		for _, entries := range plan.Sends[k] {
			logicalSends += int64(len(entries))
		}
	}
	sum := func(res *Result, f func(*WorkerMetrics) int64) int64 {
		var n int64
		for _, w := range res.Workers {
			n += f(w)
		}
		return n
	}

	cells := []struct {
		name    string
		env     func(*env.Config)
		cfg     Config
		arm     func(t *testing.T, e *env.Env, d *Deployment)
		reached func(res *Result) bool
	}{
		{
			name: "queue/multichunk",
			// A 512-byte publish cap puts most row sets past chunkLimit, and
			// the tail chunks of several targets still share a publish batch.
			env: func(c *env.Config) { c.SNS.MaxPayloadBytes = 512 },
			cfg: Config{Channel: Queue, Compress: true, PollWait: 2 * time.Second},
			reached: func(res *Result) bool {
				msgs := sum(res, func(w *WorkerMetrics) int64 { return w.MessagesSent })
				return msgs > logicalSends && res.Usage.SNSPublishCalls < msgs
			},
		},
		{
			name: "hybrid/bulk",
			cfg: Config{
				Channel: Hybrid, Compress: true,
				HybridThresholdBytes: 256, HybridChunkBytes: 1 << 10,
			},
			reached: func(res *Result) bool {
				// Beside the chunks, the model store serves each rank its
				// layers and its input and takes the one result.
				u := res.Usage
				puts := u.S3PutCalls - 1
				gets := u.S3GetCalls - int64(plan.Workers*(plan.Layers+1))
				return u.HybridBulkValues >= int64(plan.Layers) && puts == u.HybridChunks && puts > u.HybridBulkValues && gets == puts
			},
		},
		{
			name: "memory/lossy-failover",
			cfg: Config{
				Channel: Memory, Compress: true, KVNodes: 2, KVReplicas: 0,
				KVFailoverWindow: 2 * time.Second, KVReplicationLag: 300 * time.Millisecond,
			},
			// 1.8s is mid-launch (see TestMidRunFailoverByReplicationMode):
			// parked layer-0 values die with the shard and must be re-sent.
			arm: func(t *testing.T, e *env.Env, d *Deployment) {
				e.K.At(1800*time.Millisecond, func() {
					if err := d.KVCluster().KillNode(0); err != nil {
						t.Errorf("kill: %v", err)
					}
				})
			},
			reached: func(res *Result) bool {
				return res.Usage.KVResends > 0
			},
		},
		{
			name: "queue/shortpoll",
			cfg:  Config{Channel: Queue, Compress: true, PollWait: 0},
			reached: func(res *Result) bool {
				return res.Usage.SQSReceiveCalls > sum(res, func(w *WorkerMetrics) int64 { return w.Fetches })
			},
		},
	}
	for _, c := range cells {
		t.Run(c.name, func(t *testing.T) {
			ecfg := env.DefaultConfig()
			if c.env != nil {
				c.env(&ecfg)
			}
			e := env.New(ecfg)
			cfg := c.cfg
			cfg.Model, cfg.Plan = m, plan
			d, err := Deploy(e, cfg)
			if err != nil {
				t.Fatal(err)
			}
			if c.arm != nil {
				c.arm(t, e, d)
			}
			res, err := d.Infer(input)
			if err != nil {
				t.Fatal(err)
			}
			if !model.OutputsClose(res.Output, want, 1e-2) {
				t.Fatal("output diverges from reference inference")
			}
			if !c.reached(res) {
				t.Fatalf("cell did not reach the path it pins:\n%s", resultDump(res))
			}
			golden.Check(t, resultDump(res))
		})
	}
}

// TestGoldenInterleavedOwnership pins the plan shape the cells above miss
// and channel_sweep runs: HGPDNN P=8 on Memory at batch 64. Under a
// hypergraph partition a worker's rows are scattered over the id space, so
// within one weight row the columns it owns and the columns it receives
// interleave (under Block the owned columns are one contiguous run); the
// cell first proves that, then pins the values the engine produced while
// both the local multiply and the accumulate walked the whole block.
func TestGoldenInterleavedOwnership(t *testing.T) {
	if testing.Short() {
		t.Skip("an HGPDNN partition")
	}
	m, err := model.Generate(model.GraphChallengeSpec(256, 4, 1))
	if err != nil {
		t.Fatal(err)
	}
	plan, err := partition.BuildPlan(m, 8, partition.HGPDNN, partition.Options{Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	// A row interleaves when ownership flips at least twice along its
	// ascending columns: own, foreign, own or foreign, own, foreign.
	interleaved := 0
	for worker, rows := range plan.Rows {
		for _, w := range m.Layers {
			for _, r := range rows {
				cols, _ := w.Row(int(r))
				flips := 0
				for i := 1; i < len(cols); i++ {
					if (plan.Owner[cols[i]] == int32(worker)) != (plan.Owner[cols[i-1]] == int32(worker)) {
						flips++
					}
				}
				if flips >= 2 {
					interleaved++
				}
			}
		}
	}
	if interleaved == 0 {
		t.Fatal("no weight row interleaves own and foreign columns")
	}

	input := model.GenerateInputs(256, 64, 0.2, 2)
	d, err := Deploy(env.NewDefault(), Config{Model: m, Plan: plan, Channel: Memory, Compress: true})
	if err != nil {
		t.Fatal(err)
	}
	res, err := d.Infer(input)
	if err != nil {
		t.Fatal(err)
	}
	if !model.OutputsClose(res.Output, model.Reference(m, input), 1e-2) {
		t.Fatal("output diverges from reference inference")
	}
	golden.Check(t, resultDump(res))
}

// TestGoldenRunLedger pins what Start reports — the Usage and Cost runUsage
// builds from the run's own meter, which the cells above never see because
// Infer replaces them with the metered window — for every kind at P=8 under
// AutoAlgo with AllreduceOutput, so Usage.Collectives in the dump also pins
// what the channel's traits made the picker choose. The Hybrid threshold is
// low enough that both of its routes carry values; the chunk size stays at
// its default because, when this cell was captured, a value split over
// several chunks lost all but its last one under tree and ring (since
// fixed: TestCollectivesFoldEveryChunk). Every count was captured while
// runUsage still summed per-worker ledgers; the byte lines were re-captured
// when the run's meter began to charge each call with the bytes the service
// meters, the model store's included.
//
// The run ends when the root finishes, so under tree the ranks still waiting
// for their broadcast copy have no FinishedAt when runUsage reads them and
// contribute a negative runtime: the Queue and Object cells pin a negative
// LambdaGBSeconds, the same early-teardown defect TestGoldenResultP32 pins.
// Those ranks are mid-flight too: what they ask of a service after the
// client has the result is not in it.
func TestGoldenRunLedger(t *testing.T) {
	m, err := model.Generate(model.GraphChallengeSpec(256, 6, 1))
	if err != nil {
		t.Fatal(err)
	}
	plan, err := partition.BuildPlan(m, 8, partition.Block, partition.Options{Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	input := model.GenerateInputs(256, 8, 0.2, 2)
	want := model.Reference(m, input)

	for _, kind := range []ChannelKind{Serial, Queue, Object, Memory, Hybrid} {
		t.Run(kind.String(), func(t *testing.T) {
			cfg := Config{
				Model: m, Channel: kind, Collective: collective.AutoAlgo,
				AllreduceOutput: true, Compress: true, PollWait: 2 * time.Second,
				HybridThresholdBytes: 512,
			}
			if kind != Serial {
				cfg.Plan = plan
			}
			e := env.NewDefault()
			d, err := Deploy(e, cfg)
			if err != nil {
				t.Fatal(err)
			}
			var res *Result
			var runErr error
			if _, err := d.Start(input, func(r *Result, err error) { res, runErr = r, err }); err != nil {
				t.Fatal(err)
			}
			if err := e.K.Run(); err != nil {
				t.Fatal(err)
			}
			if runErr != nil {
				t.Fatal(runErr)
			}
			if !model.OutputsClose(res.Output, want, 1e-2) {
				t.Fatal("output diverges from reference inference")
			}
			if kind == Hybrid && (e.Meter.HybridSmallValues == 0 || e.Meter.HybridBulkValues == 0) {
				t.Fatalf("hybrid routed %d values inline and %d in bulk; the cell needs both",
					e.Meter.HybridSmallValues, e.Meter.HybridBulkValues)
			}
			golden.Check(t, resultDump(res))
		})
	}
}

// TestGoldenLaunch pins who launches whom, in what order and when: every
// launch mode at P from 1 (the coordinator's only child) through 33 (a
// hierarchical level and a two-level group left partial). Each invoke draws
// the callee's cold-start jitter, so a different invoker or invoke order
// moves some worker's StartedAt, and with it LaunchComplete, in the dump
// (one line per worker, in start order). Captured while the launch was
// still written out per mode in the coordinator and the worker.
func TestGoldenLaunch(t *testing.T) {
	m, err := model.Generate(model.GraphChallengeSpec(256, 2, 1))
	if err != nil {
		t.Fatal(err)
	}
	input := model.GenerateInputs(256, 4, 0.2, 2)
	want := model.Reference(m, input)
	for _, mode := range []LaunchMode{Hierarchical, Centralized, TwoLevel} {
		for _, p := range []int{1, 2, 3, 12, 32, 33} {
			name := fmt.Sprintf("%v/p%d", mode, p)
			t.Run(name, func(t *testing.T) {
				plan, err := partition.BuildPlan(m, p, partition.Block, partition.Options{Seed: 1})
				if err != nil {
					t.Fatal(err)
				}
				d, err := Deploy(env.NewDefault(), Config{Model: m, Plan: plan, Channel: Memory, Launch: mode})
				if err != nil {
					t.Fatal(err)
				}
				res, err := d.Infer(input)
				if err != nil {
					t.Fatal(err)
				}
				if len(res.Workers) != p || !model.OutputsClose(res.Output, want, 1e-2) {
					t.Fatalf("%d of %d workers ran, or the output diverges from reference inference", len(res.Workers), p)
				}
				golden.Check(t, resultDump(res))
			})
		}
	}
}
