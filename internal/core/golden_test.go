package core

import (
	"crypto/sha256"
	"fmt"
	"strings"
	"testing"
	"time"

	"fsdinference/internal/cloud/env"
	"fsdinference/internal/collective"
	"fsdinference/internal/model"
	"fsdinference/internal/partition"
)

// resultDump renders every simulated field of a Result — latency, usage,
// cost and each worker's full metrics — one line per worker, so a golden
// mismatch can be diffed by eye.
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
		fmt.Fprintf(&b, "%+v\n", *w)
	}
	return b.String()
}

// goldenCell is one pinned simulated outcome.
type goldenCell struct {
	latency time.Duration
	cost    string // Cost.Total(), %v
	digest  string // sha256(resultDump)[:8], hex
}

// checkGolden fails when any simulated field of res differs from the pinned
// cell, printing the replacement cell and the full dump.
func checkGolden(t *testing.T, name string, res *Result, g goldenCell) {
	t.Helper()
	dump := resultDump(res)
	sum := sha256.Sum256([]byte(dump))
	got := fmt.Sprintf("{%d, %q, %q}", res.Latency, fmt.Sprint(res.Cost.Total()), fmt.Sprintf("%x", sum[:8]))
	if exp := fmt.Sprintf("{%d, %q, %q}", g.latency, g.cost, g.digest); got != exp {
		t.Errorf("simulated result moved:\n got %q: %s,\nwant %q: %s,\n%s", name, got, name, exp, dump)
	}
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
	golden := map[string]goldenCell{
		"FSD-Inf-Queue/flat":  {4439405835, "0.0019208787731140279", "20a77d886a11a9e5"},
		"FSD-Inf-Queue/tree":  {4960061434, "0.34264280661689084", "6b8b3e7aa9226f7e"},
		"FSD-Inf-Queue/ring":  {7749737922, "0.22602051437935128", "601d8b5386f33e67"},
		"FSD-Inf-Object/flat": {5862905207, "0.02656963612058527", "419c828583f51a46"},
		"FSD-Inf-Object/tree": {6052340924, "0.0282185474436937", "472977f552096e20"},
		"FSD-Inf-Object/ring": {9721111444, "0.04729227435213705", "dfa2ee1e0481bd1f"},
		"FSD-Inf-Memory/flat": {3907894780, "0.00296198172576116", "64a12f79a740efb8"},
		"FSD-Inf-Memory/tree": {3897358040, "0.0029573581957296133", "ce00263b40dadb3c"},
		"FSD-Inf-Memory/ring": {3938413046, "0.0029782421354629042", "2a6f15810ea48383"},
		"FSD-Inf-Hybrid/flat": {3932933119, "0.003150033570954742", "54fb478e00ddc5d9"},
		"FSD-Inf-Hybrid/tree": {4062846948, "0.0032359615185337523", "ff99a1b7d713d53e"},
		"FSD-Inf-Hybrid/ring": {3938413046, "0.0029782421354629042", "1618091e4f6570e2"},
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
		for _, alg := range collective.Algorithms() {
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
				checkGolden(t, name, res, golden[name])
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
		golden  goldenCell
		env     func(*env.Config)
		cfg     Config
		arm     func(t *testing.T, e *env.Env, d *Deployment)
		reached func(res *Result) bool
	}{
		{
			name:   "queue/multichunk",
			golden: goldenCell{2969148192, "0.0003212803604653449", "25ac54328f9990ab"},
			// A 512-byte publish cap puts most row sets past chunkLimit, and
			// the tail chunks of several targets still share a publish batch.
			env: func(c *env.Config) { c.SNS.MaxPayloadBytes = 512 },
			cfg: Config{Channel: Queue, Compress: true, PollWait: 2 * time.Second},
			reached: func(res *Result) bool {
				msgs := sum(res, func(w *WorkerMetrics) int64 { return w.MessagesSent })
				pubs := sum(res, func(w *WorkerMetrics) int64 { return w.Publishes })
				return msgs > logicalSends && pubs < msgs
			},
		},
		{
			name:   "hybrid/bulk",
			golden: goldenCell{2640038189, "0.00312262698024482", "54742005ea9c536b"},
			cfg: Config{
				Channel: Hybrid, Compress: true,
				HybridThresholdBytes: 256, HybridChunkBytes: 1 << 10,
			},
			reached: func(res *Result) bool {
				puts := sum(res, func(w *WorkerMetrics) int64 { return w.HybridPuts })
				gets := sum(res, func(w *WorkerMetrics) int64 { return w.HybridGets })
				return res.Usage.HybridBulkValues >= int64(plan.Layers) && puts > res.Usage.HybridBulkValues && gets == puts
			},
		},
		{
			name:   "memory/lossy-failover",
			golden: goldenCell{3837130522, "0.0075847622067059745", "7fd977aaae117515"},
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
				return sum(res, func(w *WorkerMetrics) int64 { return w.Resends }) > 0
			},
		},
		{
			name:   "queue/shortpoll",
			golden: goldenCell{2969397747, "0.0002792080289693025", "3842ea4810d10ee8"},
			cfg:    Config{Channel: Queue, Compress: true, PollWait: 0},
			reached: func(res *Result) bool {
				return sum(res, func(w *WorkerMetrics) int64 { return w.Polls }) >
					sum(res, func(w *WorkerMetrics) int64 { return w.Fetches })
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
			checkGolden(t, c.name, res, c.golden)
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
	checkGolden(t, "memory/hgp-p8-b64", res, goldenCell{3028315049, "0.0025804758831900103", "fba034cce3d14cb9"})
}

// TestGoldenRunLedger pins what Start reports — the Usage and Cost that
// runUsage reconstructs from the worker ledgers, which the cells above never
// see because Infer replaces them with the metered window — for every kind
// at P=8 under AutoAlgo with AllreduceOutput, so Usage.Collectives in the
// dump also pins what the channel's traits made the picker choose. The
// Hybrid threshold is low enough that both of its routes carry values; the
// chunk size stays at its default because, when this cell was captured, a
// value split over several chunks lost all but its last one under tree and
// ring (since fixed: TestCollectivesFoldEveryChunk). Captured before the
// kinds' provisioning, traits and billing moved into one table.
//
// The run ends when the root finishes, so under tree the ranks still waiting
// for their broadcast copy have no FinishedAt when runUsage reads them and
// contribute a negative runtime: the Queue and Object cells pin a negative
// LambdaGBSeconds, the same early-teardown defect TestGoldenResultP32 pins.
func TestGoldenRunLedger(t *testing.T) {
	golden := map[ChannelKind]goldenCell{
		Serial: {783822079, "3.0283979567870003e-05", "8be09676e02a6e52"},
		Queue:  {3816097341, "-5.64981028522512e-05", "1e24d5bf01082df3"},
		Object: {4196862311, "0.002970772569493777", "9c9cf7a047ad4903"},
		Memory: {3061973312, "0.0025916541625544925", "ec7f221281a4f00a"},
		Hybrid: {3497248658, "0.0035349599855021", "80a354ec8f378090"},
	}
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
			checkGolden(t, kind.String(), res, golden[kind])
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
	golden := map[string]goldenCell{
		"hierarchical/p1":  {1538149413, "0.0024915039211912994", "9de3c2daac7ffc72"},
		"hierarchical/p2":  {2292131236, "0.002505968792568386", "8878548ecec48540"},
		"hierarchical/p3":  {2292702231, "0.002508505312435822", "3c64176f98a7ab3c"},
		"hierarchical/p12": {3113663606, "0.002604803667136884", "401e379618b50273"},
		"hierarchical/p32": {3810837555, "0.002855673390691195", "1d185a6f029bbe7e"},
		"hierarchical/p33": {3811384573, "0.002862885337438763", "32cdf470e401250e"},
		"centralized/p1":   {1538149413, "0.0024915039211912994", "9de3c2daac7ffc72"},
		"centralized/p2":   {1811628517, "0.002498545686592646", "e1e1aa8f31b52416"},
		"centralized/p3":   {1936813631, "0.0025052107076695422", "3b0b38ee29fd53cf"},
		"centralized/p12":  {3698096064, "0.0027420512356093364", "55434ec14dca3e64"},
		"centralized/p32":  {7341387471, "0.004067872758314248", "5f7ee24495c4c1c4"},
		"centralized/p33":  {7564630877, "0.004186842897197545", "fdf807cbdd05c6cd"},
		"two-level/p1":     {1538149413, "0.0024915039211912994", "9de3c2daac7ffc72"},
		"two-level/p2":     {2292131236, "0.002505968792568386", "8878548ecec48540"},
		"two-level/p3":     {2226474462, "0.0025142422284018186", "5b5723d2b31b43e9"},
		"two-level/p12":    {2758680726, "0.0026129757375174503", "b1c70645e45b0c02"},
		"two-level/p32":    {3100951561, "0.002855729416714705", "2cf1ba87d07e92eb"},
		"two-level/p33":    {3179579217, "0.0028989811098905803", "d013d07ed4dedc2c"},
	}
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
				checkGolden(t, name, res, golden[name])
			})
		}
	}
}
