package core

import (
	"math"
	"strings"
	"testing"
	"time"

	"fsdinference/internal/cloud/env"
	"fsdinference/internal/collective"
	"fsdinference/internal/model"
	"fsdinference/internal/obs"
	"fsdinference/internal/partition"
	"fsdinference/internal/sparse"
)

// testSetup builds a small model, plan and deployment.
func testSetup(t *testing.T, neurons, layers, workers int, kind ChannelKind, mutate func(*Config)) (*Deployment, *model.Model, *sparse.Dense) {
	t.Helper()
	m, err := model.Generate(model.GraphChallengeSpec(neurons, layers, 1))
	if err != nil {
		t.Fatal(err)
	}
	cfg := Config{Model: m, Channel: kind, PollWait: 2 * time.Second}
	if kind != Serial {
		plan, err := partition.BuildPlan(m, workers, partition.HGPDNN, partition.Options{Seed: 1})
		if err != nil {
			t.Fatal(err)
		}
		cfg.Plan = plan
	}
	if mutate != nil {
		mutate(&cfg)
	}
	d, err := Deploy(env.NewDefault(), cfg)
	if err != nil {
		t.Fatal(err)
	}
	input := model.GenerateInputs(neurons, 8, 0.2, 2)
	return d, m, input
}

func checkCorrect(t *testing.T, m *model.Model, input *sparse.Dense, res *Result) {
	t.Helper()
	want := model.Reference(m, input)
	if !model.OutputsClose(res.Output, want, 1e-2) {
		t.Fatal("distributed output diverges from reference inference")
	}
	if res.Output.NNZ() == 0 {
		t.Fatal("degenerate all-zero output; test would not catch wiring bugs")
	}
}

func TestSerialMatchesReference(t *testing.T) {
	d, m, input := testSetup(t, 128, 6, 1, Serial, nil)
	res, err := d.Infer(input)
	if err != nil {
		t.Fatal(err)
	}
	checkCorrect(t, m, input, res)
	if res.Latency <= 0 {
		t.Fatalf("latency = %v", res.Latency)
	}
	if res.Cost.Lambda <= 0 {
		t.Fatalf("no compute cost metered: %+v", res.Cost)
	}
	if res.Cost.Comms() != 0 {
		// Serial still reads the store (S3 GETs) — comms here means S3.
		// The paper's C_Serial = C_lambda covers the function only; store
		// reads exist in all variants. Just assert no SNS/SQS traffic.
		if res.Cost.SNS != 0 || res.Cost.SQS != 0 {
			t.Fatalf("serial run used messaging: %+v", res.Cost)
		}
	}
}

func TestQueueChannelMatchesReference(t *testing.T) {
	d, m, input := testSetup(t, 128, 6, 4, Queue, nil)
	res, err := d.Infer(input)
	if err != nil {
		t.Fatal(err)
	}
	checkCorrect(t, m, input, res)
	if len(res.Workers) != 4 {
		t.Fatalf("worker metrics = %d, want 4", len(res.Workers))
	}
	if res.Usage.SNSBilledPublishes == 0 || res.Usage.SQSReceiveCalls == 0 {
		t.Fatalf("queue run metered no messaging: %+v", res.Usage)
	}
	if res.Usage.S3PutCalls != 1 {
		t.Fatalf("queue run S3 puts = %d, want 1 (result only)", res.Usage.S3PutCalls)
	}
}

func TestObjectChannelMatchesReference(t *testing.T) {
	d, m, input := testSetup(t, 128, 6, 4, Object, nil)
	res, err := d.Infer(input)
	if err != nil {
		t.Fatal(err)
	}
	checkCorrect(t, m, input, res)
	if res.Usage.S3PutCalls == 0 || res.Usage.S3ListCalls == 0 {
		t.Fatalf("object run metered no storage traffic: %+v", res.Usage)
	}
	if res.Usage.SNSBilledPublishes != 0 {
		t.Fatalf("object run used pub-sub: %+v", res.Usage)
	}
}

func TestMemoryChannelMatchesReference(t *testing.T) {
	d, m, input := testSetup(t, 128, 6, 4, Memory, nil)
	res, err := d.Infer(input)
	if err != nil {
		t.Fatal(err)
	}
	checkCorrect(t, m, input, res)
	if len(res.Workers) != 4 {
		t.Fatalf("worker metrics = %d, want 4", len(res.Workers))
	}
	if res.Usage.KVOps == 0 || res.Usage.KVBytesIn == 0 {
		t.Fatalf("memory run metered no store traffic: %+v", res.Usage)
	}
	if res.Usage.KVGBHours <= 0 {
		t.Fatalf("memory run metered no provisioned GB-hours: %+v", res.Usage)
	}
	if res.Cost.KV <= 0 {
		t.Fatalf("memory run billed no node-hours: %+v", res.Cost)
	}
	if res.Usage.SNSBilledPublishes != 0 || res.Usage.SQSReceiveCalls != 0 {
		t.Fatalf("memory run used messaging: %+v", res.Usage)
	}
	if res.Usage.S3PutCalls != 1 {
		t.Fatalf("memory run S3 puts = %d, want 1 (result only)", res.Usage.S3PutCalls)
	}
	// No per-request KV charge exists: the whole KV bill is node-hours.
	minBilled := d.Env.KV.Config().MinBilledDuration
	if res.Latency < minBilled && res.Usage.KVNodeHours[d.Cfg.KVNodeType] != minBilled.Hours() {
		t.Fatalf("metered %v node-hours, want the %v billing floor",
			res.Usage.KVNodeHours[d.Cfg.KVNodeType], minBilled.Hours())
	}
}

func TestMemoryChannelFasterThanQueue(t *testing.T) {
	// The memory store answers in fractions of a millisecond where the
	// pub-sub path pays tens of milliseconds per hop — the latency case
	// for the channel (FMI's memory-channel observation).
	dq, _, input := testSetup(t, 128, 6, 4, Queue, nil)
	dm, _, _ := testSetup(t, 128, 6, 4, Memory, nil)
	rq, err := dq.Infer(input)
	if err != nil {
		t.Fatal(err)
	}
	rm, err := dm.Infer(input)
	if err != nil {
		t.Fatal(err)
	}
	if rm.Latency >= rq.Latency {
		t.Fatalf("memory latency %v not below queue %v", rm.Latency, rq.Latency)
	}
}

func TestMemoryRunLeavesNoKeysBehind(t *testing.T) {
	d, _, input := testSetup(t, 128, 4, 3, Memory, nil)
	if _, err := d.Infer(input); err != nil {
		t.Fatal(err)
	}
	if n := d.Env.KV.NumKeys(); n != 0 {
		t.Fatalf("%d keys left after the run; keyspace teardown leaked", n)
	}
}

func TestQueueAndObjectAgree(t *testing.T) {
	dq, m, input := testSetup(t, 128, 4, 3, Queue, nil)
	do, _, _ := testSetup(t, 128, 4, 3, Object, nil)
	rq, err := dq.Infer(input)
	if err != nil {
		t.Fatal(err)
	}
	ro, err := do.Infer(input)
	if err != nil {
		t.Fatal(err)
	}
	if !model.OutputsClose(rq.Output, ro.Output, 1e-3) {
		t.Fatal("queue and object channels disagree")
	}
	dm, _, _ := testSetup(t, 128, 4, 3, Memory, nil)
	rm, err := dm.Infer(input)
	if err != nil {
		t.Fatal(err)
	}
	if !model.OutputsClose(rq.Output, rm.Output, 1e-3) {
		t.Fatal("queue and memory channels disagree")
	}
	_ = m
}

func TestSequentialRequestsOnOneDeployment(t *testing.T) {
	d, m, _ := testSetup(t, 128, 4, 3, Queue, nil)
	for i := 0; i < 3; i++ {
		input := model.GenerateInputs(128, 4, 0.2, int64(10+i))
		res, err := d.Infer(input)
		if err != nil {
			t.Fatalf("request %d: %v", i, err)
		}
		checkCorrect(t, m, input, res)
	}
}

func TestWarmStartsOnSecondRequest(t *testing.T) {
	d, _, input := testSetup(t, 128, 4, 3, Queue, nil)
	if _, err := d.Infer(input); err != nil {
		t.Fatal(err)
	}
	res2, err := d.Infer(input)
	if err != nil {
		t.Fatal(err)
	}
	warm := 0
	for _, w := range res2.Workers {
		if w.Warm {
			warm++
		}
	}
	if warm == 0 {
		t.Fatal("second request used no warm instances")
	}
}

// TestLaunchChildren walks the launch enumeration from the coordinator for
// every mode and P up to 70, in the order the invokes happen: every rank is
// reached exactly once, each from an invoker reached before it, rank 0
// first, and every invoker's fan-out is the mode's (hierarchical: 1 from the
// coordinator, at most 3 per worker; centralized: all P, none; two-level
// with groups of g = ceil(sqrt P): one leader per group, at most g-1).
func TestLaunchChildren(t *testing.T) {
	for _, mode := range []LaunchMode{Hierarchical, Centralized, TwoLevel} {
		for p := 1; p <= 70; p++ {
			g := int(math.Ceil(math.Sqrt(float64(p))))
			coordFan := map[LaunchMode]int{Hierarchical: 1, Centralized: p, TwoLevel: (p + g - 1) / g}[mode]
			workerFan := map[LaunchMode]int{Hierarchical: 3, Centralized: 0, TwoLevel: g - 1}[mode]
			cfg := Config{Channel: Memory, Plan: &partition.Plan{Workers: p}, Launch: mode}

			reached := []int{}
			seen := make(map[int]bool)
			for i := -1; i < len(reached); i++ {
				r := -1
				if i >= 0 {
					r = reached[i]
				}
				first, end, step := cfg.launchChildren(r)
				if step < 1 {
					t.Fatalf("%v P=%d: invoker %d walks with step %d", mode, p, r, step)
				}
				fan := 0
				for c := first; c < end; c += step {
					if c < 0 || c >= p || seen[c] {
						t.Fatalf("%v P=%d: invoker %d launches rank %d, out of range or reached twice", mode, p, r, c)
					}
					seen[c] = true
					reached = append(reached, c)
					fan++
				}
				if r < 0 && fan != coordFan || r >= 0 && fan > workerFan {
					t.Errorf("%v P=%d: invoker %d launches %d ranks (coordinator %d, worker at most %d)",
						mode, p, r, fan, coordFan, workerFan)
				}
			}
			if len(reached) != p || reached[0] != 0 {
				t.Errorf("%v P=%d: the walk reaches %v, want every rank once, rank 0 first", mode, p, reached)
			}
		}
	}
}

func TestLaunchModesAllCorrect(t *testing.T) {
	for _, mode := range []LaunchMode{Hierarchical, Centralized, TwoLevel} {
		d, m, input := testSetup(t, 128, 4, 5, Queue, func(c *Config) { c.Launch = mode })
		res, err := d.Infer(input)
		if err != nil {
			t.Fatalf("%v: %v", mode, err)
		}
		checkCorrect(t, m, input, res)
		if res.LaunchComplete <= 0 {
			t.Fatalf("%v: launch-complete metric missing", mode)
		}
	}
}

func TestHierarchicalLaunchBeatsCentralized(t *testing.T) {
	// The paper's launch mechanism populates the tree faster than a
	// centralised single loop at its parallelism levels: the 128 MB
	// coordinator pays heavy per-call CPU for each invoke, while the
	// tree spreads calls across full-size workers.
	times := map[LaunchMode]time.Duration{}
	for _, mode := range []LaunchMode{Hierarchical, Centralized} {
		d, _, input := testSetup(t, 512, 2, 42, Queue, func(c *Config) { c.Launch = mode })
		res, err := d.Infer(input)
		if err != nil {
			t.Fatalf("%v: %v", mode, err)
		}
		times[mode] = res.LaunchComplete
	}
	if times[Hierarchical] >= times[Centralized] {
		t.Fatalf("hierarchical launch %v not faster than centralized %v",
			times[Hierarchical], times[Centralized])
	}
}

func TestCompressionReducesBytes(t *testing.T) {
	var bytes [2]int64
	for i, compress := range []bool{true, false} {
		d, _, input := testSetup(t, 128, 4, 4, Queue, func(c *Config) { c.Compress = compress })
		res, err := d.Infer(input)
		if err != nil {
			t.Fatal(err)
		}
		bytes[i] = res.TotalBytesSent()
	}
	if bytes[0] >= bytes[1] {
		t.Fatalf("compressed bytes %d not below uncompressed %d", bytes[0], bytes[1])
	}
}

func TestSerialOOMOnOversizedModel(t *testing.T) {
	// A model whose weights exceed the serial instance's memory must fail
	// with an out-of-memory invocation error (the paper's N=65536 case:
	// 2048 neurons x 60 layers is ~31 MB raw, ~173 MB with the modelled
	// Python/SciPy footprint — over a 128 MB instance, here the largest
	// the platform offers).
	m, err := model.Generate(model.GraphChallengeSpec(2048, 60, 1))
	if err != nil {
		t.Fatal(err)
	}
	ec := env.DefaultConfig()
	ec.FaaS.MaxMemoryMB = 128
	d, err := Deploy(env.New(ec), Config{Model: m, Channel: Serial})
	if err != nil {
		t.Fatal(err)
	}
	_, err = d.Infer(model.GenerateInputs(2048, 8, 0.2, 2))
	if err == nil || !strings.Contains(err.Error(), "out of memory") {
		t.Fatalf("err = %v, want OOM", err)
	}
}

func TestConfigValidation(t *testing.T) {
	e := env.NewDefault()
	if _, err := Deploy(e, Config{}); err == nil {
		t.Error("nil model accepted")
	}
	m, _ := model.Generate(model.GraphChallengeSpec(128, 2, 1))
	if _, err := Deploy(e, Config{Model: m, Channel: Queue}); err == nil {
		t.Error("missing plan accepted")
	}
	other, _ := model.Generate(model.GraphChallengeSpec(256, 2, 1))
	plan, _ := partition.BuildPlan(other, 2, partition.Block, partition.Options{})
	if _, err := Deploy(e, Config{Model: m, Channel: Queue, Plan: plan}); err == nil {
		t.Error("mismatched plan accepted")
	}
}

func TestInputShapeChecked(t *testing.T) {
	d, _, _ := testSetup(t, 128, 2, 1, Serial, nil)
	bad := sparse.NewDense(64, 4)
	if _, err := d.Infer(bad); err == nil {
		t.Error("wrong-shaped input accepted")
	}
}

func TestLatencyAndCostAccounting(t *testing.T) {
	d, _, input := testSetup(t, 128, 4, 4, Queue, nil)
	res, err := d.Infer(input)
	if err != nil {
		t.Fatal(err)
	}
	if res.PerSample() <= 0 {
		t.Fatal("per-sample latency not positive")
	}
	// Workers' runtimes must fit inside the request latency window.
	for _, w := range res.Workers {
		if w.Runtime() <= 0 {
			t.Fatalf("worker %d runtime %v", w.ID, w.Runtime())
		}
		if w.Runtime() > res.Latency {
			t.Fatalf("worker %d runtime %v exceeds request latency %v", w.ID, w.Runtime(), res.Latency)
		}
		if w.PeakMemBytes <= 0 {
			t.Fatalf("worker %d has no memory accounting", w.ID)
		}
	}
	// Lambda GB-seconds must roughly cover the workers' runtimes.
	var wantGBs float64
	for _, w := range res.Workers {
		wantGBs += float64(d.Cfg.WorkerMemoryMB) / 1024 * w.Runtime().Seconds()
	}
	if res.Usage.LambdaGBSeconds < wantGBs*0.9 {
		t.Fatalf("GB-s %.3f below workers' own runtime %.3f", res.Usage.LambdaGBSeconds, wantGBs)
	}
}

func TestDeterministicRuns(t *testing.T) {
	run := func() (*Result, *sparse.Dense) {
		d, _, input := testSetup(t, 128, 4, 4, Queue, nil)
		res, err := d.Infer(input)
		if err != nil {
			t.Fatal(err)
		}
		return res, res.Output
	}
	a, ao := run()
	b, bo := run()
	if a.Latency != b.Latency {
		t.Fatalf("latencies differ: %v vs %v", a.Latency, b.Latency)
	}
	if a.Cost.Total() != b.Cost.Total() {
		t.Fatalf("costs differ: %v vs %v", a.Cost.Total(), b.Cost.Total())
	}
	for i := range ao.Data {
		if ao.Data[i] != bo.Data[i] {
			t.Fatal("outputs differ between identical runs")
		}
	}
}

func TestShortPollingStillCorrectButChattier(t *testing.T) {
	dLong, m, input := testSetup(t, 128, 4, 4, Queue, nil)
	dShort, _, _ := testSetup(t, 128, 4, 4, Queue, func(c *Config) { c.PollWait = 0 })
	rl, err := dLong.Infer(input)
	if err != nil {
		t.Fatal(err)
	}
	rs, err := dShort.Infer(input)
	if err != nil {
		t.Fatal(err)
	}
	checkCorrect(t, m, input, rs)
	if rs.Usage.SQSReceiveCalls <= rl.Usage.SQSReceiveCalls {
		t.Fatalf("short polling receives (%d) not above long polling (%d)",
			rs.Usage.SQSReceiveCalls, rl.Usage.SQSReceiveCalls)
	}
}

// BenchmarkEngineRun deploys and runs one request per iteration: serial is
// the repository benchmark's stream_day run shape (N=64, two layers, a batch
// of 1 042, uncompressed) on the one-rank worker, queue the FSI loop over the
// Queue channel at P=4. serial-warm and queue-warm are the same runs on one
// deployment that has already served a run, as a replica serves a stream:
// serial's first layer multiplies into the spare z an earlier run gave back,
// and every queue rank starts from the buffers its rank's last run gave back
// (rankBufs), so their B/op are the recycled paths' (a warm-up run before
// the timer makes that hold at -benchtime 1x as well). memory-p32 is the
// repository benchmark's collective_p32 run shape (Memory, N=256 x 6, Block
// P=32, a batch of 16, AllreduceOutput, compressed) under the default
// topology, so the Memory channel, its store and the closing collectives run
// here too; memory-p32-warm is the same run on a deployment that has served
// one, memory-p32-tree-warm the same warm run under the binomial tree, and
// memory-p32-ring-warm under the ring allreduce, whose P(P-1) hops each run a
// comm pool. The three topologies and auto, which picks one of them per
// call, are collective_p32's four endpoints.
func BenchmarkEngineRun(b *testing.B) {
	small, err := model.Generate(model.GraphChallengeSpec(64, 2, 1))
	if err != nil {
		b.Fatal(err)
	}
	m, err := model.Generate(model.GraphChallengeSpec(256, 6, 1))
	if err != nil {
		b.Fatal(err)
	}
	plan, err := partition.BuildPlan(m, 4, partition.Block, partition.Options{Seed: 1})
	if err != nil {
		b.Fatal(err)
	}
	plan32, err := partition.BuildPlan(m, 32, partition.Block, partition.Options{Seed: 1})
	if err != nil {
		b.Fatal(err)
	}
	p32 := Config{Model: m, Plan: plan32, Channel: Memory, AllreduceOutput: true, Compress: true}
	p32tree, p32ring := p32, p32
	p32tree.Collective, p32ring.Collective = collective.Tree, collective.Ring
	deploy := func(cfg Config) *Deployment {
		d, err := Deploy(env.NewDefault(), cfg)
		if err != nil {
			b.Fatal(err)
		}
		return d
	}
	infer := func(d *Deployment, input *sparse.Dense) {
		if _, err := d.Infer(input); err != nil {
			b.Fatal(err)
		}
	}
	for _, bc := range []struct {
		name  string
		cfg   Config
		input *sparse.Dense
		warm  bool
	}{
		{"serial", Config{Model: small, Channel: Serial}, model.GenerateInputs(64, 1042, 0.2, 2), false},
		{"serial-warm", Config{Model: small, Channel: Serial}, model.GenerateInputs(64, 1042, 0.2, 2), true},
		{"queue", Config{Model: m, Plan: plan, Channel: Queue}, model.GenerateInputs(256, 16, 0.2, 2), false},
		{"queue-warm", Config{Model: m, Plan: plan, Channel: Queue}, model.GenerateInputs(256, 16, 0.2, 2), true},
		{"memory-p32", p32, model.GenerateInputs(256, 16, 0.2, 2), false},
		{"memory-p32-warm", p32, model.GenerateInputs(256, 16, 0.2, 2), true},
		{"memory-p32-tree-warm", p32tree, model.GenerateInputs(256, 16, 0.2, 2), true},
		{"memory-p32-ring-warm", p32ring, model.GenerateInputs(256, 16, 0.2, 2), true},
	} {
		b.Run(bc.name, func(b *testing.B) {
			b.ReportAllocs()
			if bc.warm {
				d := deploy(bc.cfg)
				infer(d, bc.input)
				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					infer(d, bc.input)
				}
				return
			}
			for i := 0; i < b.N; i++ {
				infer(deploy(bc.cfg), bc.input)
			}
		})
	}
}

// BenchmarkAllreduce drives one inference whose closing reduce is a true
// allreduce at P=32 on the memory channel, flat versus binomial tree —
// the collectives subsystem's hot path, where the flat
// root frames the combined result once per target and the tree amortises
// that over ceil(log2 P) rounds.
func BenchmarkAllreduce(b *testing.B) {
	m, err := model.Generate(model.GraphChallengeSpec(256, 6, 1))
	if err != nil {
		b.Fatal(err)
	}
	plan, err := partition.BuildPlan(m, 32, partition.Block, partition.Options{Seed: 1})
	if err != nil {
		b.Fatal(err)
	}
	input := model.GenerateInputs(256, 16, 0.2, 2)
	for _, tc := range []struct {
		name string
		alg  collective.Algorithm
	}{{"flat", collective.Flat}, {"tree", collective.Tree}} {
		b.Run(tc.name, func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				d, err := Deploy(env.NewDefault(), Config{
					Model: m, Plan: plan, Channel: Memory,
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
	m, err := model.Generate(model.GraphChallengeSpec(256, 6, 1))
	if err != nil {
		b.Fatal(err)
	}
	plan, err := partition.BuildPlan(m, 8, partition.HGPDNN, partition.Options{Seed: 1})
	if err != nil {
		b.Fatal(err)
	}
	input := model.GenerateInputs(256, 64, 0.2, 2)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		d, err := Deploy(env.NewDefault(), Config{
			Model: m, Plan: plan, Channel: Hybrid,
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

// TestTracedAllreduceNamesItsTopology: every rank's allreduce span in a
// traced run says which topology ran, as the gather's does.
func TestTracedAllreduceNamesItsTopology(t *testing.T) {
	var tr *obs.Tracer
	d, m, input := testSetup(t, 128, 2, 3, Memory, func(c *Config) {
		c.AllreduceOutput = true
		c.Collective = collective.Tree
		tr = obs.New(func() time.Duration { return 0 }, 1)
		c.Trace = obs.Scope{T: tr, Track: "ep"}
	})
	var res *Result
	parent := tr.Start("ep", "run", obs.KindRun, 0)
	if _, err := d.StartTraced(input, parent.ID(), func(r *Result, err error) {
		if err != nil {
			t.Error(err)
		}
		res = r
	}); err != nil {
		t.Fatal(err)
	}
	if err := d.Env.K.Run(); err != nil {
		t.Fatal(err)
	}
	checkCorrect(t, m, input, res)
	n := 0
	for _, sp := range tr.Spans() {
		if sp.Name != "allreduce" {
			continue
		}
		n++
		if len(sp.Attrs) != 1 || sp.Attrs[0] != (obs.Attr{Key: "alg", Val: "tree"}) {
			t.Errorf("%s allreduce span attrs %v, want alg=tree", sp.Track, sp.Attrs)
		}
	}
	if n != 3 {
		t.Errorf("%d allreduce spans, want one per rank", n)
	}
}

// TestPerSampleOfAnEmptyBatch: a run of no samples has no per-sample
// latency, rather than a division by zero.
func TestPerSampleOfAnEmptyBatch(t *testing.T) {
	if got := (&Result{Latency: time.Second}).PerSample(); got != 0 {
		t.Fatalf("PerSample of an empty batch = %v, want 0", got)
	}
	if got := (&Result{Latency: time.Second, Batch: 4}).PerSample(); got != 250*time.Millisecond {
		t.Fatalf("PerSample of 4 samples in 1s = %v, want 250ms", got)
	}
}
