package main

import (
	"fmt"
	"io"
	"runtime"
	"time"

	"fsdinference/internal/cloud/env"
	"fsdinference/internal/cloud/faas"
	"fsdinference/internal/cloud/kvcluster"
	"fsdinference/internal/cloud/sqs"
	"fsdinference/internal/collective"
	"fsdinference/internal/core"
	"fsdinference/internal/model"
	"fsdinference/internal/obs"
	"fsdinference/internal/obs/monitor"
	"fsdinference/internal/partition"
	"fsdinference/internal/plan"
	"fsdinference/internal/serve"
	"fsdinference/internal/sim"
	"fsdinference/internal/sparse"
	"fsdinference/internal/wire"
	"fsdinference/internal/workload"
)

// Layer probes: timed loops over each layer's public functions, at the
// shapes of the workload the layer matters most on, with known operation
// counts. They run in a process of their own, once per traced round, and
// do not depend on which workload was traced. Inputs derive from -seed
// (offset so they never coincide with a workload's), and every service or
// replay a probe times is fresh, so probes too measure cold memos unless
// the metric says otherwise (serve.rerun_ratio).

const probeSeedOff = 900_000_000

// probeSet collects probe results.
type probeSet struct {
	sc   scale
	seed int64
	out  map[string]float64
}

// timeOp runs f n times, reps times over, and returns the median host
// ns/op and the mallocs/op of the last repetition.
func timeOp(reps, n int, f func()) (nsPerOp, mallocsPerOp float64) {
	var ns []float64
	for r := 0; r < reps; r++ {
		m0 := readMem()
		t0 := hostNow()
		for i := 0; i < n; i++ {
			f()
		}
		d := hostSince(t0)
		mallocsPerOp = float64(readMem().sub(m0).mallocs) / float64(n)
		ns = append(ns, float64(d)/float64(n))
	}
	return median(ns), mallocsPerOp
}

// iters scales a full-size loop count down for the smoke test.
func (p *probeSet) iters(full int) int {
	if n := full * p.sc.ProbeIters / 100; n > 0 {
		return n
	}
	return 1
}

func simMS(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }

// runProbes runs every layer probe and returns the per-layer metrics that
// do not come from the traced workload itself.
func runProbes(sc scale, seed int64) (map[string]float64, error) {
	p := &probeSet{sc: sc, seed: seed + probeSeedOff, out: map[string]float64{}}
	for _, step := range []struct {
		name string
		run  func() error
	}{
		{"sim", p.probeSim},
		{"workload", p.probeWorkload},
		{"cloud", p.probeCloud},
		{"model+sparse+wire+partition+core", p.probeDataPath},
		{"collective", p.probeCollective},
		{"serve", p.probeServe},
		{"plan+monitor", p.probePlan},
	} {
		if err := step.run(); err != nil {
			return nil, fmt.Errorf("probe %s: %w", step.name, err)
		}
	}
	return p.out, nil
}

// --- sim ----------------------------------------------------------------------

func (p *probeSet) probeSim() error {
	const procs = 16
	sleeps := p.iters(2000)
	var runErr error
	ns, mallocs := timeOp(3, 1, func() {
		k := sim.New()
		c := sim.NewCond(k)
		for i := 0; i < procs; i++ {
			k.Go("w", func(pr *sim.Proc) {
				for j := 0; j < sleeps; j++ {
					pr.Sleep(1)
				}
				c.Broadcast()
			})
		}
		if err := k.Run(); err != nil {
			runErr = err
		}
	})
	events := float64(procs * sleeps)
	p.out["sim.events_per_s"] = events / (ns / 1e9)
	p.out["sim.allocs_per_kevent"] = mallocs / events * 1000

	yields := p.iters(20000)
	ns, _ = timeOp(3, 1, func() {
		k := sim.New()
		for i := 0; i < 2; i++ {
			k.Go("y", func(pr *sim.Proc) {
				for j := 0; j < yields; j++ {
					pr.Yield()
				}
			})
		}
		if err := k.Run(); err != nil {
			runErr = err
		}
	})
	p.out["sim.switch_ns"] = ns / float64(2*yields)

	timers := p.iters(50000)
	ns, _ = timeOp(3, 1, func() {
		k := sim.New()
		for i := 0; i < timers; i++ {
			k.At(time.Duration(i%977), func() {})
		}
		if err := k.Run(); err != nil {
			runErr = err
		}
	})
	p.out["sim.timer_ns"] = ns / float64(timers)
	return runErr
}

// --- workload -----------------------------------------------------------------

func (p *probeSet) probeWorkload() error {
	total := p.sc.StreamQueries
	ns, _ := timeOp(3, 1, func() {
		s := workload.DiurnalDay(total, []int{64}, 1, p.seed, 8192)
		for len(s.Next()) > 0 {
		}
	})
	p.out["workload.diurnal_mq_s"] = float64(total) / 1e6 / (ns / 1e9)
	ns, _ = timeOp(5, 1, func() {
		workload.Day(p.sc.SporadicQueries*8, sporadicSizes(p.sc), 8, p.seed)
	})
	p.out["workload.day_ms"] = ns / 1e6
	return nil
}

// --- cloud ----------------------------------------------------------------------

// inKernel runs body as one simulated process on a fresh default
// environment and returns the host nanoseconds the kernel took.
func inKernel(setup func(e *env.Env) (func(pr *sim.Proc) error, error)) (int64, error) {
	e := env.NewDefault()
	body, err := setup(e)
	if err != nil {
		return 0, err
	}
	var bodyErr error
	e.K.Go("probe", func(pr *sim.Proc) { bodyErr = body(pr) })
	t0 := hostNow()
	err = e.K.Run()
	d := hostSince(t0)
	if err == nil {
		err = bodyErr
	}
	return d, err
}

func (p *probeSet) probeCloud() error {
	n := p.iters(2000)
	payload := make([]byte, 8<<10)
	msg := sqs.Message{Body: payload, Attributes: map[string]string{"layer": "3", "src": "1"}}
	record := func(name string, setup func(e *env.Env) (func(pr *sim.Proc) error, error)) error {
		var ns []float64
		for r := 0; r < 3; r++ {
			d, err := inKernel(setup)
			if err != nil {
				return fmt.Errorf("%s: %w", name, err)
			}
			ns = append(ns, float64(d)/float64(n))
		}
		p.out[name] = median(ns)
		return nil
	}

	if err := record("cloud.sqs.roundtrip_ns", func(e *env.Env) (func(*sim.Proc) error, error) {
		q := e.SQS.CreateQueue("probe")
		return func(pr *sim.Proc) error {
			for i := 0; i < n; i++ {
				if err := q.Send(pr, msg); err != nil {
					return err
				}
				var handles []string
				for _, r := range q.Receive(pr, 10, time.Second) {
					handles = append(handles, r.ReceiptHandle)
				}
				if err := q.DeleteBatch(pr, handles); err != nil {
					return err
				}
			}
			return nil
		}, nil
	}); err != nil {
		return err
	}
	if err := record("cloud.sns.publish_ns", func(e *env.Env) (func(*sim.Proc) error, error) {
		q := e.SQS.CreateQueue("probe")
		t := e.SNS.CreateTopic("probe")
		t.Subscribe(q, nil)
		return func(pr *sim.Proc) error {
			for i := 0; i < n; i++ {
				if err := t.PublishBatch(pr, []sqs.Message{msg}); err != nil {
					return err
				}
			}
			return nil
		}, nil
	}); err != nil {
		return err
	}
	if err := record("cloud.s3.putget_ns", func(e *env.Env) (func(*sim.Proc) error, error) {
		b := e.S3.CreateBucket("probe")
		return func(pr *sim.Proc) error {
			for i := 0; i < n; i++ {
				key := fmt.Sprintf("k/%d", i%64)
				if err := b.Put(pr, key, payload); err != nil {
					return err
				}
				if _, err := b.Get(pr, key); err != nil {
					return err
				}
			}
			return nil
		}, nil
	}); err != nil {
		return err
	}
	if err := record("cloud.kv.pushpop_ns", func(e *env.Env) (func(*sim.Proc) error, error) {
		node, err := e.KV.Provision("probe", core.DefaultKVNodeType)
		if err != nil {
			return nil, err
		}
		return func(pr *sim.Proc) error {
			for i := 0; i < n; i++ {
				if err := node.RPush(pr, "inbox", payload, 0); err != nil {
					return err
				}
				if node.BLPop(pr, "inbox", time.Second) == nil {
					return fmt.Errorf("pop returned nothing")
				}
			}
			return nil
		}, nil
	}); err != nil {
		return err
	}
	if err := record("cloud.kvcluster.pushpop_ns", func(e *env.Env) (func(*sim.Proc) error, error) {
		cl, err := kvcluster.New(e.KV, kvcluster.Config{Name: "probe", Shards: 2, Replicas: 1})
		if err != nil {
			return nil, err
		}
		client := &kvcluster.Client{}
		return func(pr *sim.Proc) error {
			for i := 0; i < n; i++ {
				key := fmt.Sprintf("inbox/%d", i%8)
				if err := cl.RPush(pr, client, key, payload, 0); err != nil {
					return err
				}
				if cl.BLPop(pr, client, key, time.Second) == nil {
					return fmt.Errorf("pop returned nothing")
				}
			}
			return nil
		}, nil
	}); err != nil {
		return err
	}
	return record("cloud.faas.invoke_ns", func(e *env.Env) (func(*sim.Proc) error, error) {
		err := e.FaaS.Register(faas.FunctionConfig{
			Name: "probe", MemoryMB: 1024, Timeout: time.Minute,
			Handler: func(ctx *faas.Ctx, in []byte) ([]byte, error) { return in, nil },
		})
		if err != nil {
			return nil, err
		}
		return func(pr *sim.Proc) error {
			for i := 0; i < n; i++ {
				fut, err := e.FaaS.Invoke(pr, "probe", payload[:64])
				if err != nil {
					return err
				}
				if _, err := fut.Wait(pr); err != nil {
					return err
				}
			}
			return nil
		}, nil
	})
}

// --- model, sparse, wire, partition, core: the channel_sweep data path --------

func (p *probeSet) probeDataPath() error {
	sc := p.sc
	spec := model.GraphChallengeSpec(sc.SweepN, sc.SweepL, modelSeed)
	var m *model.Model
	var err error
	ns, _ := timeOp(3, 1, func() { m, err = model.Generate(spec) })
	if err != nil {
		return err
	}
	p.out["model.generate_ms"] = ns / 1e6

	inputs := p.iters(2000)
	i := int64(0)
	ns, _ = timeOp(3, inputs, func() { model.GenerateInputs(64, 1, 0.2, p.seed+i); i++ })
	p.out["model.inputs_us"] = ns / 1e3

	x := model.GenerateInputs(sc.SweepN, sc.SweepBatch, 0.2, p.seed+inputSeedOff)
	ns, _ = timeOp(3, 1, func() { model.Reference(m, x) })
	p.out["model.reference_ms"] = ns / 1e6

	// sparse: one layer of the sweep model at the sweep batch.
	w := m.Layers[0]
	iters := p.iters(40)
	var macs int64
	var z *sparse.Dense
	ns, _ = timeOp(3, iters, func() { z, macs = sparse.Mul(w, x) })
	p.out["sparse.mul_gmac_s"] = float64(macs) / ns
	lookup := func(c int32) []float32 {
		if x.RowIsZero(int(c)) {
			return nil
		}
		return x.Row(int(c))
	}
	zg := sparse.NewDense(w.Rows, x.Cols)
	ns, _ = timeOp(3, iters, func() { zg.Zero(); macs = sparse.MulGatherInto(w, lookup, zg) })
	p.out["sparse.mulgather_gmac_s"] = float64(macs) / ns
	ns, _ = timeOp(3, iters, func() { sparse.ReLUBiasClamp(z, spec.Bias, spec.Clamp) })
	p.out["sparse.relu_ns_per_elem"] = ns / float64(len(z.Data))

	// The operation count of one sweep query: MACs of a serial pass.
	var queryMACs int64
	act := x
	for _, layer := range m.Layers {
		next, n := sparse.Mul(layer, act)
		sparse.ReLUBiasClamp(next, spec.Bias, spec.Clamp)
		queryMACs += n
		act = next
	}
	p.out["sparse.sim_gmac_per_q"] = float64(queryMACs) / 1e9

	// wire: the rows one worker would ship after the last layer (real
	// activations, so zlib sees the real value distribution).
	rs := wire.NewRowSetCap(act.Cols, act.Rows/sc.SweepWorkers)
	for r := 0; r < act.Rows/sc.SweepWorkers; r++ {
		rs.Add(int32(r), act.Row(r))
	}
	raw := float64(rs.RawBytes())
	var encZ, encRaw []byte
	var encErr error
	nsZ, allocsZ := timeOp(3, iters, func() { encZ, encErr = wire.Encode(rs, true) })
	nsRaw, _ := timeOp(3, iters, func() { encRaw, encErr = wire.Encode(rs, false) })
	if encErr != nil {
		return encErr
	}
	p.out["wire.encode_z_mb_s"] = raw / nsZ * 1e3
	p.out["wire.encode_raw_mb_s"] = raw / nsRaw * 1e3
	p.out["wire.encode_z_allocs"] = allocsZ
	p.out["wire.sim_compress_ratio"] = raw / float64(len(encZ))
	var decErr error
	nsZ, _ = timeOp(3, iters, func() { _, decErr = wire.Decode(encZ) })
	nsRaw, _ = timeOp(3, iters, func() { _, decErr = wire.Decode(encRaw) })
	if decErr != nil {
		return decErr
	}
	p.out["wire.decode_z_mb_s"] = raw / nsZ * 1e3
	p.out["wire.decode_raw_mb_s"] = raw / nsRaw * 1e3

	// partition: the sweep's own HGPDNN plan against Block.
	var hgp, blk *partition.Plan
	t0 := hostNow()
	hgp, err = partition.BuildPlan(m, sc.SweepWorkers, partition.HGPDNN, partition.Options{Seed: planSeed})
	p.out["partition.hgp_s"] = float64(hostSince(t0)) / 1e9
	if err != nil {
		return err
	}
	ns, _ = timeOp(5, 1, func() {
		blk, err = partition.BuildPlan(m, sc.SweepWorkers, partition.Block, partition.Options{Seed: planSeed})
	})
	if err != nil {
		return err
	}
	p.out["partition.block_ms"] = ns / 1e6
	hs, bs := hgp.Stats(m), blk.Stats(m)
	p.out["partition.sim_hgp_row_ratio"] = ratio(float64(hs.RowTransfers), float64(bs.RowTransfers))
	p.out["partition.sim_nnz_imbalance"] = hs.NNZImbalance

	// core: one leg per ChannelKind on that plan, one cold and one warm
	// Infer each, timed from outside like the workload does.
	o := newOutcome()
	inputsByLeg := legInputs(len(sweepChannels), 2, sc.SweepN, sc.SweepBatch, p.seed, nil)
	for li, ch := range sweepChannels {
		if err := runLeg(channelName(ch), sweepConfig(m, hgp, ch), inputsByLeg[li], false, o, nil); err != nil {
			return err
		}
	}
	var deployNS, launch float64
	for _, lg := range o.legs {
		var lat, usd float64
		for _, r := range lg.results {
			lat += simMS(r.Latency)
			usd += r.Cost.Total()
			launch += simMS(r.LaunchComplete)
		}
		n := float64(len(lg.results))
		p.out["core."+lg.name+".sim_ms"] = lat / n
		p.out["core."+lg.name+".sim_usd_per_kq"] = usd / n * 1000
		p.out["core."+lg.name+".host_ms"] = float64(lg.hostNS) / 1e6 / n
		deployNS += float64(lg.deployNS)
	}
	p.out["core.deploy_host_ms"] = deployNS / 1e6 / float64(len(o.legs))
	p.out["core.sim_launch_ms"] = launch / float64(o.queries)
	return nil
}

// --- collective -----------------------------------------------------------------

func (p *probeSet) probeCollective() error {
	m, err := model.Generate(model.GraphChallengeSpec(256, 6, modelSeed))
	if err != nil {
		return err
	}
	pl, err := partition.BuildPlan(m, p.sc.CollWorkers, partition.Block, partition.Options{Seed: planSeed})
	if err != nil {
		return err
	}
	o := newOutcome()
	inputs := legInputs(len(collectiveAlgs), 1, 256, 16, p.seed, nil)
	for i, alg := range collectiveAlgs {
		if err := runLeg(alg.String(), collectiveConfig(m, pl, alg), inputs[i], false, o, nil); err != nil {
			return err
		}
	}
	best, auto := 0.0, 0.0
	for _, lg := range o.legs {
		r := lg.results[0]
		lat := simMS(r.Latency)
		if lg.name == "auto" {
			auto = lat
			continue
		}
		if best == 0 || lat < best {
			best = lat
		}
		var reduce, barrier float64
		for _, wm := range r.Workers {
			reduce += simMS(wm.ReduceTime)
			barrier += simMS(wm.BarrierTime)
		}
		n := float64(len(r.Workers))
		p.out["collective."+lg.name+".sim_reduce_ms"] = reduce / n
		p.out["collective."+lg.name+".sim_barrier_ms"] = barrier / n
		p.out["collective."+lg.name+".host_ms"] = float64(lg.hostNS) / 1e6
	}
	p.out["collective.auto_regret_share"] = (auto - best) / best
	return nil
}

// --- serve, obs -------------------------------------------------------------------

func (p *probeSet) probeServe() error {
	sc := p.sc
	small, err := model.Generate(model.GraphChallengeSpec(256, 6, modelSeed))
	if err != nil {
		return err
	}
	large, err := model.Generate(model.GraphChallengeSpec(sc.ProbeLargeN, 6, modelSeed+1))
	if err != nil {
		return err
	}
	trace := workload.Day(sc.ProbeQueries*8, []int{256, sc.ProbeLargeN}, 8, p.seed+traceSeedOff)

	// Replay-engine and observability variants of one sporadic-shaped
	// replay. Every run gets a fresh service and an input seed of its own,
	// so all of them start with cold memos; three interleaved repetitions
	// and medians keep a noise burst from landing on one variant.
	plain := func(s *serve.Service, ro serve.ReplayOptions) (*serve.Report, error) { return s.Replay(trace, ro) }
	mon := monitor.Spec{
		Interval: 5 * time.Minute,
		SLOs:     []monitor.SLO{{Name: "availability", Kind: monitor.Availability, Window: 30 * 24 * time.Hour, Objective: 0.999}},
	}
	variants := []struct {
		name string
		opts []serve.Option
		run  func(*serve.Service, serve.ReplayOptions) (*serve.Report, error)
	}{
		{"replay", nil, plain},
		{"stream", nil, func(s *serve.Service, ro serve.ReplayOptions) (*serve.Report, error) {
			return s.ReplayStream(workload.Stream(trace, 16), ro)
		}},
		{"lanes2", nil, func(s *serve.Service, ro serve.ReplayOptions) (*serve.Report, error) {
			return s.ReplayLanes(2, trace, ro)
		}},
		// 1% sampling is the rate the repo's own tracing gate uses.
		{"traced", []serve.Option{serve.WithTracing(100)}, plain},
		{"monitored", []serve.Option{serve.WithMonitor(mon)}, plain},
	}
	secs := map[string][]float64{}
	var newMS []float64
	var report *serve.Report
	runs := 0
	for rep := 0; rep < 3; rep++ {
		for _, v := range variants {
			runs++
			ro := serve.ReplayOptions{Seed: p.seed + inputSeedOff + int64(runs)*100_000}
			t0 := hostNow()
			svc, err := sporadicService(small, large, v.opts...)
			newMS = append(newMS, float64(hostSince(t0))/1e6)
			if err != nil {
				return err
			}
			runtime.GC() // every variant starts from a collected heap
			t0 = hostNow()
			r, err := v.run(svc, ro)
			secs[v.name] = append(secs[v.name], float64(hostSince(t0))/1e9)
			if err != nil {
				return fmt.Errorf("%s: %w", v.name, err)
			}
			if r.Failed != 0 {
				return fmt.Errorf("%s: %d of %d queries failed", v.name, r.Failed, r.Queries)
			}
			report = r
		}
	}
	base := median(secs["replay"])
	p.out["serve.stream_ratio"] = base / median(secs["stream"])
	p.out["serve.lanes2_ratio"] = base / median(secs["lanes2"])
	p.out["obs.trace_tax_share"] = median(secs["traced"])/base - 1
	p.out["obs.monitor_tax_share"] = median(secs["monitored"])/base - 1
	p.out["serve.newservice_ms"] = median(newMS)
	ns, _ := timeOp(3, 20, func() { _ = report.String() })
	p.out["serve.report_string_us"] = ns / 1e3

	// The memo-hit variant, on the shape BENCH_N's BenchmarkServiceReplay
	// replays (two Serial endpoints, where serialMemo recalls whole runs):
	// a cold replay, then the identical replay again at once on the same
	// service, which is what an in-process benchmark loop measures from its
	// second iteration on. Well below 1 shows the memos exist and were cold.
	tiny, err := model.Generate(model.GraphChallengeSpec(128, 6, modelSeed+2))
	if err != nil {
		return err
	}
	memo, err := serve.NewService(env.NewDefault(),
		serve.WithEndpoint("n128", tiny), serve.WithEndpoint("n256", small),
		serve.WithCoalescing(64, 200*time.Millisecond), serve.WithReplicas(2))
	if err != nil {
		return err
	}
	benchTrace := workload.Day(sc.ProbeQueries*8, []int{128, 256}, 8, p.seed+traceSeedOff)
	var replays [2]float64
	for i := range replays {
		t0 := hostNow()
		if _, err := memo.Replay(benchTrace, serve.ReplayOptions{Seed: p.seed + inputSeedOff}); err != nil {
			return err
		}
		replays[i] = float64(hostSince(t0))
	}
	p.out["serve.rerun_ratio"] = replays[1] / replays[0]

	full, err := sporadicService(small, large, serve.WithTracing(1))
	if err != nil {
		return err
	}
	if _, err := full.Replay(trace, serve.ReplayOptions{Seed: p.seed + inputSeedOff}); err != nil {
		return err
	}
	var exportErr error
	ns, _ = timeOp(3, 1, func() { exportErr = full.Tracer().WriteChrome(io.Discard) })
	if exportErr != nil {
		return exportErr
	}
	p.out["obs.export_chrome_ms"] = ns / 1e6
	h := obs.NewHistogram(16)
	d := time.Duration(0)
	ns, _ = timeOp(3, 200_000*sc.ProbeIters/100, func() { d += 1237 * time.Microsecond; h.Observe(d % (8 * time.Second)) })
	p.out["obs.hist_observe_ns"] = ns

	// The rate ladder: constant-rate two-minute traces on a fixed Queue
	// P=2 endpoint; a rate holds when p95 stays within the limit and the
	// last query still completes within it (no backlog left growing).
	const limit = 4 * time.Second
	best := 0.0
	for _, rate := range []float64{0.5, 1, 2, 4} {
		var ladder []workload.Query
		gap := time.Duration(float64(time.Second) / rate)
		for at := time.Duration(0); at < time.Duration(sc.LadderSeconds)*time.Second; at += gap {
			ladder = append(ladder, workload.Query{At: at, Neurons: 256, Samples: 4})
		}
		svc, err := serve.NewService(env.NewDefault(),
			serve.WithEndpoint("fixed", small, serve.WithChannel(core.Queue), serve.WithWorkers(2)),
			serve.WithCoalescing(4, 0))
		if err != nil {
			return err
		}
		rep, err := svc.Replay(ladder, serve.ReplayOptions{Seed: p.seed + inputSeedOff + int64(rate*1000)})
		if err != nil {
			return err
		}
		drained := rep.Horizon - ladder[len(ladder)-1].At
		if rep.Failed == 0 && rep.Latency.P95 <= limit && drained <= limit {
			best = rate
		}
	}
	p.out["serve.sim_max_rate_qps"] = best
	return nil
}

// --- plan, obs/monitor ------------------------------------------------------------

func (p *probeSet) probePlan() error {
	m, err := model.Generate(model.GraphChallengeSpec(256, 6, modelSeed))
	if err != nil {
		return err
	}
	// The flash_crowd endpoint's planner, driven directly: one Plan at the
	// quiet-morning volume, one Replan at the crowd's.
	pl, err := plan.New(m, plan.Options{
		Objective: plan.CostObjective(),
		Grid:      plan.Grid{Channels: []core.ChannelKind{core.Queue, core.Memory}, Workers: []int{2}},
		Seed:      planSeed,
	})
	if err != nil {
		return err
	}
	t0 := hostNow()
	if _, err = pl.Plan(plan.WorkloadProfile{QueriesPerDay: 2880, BatchSamples: 4}); err != nil {
		return err
	}
	p.out["plan.plan_ms"] = float64(hostSince(t0)) / 1e6
	t0 = hostNow()
	if _, err = pl.Replan(plan.WorkloadProfile{QueriesPerDay: 108_000, BatchSamples: 4}); err != nil {
		return err
	}
	p.out["plan.replan_ms"] = float64(hostSince(t0)) / 1e6

	// How much of a wider grid the analytic pre-filter spares from trials.
	wide, err := plan.New(m, plan.Options{
		Objective: plan.CostObjective(),
		Grid: plan.Grid{
			Workers:     []int{2, 4},
			KVNodes:     []int{1, 2},
			Collectives: []collective.Algorithm{collective.Flat, collective.Tree},
		},
		Seed: planSeed,
	})
	if err != nil {
		return err
	}
	d, err := wide.Plan(plan.WorkloadProfile{QueriesPerDay: 20, BatchSamples: 4})
	if err != nil {
		return err
	}
	p.out["plan.sim_pruned_share"] = ratio(float64(d.Pruned), float64(d.Candidates))

	// The closed loop itself: the flash_crowd service on its own trace.
	svc, err := crowdService(m, planSeed)
	if err != nil {
		return err
	}
	sc := p.sc
	rep, err := svc.Replay(crowdTrace(sc.CrowdQuiet, sc.CrowdBurst, sc.CrowdTail), serve.ReplayOptions{Seed: p.seed + inputSeedOff})
	if err != nil {
		return err
	}
	var replans, firstReplan float64
	for _, ep := range rep.Endpoints {
		for _, ev := range ep.Replans {
			if replans == 0 {
				firstReplan = ev.At.Seconds()
			}
			replans++
		}
	}
	p.out["plan.sim_replans"] = replans
	p.out["plan.sim_first_replan_s"] = firstReplan
	p.out["obs.monitor.sim_violation_s"] = svc.Monitor().TimeInViolation("slo", crowdSLO).Seconds()
	firstPage := 0.0
	for _, ev := range svc.Monitor().Alerts() {
		if ev.Firing && ev.Severity == monitor.Page {
			firstPage = ev.At.Seconds()
			break
		}
	}
	p.out["obs.monitor.sim_first_page_s"] = firstPage
	return nil
}
