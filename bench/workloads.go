package main

import (
	"crypto/sha256"
	"encoding/binary"
	"fmt"
	"hash"
	"math"
	"sort"
	"time"

	"fsdinference/internal/cloud/env"
	"fsdinference/internal/collective"
	"fsdinference/internal/core"
	"fsdinference/internal/model"
	"fsdinference/internal/obs"
	"fsdinference/internal/obs/monitor"
	"fsdinference/internal/partition"
	"fsdinference/internal/serve"
	"fsdinference/internal/sim"
	"fsdinference/internal/sparse"
	"fsdinference/internal/workload"
)

// scale sizes every workload. fullScale is what the program always runs;
// the smoke test drives the same code in seconds with a tiny scale of its
// own.
type scale struct {
	StreamQueries int // stream_day: queries in the diurnal day
	StreamVerify  int // stream_day: prefix re-replayed with Verify
	StreamWarm    int // stream_day: warm-up queries (other seed, other model)

	SporadicQueries int // replay_sporadic: queries in the sporadic day
	SporadicLargeN  int // replay_sporadic: the large endpoint's N
	SporadicLargeL  int
	SporadicWarm    int

	SweepN, SweepL int // channel_sweep: model shape
	SweepWorkers   int
	SweepBatch     int
	SweepInfers    int // per channel: 1 cold + (n-1) warm

	CollWorkers int // collective_p32
	CollInfers  int // per algorithm
	CollWarm    int // warm-up Infer calls (Block P=8)

	CrowdQuiet, CrowdBurst, CrowdTail int // flash_crowd trace segments
	CrowdWarm                         int

	// Layer probes (traced round only).
	ProbeIters    int // loop counts, in percent of the full counts
	ProbeLargeN   int // serve probes: the second endpoint's N
	ProbeQueries  int // serve probes: queries in the probe trace
	LadderSeconds int // serve.sim_max_rate_qps: length of each rate step
}

var fullScale = scale{
	StreamQueries: 300_000, StreamVerify: 2000, StreamWarm: 60_000,
	SporadicQueries: 240, SporadicLargeN: 1024, SporadicLargeL: 12, SporadicWarm: 24,
	SweepN: 1024, SweepL: 4, SweepWorkers: 8, SweepBatch: 64, SweepInfers: 4,
	CollWorkers: 32, CollInfers: 2, CollWarm: 6,
	CrowdQuiet: 20, CrowdBurst: 300, CrowdTail: 12, CrowdWarm: 400,
	ProbeIters: 100, ProbeLargeN: 512, ProbeQueries: 32, LadderSeconds: 120,
}

// Seeds. The models and partition plans are the system's configuration
// and come from fixed seeds: across ten -seed values a model of another
// seed moved wall_qps by up to 15% on its own, which would have forced
// bounds too wide to catch anything. -seed derives what arrives: every
// trace and every input. The warm-up in set-up uses warmOffset on top of
// either, so no generated model, trace or input is ever shared between
// set-up and measurement and every process-wide memo is cold when the
// clock starts.
const (
	modelSeed    = 1_001
	planSeed     = 2_001
	traceSeedOff = 3_000
	inputSeedOff = 1_000_000
	warmOffset   = 500_000_000
)

// outcome is what one measured phase produced, in simulated terms.
type outcome struct {
	queries int
	failed  int // failed + shed
	late    int // completed past the workload's latency limit
	p50     time.Duration
	tail    time.Duration
	costUSD float64
	digest  hash.Hash

	// Attribution inputs, read only by the traced round.
	counts  simCounts       // simulated service usage over the measured phase
	reports []*serve.Report // serving workloads
	results []*core.Result  // closed-loop workloads
	tracers []*obs.Tracer   // the program's own simulated-time tracers
	legs    []leg           // closed-loop: one per Deploy
}

// leg is one Deploy plus its Infer calls inside a closed-loop workload.
type leg struct {
	name     string
	deployNS int64
	hostNS   int64
	results  []*core.Result
}

func newOutcome() *outcome { return &outcome{digest: sha256.New()} }

func (o *outcome) hashDur(d time.Duration) {
	var b [8]byte
	binary.LittleEndian.PutUint64(b[:], uint64(d))
	o.digest.Write(b[:])
}

func (o *outcome) hashFloat(f float64) {
	var b [8]byte
	binary.LittleEndian.PutUint64(b[:], math.Float64bits(f))
	o.digest.Write(b[:])
}

// addReport folds a replay report into the outcome: every simulated
// number the report carries goes into the digest, bit for bit.
func (o *outcome) addReport(rep *serve.Report, tail func(serve.LatencyStats) time.Duration) {
	o.reports = append(o.reports, rep)
	o.queries += rep.Queries
	o.failed += rep.Failed
	for _, ep := range rep.Endpoints {
		o.late += ep.DeadlineMissed
	}
	o.p50 = rep.Latency.P50
	o.tail = tail(rep.Latency)
	o.costUSD += rep.TotalCost.Total()
	ls := rep.Latency
	for _, d := range []time.Duration{ls.Mean, ls.P50, ls.P95, ls.P99, ls.Min, ls.Max, rep.Horizon} {
		o.hashDur(d)
	}
	o.hashFloat(rep.TotalCost.Total())
	o.digest.Write([]byte(rep.String()))
}

// addResults folds closed-loop results: per-query latency and cost bits.
func (o *outcome) addResults(rs []*core.Result) {
	o.results = append(o.results, rs...)
	for _, r := range rs {
		o.queries++
		o.costUSD += r.Cost.Total()
		o.hashDur(r.Latency)
		o.hashFloat(r.Cost.Total())
	}
}

// finishClosedLoop derives p50 and the max tail from the per-query
// latencies (nearest rank, like serve.LatencyStats).
func (o *outcome) finishClosedLoop() {
	lats := make([]float64, 0, len(o.results))
	for _, r := range o.results {
		lats = append(lats, float64(r.Latency))
	}
	if len(lats) == 0 {
		return
	}
	sort.Float64s(lats)
	o.p50 = time.Duration(lats[(len(lats)+1)/2-1])
	o.tail = time.Duration(lats[len(lats)-1])
}

// prepared is a workload after set-up: measure runs the measured phase
// once; verify, untimed, checks every output against model.Reference and
// returns the number of wrong outputs.
type prepared struct {
	measure func() (*outcome, error)
	verify  func(*outcome) (wrong int, err error)
}

// workloadDef is one benchmark workload. Names are fixed: later issues
// cite them. What a why says about host time is read off host_share.* of
// a traced run (seed 3), not predicted; README.md has the numbers.
type workloadDef struct {
	name    string
	why     string
	loop    string        // "open" or "closed"
	tail    string        // which percentile sim_tail_ms is
	limit   time.Duration // latency limit; 0 = none (closed loop)
	params  func(sc scale) string
	prepare func(sc scale, seed int64, traced bool, sp *spans) (*prepared, error)
}

// Latency limits of the open-loop workloads: a query that completes later
// than this misses (sim_in_limit_share).
const (
	streamLimit   = 330 * time.Second
	sporadicLimit = 3500 * time.Millisecond
	crowdLimit    = 4 * time.Second
)

var workloads = []*workloadDef{
	{
		name: "stream_day", loop: "open", tail: "p99", limit: streamLimit,
		why: "300k-query diurnal day streamed through one Serial endpoint: sparse.Mul, serve (admission, coalescing, fold) and model.GenerateInputs take the host time; channels, zlib, collectives idle; memos cold",
		params: func(sc scale) string {
			return fmt.Sprintf("ReplayStream DiurnalDay(%d,[64],1,seed,8192) N=64xL=2 Serial Compress=false WithCoalescing(4096,5m) verify-prefix=%d warm=%d",
				sc.StreamQueries, sc.StreamVerify, sc.StreamWarm)
		},
		prepare: prepareStreamDay,
	},
	{
		name: "replay_sporadic", loop: "open", tail: "p95", limit: sporadicLimit,
		why: "the paper's sporadic day through the exact-latency Replay engine on two Queue endpoints: sparse and core's queue path are two thirds of host time, wire, sim, cloud a quarter; serve only dispatches",
		params: func(sc scale) string {
			return fmt.Sprintf("Replay WorkloadDay(%d*8,[256,256,%d],8,seed) small=256x6 Queue P=2, large=%dx%d Queue P=4 Block, compress, WithCoalescing(64,200ms) WithReplicas(2) warm=%d",
				sc.SporadicQueries, sc.SporadicLargeN, sc.SporadicLargeN, sc.SporadicLargeL, sc.SporadicWarm)
		},
		prepare: prepareReplaySporadic,
	},
	{
		name: "channel_sweep", loop: "closed", tail: "max",
		why: "Queue, Object, Memory and Hybrid each Deploy + cold and warm Infer on one HGPDNN plan: each ChannelKind data path is an equal leg, wire zlib is seven eighths of host time; HGPDNN cost lands in setup_s",
		params: func(sc scale) string {
			return fmt.Sprintf("closed loop, 1 client: {Queue,Object,Memory,Hybrid(8KiB)} x (Deploy + %d Infer batch %d) N=%dxL=%d HGPDNN P=%d compress",
				sc.SweepInfers, sc.SweepBatch, sc.SweepN, sc.SweepL, sc.SweepWorkers)
		},
		prepare: prepareChannelSweep,
	},
	{
		name: "collective_p32", loop: "closed", tail: "max",
		why: "Memory channel, P=32, AllreduceOutput under flat, tree, ring and auto: closing collectives at high fan-out; wire zlib is four fifths, sim a twelfth of host time; the slowest of 32 parts sets each run",
		params: func(sc scale) string {
			return fmt.Sprintf("closed loop, 1 client: {flat,tree,ring,auto} x (Deploy + %d Infer batch 16) Memory N=256xL=6 Block P=%d AllreduceOutput compress warm=%d",
				sc.CollInfers, sc.CollWorkers, sc.CollWarm)
		},
		prepare: prepareCollective,
	},
	{
		name: "flash_crowd", loop: "open", tail: "p95", limit: crowdLimit,
		why: "open loop past saturation, one WithSLO endpoint with WithMonitor: plan's channel choice, alert-driven re-plan and queueing set the simulated tail; host time is sparse, core, sim; plan and obs about 1%",
		params: func(sc scale) string {
			return fmt.Sprintf("Replay %d@30s + %d@800ms + %d@30s, N=256xL=6 4 samples, WithSLO(cost,{Queue,Memory},{2},ProbeBatch 4,MinRuns 64) WithCoalescing(4,0) WithMonitor(15s, p95<=4s@99%%) active sink warm=%d",
				sc.CrowdQuiet, sc.CrowdBurst, sc.CrowdTail, sc.CrowdWarm)
		},
		prepare: prepareFlashCrowd,
	},
}

func findWorkload(name string) *workloadDef {
	for _, w := range workloads {
		if w.name == name {
			return w
		}
	}
	return nil
}

// limitSubmit stamps the workload's latency limit on every query as a
// deadline. Under the default FIFO admission a deadline changes nothing
// in the simulation; the report just counts completions past it, which
// is where sim_in_limit_share comes from.
func limitSubmit(limit time.Duration) func(int, workload.Query) serve.SubmitOptions {
	return func(int, workload.Query) serve.SubmitOptions { return serve.SubmitOptions{Deadline: limit} }
}

func tracingOpt(traced bool) []serve.Option {
	if !traced {
		return nil
	}
	return []serve.Option{serve.WithTracing(1)}
}

// measureReplay is the measured phase of a serving workload: one replay
// through run, with the service's meter read before and after.
func measureReplay(svc *serve.Service, call string, sp *spans, tail func(serve.LatencyStats) time.Duration,
	run func() (*serve.Report, error)) (*outcome, error) {
	o := newOutcome()
	snap := svc.Env().Meter.Snapshot()
	var rep *serve.Report
	var err error
	sp.do(call, func() { rep, err = run() })
	if err != nil {
		return nil, err
	}
	o.counts.add(svc.Env().Meter.Sub(snap))
	o.addReport(rep, tail)
	o.tracers = append(o.tracers, svc.Tracer())
	return o, nil
}

// --- stream_day -----------------------------------------------------------

func streamService(m *model.Model, traced bool) (*serve.Service, error) {
	opts := []serve.Option{
		serve.WithEndpoint("m64", m,
			serve.WithDeployOverride(func(c *core.Config) { c.Compress = false })),
		serve.WithCoalescing(4096, 5*time.Minute),
	}
	return serve.NewService(env.NewDefault(), append(opts, tracingOpt(traced)...)...)
}

func prepareStreamDay(sc scale, seed int64, traced bool, sp *spans) (*prepared, error) {
	var m *model.Model
	var err error
	sp.do("model.Generate", func() { m, err = model.Generate(model.GraphChallengeSpec(64, 2, modelSeed)) })
	if err != nil {
		return nil, err
	}
	var svc *serve.Service
	sp.do("serve.NewService", func() { svc, err = streamService(m, traced) })
	if err != nil {
		return nil, err
	}
	var stream workload.TraceStream
	sp.do("workload.DiurnalDay", func() {
		stream = workload.DiurnalDay(sc.StreamQueries, []int{64}, 1, seed+traceSeedOff, 8192)
	})

	// Warm-up: another model, another trace seed, another input seed.
	sp.do("warmup", func() {
		var wm *model.Model
		wm, err = model.Generate(model.GraphChallengeSpec(64, 2, modelSeed+warmOffset))
		if err != nil {
			return
		}
		var wsvc *serve.Service
		if wsvc, err = streamService(wm, false); err != nil {
			return
		}
		_, err = wsvc.ReplayStream(
			workload.DiurnalDay(sc.StreamWarm, []int{64}, 1, seed+traceSeedOff+warmOffset, 8192),
			serve.ReplayOptions{Seed: seed + inputSeedOff + warmOffset})
	})
	if err != nil {
		return nil, fmt.Errorf("warm-up: %w", err)
	}

	ropts := serve.ReplayOptions{Seed: seed + inputSeedOff, Submit: limitSubmit(streamLimit)}
	return &prepared{
		measure: func() (*outcome, error) {
			p99 := func(ls serve.LatencyStats) time.Duration { return ls.P99 }
			return measureReplay(svc, "serve.ReplayStream", sp, p99,
				func() (*serve.Report, error) { return svc.ReplayStream(stream, ropts) })
		},
		verify: func(*outcome) (int, error) {
			// The streaming engine releases outputs as queries resolve, so
			// a prefix of the very same trace and inputs goes through the
			// materialising engine with Verify on.
			prefix := workload.DiurnalDay(sc.StreamQueries, []int{64}, 1, seed+traceSeedOff, sc.StreamVerify).Next()
			vsvc, err := streamService(m, false)
			if err != nil {
				return 0, err
			}
			vo := ropts
			vo.Verify = true
			var rep *serve.Report
			sp.do("serve.Replay(verify)", func() { rep, err = vsvc.Replay(prefix, vo) })
			if err != nil {
				return len(prefix), err
			}
			return rep.Failed, nil
		},
	}, nil
}

// --- replay_sporadic --------------------------------------------------------

// sporadicService builds the two-endpoint Queue service of replay_sporadic.
// It is also the fixture of the serve ratio probes.
func sporadicService(small, large *model.Model, extra ...serve.Option) (*serve.Service, error) {
	opts := []serve.Option{
		serve.WithEndpoint("small", small, serve.WithChannel(core.Queue), serve.WithWorkers(2)),
		serve.WithEndpoint("large", large, serve.WithChannel(core.Queue), serve.WithWorkers(4),
			serve.WithScheme(partition.Block)),
		serve.WithCoalescing(64, 200*time.Millisecond),
		serve.WithReplicas(2),
	}
	return serve.NewService(env.NewDefault(), append(opts, extra...)...)
}

// sporadicSizes is the day's model mix: two small queries for every large
// one. With an even mix the median query sat on the boundary between the
// two endpoints' latency clusters and sim_p50_ms flipped between them from
// seed to seed; this way p50 reads the small endpoint and p95 the large.
func sporadicSizes(sc scale) []int { return []int{256, 256, sc.SporadicLargeN} }

func sporadicModels(sc scale, mseed int64, sp *spans) (small, large *model.Model, err error) {
	sp.do("model.Generate", func() {
		small, err = model.Generate(model.GraphChallengeSpec(256, 6, mseed))
		if err == nil {
			large, err = model.Generate(model.GraphChallengeSpec(sc.SporadicLargeN, sc.SporadicLargeL, mseed+1))
		}
	})
	return small, large, err
}

func prepareReplaySporadic(sc scale, seed int64, traced bool, sp *spans) (*prepared, error) {
	small, large, err := sporadicModels(sc, modelSeed, sp)
	if err != nil {
		return nil, err
	}
	var svc *serve.Service
	sp.do("serve.NewService", func() { svc, err = sporadicService(small, large, tracingOpt(traced)...) })
	if err != nil {
		return nil, err
	}
	sizes := sporadicSizes(sc)
	var trace []workload.Query
	sp.do("workload.Day", func() { trace = workload.Day(sc.SporadicQueries*8, sizes, 8, seed+traceSeedOff) })

	sp.do("warmup", func() {
		var ws, wl *model.Model
		if ws, wl, err = sporadicModels(sc, modelSeed+warmOffset, nil); err != nil {
			return
		}
		var wsvc *serve.Service
		if wsvc, err = sporadicService(ws, wl); err != nil {
			return
		}
		_, err = wsvc.Replay(workload.Day(sc.SporadicWarm*8, sizes, 8, seed+traceSeedOff+warmOffset),
			serve.ReplayOptions{Seed: seed + inputSeedOff + warmOffset})
	})
	if err != nil {
		return nil, fmt.Errorf("warm-up: %w", err)
	}

	ropts := serve.ReplayOptions{Seed: seed + inputSeedOff, Submit: limitSubmit(sporadicLimit)}
	tail := func(ls serve.LatencyStats) time.Duration { return ls.P95 }
	return &prepared{
		measure: func() (*outcome, error) {
			return measureReplay(svc, "serve.Replay", sp, tail,
				func() (*serve.Report, error) { return svc.Replay(trace, ropts) })
		},
		verify: func(o *outcome) (int, error) {
			vsvc, err := sporadicService(small, large)
			if err != nil {
				return 0, err
			}
			return verifyByReplay(vsvc, trace, ropts, tail, nil, o, sp)
		},
	}, nil
}

// verifyByReplay checks a measured Replay without timing Reference inside
// it: the same trace goes through a fresh, identically built service with
// Verify on (every output against model.Reference), and the two replays'
// simulated digests must match, so the verified outputs are the measured
// ones. extra folds whatever else the workload put in its digest.
func verifyByReplay(vsvc *serve.Service, trace []workload.Query, ropts serve.ReplayOptions,
	tail func(serve.LatencyStats) time.Duration, extra func(*serve.Service, *outcome), measured *outcome, sp *spans) (int, error) {
	ropts.Verify = true
	var rep *serve.Report
	var err error
	sp.do("serve.Replay(verify)", func() { rep, err = vsvc.Replay(trace, ropts) })
	if err != nil {
		return len(trace), err
	}
	vo := newOutcome()
	vo.addReport(rep, tail)
	if extra != nil {
		extra(vsvc, vo)
	}
	if got, want := fmt.Sprintf("%x", vo.digest.Sum(nil)), fmt.Sprintf("%x", measured.digest.Sum(nil)); got != want {
		return len(trace), fmt.Errorf("verified replay diverged from the measured one (digest %s vs %s)", got[:12], want[:12])
	}
	return 0, nil
}

// --- closed-loop workloads --------------------------------------------------

// runLeg deploys one configuration on a fresh environment and drives n
// sequential Infer calls through it, timing the host from outside. In the
// traced round it attaches the program's own tracer at sampling 1.
func runLeg(name string, cfg core.Config, inputs []*sparse.Dense, traced bool, o *outcome, sp *spans) error {
	e := env.NewDefault()
	var tr *obs.Tracer
	if traced {
		tr = obs.New(e.K.Clock(), 1)
		cfg.Trace = obs.Scope{T: tr, Track: name}
		o.tracers = append(o.tracers, tr)
	}
	lg := leg{name: name}
	var d *core.Deployment
	var err error
	t0 := hostNow()
	sp.do("core.Deploy", func() { d, err = core.Deploy(e, cfg) })
	lg.deployNS = hostSince(t0)
	if err != nil {
		return fmt.Errorf("%s: %w", name, err)
	}
	snap := e.Meter.Snapshot()
	t0 = hostNow()
	for _, in := range inputs {
		var res *core.Result
		sp.do("core.Infer", func() { res, err = inferOnce(d, e.K, in, tr) })
		if err != nil {
			return fmt.Errorf("%s: %w", name, err)
		}
		lg.results = append(lg.results, res)
	}
	lg.hostNS = hostSince(t0)
	o.counts.add(e.Meter.Sub(snap))
	d.Decommission()
	o.addResults(lg.results)
	o.legs = append(o.legs, lg)
	return nil
}

// inferOnce is Deployment.Infer, except that in the traced round the run
// starts under a harness-owned parent span so the engine emits its worker
// and op spans (the engine only traces runs that have a parent).
func inferOnce(d *core.Deployment, k *sim.Kernel, in *sparse.Dense, tr *obs.Tracer) (*core.Result, error) {
	if tr == nil {
		return d.Infer(in)
	}
	snap := d.Env.Meter.Snapshot()
	parent := tr.Start(d.Cfg.Trace.Track, "run", obs.KindRun, 0)
	var res *core.Result
	var runErr error
	if _, err := d.StartTraced(in, parent.ID(), func(r *core.Result, e error) { res, runErr = r, e }); err != nil {
		parent.End()
		return nil, err
	}
	err := k.Run()
	parent.End()
	if err != nil {
		return nil, err
	}
	if runErr != nil {
		return nil, runErr
	}
	used := d.Env.Meter.Sub(snap)
	res.Usage = used
	res.Cost = used.Cost(d.Env.Pricing)
	return res, nil
}

// verifyResults checks every closed-loop output (and, under
// AllreduceOutput, every worker's copy) against model.Reference.
func verifyResults(m *model.Model, inputs [][]*sparse.Dense, o *outcome, sp *spans) int {
	wrong := 0
	for li, lg := range o.legs {
		for qi, res := range lg.results {
			var want *sparse.Dense
			sp.do("model.Reference", func() { want = model.Reference(m, inputs[li][qi]) })
			ok := model.OutputsClose(res.Output, want, 1e-2)
			for _, out := range res.AllOutputs {
				ok = ok && out != nil && model.OutputsClose(out, want, 1e-2)
			}
			if !ok {
				wrong++
			}
		}
	}
	return wrong
}

// legInputs generates distinct inputs for every Infer of every leg.
func legInputs(legs, per, neurons, batch int, seed int64, sp *spans) [][]*sparse.Dense {
	out := make([][]*sparse.Dense, legs)
	sp.do("model.GenerateInputs", func() {
		for l := range out {
			for q := 0; q < per; q++ {
				out[l] = append(out[l], model.GenerateInputs(neurons, batch, 0.2, seed+inputSeedOff+int64(l*per+q)))
			}
		}
	})
	return out
}

var sweepChannels = []core.ChannelKind{core.Queue, core.Object, core.Memory, core.Hybrid}

func channelName(k core.ChannelKind) string {
	switch k {
	case core.Queue:
		return "queue"
	case core.Object:
		return "object"
	case core.Memory:
		return "memory"
	case core.Hybrid:
		return "hybrid"
	}
	return "serial"
}

// sweepConfig is one channel_sweep leg's deployment. The 8 KiB hybrid
// threshold puts the sweep's payloads on both of the Hybrid channel's paths.
func sweepConfig(m *model.Model, plan *partition.Plan, ch core.ChannelKind) core.Config {
	return core.Config{Model: m, Plan: plan, Channel: ch, Compress: true, HybridThresholdBytes: 8 << 10}
}

func prepareChannelSweep(sc scale, seed int64, traced bool, sp *spans) (*prepared, error) {
	var m *model.Model
	var err error
	sp.do("model.Generate", func() {
		m, err = model.Generate(model.GraphChallengeSpec(sc.SweepN, sc.SweepL, modelSeed))
	})
	if err != nil {
		return nil, err
	}
	var plan *partition.Plan
	sp.do("partition.BuildPlan", func() {
		plan, err = partition.BuildPlan(m, sc.SweepWorkers, partition.HGPDNN, partition.Options{Seed: planSeed})
	})
	if err != nil {
		return nil, err
	}
	inputs := legInputs(len(sweepChannels), sc.SweepInfers, sc.SweepN, sc.SweepBatch, seed, sp)

	// Warm-up: same model (HGPDNN dominates set-up already), but a Block
	// plan and other inputs, so the staged-model, staged-input and input
	// memos share nothing with the measured phase.
	sp.do("warmup", func() {
		var wplan *partition.Plan
		wplan, err = partition.BuildPlan(m, sc.SweepWorkers, partition.Block, partition.Options{Seed: planSeed})
		if err != nil {
			return
		}
		win := model.GenerateInputs(sc.SweepN, sc.SweepBatch, 0.2, seed+inputSeedOff+warmOffset)
		err = runLeg("warm", core.Config{Model: m, Plan: wplan, Channel: core.Queue, Compress: true},
			[]*sparse.Dense{win}, false, newOutcome(), nil)
	})
	if err != nil {
		return nil, fmt.Errorf("warm-up: %w", err)
	}

	return &prepared{
		measure: func() (*outcome, error) {
			o := newOutcome()
			for i, ch := range sweepChannels {
				if err := runLeg(channelName(ch), sweepConfig(m, plan, ch), inputs[i], traced, o, sp); err != nil {
					return nil, err
				}
			}
			o.finishClosedLoop()
			return o, nil
		},
		verify: func(o *outcome) (int, error) { return verifyResults(m, inputs, o, sp), nil },
	}, nil
}

var collectiveAlgs = []collective.Algorithm{collective.Flat, collective.Tree, collective.Ring, collective.AutoAlgo}

func collectiveConfig(m *model.Model, plan *partition.Plan, alg collective.Algorithm) core.Config {
	return core.Config{Model: m, Plan: plan, Channel: core.Memory, Collective: alg, AllreduceOutput: true, Compress: true}
}

func prepareCollective(sc scale, seed int64, traced bool, sp *spans) (*prepared, error) {
	var m *model.Model
	var err error
	sp.do("model.Generate", func() { m, err = model.Generate(model.GraphChallengeSpec(256, 6, modelSeed)) })
	if err != nil {
		return nil, err
	}
	var plan *partition.Plan
	sp.do("partition.BuildPlan", func() {
		plan, err = partition.BuildPlan(m, sc.CollWorkers, partition.Block, partition.Options{Seed: planSeed})
	})
	if err != nil {
		return nil, err
	}
	inputs := legInputs(len(collectiveAlgs), sc.CollInfers, 256, 16, seed, sp)

	sp.do("warmup", func() {
		var wm *model.Model
		if wm, err = model.Generate(model.GraphChallengeSpec(256, 6, modelSeed+warmOffset)); err != nil {
			return
		}
		var wplan *partition.Plan
		if wplan, err = partition.BuildPlan(wm, 8, partition.Block, partition.Options{Seed: planSeed}); err != nil {
			return
		}
		var wins []*sparse.Dense
		for i := 0; i < sc.CollWarm; i++ {
			wins = append(wins, model.GenerateInputs(256, 16, 0.2, seed+inputSeedOff+warmOffset+int64(i)))
		}
		err = runLeg("warm", collectiveConfig(wm, wplan, collective.Tree), wins, false, newOutcome(), nil)
	})
	if err != nil {
		return nil, fmt.Errorf("warm-up: %w", err)
	}

	return &prepared{
		measure: func() (*outcome, error) {
			o := newOutcome()
			for i, alg := range collectiveAlgs {
				if err := runLeg(alg.String(), collectiveConfig(m, plan, alg), inputs[i], traced, o, sp); err != nil {
					return nil, err
				}
			}
			o.finishClosedLoop()
			return o, nil
		},
		verify: func(o *outcome) (int, error) { return verifyResults(m, inputs, o, sp), nil },
	}, nil
}

// --- flash_crowd ------------------------------------------------------------

const crowdSLO = "lat-p95"

// crowdTrace is the flash-crowd trace of internal/experiments/slomonitor.go:
// a quiet morning at one query per 30 s, a crowd at 1.25 q/s that exceeds
// the cost-picked queue channel's ~0.8 q/s, then a quiet tail for the drain.
func crowdTrace(quiet, burst, tail int) []workload.Query {
	var trace []workload.Query
	add := func(at time.Duration) {
		trace = append(trace, workload.Query{At: at, Neurons: 256, Samples: 4})
	}
	for i := 0; i < quiet; i++ {
		add(time.Duration(i) * 30 * time.Second)
	}
	crowd := time.Duration(quiet) * 30 * time.Second
	for i := 0; i < burst; i++ {
		add(crowd + time.Duration(i)*800*time.Millisecond)
	}
	drain := crowd + time.Duration(burst)*800*time.Millisecond + 30*time.Second
	for i := 0; i < tail; i++ {
		add(drain + time.Duration(i)*30*time.Second)
	}
	return trace
}

func crowdService(m *model.Model, probeSeed int64, extra ...serve.Option) (*serve.Service, error) {
	spec := monitor.Spec{
		Interval: 15 * time.Second,
		SLOs: []monitor.SLO{{
			Name: crowdSLO, Endpoint: "slo", Kind: monitor.LatencyQuantile,
			Target: 4 * time.Second, Window: 24 * time.Hour, Objective: 0.99,
		}},
	}
	opts := []serve.Option{
		serve.WithEndpoint("slo", m, serve.WithSLO(serve.SLOOptions{
			LatencyWeight: 0,
			Channels:      []core.ChannelKind{core.Queue, core.Memory},
			Workers:       []int{2},
			ProbeBatch:    4,
			MinRuns:       64,
			Seed:          probeSeed,
		})),
		serve.WithCoalescing(4, 0),
		serve.WithMonitor(spec),
	}
	return serve.NewService(env.NewDefault(), append(opts, extra...)...)
}

func prepareFlashCrowd(sc scale, seed int64, traced bool, sp *spans) (*prepared, error) {
	var m *model.Model
	var err error
	sp.do("model.Generate", func() { m, err = model.Generate(model.GraphChallengeSpec(256, 6, modelSeed)) })
	if err != nil {
		return nil, err
	}
	// NewService runs the planner's deploy-time probe trials, so for this
	// workload plan cost shows in setup_s as well as in the re-plan.
	var svc *serve.Service
	sp.do("serve.NewService", func() { svc, err = crowdService(m, planSeed, tracingOpt(traced)...) })
	if err != nil {
		return nil, err
	}
	trace := crowdTrace(sc.CrowdQuiet, sc.CrowdBurst, sc.CrowdTail)

	sp.do("warmup", func() {
		var wm *model.Model
		if wm, err = model.Generate(model.GraphChallengeSpec(256, 6, modelSeed+warmOffset)); err != nil {
			return
		}
		var wsvc *serve.Service
		if wsvc, err = crowdService(wm, planSeed+warmOffset); err != nil {
			return
		}
		_, err = wsvc.Replay(crowdTrace(2, sc.CrowdWarm, 2), serve.ReplayOptions{Seed: seed + inputSeedOff + warmOffset})
	})
	if err != nil {
		return nil, fmt.Errorf("warm-up: %w", err)
	}

	ropts := serve.ReplayOptions{Seed: seed + inputSeedOff, Submit: limitSubmit(crowdLimit)}
	tail := func(ls serve.LatencyStats) time.Duration { return ls.P95 }
	return &prepared{
		measure: func() (*outcome, error) {
			o, err := measureReplay(svc, "serve.Replay", sp, tail,
				func() (*serve.Report, error) { return svc.Replay(trace, ropts) })
			if err == nil {
				hashViolation(svc, o)
			}
			return o, err
		},
		verify: func(o *outcome) (int, error) {
			vsvc, err := crowdService(m, planSeed)
			if err != nil {
				return 0, err
			}
			return verifyByReplay(vsvc, trace, ropts, tail, hashViolation, o, sp)
		},
	}, nil
}

// hashViolation folds the monitor's time in SLO violation into the digest:
// it is the simulated number flash_crowd exists to produce.
func hashViolation(svc *serve.Service, o *outcome) {
	o.hashDur(svc.Monitor().TimeInViolation("slo", crowdSLO))
}
