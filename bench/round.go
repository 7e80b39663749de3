package main

import (
	"bytes"
	"fmt"
	"math"
	"runtime"
	"runtime/pprof"
	"time"

	"fsdinference/internal/cloud/usage"
	"fsdinference/internal/obs"
)

// metricDef names one reported metric. BENCHMARK.json carries the same
// table; the smoke test keeps the two in step.
type metricDef struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound"`
	// Exact marks a metric that is a pure function of -seed: -compare
	// treats any move at one seed as a model change, whatever the bound.
	Exact bool `json:"exact,omitempty"`
	// Best marks a host-time metric: its value over the rounds of a run is
	// the best round, not the median. On the shared sandbox, interference
	// comes in episodes of up to a minute that slow memory-bound work by
	// up to a half while a pure ALU loop keeps its speed; it only ever
	// adds time, so the least disturbed round is the steadiest estimate of
	// what the code costs (over 17 groups of three rounds of
	// replay_sporadic: quartile spread of the medians 12%, of the minima
	// 7%). Quartiles over all rounds are still reported next to it.
	Best bool `json:"best,omitempty"`
}

// endToEnd are the ten metrics a user of the system sees, the same names
// on every workload. Units say which clock a number is on: sim_ms is
// simulated time, s and 1/s are host time.
//
// The sim_* metrics and ok_share are deterministic in -seed, so between
// two commits at one seed any difference is a model change; their bounds
// only absorb the spread across seeds. The host metrics carry the noise
// of a small shared machine. Except for wall_qps every bound is at least
// three times the widest quartile spread seen over ten seeds. wall_qps
// and setup_s have the largest bound the contract allows, because the
// sandbox has slow episodes that no estimator over a 20-second run
// escapes when the whole run falls inside one. For anything finer use
// the full mode's interleaved rounds and -compare.
var endToEnd = []metricDef{
	{Name: "sim_p50_ms", Unit: "sim_ms", Better: "lower", Bound: 0.01, Exact: true},
	{Name: "sim_tail_ms", Unit: "sim_ms", Better: "lower", Bound: 0.01, Exact: true},
	{Name: "sim_cost_usd_per_kq", Unit: "usd/kq", Better: "lower", Bound: 0.01, Exact: true},
	{Name: "ok_share", Unit: "share", Better: "higher", Bound: 0.001, Exact: true},
	{Name: "sim_in_limit_share", Unit: "share", Better: "higher", Bound: 0.02, Exact: true},
	{Name: "wall_qps", Unit: "1/s", Better: "higher", Bound: 0.25, Best: true},
	{Name: "alloc_kb_per_query", Unit: "kB", Better: "lower", Bound: 0.04},
	{Name: "mallocs_per_query", Unit: "count", Better: "lower", Bound: 0.02},
	{Name: "peak_rss_mb", Unit: "MB", Better: "lower", Bound: 0.10},
	{Name: "setup_s", Unit: "s", Better: "lower", Bound: 0.25, Best: true},
}

// profileHz is the CPU profile's sampling rate in the traced round.
const profileHz = 500

// roundResult is one round of one workload: one set-up, one measured
// phase, one verification, in a process of its own.
type roundResult struct {
	Workload string             `json:"workload"`
	Seed     int64              `json:"seed"`
	Traced   bool               `json:"traced"`
	Queries  int                `json:"queries"`
	Failed   int                `json:"failed"` // failed + shed
	Late     int                `json:"late"`   // completed past the latency limit
	Wrong    int                `json:"wrong"`  // outputs that differ from model.Reference
	Metrics  map[string]float64 `json:"metrics"`
	Digest   string             `json:"sim_digest"`
	MeasureS float64            `json:"measure_s"`

	// Traced round only.
	Layer   map[string]float64 `json:"layer,omitempty"`
	Profile *profileFold       `json:"profile,omitempty"`
	Spans   *spans             `json:"harness_spans,omitempty"`
}

// minProfileSamples is how many CPU samples the host_share.* split wants
// under it; maxTracedRounds caps the traced rounds pooled to get there.
// The measured phases last from half a second to three and the kernel's
// timer tick delivers under 400 samples a second, so one flash_crowd
// round folds some 130 samples into eighteen layers.
const (
	minProfileSamples = 800
	maxTracedRounds   = 6
)

// poolTraced merges the traced rounds of one run into one: the simulated
// numbers (equal in all of them, by sim_digest) and harness spans are the
// first round's, the CPU profiles are summed before they are turned into
// shares, and the measured wall is the best round's (see metricDef.Best).
func poolTraced(rounds []*roundResult) (*roundResult, error) {
	pooled := *rounds[0]
	pooled.Profile = &profileFold{Deepest: map[string]int64{}, Under: map[string]int64{}}
	pooled.Layer = map[string]float64{}
	for k, v := range rounds[0].Layer {
		pooled.Layer[k] = v
	}
	var walls []float64
	for _, r := range rounds {
		if r.Digest != pooled.Digest {
			return nil, fmt.Errorf("%s: traced rounds disagree on sim_digest (%s vs %s)", r.Workload, r.Digest[:12], pooled.Digest[:12])
		}
		pooled.Profile.add(r.Profile)
		walls = append(walls, r.MeasureS)
	}
	pooled.MeasureS = minOf(walls)
	pooled.Profile.metrics(pooled.Layer)
	return &pooled, nil
}

// runRound runs one round in this process. The caller guarantees the
// process has not touched the program under test before (the child
// mode), or accepts warm memos (the smoke test).
func runRound(def *workloadDef, sc scale, seed int64, traced bool) (*roundResult, error) {
	var sp *spans
	if traced {
		sp = &spans{}
	}
	var prep *prepared
	var err error
	sp.do("setup", func() { prep, err = def.prepare(sc, seed, traced, sp) })
	if err != nil {
		return nil, fmt.Errorf("%s: set-up: %w", def.name, err)
	}
	// Start the measured phase from a collected heap, so set-up garbage
	// does not decide when the first measured GC cycle lands.
	runtime.GC()

	var prof bytes.Buffer
	if traced {
		// Setting the rate first makes StartCPUProfile's own attempt to
		// set 100 Hz a no-op (it logs one line to stderr). The kernel's
		// timer tick caps what is delivered at under 400 Hz.
		runtime.SetCPUProfileRate(profileHz)
		if err := pprof.StartCPUProfile(&prof); err != nil {
			return nil, fmt.Errorf("%s: cpu profile: %w", def.name, err)
		}
	}
	setupS := float64(hostSince(procStart)) / 1e9
	mem0 := readMem()
	t0 := hostNow()
	var o *outcome
	sp.do("measure", func() { o, err = prep.measure() })
	measureNS := hostSince(t0)
	mem := readMem().sub(mem0)
	if traced {
		pprof.StopCPUProfile()
	}
	rss := peakRSSMB()
	if err != nil {
		return nil, fmt.Errorf("%s: measured phase: %w", def.name, err)
	}
	if o.queries == 0 {
		return nil, fmt.Errorf("%s: measured phase submitted no query", def.name)
	}

	var wrong int
	sp.do("verify", func() { wrong, err = prep.verify(o) })
	if err != nil {
		return nil, fmt.Errorf("%s: verification: %w", def.name, err)
	}

	q := float64(o.queries)
	bad := float64(o.failed + wrong)
	r := &roundResult{
		Workload: def.name, Seed: seed, Traced: traced,
		Queries: o.queries, Failed: o.failed, Late: o.late, Wrong: wrong,
		Digest:   fmt.Sprintf("%x", o.digest.Sum(nil)),
		MeasureS: float64(measureNS) / 1e9,
		Metrics: map[string]float64{
			"sim_p50_ms":          float64(o.p50) / float64(time.Millisecond),
			"sim_tail_ms":         float64(o.tail) / float64(time.Millisecond),
			"sim_cost_usd_per_kq": o.costUSD / q * 1000,
			"ok_share":            1 - bad/q,
			"sim_in_limit_share":  math.Max(0, 1-(bad+float64(o.late))/q), // a wrong query may also be late
			"wall_qps":            q / (float64(measureNS) / 1e9),
			"alloc_kb_per_query":  float64(mem.allocBytes) / 1024 / q,
			"mallocs_per_query":   float64(mem.mallocs) / q,
			"peak_rss_mb":         rss,
			"setup_s":             setupS,
		},
	}
	if traced {
		r.Spans = sp
		samples, err := decodeProfile(prof.Bytes())
		if err != nil {
			return nil, fmt.Errorf("%s: %w", def.name, err)
		}
		r.Profile = foldProfile(samples)
		r.Layer = attribution(o)
	}
	return r, nil
}

// simCounts are the exact simulated-service counts the traced round
// reports, accumulated from usage.Meter windows (one per replay, or one
// per Deploy leg).
type simCounts struct {
	sqsCalls, snsBilled, s3Calls, kvOps, faasGBs, wireBytes float64
}

func (c *simCounts) add(u usage.Meter) {
	c.sqsCalls += float64(u.SQSReceiveCalls + u.SQSDeleteCalls + u.SQSSendCalls)
	c.snsBilled += float64(u.SNSBilledPublishes)
	c.s3Calls += float64(u.S3PutCalls + u.S3GetCalls + u.S3ListCalls)
	c.kvOps += float64(u.KVOps)
	c.faasGBs += u.LambdaGBSeconds
	c.wireBytes += float64(u.SNSDeliveredBytes + u.S3BytesIn + u.KVBytesIn)
}

// attribution derives the simulated per-layer numbers that belong to the
// traced workload itself: what the simulated services were asked to do
// (usage.Meter) and where the simulated time went (the program's own
// tracer). Where the host time went is the CPU profile's part (pprof.go).
func attribution(o *outcome) map[string]float64 {
	out := map[string]float64{}

	q := float64(o.queries)
	c := o.counts
	out["cloud.sqs.sim_calls_per_q"] = c.sqsCalls / q
	out["cloud.sns.sim_billed_per_q"] = c.snsBilled / q
	out["cloud.s3.sim_calls_per_q"] = c.s3Calls / q
	out["cloud.kv.sim_ops_per_q"] = c.kvOps / q
	out["cloud.faas.sim_gb_s_per_q"] = c.faasGBs / q
	out["wire.sim_bytes_per_q"] = c.wireBytes / q

	var cold, warm float64
	var runs, runSamples, replicaS float64
	for _, rep := range o.reports {
		cold += float64(rep.ColdStarts)
		warm += float64(rep.WarmStarts)
		for _, ep := range rep.Endpoints {
			runs += float64(ep.Runs)
			runSamples += ep.AvgRunSamples * float64(ep.Runs)
			replicaS += ep.ReplicaSeconds
		}
	}
	for _, res := range o.results {
		for _, w := range res.Workers {
			if w.Warm {
				warm++
			} else {
				cold++
			}
		}
	}
	out["cloud.faas.sim_cold_share"] = ratio(cold, cold+warm)
	out["serve.sim_runs_per_kq"] = runs / q * 1000
	out["serve.sim_run_samples"] = ratio(runSamples, runs)
	out["serve.sim_replica_s_per_q"] = replicaS / q

	// Simulated-time spans from the program's existing tracer: engine op
	// spans are averaged per worker per run, serving phases per request.
	sum := map[string]time.Duration{}
	var nSpans, nWorkers, nRequests float64
	for _, tr := range o.tracers {
		for _, s := range tr.Spans() {
			nSpans++
			switch s.Kind {
			case obs.KindWorker:
				nWorkers++
			case obs.KindRequest:
				nRequests++
			case obs.KindOp, obs.KindPhase:
				sum[s.Name] += s.End - s.Start
			}
		}
	}
	for _, op := range []string{"load", "layer", "send", "recv", "barrier", "gather"} {
		out["core.simspan."+op+"_ms"] = ratio(float64(sum[op])/float64(time.Millisecond), nWorkers)
	}
	for _, ph := range []string{"coalesce", "queue"} {
		out["serve.simspan."+ph+"_ms"] = ratio(float64(sum[ph])/float64(time.Millisecond), nRequests)
	}
	out["obs.spans_per_q"] = nSpans / q
	return out
}

func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}
