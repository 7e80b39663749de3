package plan

import (
	"strings"
	"testing"

	"fsdinference/internal/cloud/env"
	"fsdinference/internal/cloud/pricing"
	"fsdinference/internal/core"
	"fsdinference/internal/model"
	"fsdinference/internal/wire"
)

// distributedGrid restricts planning to the queue and memory channels at
// one parallelism, the minimal grid on which the provisioned-versus-
// per-request tradeoff plays out.
func distributedGrid() Grid {
	return Grid{
		Channels: []core.ChannelKind{core.Queue, core.Memory},
		Workers:  []int{2},
	}
}

// TestPlanAmortizesMemoryIdleBilling is the idle-billing regression test
// (ROADMAP open item): a sporadic 20-queries/day workload must charge the
// memory channel its amortised node-hours — a fifth of the flat daily
// node bill per query, not one probe's 60-second share — so Memory loses
// to Queue; the same grid under a sustained volume flips back to Memory.
func TestPlanAmortizesMemoryIdleBilling(t *testing.T) {
	m := testModel(t, 256, 6)
	p, err := New(m, Options{
		Objective:        CostObjective(),
		Grid:             distributedGrid(),
		DisablePrefilter: true,
	})
	if err != nil {
		t.Fatal(err)
	}
	d, err := p.Plan(WorkloadProfile{QueriesPerDay: 20, BatchSamples: 8})
	if err != nil {
		t.Fatal(err)
	}
	if d.Best.Channel != core.Queue {
		t.Fatalf("sporadic 20/day picked %v, want queue (idle billing must price memory out)", d.Best.Channel)
	}
	var mem, queue *Trial
	for i := range d.Trials {
		switch d.Trials[i].Candidate.Channel {
		case core.Memory:
			mem = &d.Trials[i]
		case core.Queue:
			queue = &d.Trials[i]
		}
	}
	if mem == nil || queue == nil || mem.Err != nil || queue.Err != nil {
		t.Fatalf("missing trials: %+v", d.Trials)
	}
	// The scored memory cost must be the amortised daily share
	// (node-hours / 20 queries), vastly above the probe's metered share.
	wantAmortised := mem.ProbeCost - mem.KVCost + mem.NodeDailyCost/20
	if diff := mem.Cost - wantAmortised; diff > 1e-12 || diff < -1e-12 {
		t.Fatalf("memory scored cost %v, want amortised %v", mem.Cost, wantAmortised)
	}
	if mem.Cost < 10*mem.ProbeCost {
		t.Fatalf("amortised memory cost $%.4f not well above the probe share $%.4f: undercount not fixed",
			mem.Cost, mem.ProbeCost)
	}
	if mem.NodeDailyCost <= 0 {
		t.Fatal("memory trial carries no daily node bill")
	}
	if queue.Cost != queue.ProbeCost {
		t.Fatalf("queue cost %v amortised; per-request billing scales with queries as-is", queue.Cost)
	}

	// Sustained volume amortises the node below the per-request spend:
	// Replan must flip the channel and report the change.
	be := d.MemoryBreakEvenQueriesPerDay
	if be <= 20 {
		t.Fatalf("measured break-even %d should sit above the sporadic volume", be)
	}
	d2, err := p.Replan(WorkloadProfile{QueriesPerDay: 10 * be, BatchSamples: 8})
	if err != nil {
		t.Fatal(err)
	}
	if d2.Best.Channel != core.Memory {
		t.Fatalf("sustained %d/day picked %v, want memory", 10*be, d2.Best.Channel)
	}
	if !d2.Changed || d2.Previous != d.Best {
		t.Fatalf("Replan did not report the flip: changed=%v previous=%v", d2.Changed, d2.Previous)
	}
	// The batch width is unchanged, so the replan must have re-scored
	// cached measurements, not re-run simulations.
	if trialed(d2) != trialed(d) {
		t.Fatalf("replan trialed %d candidates, plan trialed %d", trialed(d2), trialed(d))
	}
	mlat, qlat := trialFor(d.Trials, core.Memory).Latency, trialFor(d2.Trials, core.Memory).Latency
	if mlat != qlat {
		t.Fatalf("cached trial re-measured: %v then %v", mlat, qlat)
	}
}

// trialed counts the candidates the pre-filter let through to a trial.
func trialed(d *Decision) int {
	n := 0
	for _, t := range d.Trials {
		if !t.Pruned {
			n++
		}
	}
	return n
}

func trialFor(trials []Trial, k core.ChannelKind) *Trial {
	for i := range trials {
		if trials[i].Candidate.Channel == k {
			return &trials[i]
		}
	}
	return nil
}

// TestPrefilterPrunesBeforeTrials: under a pure cost objective and a
// sporadic profile, the analytic pre-filter must drop the memory channel
// (idle billing below break-even) and object storage (its requests priced
// well above the queue channel's at small volumes) without paying for
// their simulated trials.
func TestPrefilterPrunesBeforeTrials(t *testing.T) {
	m := testModel(t, 256, 6)
	p, err := New(m, Options{
		Objective: CostObjective(),
		Grid: Grid{
			Channels: []core.ChannelKind{core.Queue, core.Object, core.Memory},
			Workers:  []int{2},
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	d, err := p.Plan(WorkloadProfile{QueriesPerDay: 20, BatchSamples: 8})
	if err != nil {
		t.Fatal(err)
	}
	if d.Best.Channel != core.Queue {
		t.Fatalf("picked %v, want queue", d.Best.Channel)
	}
	if d.Candidates != 3 || d.Pruned != 2 || trialed(d) != 1 {
		t.Fatalf("candidates/pruned/trialed = %d/%d/%d, want 3/2/1", d.Candidates, d.Pruned, trialed(d))
	}
	mem := trialFor(d.Trials, core.Memory)
	if !mem.Pruned || !strings.Contains(mem.PruneReason, "idle billing") {
		t.Fatalf("memory prune = %v %q", mem.Pruned, mem.PruneReason)
	}
	obj := trialFor(d.Trials, core.Object)
	if !obj.Pruned || !strings.Contains(obj.PruneReason, "cheaper") {
		t.Fatalf("object prune = %v %q", obj.Pruned, obj.PruneReason)
	}
	// The memory grid was pruned, so the decision must still carry the
	// analytic break-even for the serving layer's crossing trigger.
	if d.MemoryBreakEvenQueriesPerDay <= 20 {
		t.Fatalf("analytic break-even %d missing or below the sporadic volume", d.MemoryBreakEvenQueriesPerDay)
	}
}

// TestPrefilterKeepsGridForLatencyObjectives: cost-dominance prunes must
// not fire for a latency-driven objective — analytics price requests, not
// hops.
func TestPrefilterKeepsGridForLatencyObjectives(t *testing.T) {
	m := testModel(t, 256, 6)
	p, err := New(m, Options{
		Objective: LatencyObjective(),
		Grid:      distributedGrid(),
	})
	if err != nil {
		t.Fatal(err)
	}
	d, err := p.Plan(WorkloadProfile{QueriesPerDay: 20, BatchSamples: 8})
	if err != nil {
		t.Fatal(err)
	}
	if d.Pruned != 0 {
		t.Fatalf("latency objective pruned %d candidates: %+v", d.Pruned, d.Trials)
	}
	if d.Best.Channel != core.Memory {
		t.Fatalf("latency objective picked %v, want the memory channel (sub-ms ops)", d.Best.Channel)
	}
}

func TestReplanBeforePlanFails(t *testing.T) {
	m := testModel(t, 256, 6)
	p, err := New(m, Options{Grid: distributedGrid()})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := p.Replan(WorkloadProfile{}); err == nil {
		t.Fatal("Replan before Plan succeeded")
	}
	if p.Last() != nil {
		t.Fatal("Last() non-nil before any Plan")
	}
}

func TestKVNodeTypeGridCarriesDistinctDailyCosts(t *testing.T) {
	m := testModel(t, 256, 6)
	p, err := New(m, Options{
		Objective:        CostObjective(),
		DisablePrefilter: true,
		Grid: Grid{
			Channels:    []core.ChannelKind{core.Memory},
			Workers:     []int{2},
			KVNodeTypes: []string{"cache.t3.small", "cache.m6g.large"},
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	d, err := p.Plan(WorkloadProfile{QueriesPerDay: 1_000_000, BatchSamples: 8})
	if err != nil {
		t.Fatal(err)
	}
	if len(d.Trials) != 2 {
		t.Fatalf("trials = %d, want one per node type", len(d.Trials))
	}
	small, large := d.Trials[0], d.Trials[1]
	if small.NodeDailyCost <= 0 || small.NodeDailyCost >= large.NodeDailyCost {
		t.Fatalf("node daily costs %v vs %v: want the small node cheaper", small.NodeDailyCost, large.NodeDailyCost)
	}
	// At a volume that amortises either node, the cheaper node type wins
	// a pure cost objective.
	if d.Best.KVNodeType != "cache.t3.small" {
		t.Fatalf("picked node type %q, want cache.t3.small", d.Best.KVNodeType)
	}
	if d.Config.KVNodeType != "cache.t3.small" {
		t.Fatalf("config node type %q does not carry the pick", d.Config.KVNodeType)
	}
}

// TestMeasuredBreakEvenTakesEarliestCrossing: with several memory node
// types in the grid, the decision's break-even must be the earliest
// volume at which ANY memory candidate beats the best per-request one —
// regardless of enumeration order, a bigger node listed first must not
// inflate it.
func TestMeasuredBreakEvenTakesEarliestCrossing(t *testing.T) {
	trials := []Trial{
		{Candidate: Candidate{Channel: core.Queue, Workers: 2}, ProbeCost: 0.004},
		// Large node first: same compute share, higher daily rate.
		{Candidate: Candidate{Channel: core.Memory, Workers: 2, KVNodeType: "big"},
			ProbeCost: 0.003, KVCost: 0.002, NodeDailyCost: 4.8384},
		{Candidate: Candidate{Channel: core.Memory, Workers: 2, KVNodeType: "small"},
			ProbeCost: 0.003, KVCost: 0.002, NodeDailyCost: 0.816},
	}
	// margin = 0.004 - 0.001 = 0.003; small node crosses at 0.816/0.003+1.
	want := int64(0.816/0.003) + 1
	if got := measuredBreakEven(trials); got != want {
		t.Fatalf("break-even = %d, want the small node's earlier crossing %d", got, want)
	}
	// No per-request candidate, or memory never cheaper: no break-even.
	if got := measuredBreakEven(trials[1:]); got != 0 {
		t.Fatalf("break-even without a per-request class = %d, want 0", got)
	}
	never := []Trial{
		{Candidate: Candidate{Channel: core.Queue, Workers: 2}, ProbeCost: 0.0005},
		trials[2],
	}
	if got := measuredBreakEven(never); got != 0 {
		t.Fatalf("break-even when memory never wins = %d, want 0", got)
	}
}

func TestTrialDailyCostProjection(t *testing.T) {
	tr := Trial{ProbeCost: 0.002, KVCost: 0.0015, NodeDailyCost: 3.576}
	if got, want := tr.DailyCost(20), 0.0005*20+3.576; got != want {
		t.Fatalf("memory daily cost = %v, want %v", got, want)
	}
	req := Trial{ProbeCost: 0.0001}
	if got, want := req.DailyCost(20), 0.002; got != want {
		t.Fatalf("per-request daily cost = %v, want %v", got, want)
	}
}

func TestBreakEvenSide(t *testing.T) {
	if BreakEvenSide(10, 0) {
		t.Fatal("no break-even should have no 'above' side")
	}
	if BreakEvenSide(10, 100) {
		t.Fatal("10 < 100 reported above")
	}
	if !BreakEvenSide(100, 100) {
		t.Fatal("100 >= 100 reported below")
	}
}

// verdictFor returns PrefilterChannels' row for kind.
func verdictFor(t *testing.T, w core.Workload, kind core.ChannelKind) PruneVerdict {
	t.Helper()
	for _, v := range PrefilterChannels(w) {
		if v.Channel == kind {
			return v
		}
	}
	t.Fatalf("PrefilterChannels has no %v row", kind)
	return PruneVerdict{}
}

func TestPrefilterChannelsAnalyticVerdicts(t *testing.T) {
	w := core.Workload{
		ModelBytes:    1 << 30,
		MemOverhead:   5.5,
		InstanceCapMB: 10240,
		Workers:       8,
		Frame:         wire.Frame{Rows: 2047, Batch: 1}, // 16 KiB, one publish chunk
		PairsPerLayer: 48,
		Layers:        12,
		QueriesPerDay: 20,
	}
	if v := verdictFor(t, w, core.Queue); v.Pruned {
		t.Fatalf("queue pruned at one chunk: %q", v.Reason)
	}
	if !verdictFor(t, w, core.Object).Pruned {
		t.Fatal("object not pruned at one chunk")
	}
	if !verdictFor(t, w, core.Memory).Pruned {
		t.Fatal("memory not pruned on a sporadic 20/day workload")
	}
	// Saturating volumes flip the queue/object verdicts.
	w.Frame = wire.Frame{Rows: 2097151, Batch: 1} // 16 MiB
	w.QueriesPerDay = 1_000_000
	if !verdictFor(t, w, core.Queue).Pruned {
		t.Fatal("queue not pruned at saturating volumes")
	}
	if v := verdictFor(t, w, core.Object); v.Pruned {
		t.Fatalf("object pruned at saturating volumes: %q", v.Reason)
	}
}

// TestPrefilterChannelsAppliesFeasibilityRules: the analytic-only preview
// used to restate three of the planner's rules and omit the store's
// request-rate and capacity ceilings, so it said "trial" where the planner
// prunes. It runs the planner's rule set now, reasons included, with a row
// for every kind.
func TestPrefilterChannelsAppliesFeasibilityRules(t *testing.T) {
	w := core.Workload{
		Workers:       8,
		Frame:         wire.Frame{Rows: 8191, Batch: 1}, // 64 KiB
		PairsPerLayer: 48,
		Layers:        12,
		QueriesPerDay: 500_000_000, // ~6.9M store ops/s
	}
	mem := verdictFor(t, w, core.Memory)
	if !mem.Pruned || !strings.Contains(mem.Reason, "saturating 1 shard(s) of "+core.DefaultKVNodeType) {
		t.Fatalf("memory at a saturating op rate: %+v", mem)
	}
	w.QueriesPerDay, w.ConcurrentRuns = 1_000_000, 4096 // 48 x 64 KiB x 4096 runs = 12 GiB resident
	mem = verdictFor(t, w, core.Memory)
	if !mem.Pruned || !strings.Contains(mem.Reason, "overflows 1 shard(s)") {
		t.Fatalf("memory with an overflowing working set: %+v", mem)
	}
	verdicts := PrefilterChannels(w)
	if len(verdicts) != len(core.ChannelKinds()) {
		t.Fatalf("%d rows for %d kinds", len(verdicts), len(core.ChannelKinds()))
	}
	for i, v := range verdicts {
		if v.Channel != core.ChannelKinds()[i] {
			t.Errorf("row %d is %v, want %v", i, v.Channel, core.ChannelKinds()[i])
		}
		c := Candidate{Channel: v.Channel, Workers: w.Workers, KVNodeType: core.DefaultKVNodeType, KVNodes: 1}
		if reason, _ := analyticPrune(c, w, true, true); reason != v.Reason {
			t.Errorf("%v: preview says %q, the planner's rule %q", v.Channel, v.Reason, reason)
		}
	}
}

// TestPrefilterChannelsSerialFootprint: Serial's row applies the rule the
// planner's grid applies (its row's prediction on the footprint), the whole
// model against the full instance cap, inclusive.
func TestPrefilterChannelsSerialFootprint(t *testing.T) {
	w := core.Workload{
		ModelBytes: 30 << 20, MemOverhead: 5.5, InstanceCapMB: 10240,
		Workers: 8, Frame: wire.Frame{Rows: 1249, Batch: 1}, PairsPerLayer: 50, Layers: 120,
	}
	fits := func() bool {
		_, err := core.PredictQuery(w, core.Config{Channel: core.Serial})
		return err == nil
	}
	if v := verdictFor(t, w, core.Serial); v.Pruned {
		t.Fatalf("serial pruned for a 165 MB footprint: %q", v.Reason)
	}
	w.MemOverhead, w.ModelBytes = 1, 10240<<20 // exactly the cap
	if v := verdictFor(t, w, core.Serial); v.Pruned || !fits() {
		t.Fatalf("serial pruned at exactly the instance cap: %q", v.Reason)
	}
	w.ModelBytes++
	if v := verdictFor(t, w, core.Serial); !v.Pruned || !strings.Contains(v.Reason, "over the 10240 MB instance cap") || fits() {
		t.Fatalf("serial one byte over the cap: %+v", v)
	}
}

// TestPrefilterChannelsHybridEscapesBulkRules: per-pair values above the
// store's single-value cap rule Memory out however sustained the volume;
// Hybrid parks them in object storage, so its row is the planner's
// Hybrid rule, not Memory's. The volume stays under one node's request
// rate, which Hybrid's pointer traffic must respect too.
func TestPrefilterChannelsHybridEscapesBulkRules(t *testing.T) {
	w := core.Workload{
		ModelBytes: 4 << 30, MemOverhead: 5.5, InstanceCapMB: 10240,
		Workers: 62, Frame: wire.Frame{Rows: 100<<17 - 1, Batch: 1}, PairsPerLayer: 2000, Layers: 120, // 100 MiB
		QueriesPerDay: 10_000,
	}
	if v := verdictFor(t, w, core.Memory); !v.Pruned || !strings.Contains(v.Reason, "single-value cap") {
		t.Fatalf("memory with 100 MiB values: %+v", v)
	}
	hyb := verdictFor(t, w, core.Hybrid)
	if hyb.Pruned {
		t.Fatalf("hybrid pruned with its bulk in object storage: %q", hyb.Reason)
	}
	c := Candidate{Channel: core.Hybrid, Workers: w.Workers, KVNodeType: core.DefaultKVNodeType}
	if reason, _ := analyticPrune(c, w, true, true); reason != hyb.Reason {
		t.Fatalf("hybrid row %q, the planner's rule %q", hyb.Reason, reason)
	}
}

// TestPrefilterChannelsHybridSaturatesAsMemory: Hybrid pushes and pops one
// store value per pair per layer, inline or pointer, as Memory does, so a
// volume that saturates the node's request rate prunes both with the same
// reason, whatever the per-pair size, and a second shard relieves both.
func TestPrefilterChannelsHybridSaturatesAsMemory(t *testing.T) {
	for _, rows := range []int64{8191, 100<<17 - 1} { // 64 KiB and 100 MiB
		f := wire.Frame{Rows: rows, Batch: 1}
		bytes := f.Bytes()
		w := core.Workload{
			ModelBytes: 4 << 30, MemOverhead: 5.5, InstanceCapMB: 10240,
			Workers: 62, Frame: f, PairsPerLayer: 2000, Layers: 120,
			QueriesPerDay: 30_000,
		}
		hyb := verdictFor(t, w, core.Hybrid)
		if !hyb.Pruned || !strings.Contains(hyb.Reason, "saturating 1 shard(s)") {
			t.Fatalf("%d B per pair: hybrid at ~167k ops/s on one node: %+v", bytes, hyb)
		}
		if mem := verdictFor(t, w, core.Memory); bytes < 1<<20 && mem.Reason != hyb.Reason {
			t.Fatalf("memory %q, hybrid %q", mem.Reason, hyb.Reason)
		}
		c := Candidate{Channel: core.Hybrid, Workers: w.Workers, KVNodeType: core.DefaultKVNodeType, KVNodes: 2}
		if reason, _ := analyticPrune(c, w, true, true); strings.Contains(reason, "saturating") {
			t.Fatalf("%d B per pair: two shards still saturated: %q", bytes, reason)
		}
	}
}

// Plan under an assumed sporadic workload, observe the pruning stats,
// re-plan under a sustained one, deploy the pick, and plan one-shot (the
// weighted objective, no pre-filter, no profile beyond the probe batch).
func TestPublicPlannerPlanAndReplan(t *testing.T) {
	m, err := model.Generate(model.GraphChallengeSpec(256, 6, 1))
	if err != nil {
		t.Fatal(err)
	}
	p, err := New(m, Options{
		Objective: CostObjective(),
		Grid: Grid{
			Channels: []core.ChannelKind{core.Queue, core.Memory},
			Workers:  []int{2},
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	d, err := p.Plan(WorkloadProfile{QueriesPerDay: 20, BatchSamples: 8})
	if err != nil {
		t.Fatal(err)
	}
	if d.Best.Channel != core.Queue {
		t.Fatalf("sporadic plan picked %v, want queue", d.Best.Channel)
	}
	if d.Pruned == 0 {
		t.Fatal("analytic pre-filter pruned nothing on the sporadic cost plan")
	}
	d2, err := p.Replan(WorkloadProfile{QueriesPerDay: 200_000, BatchSamples: 8})
	if err != nil {
		t.Fatal(err)
	}
	if d2.Best.Channel != core.Memory || !d2.Changed {
		t.Fatalf("sustained replan picked %v (changed=%v), want a flip to memory", d2.Best.Channel, d2.Changed)
	}
	// The decision's config deploys and serves on a caller environment.
	dep, err := core.Deploy(env.NewDefault(), d2.Config)
	if err != nil {
		t.Fatal(err)
	}
	in := model.GenerateInputs(256, 8, 0.2, 2)
	res, err := dep.Infer(in)
	if err != nil {
		t.Fatal(err)
	}
	if !model.OutputsClose(res.Output, model.Reference(m, in), 1e-2) {
		t.Fatal("planned config produced wrong output")
	}

	oneShot, err := New(m, Options{
		Objective:        WeightedObjective(1),
		Grid:             Grid{Workers: []int{2}},
		DisablePrefilter: true,
	})
	if err != nil {
		t.Fatal(err)
	}
	sel, err := oneShot.Plan(WorkloadProfile{BatchSamples: 8})
	if err != nil {
		t.Fatal(err)
	}
	if sel.Best.Channel != core.Serial {
		t.Fatalf("latency-weighted one-shot plan picked %v, want serial for a model this small", sel.Best.Channel)
	}
}

// BenchmarkPlanner measures one full Plan/Replan cycle of the
// workload-aware planner: analytic pre-filter, probe trials for the
// surviving candidates, then a re-plan under a sustained profile that
// must re-score cached measurements rather than re-simulate.
func BenchmarkPlanner(b *testing.B) {
	m, err := model.Generate(model.GraphChallengeSpec(256, 6, 1))
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		p, err := New(m, Options{
			Objective: CostObjective(),
			Grid: Grid{
				Channels: []core.ChannelKind{core.Queue, core.Memory},
				Workers:  []int{2},
			},
		})
		if err != nil {
			b.Fatal(err)
		}
		d, err := p.Plan(WorkloadProfile{QueriesPerDay: 20, BatchSamples: 8})
		if err != nil {
			b.Fatal(err)
		}
		d2, err := p.Replan(WorkloadProfile{QueriesPerDay: 200_000, BatchSamples: 8})
		if err != nil {
			b.Fatal(err)
		}
		if d.Best.Channel == d2.Best.Channel {
			b.Fatalf("replan did not flip the channel: %v", d.Best.Channel)
		}
	}
}

// TestPlanNeedsAProbeSample: a profile of no samples per run is an error,
// not a trial of empty probes.
func TestPlanNeedsAProbeSample(t *testing.T) {
	p, err := New(testModel(t, 256, 2), Options{Grid: distributedGrid()})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := p.Plan(WorkloadProfile{QueriesPerDay: 100}); err == nil || !strings.Contains(err.Error(), "batch width 0") {
		t.Fatalf("Plan without a batch width = %v, want an error naming it", err)
	}
}

// TestWeightedObjectiveClampsItsWeight: a latency weight outside [0,1]
// scores as the nearer end.
func TestWeightedObjectiveClampsItsWeight(t *testing.T) {
	for _, tc := range []struct{ in, want float64 }{{-0.5, 0}, {0.25, 0.25}, {3, 1}} {
		if got := WeightedObjective(tc.in).(weighted).w; got != tc.want {
			t.Errorf("WeightedObjective(%v) weighs latency %v, want %v", tc.in, got, tc.want)
		}
	}
}

// TestCandidateString: Serial is named alone; a store candidate lists the
// node type, shards and replicas that differ from the single default node.
func TestCandidateString(t *testing.T) {
	for _, tc := range []struct {
		c    Candidate
		want string
	}{
		{Candidate{Channel: core.Serial, Workers: 1}, "FSD-Inf-Serial"},
		{Candidate{Channel: core.Queue, Workers: 8}, "FSD-Inf-Queue x8"},
		{Candidate{Channel: core.Memory, Workers: 8, KVNodeType: core.DefaultKVNodeType, KVNodes: 1}, "FSD-Inf-Memory x8"},
		{Candidate{Channel: core.Memory, Workers: 8, KVNodeType: "cache.r6g.large", KVNodes: 2, KVReplicas: 1}, "FSD-Inf-Memory x8 (cache.r6g.large, 2 shards, R=1)"},
	} {
		if got := tc.c.String(); got != tc.want {
			t.Errorf("%+v renders %q, want %q", tc.c, got, tc.want)
		}
	}
}

// TestPrefilterTrialsSerial: the pre-filter never prunes a Serial
// candidate; the grid admitted it only if the model fits one instance.
func TestPrefilterTrialsSerial(t *testing.T) {
	p, err := New(testModel(t, 256, 2), Options{Objective: CostObjective()})
	if err != nil {
		t.Fatal(err)
	}
	reason, breakEven, err := p.prefilter(Candidate{Channel: core.Serial, Workers: 1}, WorkloadProfile{QueriesPerDay: 1e9, BatchSamples: 8})
	if reason != "" || breakEven != 0 || err != nil {
		t.Fatalf("prefilter(Serial) = %q, %d, %v; want a trial", reason, breakEven, err)
	}
}

// The verdicts below are PrefilterChannels' on paper-scale workloads: a
// 4 GiB model that no single instance holds, so Serial is pruned.

// moderate is 42 workers exchanging 100 KiB per pair per layer.
func moderate(queriesPerDay int64) core.Workload {
	return core.Workload{
		ModelBytes: 4 << 30, MemOverhead: 5.5, InstanceCapMB: 10240,
		Workers: 42, Frame: wire.Frame{Rows: 12799, Batch: 1}, PairsPerLayer: 500, Layers: 120, // 100 KiB
		QueriesPerDay: queriesPerDay,
	}
}

func TestPrefilterChannelsKeepQueueAtModerateVolumes(t *testing.T) {
	w := moderate(0)
	if v := verdictFor(t, w, core.Queue); v.Pruned {
		t.Fatalf("queue pruned at 100 KiB per pair: %q", v.Reason)
	}
	if v := verdictFor(t, w, core.Object); !v.Pruned || !strings.Contains(v.Reason, "cheaper") {
		t.Fatalf("object at 100 KiB per pair: %+v", v)
	}
	if v := verdictFor(t, w, core.Serial); !v.Pruned {
		t.Fatal("serial kept for a 22 GB footprint")
	}
}

func TestPrefilterChannelsKeepObjectAtHugeVolumes(t *testing.T) {
	w := core.Workload{
		ModelBytes: 4 << 30, MemOverhead: 5.5, InstanceCapMB: 10240,
		Workers: 62, Frame: wire.Frame{Rows: 8<<20 - 1, Batch: 1}, PairsPerLayer: 2000, Layers: 120, // 64 MiB
	}
	if v := verdictFor(t, w, core.Object); v.Pruned {
		t.Fatalf("object pruned at 64 MiB per pair: %q", v.Reason)
	}
	if v := verdictFor(t, w, core.Queue); !v.Pruned || !strings.Contains(v.Reason, "cheaper") {
		t.Fatalf("queue at 64 MiB per pair: %+v", v)
	}
}

func TestPrefilterChannelsKeepMemoryUnderSustainedVolume(t *testing.T) {
	// 20 000 queries/day is far above the provisioned node's break-even
	// and, at ~28 000 store ops/s, under one node's request ceiling
	// (200 000/day would saturate it).
	w := moderate(20_000)
	if be := StoreBreakEven(w, core.Config{Channel: core.Memory}); w.QueriesPerDay <= be {
		t.Fatalf("break-even %d/day is not below %d/day", be, w.QueriesPerDay)
	}
	if v := verdictFor(t, w, core.Memory); v.Pruned {
		t.Fatalf("memory pruned under sustained load: %q", v.Reason)
	}
}

func TestPrefilterChannelsPruneMemoryForSporadicVolume(t *testing.T) {
	// One query a day: the node bills while idle, far below its
	// break-even; the queue stays in and the verdict says why memory lost.
	w := moderate(1)
	if v := verdictFor(t, w, core.Memory); !v.Pruned || !strings.Contains(v.Reason, "idle billing") {
		t.Fatalf("memory at 1 query/day: %+v", v)
	}
	if v := verdictFor(t, w, core.Queue); v.Pruned {
		t.Fatalf("queue pruned on the sporadic trace: %q", v.Reason)
	}
}

// TestMemoryBreakEvenSeparatesRegimes: above the break-even the store's
// flat daily bill undercuts the cheapest request-billed kind's, below it
// the store is dearer.
func TestMemoryBreakEvenSeparatesRegimes(t *testing.T) {
	w := moderate(0)
	store := core.Config{Channel: core.Memory}
	be := StoreBreakEven(w, store)
	if be <= 0 {
		t.Fatalf("break-even = %d", be)
	}
	daily := core.StoreDailyCost(store, pricing.Default())
	_, perQuery := cheapestRequests(w)
	if daily >= perQuery*float64(be*2) {
		t.Fatal("memory not cheaper above break-even")
	}
	if daily <= perQuery*float64(be/2) {
		t.Fatal("memory not dearer below break-even")
	}
}
