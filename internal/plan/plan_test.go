package plan

import (
	"strings"
	"testing"
	"time"

	"fsdinference/internal/core"
	"fsdinference/internal/cost"
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
	if d2.Trialed != d.Trialed {
		t.Fatalf("replan trialed %d candidates, plan trialed %d", d2.Trialed, d.Trialed)
	}
	mlat, qlat := trialFor(d.Trials, core.Memory).Latency, trialFor(d2.Trials, core.Memory).Latency
	if mlat != qlat {
		t.Fatalf("cached trial re-measured: %v then %v", mlat, qlat)
	}
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
// (idle billing below break-even) and object storage (volumes within one
// publish chunk) without paying for their simulated trials.
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
	if d.Candidates != 3 || d.Pruned != 2 || d.Trialed != 1 {
		t.Fatalf("candidates/pruned/trialed = %d/%d/%d, want 3/2/1", d.Candidates, d.Pruned, d.Trialed)
	}
	mem := trialFor(d.Trials, core.Memory)
	if !mem.Pruned || !strings.Contains(mem.PruneReason, "idle billing") {
		t.Fatalf("memory prune = %v %q", mem.Pruned, mem.PruneReason)
	}
	obj := trialFor(d.Trials, core.Object)
	if !obj.Pruned || !strings.Contains(obj.PruneReason, "publish chunk") {
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

// TestDeadlineObjectiveSelectsCheapestFeasible: the deadline objective
// must rank by cost among candidates meeting the deadline, and fall back
// to the fastest candidate when nothing does.
func TestDeadlineObjectiveSelectsCheapestFeasible(t *testing.T) {
	m := testModel(t, 256, 6)
	grid := Grid{
		Channels: []core.ChannelKind{core.Queue, core.Memory},
		Workers:  []int{2},
	}
	run := func(deadline time.Duration) *Decision {
		t.Helper()
		p, err := New(m, Options{Objective: DeadlineObjective(deadline), Grid: grid})
		if err != nil {
			t.Fatal(err)
		}
		d, err := p.Plan(WorkloadProfile{BatchSamples: 8})
		if err != nil {
			t.Fatal(err)
		}
		return d
	}
	// Both channels answer a probe within 10s; queue is the cheaper
	// feasible candidate.
	if d := run(10 * time.Second); d.Best.Channel != core.Queue {
		t.Fatalf("loose deadline picked %v, want the cheaper queue", d.Best.Channel)
	}
	// The memory trial is measurably faster than queue; pick a deadline
	// between the two latencies so only memory is feasible.
	d := run(10 * time.Second)
	mlat := trialFor(d.Trials, core.Memory).Latency
	qlat := trialFor(d.Trials, core.Queue).Latency
	if mlat >= qlat {
		t.Fatalf("memory %v not faster than queue %v; test premise broken", mlat, qlat)
	}
	mid := mlat + (qlat-mlat)/2
	if d := run(mid); d.Best.Channel != core.Memory {
		t.Fatalf("tight deadline %v picked %v, want the only feasible memory", mid, d.Best.Channel)
	}
	// An impossible deadline falls back to the fastest candidate.
	if d := run(time.Millisecond); d.Best.Channel != core.Memory {
		t.Fatalf("impossible deadline picked %v, want the fastest candidate", d.Best.Channel)
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

func TestPrefilterChannelsAnalyticVerdicts(t *testing.T) {
	w := cost.Workload{
		ModelBytes:           1 << 30,
		MemOverhead:          5.5,
		InstanceCapMB:        10240,
		Workers:              8,
		BytesPerPairPerLayer: 16 << 10, // one publish chunk
		PairsPerLayer:        48,
		Layers:               12,
		QueriesPerDay:        20,
	}
	verdicts := PrefilterChannels(w)
	byChan := map[core.ChannelKind]PruneVerdict{}
	for _, v := range verdicts {
		byChan[v.Channel] = v
	}
	if byChan[core.Queue].Pruned {
		t.Fatalf("queue pruned at one chunk: %q", byChan[core.Queue].Reason)
	}
	if !byChan[core.Object].Pruned {
		t.Fatal("object not pruned at one chunk")
	}
	if !byChan[core.Memory].Pruned {
		t.Fatal("memory not pruned on a sporadic 20/day workload")
	}
	// Saturating volumes flip the queue/object verdicts.
	w.BytesPerPairPerLayer = 16 << 20
	w.QueriesPerDay = 1_000_000
	verdicts = PrefilterChannels(w)
	byChan = map[core.ChannelKind]PruneVerdict{}
	for _, v := range verdicts {
		byChan[v.Channel] = v
	}
	if !byChan[core.Queue].Pruned {
		t.Fatal("queue not pruned at saturating volumes")
	}
	if byChan[core.Object].Pruned {
		t.Fatalf("object pruned at saturating volumes: %q", byChan[core.Object].Reason)
	}
}

// TestPrefilterChannelsAppliesFeasibilityRules: the analytic-only preview
// used to restate three of the planner's rules and omit the store's
// request-rate and capacity ceilings, so it said "trial" where the planner
// prunes. It runs the planner's rule set now, reasons included.
func TestPrefilterChannelsAppliesFeasibilityRules(t *testing.T) {
	w := cost.Workload{
		Workers:              8,
		BytesPerPairPerLayer: 64 << 10,
		PairsPerLayer:        48,
		Layers:               12,
		QueriesPerDay:        500_000_000, // ~6.9M store ops/s
	}
	mem := PrefilterChannels(w)[2]
	if mem.Channel != core.Memory || !mem.Pruned || !strings.Contains(mem.Reason, "saturating 1 shard(s) of "+core.DefaultKVNodeType) {
		t.Fatalf("memory at a saturating op rate: %+v", mem)
	}
	w.QueriesPerDay, w.ConcurrentRuns = 1_000_000, 4096 // 48 x 64 KiB x 4096 runs = 12 GiB resident
	mem = PrefilterChannels(w)[2]
	if !mem.Pruned || !strings.Contains(mem.Reason, "overflows 1 shard(s)") {
		t.Fatalf("memory with an overflowing working set: %+v", mem)
	}
	for _, v := range PrefilterChannels(w) {
		c := Candidate{Channel: v.Channel, Workers: w.Workers, KVNodeType: core.DefaultKVNodeType, KVNodes: 1}
		if reason, _ := analyticPrune(c, w, true, true); reason != v.Reason {
			t.Errorf("%v: preview says %q, the planner's rule %q", v.Channel, v.Reason, reason)
		}
	}
}
