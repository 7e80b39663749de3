// Package plan implements workload-aware configuration planning — the
// extension the paper names in §VI-D1 ("automatic runtime selection of
// the optimal configuration for specific workloads, given latency and
// cost priorities") grown into one subsystem. A Planner enumerates
// candidate deployments over the four communication channels, a worker
// grid and the provisioned-store node catalogue, prunes the grid with the
// §IV analytic cost model before paying for simulated trials, measures
// the survivors with probe runs, and ranks them under a pluggable
// Objective.
//
// The decisive difference from the one-shot AutoSelect it replaces is the
// WorkloadProfile: Plan and Replan score the memory channel's flat
// node-hour bill amortised over the profile's observed daily query
// volume, instead of charging one probe's share — so a sporadic caller
// sees the idle billing that made the paper rule provisioned stores out
// (§II-D), and a sustained caller sees the amortised rate that makes them
// win. The serving layer's scheduler emits live profiles and feeds them
// back through Replan when the observed arrival rate crosses the measured
// break-even, closing the selection loop at runtime.
package plan

import (
	"fmt"
	"strings"
	"time"

	"fsdinference/internal/cloud/env"
	"fsdinference/internal/collective"
	"fsdinference/internal/core"
	"fsdinference/internal/model"
	"fsdinference/internal/partition"
)

// WorkloadProfile describes the workload a configuration must serve. A
// zero profile means "unknown workload" and reproduces the legacy
// one-shot AutoSelect scoring exactly.
type WorkloadProfile struct {
	// QueriesPerDay is the observed or expected daily query volume; 0
	// means unknown. When set, the memory channel's node-hours are
	// amortised over it during scoring, so idle billing is charged to
	// sporadic workloads instead of being hidden behind one probe's
	// share.
	QueriesPerDay int64
	// BatchSamples is the representative engine-run batch width; it
	// sizes the probe input used for simulated trials (default 32).
	BatchSamples int
	// Concurrency is the peak number of engine runs in flight at once
	// (the serving layer's observed MaxConcurrentRuns; 0 means one).
	// Overlapping runs multiply the provisioned store's resident working
	// set, so it drives the analytic node-capacity feasibility rule.
	Concurrency int
	// ArrivalRate is the request arrival rate in requests/second (an
	// EWMA when emitted by the serving layer). Informational: recorded
	// on the decision, not scored directly.
	ArrivalRate float64
	// Burstiness is the peak-to-mean arrival-rate ratio (informational).
	Burstiness float64
}

func (p WorkloadProfile) withDefaults() WorkloadProfile {
	if p.BatchSamples <= 0 {
		p.BatchSamples = 32
	}
	return p
}

// Candidate is one configuration the planner considers.
type Candidate struct {
	Channel core.ChannelKind
	Workers int // 1 for serial
	// KVNodeType is the provisioned store node type (Memory and Hybrid
	// channels only; empty otherwise).
	KVNodeType string
	// KVNodes is the provisioned cluster's primary shard count (Memory
	// and Hybrid channels only; 0 means the single-node default).
	// Sharding buys aggregate request-rate and bandwidth headroom at
	// extra node-hours.
	KVNodes int
	// KVReplicas is the replica count per shard (Memory and Hybrid
	// channels only; 0 means none). Replicas buy failover behaviour at
	// extra node-hours: the availability-versus-cost axis.
	KVReplicas int
	// Algo is the collective topology the deployment runs its barrier
	// and reduce phases with; the zero value is the flat legacy
	// topology, AutoAlgo defers to the per-call analytic picker.
	Algo collective.Algorithm
}

// usesKVStore reports whether the candidate provisions the in-memory
// store (and therefore bills node-hours): the memory channel and the
// hybrid channel's control plane.
func (c Candidate) usesKVStore() bool {
	return c.Channel == core.Memory || c.Channel == core.Hybrid
}

// clusterNodes returns the candidate's total provisioned node count.
func (c Candidate) clusterNodes() int {
	if !c.usesKVStore() {
		return 0
	}
	shards := c.KVNodes
	if shards < 1 {
		shards = 1
	}
	return shards * (1 + c.KVReplicas)
}

// String renders the candidate for tables and reports.
func (c Candidate) String() string {
	if c.Channel == core.Serial {
		return c.Channel.String()
	}
	s := fmt.Sprintf("%v x%d", c.Channel, c.Workers)
	if c.usesKVStore() {
		var extras []string
		if c.KVNodeType != "" && c.KVNodeType != core.DefaultKVNodeType {
			extras = append(extras, c.KVNodeType)
		}
		if c.KVNodes > 1 {
			extras = append(extras, fmt.Sprintf("%d shards", c.KVNodes))
		}
		if c.KVReplicas > 0 {
			extras = append(extras, fmt.Sprintf("R=%d", c.KVReplicas))
		}
		if len(extras) > 0 {
			s += " (" + strings.Join(extras, ", ") + ")"
		}
	}
	if c.Algo != collective.Flat {
		s += " [" + c.Algo.String() + "]"
	}
	return s
}

// Trial is one candidate's evaluation: a pruned analytic verdict, or a
// measured probe run with its objective score.
type Trial struct {
	Candidate Candidate
	// Latency and ProbeCost are the probe run's measured latency and
	// metered cost (one query's worth, exactly what the legacy
	// AutoSelect scored).
	Latency   time.Duration
	ProbeCost float64
	// Cost is the per-query cost the objective scored: ProbeCost when
	// the profile carries no daily volume; otherwise the memory
	// channel's provisioned node-hours are replaced by their amortised
	// daily share (NodeDailyCost / QueriesPerDay).
	Cost float64
	// KVCost is the provisioned-store share of ProbeCost and
	// NodeDailyCost the candidate's flat daily node bill — both 0 for
	// the per-request channels.
	KVCost        float64
	NodeDailyCost float64
	// Score is the objective value (lower wins); meaningful only for
	// successful measured trials.
	Score float64
	// Pruned marks candidates the analytic pre-filter rejected without
	// paying for a simulated trial; PruneReason says why.
	Pruned      bool
	PruneReason string
	Err         error
}

// DailyCost projects the candidate's daily spend at a query volume from
// its trial: per-request billing scales linearly with queries, the
// provisioned node bills flat.
func (t Trial) DailyCost(queriesPerDay int64) float64 {
	return (t.ProbeCost-t.KVCost)*float64(queriesPerDay) + t.NodeDailyCost
}

// Grid bounds the candidate enumeration.
type Grid struct {
	// Channels lists the channels to consider (default: all four;
	// serial only when the model fits one instance).
	Channels []core.ChannelKind
	// Workers lists the parallelism levels for distributed channels
	// (default 8, 20, 42, 62 — the paper's grid).
	Workers []int
	// KVNodeTypes lists the provisioned-store node sizes to consider
	// for Memory candidates (default: the catalogue's default node).
	KVNodeTypes []string
	// KVNodes lists cluster shard counts to explore for Memory
	// candidates (default: just the single node). Sharding relieves a
	// saturated per-node request-rate ceiling at extra node-hours.
	KVNodes []int
	// KVReplicas lists per-shard replica counts to explore for Memory
	// candidates (default: none). Replicas cut failover loss at extra
	// node-hours.
	KVReplicas []int
	// Collectives lists the collective topologies to explore for
	// distributed candidates (default: just the flat legacy topology, so
	// the grid size is unchanged). Adding collective.Tree / Ring /
	// AutoAlgo fans every distributed candidate over them.
	Collectives []collective.Algorithm
}

func (g Grid) withDefaults() Grid {
	if len(g.Channels) == 0 {
		g.Channels = []core.ChannelKind{core.Serial, core.Queue, core.Object, core.Memory}
	}
	if len(g.Workers) == 0 {
		g.Workers = []int{8, 20, 42, 62}
	}
	if len(g.KVNodeTypes) == 0 {
		g.KVNodeTypes = []string{core.DefaultKVNodeType}
	}
	if len(g.KVNodes) == 0 {
		g.KVNodes = []int{1}
	}
	if len(g.KVReplicas) == 0 {
		g.KVReplicas = []int{0}
	}
	if len(g.Collectives) == 0 {
		g.Collectives = []collective.Algorithm{collective.Flat}
	}
	return g
}

// hasSingleNode reports whether the grid still contains the plain
// single-node, replica-free memory variant — the baseline the
// cost-dominance prune compares sharded/replicated candidates against.
func (g Grid) hasSingleNode() bool {
	one, zero := false, false
	for _, n := range g.KVNodes {
		if n <= 1 {
			one = true
		}
	}
	for _, r := range g.KVReplicas {
		if r == 0 {
			zero = true
		}
	}
	return one && zero
}

// Options configures a Planner.
type Options struct {
	// Objective ranks candidates (default WeightedObjective(0.5)).
	Objective Objective
	// Grid bounds the candidate enumeration.
	Grid Grid
	// DisablePrefilter skips the analytic pre-filter and trials every
	// enumerated candidate — the legacy AutoSelect behaviour.
	DisablePrefilter bool
	// Scheme is the partitioning used for trial plans. The default is
	// Block, matching the legacy AutoSelect's behaviour, so the golden
	// pick grid recorded from it still holds.
	Scheme partition.Scheme
	// Seed drives probe generation and plan construction (default 1).
	Seed int64
	// NewEnv supplies fresh scratch environments for trials (default
	// env.NewDefault).
	NewEnv func() *env.Env
	// DeployOverride mutates every candidate configuration after
	// assembly — both trial deployments and the decision's returned
	// Config — mirroring serve.WithDeployOverride (threads, polling,
	// failover windows).
	DeployOverride func(*core.Config)
}

// Planner selects deployment configurations for one model. It caches
// partition plans and trial measurements across Plan/Replan calls, so a
// re-plan under a new profile re-scores cached measurements instead of
// re-running simulations (only a changed probe batch re-trials).
type Planner struct {
	m    *model.Model
	opts Options

	plans  map[int]*partition.Plan
	trials map[trialKey]measurement
	last   *Decision
}

type trialKey struct {
	c     Candidate
	batch int
}

// measurement is one cached probe run.
type measurement struct {
	latency   time.Duration
	cost      float64
	kvCost    float64
	nodeDaily float64
	err       error
}

// Decision reports one Plan or Replan outcome.
type Decision struct {
	Best   Candidate
	Config core.Config
	// Trials lists every enumerated candidate in order: pruned ones
	// carry their analytic verdict, the rest their measurements and
	// scores.
	Trials []Trial
	// Profile is the workload the decision was scored under.
	Profile WorkloadProfile
	// Objective names the ranking objective.
	Objective string
	// Candidates, Trialed and Pruned summarise how much of the grid the
	// analytic pre-filter saved from simulation.
	Candidates int
	Trialed    int
	Pruned     int
	// MemoryBreakEvenQueriesPerDay is the daily volume at which the
	// best memory candidate's flat node bill drops below the best
	// per-request candidate's metered spend, measured from the trials
	// (analytic §IV-C estimate when the memory grid was pruned; 0 when
	// the memory store never wins or was not considered). The serving
	// layer re-plans when the observed arrival rate crosses it.
	MemoryBreakEvenQueriesPerDay int64
	// Changed reports whether Best differs from the planner's previous
	// decision; Previous is that earlier pick when it does.
	Changed  bool
	Previous Candidate
}

// New validates the options and returns a Planner for the model.
func New(m *model.Model, opts Options) (*Planner, error) {
	if m == nil {
		return nil, fmt.Errorf("plan: planner requires a model")
	}
	if opts.Objective == nil {
		opts.Objective = WeightedObjective(0.5)
	}
	opts.Grid = opts.Grid.withDefaults()
	if opts.Seed == 0 {
		opts.Seed = 1
	}
	if opts.NewEnv == nil {
		opts.NewEnv = env.NewDefault
	}
	return &Planner{
		m:      m,
		opts:   opts,
		plans:  make(map[int]*partition.Plan),
		trials: make(map[trialKey]measurement),
	}, nil
}

// Plan selects the best configuration for the workload profile: it
// enumerates the candidate grid, prunes it analytically, trials the
// survivors on scratch environments and ranks them under the objective.
// The returned Config is ready to Deploy on the caller's environment.
func (p *Planner) Plan(profile WorkloadProfile) (*Decision, error) {
	return p.decide(profile)
}

// Replan re-evaluates the selection under an observed workload profile —
// typically one emitted by the serving layer's scheduler — and reports
// whether the best configuration changed. Measurements are reused from
// earlier calls when the probe batch is unchanged, so a re-plan that only
// moved the arrival rate re-scores instead of re-simulating.
func (p *Planner) Replan(observed WorkloadProfile) (*Decision, error) {
	if p.last == nil {
		return nil, fmt.Errorf("plan: Replan before Plan")
	}
	return p.decide(observed)
}

// ReplanWith is Replan under a one-off objective override: the cached
// trial measurements are re-scored and re-ranked under obj for this
// decision only, then the planner's configured objective is restored.
// The serving layer's alert-driven control path uses it to bias a
// re-plan toward latency while an SLO's error budget is burning, without
// permanently changing the endpoint's cost/latency trade-off.
func (p *Planner) ReplanWith(observed WorkloadProfile, obj Objective) (*Decision, error) {
	if p.last == nil {
		return nil, fmt.Errorf("plan: ReplanWith before Plan")
	}
	if obj == nil {
		return p.decide(observed)
	}
	prev := p.opts.Objective
	p.opts.Objective = obj
	defer func() { p.opts.Objective = prev }()
	return p.decide(observed)
}

// Last returns the planner's most recent decision (nil before Plan).
func (p *Planner) Last() *Decision { return p.last }

func (p *Planner) decide(profile WorkloadProfile) (*Decision, error) {
	profile = profile.withDefaults()
	cands := p.candidates()
	if len(cands) == 0 {
		return nil, fmt.Errorf("plan: no feasible candidates for N=%d", p.m.Spec.Neurons)
	}
	d := &Decision{
		Profile:    profile,
		Objective:  p.opts.Objective.Name(),
		Candidates: len(cands),
	}

	var analyticBreakEven int64
	for _, c := range cands {
		t := Trial{Candidate: c}
		if !p.opts.DisablePrefilter {
			reason, be, err := p.prefilter(c, profile)
			if err != nil {
				t.Err = err
				d.Trials = append(d.Trials, t)
				continue
			}
			if be > analyticBreakEven {
				analyticBreakEven = be
			}
			if reason != "" {
				t.Pruned = true
				t.PruneReason = reason
				d.Pruned++
				d.Trials = append(d.Trials, t)
				continue
			}
		}
		m := p.measure(c, profile.BatchSamples)
		d.Trialed++
		t.Err = m.err
		if m.err == nil {
			t.Latency = m.latency
			t.ProbeCost = m.cost
			t.KVCost = m.kvCost
			t.NodeDailyCost = m.nodeDaily
			t.Cost = t.ProbeCost
			if profile.QueriesPerDay > 0 && t.NodeDailyCost > 0 {
				// The workload-aware fix: charge the provisioned store
				// its amortised daily share, not one probe's slice.
				t.Cost = t.ProbeCost - t.KVCost + t.NodeDailyCost/float64(profile.QueriesPerDay)
			}
		}
		d.Trials = append(d.Trials, t)
	}

	norms := Norms{}
	for _, t := range d.Trials {
		if t.Pruned || t.Err != nil {
			continue
		}
		if norms.MinLatency == 0 || t.Latency < norms.MinLatency {
			norms.MinLatency = t.Latency
		}
		if norms.MinCost == 0 || t.Cost < norms.MinCost {
			norms.MinCost = t.Cost
		}
	}
	if norms.MinLatency == 0 {
		for _, t := range d.Trials {
			if t.Err != nil {
				return nil, fmt.Errorf("plan: every candidate failed; first error: %w", t.Err)
			}
		}
		return nil, fmt.Errorf("plan: the pre-filter pruned every candidate")
	}
	bestIdx := -1
	for i := range d.Trials {
		t := &d.Trials[i]
		if t.Pruned || t.Err != nil {
			continue
		}
		t.Score = p.opts.Objective.Score(*t, norms)
		if bestIdx < 0 || t.Score < d.Trials[bestIdx].Score {
			bestIdx = i
		}
	}
	d.Best = d.Trials[bestIdx].Candidate
	cfg, err := p.config(d.Best)
	if err != nil {
		// The winning candidate was trialed, so its plan is cached and
		// this cannot fail short of a programming error.
		return nil, err
	}
	d.Config = cfg
	d.MemoryBreakEvenQueriesPerDay = measuredBreakEven(d.Trials)
	if d.MemoryBreakEvenQueriesPerDay == 0 {
		d.MemoryBreakEvenQueriesPerDay = analyticBreakEven
	}
	if p.last != nil {
		d.Previous = p.last.Best
		d.Changed = d.Previous != d.Best
	}
	p.last = d
	return d, nil
}

// candidates enumerates the grid in deterministic order: serial first
// (when the model fits one instance), then the distributed channels per
// worker count, memory candidates fanned over the node-type list. Worker
// counts outside [2, neurons] are skipped, as in the legacy AutoSelect.
func (p *Planner) candidates() []Candidate {
	g := p.opts.Grid
	hasChannel := func(k core.ChannelKind) bool {
		for _, c := range g.Channels {
			if c == k {
				return true
			}
		}
		return false
	}
	var cands []Candidate
	// add fans a distributed base candidate over the grid's collective
	// topologies; with the default single-entry list (Flat) the grid size
	// is exactly the legacy enumeration.
	add := func(c Candidate) {
		for _, alg := range g.Collectives {
			c.Algo = alg
			cands = append(cands, c)
		}
	}
	if hasChannel(core.Serial) && p.serialFits() {
		cands = append(cands, Candidate{Channel: core.Serial, Workers: 1})
	}
	for _, w := range g.Workers {
		if w < 2 || w > p.m.Spec.Neurons {
			continue
		}
		if hasChannel(core.Queue) {
			add(Candidate{Channel: core.Queue, Workers: w})
		}
		if hasChannel(core.Object) {
			add(Candidate{Channel: core.Object, Workers: w})
		}
		for _, kind := range []core.ChannelKind{core.Memory, core.Hybrid} {
			if !hasChannel(kind) {
				continue
			}
			for _, nt := range g.KVNodeTypes {
				for _, nodes := range g.KVNodes {
					if nodes < 1 {
						nodes = 1
					}
					for _, reps := range g.KVReplicas {
						if reps < 0 {
							reps = 0
						}
						add(Candidate{
							Channel: kind, Workers: w, KVNodeType: nt,
							KVNodes: nodes, KVReplicas: reps,
						})
					}
				}
			}
		}
	}
	return cands
}

// serialFits reports whether the model's in-memory footprint fits the
// largest single FaaS instance.
func (p *Planner) serialFits() bool {
	perf := env.DefaultConfig().FaaS.Perf
	return float64(p.m.WeightBytes())*perf.MemOverheadWeights <= 10240*float64(1<<20)
}

// partitionPlan returns (building once) the trial partition plan for a
// worker count.
func (p *Planner) partitionPlan(workers int) (*partition.Plan, error) {
	if pl, ok := p.plans[workers]; ok {
		return pl, nil
	}
	pl, err := partition.BuildPlan(p.m, workers, p.opts.Scheme, partition.Options{Seed: p.opts.Seed})
	if err != nil {
		return nil, err
	}
	p.plans[workers] = pl
	return pl, nil
}

// config assembles the deployable configuration for a candidate — the
// single source for both trial deployments and the decision's returned
// Config, so the measured and deployed configurations cannot drift.
func (p *Planner) config(c Candidate) (core.Config, error) {
	cfg := core.Config{Model: p.m, Channel: c.Channel, PollWait: 2 * time.Second}
	if c.Channel != core.Serial {
		pl, err := p.partitionPlan(c.Workers)
		if err != nil {
			return core.Config{}, err
		}
		cfg.Plan = pl
	}
	if c.usesKVStore() {
		cfg.KVNodeType = c.KVNodeType
		cfg.KVNodes = c.KVNodes
		cfg.KVReplicas = c.KVReplicas
	}
	cfg.Collective = c.Algo
	if p.opts.DeployOverride != nil {
		p.opts.DeployOverride(&cfg)
	}
	return cfg, nil
}

// measure runs (or returns the cached) probe trial for a candidate at a
// batch width: a fresh scratch environment, one deployment, one metered
// inference — exactly the legacy AutoSelect trial.
func (p *Planner) measure(c Candidate, batch int) measurement {
	key := trialKey{c: c, batch: batch}
	if m, ok := p.trials[key]; ok {
		return m
	}
	m := p.runTrial(c, batch)
	p.trials[key] = m
	return m
}

func (p *Planner) runTrial(c Candidate, batch int) measurement {
	cfg, err := p.config(c)
	if err != nil {
		return measurement{err: err}
	}
	probe := model.GenerateInputs(p.m.Spec.Neurons, batch, 0.2, p.opts.Seed)
	e := p.opts.NewEnv()
	d, err := core.Deploy(e, cfg)
	if err != nil {
		return measurement{err: err}
	}
	res, err := d.Infer(probe)
	if err != nil {
		return measurement{err: err}
	}
	m := measurement{latency: res.Latency, cost: res.Cost.Total(), kvCost: res.Cost.KV}
	if c.usesKVStore() {
		nodeType := d.Cfg.KVNodeType
		// The flat daily bill covers the whole cluster: primaries times
		// (1 + replicas) — the shard/replica axes both price in here.
		nodes := d.Cfg.KVNodes * (1 + d.Cfg.KVReplicas)
		if nodes <= 0 {
			nodes = 1
		}
		m.nodeDaily = 24 * e.Pricing.KVNodeHourly[nodeType] * float64(nodes)
	}
	return m
}

// measuredBreakEven computes, from the successful trials, the earliest
// daily query volume at which some memory candidate's flat node bill
// drops below the cheapest per-request candidate's metered per-query
// spend — each memory candidate (node types differ in daily rate) gets
// its own crossing and the smallest wins. Returns 0 when either class is
// missing or the memory store never wins.
func measuredBreakEven(trials []Trial) int64 {
	var req *Trial
	for i := range trials {
		t := &trials[i]
		if t.Pruned || t.Err != nil || t.NodeDailyCost > 0 {
			continue
		}
		if req == nil || t.ProbeCost < req.ProbeCost {
			req = t
		}
	}
	if req == nil {
		return 0
	}
	var earliest int64
	for _, t := range trials {
		if t.Pruned || t.Err != nil || t.NodeDailyCost <= 0 {
			continue
		}
		margin := req.ProbeCost - (t.ProbeCost - t.KVCost)
		if margin <= 0 {
			continue
		}
		be := int64(t.NodeDailyCost/margin) + 1
		if earliest == 0 || be < earliest {
			earliest = be
		}
	}
	return earliest
}

// BreakEvenSide reports which side of the break-even a daily volume falls
// on; the serving layer re-plans when the observed side flips.
func BreakEvenSide(queriesPerDay, breakEven int64) bool {
	return breakEven > 0 && queriesPerDay >= breakEven
}

// CrossedBreakEven reports whether a workload that previously scored
// prev queries/day has crossed the break-even to now queries/day with a
// hysteresis band of +-band (a fraction of the break-even): the flip
// fires only once the observed volume clears the far edge of the band.
// A workload hovering at the break-even — oscillating a few percent
// either side — therefore stays put instead of flapping the deployment
// back and forth on every EWMA wiggle. band <= 0 degenerates to the
// plain side comparison.
func CrossedBreakEven(prev, now, breakEven int64, band float64) bool {
	if breakEven <= 0 || now <= 0 {
		return false
	}
	if band < 0 {
		band = 0
	}
	if BreakEvenSide(prev, breakEven) {
		// Above: only a drop below the band's lower edge flips down.
		return float64(now) < float64(breakEven)*(1-band)
	}
	// Below: only a rise past the band's upper edge flips up.
	return float64(now) > float64(breakEven)*(1+band)
}
