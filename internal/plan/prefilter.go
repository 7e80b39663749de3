package plan

import (
	"fmt"
	"time"

	"fsdinference/internal/cloud/env"
	"fsdinference/internal/cloud/kvstore"
	"fsdinference/internal/cloud/pricing"
	"fsdinference/internal/collective"
	"fsdinference/internal/core"
	"fsdinference/internal/cost"
)

// The analytic pre-filter prunes the candidate grid with the §IV cost
// model before any simulated trial runs. Two classes of rule apply:
//
//   - feasibility: a memory candidate whose per-pair volume exceeds the
//     store's single-value cap cannot serve the workload at all;
//   - cost dominance: for purely cost-driven objectives, a channel that
//     the analytic model prices strictly above an alternative in every
//     regime is dropped — the memory store below its break-even volume
//     (idle billing), the queue channel once per-pair volumes saturate
//     publish capacity, object storage while volumes still fit one
//     publish chunk (queue API requests ~1 OOM cheaper, §IV-C).
//
// The rules on the per-pair volume judge traffic between workers, so a
// workload without pairs (one worker) is judged by the others alone.
//
// Dominance prunes only fire when the objective implements costWeighter
// with full cost weight; latency-weighted and custom objectives keep the
// whole grid, because analytics say nothing about their latency term.

// prefilterMargin is the safety factor on the analytic memory break-even:
// the §IV formulas price communication requests only, while trials meter
// the whole run (compute included), so the analytic break-even
// overestimates the measured one. A candidate is pruned only when the
// profile's volume sits a full margin below it — a clear-cut loser;
// anything closer is measured.
const prefilterMargin = 10

// bulkPointerBytes approximates the store-resident footprint of one bulk
// value on the hybrid channel: the pointer frame plus key overhead.
const bulkPointerBytes = 128

// analyticWorkload derives the §IV cost-model workload for a candidate:
// per-pair volumes from the trial partition plan's communication stats at
// the profile's batch width, compressed at the engine's typical ratio.
func (p *Planner) analyticWorkload(workers, batch int, profile WorkloadProfile) (cost.Workload, error) {
	pl, err := p.partitionPlan(workers)
	if err != nil {
		return cost.Workload{}, err
	}
	st := pl.Stats(p.m)
	layers := len(p.m.Layers)
	pairsPerLayer := st.Pairs
	if layers > 0 {
		pairsPerLayer = st.Pairs / int64(layers)
	}
	w := p.footprint()
	w.Workers = workers
	w.BytesPerPairPerLayer = int64(st.RowsPerPair * float64(batch) * 4 * 0.6)
	w.PairsPerLayer = pairsPerLayer
	w.Layers = layers
	w.QueriesPerDay = profile.QueriesPerDay
	w.ConcurrentRuns = profile.Concurrency
	return w, nil
}

// footprint is the model's side of the §IV workload: its weights, the
// runtime's in-memory blowup and the largest single instance, which is
// all SerialFits reads.
func (p *Planner) footprint() cost.Workload {
	faas := env.DefaultConfig().FaaS
	return cost.Workload{
		ModelBytes:    p.m.WeightBytes(),
		MemOverhead:   faas.Perf.MemOverheadWeights,
		InstanceCapMB: faas.MaxMemoryMB,
	}
}

// prefilter returns a non-empty prune reason when the candidate should
// not be trialed, plus the analytic memory break-even for the candidate's
// worker count (0 when not computed) so decisions can report one even
// when the whole memory grid was pruned.
func (p *Planner) prefilter(c Candidate, profile WorkloadProfile) (reason string, breakEven int64, err error) {
	if c.Channel == core.Serial {
		return "", 0, nil
	}
	if reason := p.pruneCollective(c, profile.BatchSamples); reason != "" {
		return reason, 0, nil
	}
	w, err := p.analyticWorkload(c.Workers, profile.BatchSamples, profile)
	if err != nil {
		return "", 0, err
	}
	costOnly := false
	if cw, ok := p.opts.Objective.(costWeighter); ok {
		costOnly = cw.costWeight() >= 1
	}
	reason, breakEven = analyticPrune(c, w, costOnly, p.opts.Grid.hasSingleNode())
	return reason, breakEven, nil
}

// analyticPrune is the rule set itself, a pure function of the candidate
// and the §IV workload: feasibility rules always apply, cost-dominance
// rules only when costOnly. singleNodeOffered says whether the grid still
// holds the plain single-node store variant that larger clusters are
// compared against. It is the one place the planner's per-channel
// knowledge is written; PrefilterChannels runs it without a planner.
func analyticPrune(c Candidate, w cost.Workload, costOnly, singleNodeOffered bool) (reason string, breakEven int64) {
	shards := max(1, c.KVNodes)
	// With no pairs nothing crosses a channel, whatever the per-pair volume.
	pairs := w.PairsPerLayer > 0
	switch c.Channel {
	case core.Serial:
		// Feasibility: the whole model must fit one instance; no cost rule
		// applies, since Serial makes no call a channel bills.
		if !SerialFits(w) {
			return fmt.Sprintf("model needs ~%d MB in memory, over the %d MB instance cap",
				int64(float64(w.ModelBytes)*w.MemOverhead)>>20, w.InstanceCapMB), 0
		}
	case core.Memory:
		if pairs && !memoryValueFeasible(w.BytesPerPairPerLayer) {
			return fmt.Sprintf("per-pair volume %d B exceeds the store's single-value cap", w.BytesPerPairPerLayer), 0
		}
		// Feasibility: the sustained op rate must fit the cluster's
		// aggregate request-rate ceiling (each shard enforces its own).
		// This is the rule that relieves a saturated single node by
		// steering the pick to a sharded candidate.
		if r := saturation(w, c.KVNodeType, shards); r != "" {
			return r, 0
		}
		// Feasibility: the peak resident working set — every in-flight
		// run's layer values — must fit the cluster's usable memory. Bulk
		// tensors at high run concurrency overflow the small node sizes,
		// which is the rule that forces the memory channel onto bigger
		// (pricier) nodes while the hybrid channel keeps the small one.
		if memoryNodeCapacityExceeded(w, c.KVNodeType, shards) {
			return fmt.Sprintf("working set ~%d MB (x%d concurrent runs) overflows %d shard(s) of %s",
				memoryWorkingSetBytes(w)>>20, max(1, w.ConcurrentRuns), shards, c.KVNodeType), 0
		}
		be := nodeBreakEven(c, w)
		if costOnly && w.QueriesPerDay > 0 && w.QueriesPerDay*prefilterMargin < be {
			return fmt.Sprintf("idle billing: %d queries/day is far below the ~%d/day break-even, so the node mostly bills idle",
				w.QueriesPerDay, be), be
		}
		// Cost dominance inside the memory grid: extra shards and
		// replicas add strictly more node-hours with zero per-request
		// savings, so a pure cost objective keeps only the single-node
		// variant — when the grid still offers it AND the single node
		// can actually carry the volume. Latency-weighted objectives
		// trial the larger clusters; replica counts always cost more,
		// but the failover loss they prevent is not priced analytically.
		if costOnly && c.clusterNodes() > 1 && singleNodeOffered &&
			!memoryClusterSaturated(w, c.KVNodeType, 1) {
			return fmt.Sprintf("%d cluster nodes bill %dx the single node's flat rate with no per-request savings; dominated on pure cost",
				c.clusterNodes(), c.clusterNodes()), be
		}
		return "", be
	case core.Hybrid:
		// The hybrid channel provisions the same store for its control
		// plane, so the idle-billing rule applies unchanged; the bulk
		// path chunks oversized values through object storage, so
		// neither the single-value cap nor the node-capacity rule sees
		// the bulk volume — only the tiny pointer frames stay resident.
		if w.BytesPerPairPerLayer > core.DefaultHybridThresholdBytes {
			w.BytesPerPairPerLayer = bulkPointerBytes
		}
		// Each pair still pushes and pops one store value per layer,
		// inline or pointer, as on the memory channel, so the same
		// request-rate ceiling applies.
		if r := saturation(w, c.KVNodeType, shards); r != "" {
			return r, 0
		}
		if memoryNodeCapacityExceeded(w, c.KVNodeType, shards) {
			return fmt.Sprintf("control-plane working set ~%d MB overflows %d shard(s) of %s",
				memoryWorkingSetBytes(w)>>20, shards, c.KVNodeType), 0
		}
		be := nodeBreakEven(c, w)
		if costOnly && w.QueriesPerDay > 0 && w.QueriesPerDay*prefilterMargin < be {
			return fmt.Sprintf("idle billing: %d queries/day is far below the ~%d/day break-even, so the control-plane node mostly bills idle",
				w.QueriesPerDay, be), be
		}
		return "", be
	case core.Queue:
		if costOnly && pairs && queueSaturated(w.BytesPerPairPerLayer) {
			return fmt.Sprintf("per-pair volume %d B needs %d publish chunks, saturating pub-sub payload capacity",
				w.BytesPerPairPerLayer, cost.PublishChunks(w.BytesPerPairPerLayer)), 0
		}
	case core.Object:
		if costOnly && pairs && cost.PublishChunks(w.BytesPerPairPerLayer) <= 1 {
			return fmt.Sprintf("per-pair volume %d B fits one publish chunk; queue API requests are ~1 OOM cheaper", w.BytesPerPairPerLayer), 0
		}
	}
	return "", 0
}

// nodeBreakEven prices the candidate's provisioned-store break-even
// volume: the flat daily bill grows with the cluster — shards times
// (1 + replicas) nodes all accrue hours — so the break-even scales with
// the node count.
func nodeBreakEven(c Candidate, w cost.Workload) int64 {
	cat := pricing.Default()
	if c.KVNodeType != "" {
		w.MemoryNodeHourly = cat.KVNodeHourly[c.KVNodeType]
	}
	if n := c.clusterNodes(); n > 1 {
		w.MemoryNodeHourly *= float64(n)
	}
	return cost.MemoryBreakEvenQueriesPerDay(cat, w)
}

// SerialFits reports whether the model's in-memory footprint fits the
// largest single FaaS instance: the one rule that keeps Serial off the
// planner's grid (candidates), prunes its pre-filter row and gates the
// experiments' paper-scale Serial cells.
func SerialFits(w cost.Workload) bool {
	return float64(w.ModelBytes)*w.MemOverhead <= float64(w.InstanceCapMB)*float64(1<<20)
}

// saturationChunks is the per-pair chunk count beyond which the queue
// channel's publish amplification makes object storage competitive; the
// paper observes multiple publishes per target emerging beyond N=16384.
const saturationChunks = 8

// queueSaturated reports whether per-pair volumes chunk beyond the point
// where the queue channel's publish amplification makes object storage
// analytically competitive (§IV-C).
func queueSaturated(bytesPerPair int64) bool {
	return cost.PublishChunks(bytesPerPair) > saturationChunks
}

// memoryValueFeasible reports whether one pair's layer volume fits a
// single stored value of the provisioned memory store — the memory
// channel ships unchunked values, so volumes above the cap rule it out
// however favourable the billing.
func memoryValueFeasible(bytesPerPair int64) bool {
	return bytesPerPair <= int64(kvstore.DefaultConfig().MaxValueBytes)
}

// storeHeadroom is the provisioning factor between a workload's resident
// working set and the node memory it needs: half of each node is held
// back for replication buffers and copy-on-write snapshot forks, per the
// managed-cache guidance to reserve memory on write-heavy workloads —
// and an engine-run inbox is nothing but writes.
const storeHeadroom = 2.0

// memoryWorkingSetBytes estimates the peak bytes resident in the
// provisioned store: one layer's pair values per in-flight run, times
// the peak run concurrency.
func memoryWorkingSetBytes(w cost.Workload) int64 {
	runs := int64(w.ConcurrentRuns)
	if runs < 1 {
		runs = 1
	}
	return runs * w.PairsPerLayer * w.BytesPerPairPerLayer
}

// memoryNodeCapacityExceeded reports whether the workload's peak working
// set, with the write-heavy headroom applied, overflows the usable
// memory of a cluster of shards of the node type. Capacity scales
// linearly with the shard count, like the request-rate ceiling: this is
// the second analytic rule that forces bigger nodes (or more shards)
// under bulk-tensor workloads — and the rule the hybrid channel escapes
// by parking bulk values in object storage.
func memoryNodeCapacityExceeded(w cost.Workload, nodeType string, shards int) bool {
	nt := kvstore.Catalog[nodeType]
	usable := nt.MemoryGB * float64(int64(1)<<30) * float64(shards)
	return float64(memoryWorkingSetBytes(w))*storeHeadroom > usable
}

// memoryOpsPerQuery estimates the store operations one query issues on
// the memory channel: one push and one pop per (pair, layer), plus the
// barrier and reduce traffic (roughly four ops per worker). It is the
// demand side of the per-node request-rate ceiling.
func memoryOpsPerQuery(w cost.Workload) int64 {
	return 2*w.PairsPerLayer*int64(w.Layers) + 4*int64(w.Workers)
}

// memoryClusterSaturated reports whether the workload's sustained
// operation rate exceeds the aggregate request-rate ceiling of a cluster
// of shards primaries of the node type: each shard enforces its own
// ceiling, so capacity scales linearly with the shard count. A saturated
// configuration is infeasible however cheap — queries would back up
// behind the limiter without bound — which is the analytic rule that
// makes the planner reach for more shards under heavy sustained volume.
func memoryClusterSaturated(w cost.Workload, nodeType string, shards int) bool {
	if w.QueriesPerDay <= 0 {
		return false
	}
	nt := kvstore.Catalog[nodeType]
	demand := float64(memoryOpsPerQuery(w)*w.QueriesPerDay) / 86400
	return demand > nt.MaxOpsPerSec*float64(shards)
}

// saturation is the prune reason of a cluster that memoryClusterSaturated
// finds saturated, or "" when it is not.
func saturation(w cost.Workload, nodeType string, shards int) string {
	if !memoryClusterSaturated(w, nodeType, shards) {
		return ""
	}
	return fmt.Sprintf("sustained volume needs ~%d ops/s, saturating %d shard(s) of %s",
		memoryOpsPerQuery(w)*w.QueriesPerDay/86400, shards, nodeType)
}

// pruneCollective drops a candidate whose collective topology the §IV-style
// analytic model strictly dominates within the grid: another explored
// topology finishes the reduction allreduce in at most half the time with
// no extra messages (so no extra request billing either). It fires only
// when the grid actually explores alternatives, and never judges AutoAlgo
// — that candidate defers to the same model per call.
func (p *Planner) pruneCollective(c Candidate, batch int) string {
	algs := p.opts.Grid.Collectives
	if len(algs) < 2 || c.Algo == collective.AutoAlgo || c.Channel == core.Serial || c.Workers < 2 {
		return ""
	}
	msg := core.ReduceContributionBytes(p.m.Spec.Neurons, c.Workers, batch)
	tr := core.ChannelTraits(core.Config{Channel: c.Channel, KVNodeType: c.KVNodeType}, env.DefaultConfig(), msg)
	mine := collective.EstimateOp(collective.OpAllreduce, c.Algo, c.Workers, msg, tr)
	for _, a := range algs {
		if a == c.Algo || a == collective.AutoAlgo {
			continue
		}
		other := collective.EstimateOp(collective.OpAllreduce, a, c.Workers, msg, tr)
		if 2*other.Latency <= mine.Latency && other.Messages <= mine.Messages {
			return fmt.Sprintf("collective %v: analytic allreduce %v at P=%d is dominated by %v's %v with no extra messages",
				c.Algo, mine.Latency.Round(time.Millisecond), c.Workers,
				a, other.Latency.Round(time.Millisecond))
		}
	}
	return ""
}

// PruneVerdict is the analytic pre-filter's outcome for one channel of a
// workload, for analytic-only callers (cmd/fsdcost) that have no model to
// trial: the repository's one channel verdict without trials.
type PruneVerdict struct {
	Channel core.ChannelKind
	Pruned  bool
	Reason  string
}

// PrefilterChannels runs the planner's own rule set, analyticPrune, on an
// analytic workload under a pure cost objective, without a model or trials:
// which channels would the pre-filter prune, and why, one row per kind in
// core.ChannelKinds' order. Each store kind is judged as its candidate on
// one node of the default type.
func PrefilterChannels(w cost.Workload) []PruneVerdict {
	var verdicts []PruneVerdict
	for _, kind := range core.ChannelKinds() {
		c := Candidate{Channel: kind, Workers: w.Workers, KVNodeType: core.DefaultKVNodeType}
		reason, _ := analyticPrune(c, w, true, true)
		verdicts = append(verdicts, PruneVerdict{Channel: kind, Pruned: reason != "", Reason: reason})
	}
	return verdicts
}
