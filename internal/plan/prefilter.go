package plan

import (
	"fmt"
	"math"
	"time"

	"fsdinference/internal/cloud/env"
	"fsdinference/internal/cloud/pricing"
	"fsdinference/internal/collective"
	"fsdinference/internal/core"
	"fsdinference/internal/wire"
)

// The analytic pre-filter prunes the candidate grid with the §IV cost
// model before any simulated trial runs. Every kind's cost model is its
// transport row's prediction (core.PredictQuery): the usage counts one
// query bills on the kind's own services, or why the candidate cannot serve
// the workload. The rules here name no kind; they read two facts from the
// row — whether the kind provisions a store, and whether it is peerless —
// and price predictions with usage.Meter.Cost. Two classes of rule apply:
//
//   - feasibility: a candidate whose row errs is pruned with the row's
//     reason (Serial's footprint, the store's value cap, request-rate
//     ceiling and working set);
//   - cost dominance, for purely cost-driven objectives: a store below its
//     break-even volume bills mostly idle; a store cluster larger than one
//     node that one node could carry adds node-hours with no per-request
//     savings; and a request-billed kind priced at dominanceFactor times
//     the cheapest request-billed kind or more loses (§IV-C: queue API
//     requests ~1 OOM cheaper until volumes saturate publish capacity,
//     object storage's size-independent pricing after).
//
// Dominance prunes only fire when the objective implements costWeighter
// with full cost weight; latency-weighted and custom objectives keep the
// whole grid, because analytics say nothing about their latency term.

// prefilterMargin is the safety factor on the analytic store break-even:
// the §IV formulas price communication requests only, while trials meter
// the whole run (compute included), so the analytic break-even
// overestimates the measured one. A candidate is pruned only when the
// profile's volume sits a full margin below it — a clear-cut loser;
// anything closer is measured.
const prefilterMargin = 10

// dominanceFactor is how many times the cheapest request-billed kind's
// per-query price a request-billed kind must cost before a pure cost
// objective drops it untried. At 3 the pub-sub channel loses from about
// 2.2 MiB per pair, past the paper's multiple-publishes-per-target regime,
// and object storage while a pair's frame still fits one publish chunk.
const dominanceFactor = 3

// analyticWorkload derives the §IV cost-model workload for a candidate:
// each pair ships a dense raw frame of the trial partition plan's mean rows
// per pair at the profile's batch width, as the candidate's deployment
// ships it (Compress off).
func (p *Planner) analyticWorkload(c Candidate, profile WorkloadProfile) (core.Workload, error) {
	pl, err := p.partitionPlan(c.Workers)
	if err != nil {
		return core.Workload{}, err
	}
	st := pl.Stats(p.m)
	layers := len(p.m.Layers)
	pairsPerLayer := st.Pairs
	if layers > 0 {
		pairsPerLayer = st.Pairs / int64(layers)
	}
	w := p.footprint()
	w.Workers = c.Workers
	w.Frame = wire.Frame{Rows: int64(math.Round(st.RowsPerPair)), Batch: profile.BatchSamples}
	w.PairsPerLayer = pairsPerLayer
	w.Layers = layers
	w.QueriesPerDay = profile.QueriesPerDay
	w.ConcurrentRuns = profile.Concurrency
	return w, nil
}

// footprint is the model's side of the §IV workload: its weights, the
// runtime's in-memory blowup and the largest single instance, which is
// all a peerless kind's row reads.
func (p *Planner) footprint() core.Workload {
	faas := env.DefaultConfig().FaaS
	return core.Workload{
		ModelBytes:    p.m.WeightBytes(),
		MemOverhead:   faas.Perf.MemOverheadWeights,
		InstanceCapMB: faas.MaxMemoryMB,
	}
}

// prefilter returns a non-empty prune reason when the candidate should
// not be trialed, plus the analytic store break-even for the candidate's
// worker count (0 when not computed) so decisions can report one even
// when the whole store grid was pruned. A peerless candidate is on the
// grid only because its row admitted the model (candidates).
func (p *Planner) prefilter(c Candidate, profile WorkloadProfile) (reason string, breakEven int64, err error) {
	if c.Channel.Peerless() {
		return "", 0, nil
	}
	if reason := p.pruneCollective(c, profile.BatchSamples); reason != "" {
		return reason, 0, nil
	}
	w, err := p.analyticWorkload(c, profile)
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
// compared against. PrefilterChannels runs it without a planner.
func analyticPrune(c Candidate, w core.Workload, costOnly, singleNodeOffered bool) (reason string, breakEven int64) {
	cfg := c.deployment()
	m, err := core.PredictQuery(w, cfg)
	if err != nil {
		return err.Error(), 0
	}
	if c.Channel.ProvisionsStore() {
		be := StoreBreakEven(w, cfg)
		switch {
		case !costOnly:
		case w.QueriesPerDay > 0 && w.QueriesPerDay*prefilterMargin < be:
			return fmt.Sprintf("idle billing: %d queries/day is far below the ~%d/day break-even, so the node mostly bills idle",
				w.QueriesPerDay, be), be
		case c.clusterNodes() > 1 && singleNodeOffered && fitsOneNode(w, cfg):
			// Extra shards and replicas add strictly more node-hours with
			// zero per-request savings. Latency-weighted objectives trial
			// them: the failover loss replicas prevent is not priced here.
			return fmt.Sprintf("%d cluster nodes bill %dx the single node's flat rate with no per-request savings; dominated on pure cost",
				c.clusterNodes(), c.clusterNodes()), be
		}
		return "", be
	}
	if !costOnly {
		return "", 0
	}
	cheap, cheapest := cheapestRequests(w)
	if price := m.Cost(pricing.Default()).Total(); cheapest > 0 && price >= dominanceFactor*cheapest {
		return fmt.Sprintf("per-pair volume %d B: %v's requests are %.1fx cheaper; dominated on pure cost",
			w.Frame.Bytes(), cheap, price/cheapest), 0
	}
	return "", 0
}

// fitsOneNode reports whether cfg's store kind could carry w on a single
// node of its type, no replicas.
func fitsOneNode(w core.Workload, cfg core.Config) bool {
	cfg.KVNodes, cfg.KVReplicas = 1, 0
	_, err := core.PredictQuery(w, cfg)
	return err == nil
}

// cheapestRequests returns the request-billed kind — neither peerless nor
// provisioning a store — whose row prices one query of w lowest, and that
// price, taken over every such kind whatever the grid holds; the first in
// table order wins a tie. The price is 0 when no such kind makes a request.
func cheapestRequests(w core.Workload) (kind core.ChannelKind, price float64) {
	found := false
	for _, k := range core.ChannelKinds() {
		if k.Peerless() || k.ProvisionsStore() {
			continue
		}
		p, err := RequestCost(w, k)
		if err != nil {
			continue
		}
		if !found || p < price {
			kind, price, found = k, p, true
		}
	}
	return kind, price
}

// RequestCost prices, under the default catalogue, the requests one query
// of w bills on kind's transport row: the row's predicted meter through
// usage.Meter.Cost, or the row's reason it cannot serve w.
func RequestCost(w core.Workload, kind core.ChannelKind) (float64, error) {
	m, err := core.PredictQuery(w, core.Config{Channel: kind})
	if err != nil {
		return 0, err
	}
	return m.Cost(pricing.Default()).Total(), nil
}

// StoreBreakEven returns the daily query volume from which cfg's store
// cluster bills less than the cheapest request-billed kind's requests for
// w: the cluster's flat daily bill over that kind's per-query price, 0 when
// no request-billed kind makes a request. Below it, idle billing makes the
// store the most expensive option.
func StoreBreakEven(w core.Workload, cfg core.Config) int64 {
	_, perQuery := cheapestRequests(w)
	if perQuery <= 0 {
		return 0
	}
	return int64(core.StoreDailyCost(cfg, pricing.Default())/perQuery) + 1
}

// pruneCollective drops a candidate whose collective topology the §IV-style
// analytic model strictly dominates within the grid: another explored
// topology finishes the reduction allreduce in at most half the time with
// no extra messages (so no extra request billing either). It fires only
// when the grid actually explores alternatives, and never judges AutoAlgo
// — that candidate defers to the same model per call.
func (p *Planner) pruneCollective(c Candidate, batch int) string {
	algs := p.opts.Grid.Collectives
	if len(algs) < 2 || c.Algo == collective.AutoAlgo || c.Channel.Peerless() || c.Workers < 2 {
		return ""
	}
	msg := core.ReduceContributionBytes(p.m.Spec.Neurons, c.Workers, batch)
	tr := core.ChannelTraits(c.deployment(), env.DefaultConfig(), msg)
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
func PrefilterChannels(w core.Workload) []PruneVerdict {
	var verdicts []PruneVerdict
	for _, kind := range core.ChannelKinds() {
		c := Candidate{Channel: kind, Workers: w.Workers, KVNodeType: core.DefaultKVNodeType}
		reason, _ := analyticPrune(c, w, true, true)
		verdicts = append(verdicts, PruneVerdict{Channel: kind, Pruned: reason != "", Reason: reason})
	}
	return verdicts
}
