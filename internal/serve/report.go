package serve

import (
	"fmt"
	"sort"
	"strings"
	"time"

	"fsdinference/internal/cloud/usage"
	"fsdinference/internal/core"
	"fsdinference/internal/obs"
	"fsdinference/internal/plan"
)

// ReplanEvent records one SLO-driven configuration change: the planner
// re-ran under the scheduler's observed WorkloadProfile and the best
// channel or worker count moved.
type ReplanEvent struct {
	// At is the virtual time of the change (trace-relative in replay
	// reports).
	At time.Duration
	// From/To describe the configuration swap.
	From, To               core.ChannelKind
	FromWorkers, ToWorkers int
	// QueriesPerDay is the observed daily volume the re-plan scored
	// against.
	QueriesPerDay int64
	// Reason says which drift triggered it.
	Reason string
}

// LatencyStats summarises a latency distribution with the nearest-rank
// percentiles the serving literature reports.
type LatencyStats struct {
	Count               int
	Mean, P50, P95, P99 time.Duration
	Min, Max            time.Duration
}

// latencyStats computes stats over samples (mutates the slice order).
func latencyStats(samples []time.Duration) LatencyStats {
	var ls LatencyStats
	ls.Count = len(samples)
	if ls.Count == 0 {
		return ls
	}
	sort.Slice(samples, func(i, j int) bool { return samples[i] < samples[j] })
	var sum time.Duration
	for _, s := range samples {
		sum += s
	}
	ls.Mean = sum / time.Duration(ls.Count)
	ls.Min = samples[0]
	ls.Max = samples[ls.Count-1]
	ls.P50 = percentile(samples, 50)
	ls.P95 = percentile(samples, 95)
	ls.P99 = percentile(samples, 99)
	return ls
}

// histStats renders a histogram as the report's LatencyStats. The
// percentiles are bucket upper bounds (see obs.Histogram); count, mean,
// min and max are exact.
func histStats(h *obs.Histogram) LatencyStats {
	n := h.Count()
	if n == 0 {
		return LatencyStats{}
	}
	return LatencyStats{
		Count: n,
		Mean:  h.Sum() / time.Duration(n),
		Min:   h.Min(),
		Max:   h.Max(),
		P50:   h.Quantile(50),
		P95:   h.Quantile(95),
		P99:   h.Quantile(99),
	}
}

// percentile returns the nearest-rank p-th percentile of sorted samples.
func percentile(sorted []time.Duration, p int) time.Duration {
	if len(sorted) == 0 {
		return 0
	}
	rank := (p*len(sorted) + 99) / 100 // ceil(p/100 * n)
	if rank < 1 {
		rank = 1
	}
	if rank > len(sorted) {
		rank = len(sorted)
	}
	return sorted[rank-1]
}

// PriorityLatency is one priority class's latency distribution within a
// replay.
type PriorityLatency struct {
	Priority int
	Latency  LatencyStats
}

// EndpointReport is one endpoint's share of a replay.
type EndpointReport struct {
	Name    string
	Neurons int
	Channel core.ChannelKind
	Workers int
	// Replicas is the endpoint's warm-pool size at the end of the replay;
	// PeakReplicas the largest pool the scaling policy grew to within it.
	Replicas     int
	PeakReplicas int
	// Admission and Scaling name the scheduler policies in force.
	Admission string
	Scaling   string
	// ReplicaSeconds integrates pool size over the replay window (the
	// provisioned-capacity analogue of instance-hours); ScaleUps and
	// ScaleDowns count replicas added and reclaimed by the scaling policy.
	ReplicaSeconds float64
	ScaleUps       int
	ScaleDowns     int
	// DeployFailures counts scale-up and re-plan deploys the platform
	// refused: the event that asked for one went without, and the pool
	// kept serving on the replicas it had.
	DeployFailures int
	// Shed counts requests rejected by the admission policy (ErrShed),
	// Rerouted those it moved to a sibling endpoint, DeadlineMissed the
	// requests that completed after their deadline. Reselections counts
	// SLO-triggered planner re-runs; Replans lists the ones that changed
	// the configuration (channel/worker swaps), in order.
	Shed           int
	Rerouted       int
	DeadlineMissed int
	Reselections   int
	Replans        []ReplanEvent
	// Observed is the endpoint's live workload profile as of the end of
	// the replay — what an SLO re-plan would score against.
	Observed plan.WorkloadProfile
	// MaxConcurrentRuns is the largest number of engine runs observed in
	// flight on one replica (run multiplexing high-water).
	MaxConcurrentRuns int

	// Queries and Failed count requests; Samples counts their columns.
	Queries int
	Failed  int
	Samples int

	// Runs counts engine runs; the averages describe how admission
	// coalesced requests into them.
	Runs           int
	FailedRuns     int
	AvgRunSamples  float64
	AvgRunRequests float64
	MaxRunSamples  int
	ColdStarts     int // function instances launched cold
	WarmStarts     int // function instances reusing a warm pool

	// Latency is the per-request distribution (arrival to result,
	// including coalescing wait and queueing). PerPriority breaks it down
	// by priority class when more than one was submitted.
	Latency     LatencyStats
	PerPriority []PriorityLatency

	// Cost is the endpoint's ledger-reconstructed spend (§VI-F
	// predictor), summed over its runs.
	Cost usage.Breakdown
}

// Report is the measured outcome of one Service.Replay.
type Report struct {
	// Queries and Failed count the replayed requests; Samples their
	// total columns.
	Queries int
	Failed  int
	Samples int

	// Horizon is the virtual time of the last request completion,
	// relative to the replay's start.
	Horizon time.Duration

	// Latency is the per-request distribution across all endpoints.
	Latency LatencyStats

	// Endpoints reports each endpoint in registration order.
	Endpoints []EndpointReport

	// Usage is the environment meter over the replay window — the
	// simulated equivalent of the paper's AWS Cost & Usage report: the
	// provisioned stores' GB-hours and ops, replica and per-shard
	// node-hours, store failovers, lost and re-sent values and MOVED
	// redirects, collectives by "op/algorithm", hybrid routing counts.
	// TotalCost prices it; KVShardCost prices its per-shard hours.
	Usage       usage.Meter
	TotalCost   usage.Breakdown
	KVShardCost map[string]float64

	// ColdStarts and WarmStarts count platform-wide function instance
	// launches during the replay.
	ColdStarts int
	WarmStarts int

	// Chaos counters: trace-embedded fault injections applied during the
	// replay (and the ones skipped because no provisioned cluster was
	// live at fire time). The failover fallout shows up in Usage.
	ChaosKills      int
	ChaosPartitions int
	ChaosSkipped    int
}

// Check verifies the report's internal accounting, from the report alone:
// the endpoints' request counts sum to the totals, every request that did
// not fail has exactly one latency sample (in the report's distribution, in
// its endpoint's and, where the endpoint breaks latency down by priority, in
// exactly one class), and no request took longer than the whole replay. Every
// replay entry point checks its report before returning it.
func (r *Report) Check() error {
	var queries, failed, samples int
	for _, ep := range r.Endpoints {
		queries += ep.Queries
		failed += ep.Failed
		samples += ep.Samples
		if ep.Latency.Count != ep.Queries-ep.Failed {
			return fmt.Errorf("serve: report: endpoint %s has %d latencies for %d queries, %d failed",
				ep.Name, ep.Latency.Count, ep.Queries, ep.Failed)
		}
		classed := 0
		for _, pl := range ep.PerPriority {
			classed += pl.Latency.Count
		}
		if len(ep.PerPriority) > 0 && classed != ep.Latency.Count {
			return fmt.Errorf("serve: report: endpoint %s has %d latencies, its priority classes %d",
				ep.Name, ep.Latency.Count, classed)
		}
	}
	if queries != r.Queries || failed != r.Failed || samples != r.Samples {
		return fmt.Errorf("serve: report: endpoints sum to %d queries, %d failed, %d samples; totals are %d, %d, %d",
			queries, failed, samples, r.Queries, r.Failed, r.Samples)
	}
	if r.Latency.Count != r.Queries-r.Failed {
		return fmt.Errorf("serve: report: %d latencies for %d queries, %d failed", r.Latency.Count, r.Queries, r.Failed)
	}
	if r.Latency.Max > r.Horizon {
		return fmt.Errorf("serve: report: slowest request took %v, the replay %v", r.Latency.Max, r.Horizon)
	}
	return nil
}

// String renders the report as a deterministic fixed-order text table, so
// identical traces and seeds produce byte-identical reports.
func (r *Report) String() string {
	var sb strings.Builder
	fmt.Fprintf(&sb, "serving report: %d queries (%d samples), %d failed, horizon %v\n",
		r.Queries, r.Samples, r.Failed, r.Horizon)
	fmt.Fprintf(&sb, "latency: %s\n", fmtLatency(r.Latency))
	for _, ep := range r.Endpoints {
		fmt.Fprintf(&sb, "endpoint %s (N=%d, %v", ep.Name, ep.Neurons, ep.Channel)
		if ep.Workers > 1 {
			fmt.Fprintf(&sb, " x%d", ep.Workers)
		}
		fmt.Fprintf(&sb, ", %d replica(s)):\n", ep.Replicas)
		fmt.Fprintf(&sb, "  %d queries (%d samples), %d failed, %d run(s)",
			ep.Queries, ep.Samples, ep.Failed, ep.Runs)
		if ep.Runs > 0 {
			fmt.Fprintf(&sb, ", avg batch %.2f req / %.1f samples, max %d samples",
				ep.AvgRunRequests, ep.AvgRunSamples, ep.MaxRunSamples)
		}
		fmt.Fprintf(&sb, "\n  starts: %d cold / %d warm\n", ep.ColdStarts, ep.WarmStarts)
		fmt.Fprintf(&sb, "  sched: %s admission, %s scaling\n", ep.Admission, ep.Scaling)
		fmt.Fprintf(&sb, "  pool: peak %d, %.3f replica-hours, %d up / %d down, max %d run(s)/replica\n",
			ep.PeakReplicas, ep.ReplicaSeconds/3600, ep.ScaleUps, ep.ScaleDowns, ep.MaxConcurrentRuns)
		if ep.Shed+ep.Rerouted+ep.DeadlineMissed+ep.Reselections > 0 {
			fmt.Fprintf(&sb, "  policy: %d shed, %d rerouted, %d deadline-missed, %d reselection(s)\n",
				ep.Shed, ep.Rerouted, ep.DeadlineMissed, ep.Reselections)
		}
		if ep.DeployFailures > 0 {
			fmt.Fprintf(&sb, "  deploy failures: %d (the pool kept its replicas)\n", ep.DeployFailures)
		}
		for _, ev := range ep.Replans {
			fmt.Fprintf(&sb, "  replan @%v: %v x%d -> %v x%d (%s)\n",
				ev.At.Round(time.Millisecond), ev.From, ev.FromWorkers, ev.To, ev.ToWorkers, ev.Reason)
		}
		fmt.Fprintf(&sb, "  latency: %s\n", fmtLatency(ep.Latency))
		for _, pl := range ep.PerPriority {
			fmt.Fprintf(&sb, "  latency p=%d: %s\n", pl.Priority, fmtLatency(pl.Latency))
		}
		fmt.Fprintf(&sb, "  cost (ledger): %s\n", ep.Cost.String())
	}
	fmt.Fprintf(&sb, "total metered cost: %s\n", r.TotalCost.String())
	u := &r.Usage
	if u.KVGBHours > 0 {
		fmt.Fprintf(&sb, "provisioned memory store: %.3f GB-hours ($%.4f), %d ops (no per-request charge)\n",
			u.KVGBHours, r.TotalCost.KV, u.KVOps)
	}
	var replicaHours float64
	usage.FoldSorted(u.KVReplicaHours, func(_ string, h float64) { replicaHours += h })
	if replicaHours > 0 {
		fmt.Fprintf(&sb, "  replicas: %.3f node-hours ($%.4f) buying failover cover\n",
			replicaHours, r.TotalCost.KVReplica)
	}
	usage.FoldSorted(u.KVShardHours, func(s string, h float64) {
		if h > 0 {
			fmt.Fprintf(&sb, "  shard %s: %.3f node-hours ($%.4f)\n", s, h, r.KVShardCost[s])
		}
	})
	// One rule for all chaos-path counters: the line prints when ANY of
	// them is nonzero. Gating on failovers alone hid MOVED redirects
	// (and, in principle, losses or re-sends) from partition-only or
	// scale-churn runs that never completed a failover.
	if u.KVFailovers+u.KVLostValues+u.KVResends+u.KVMoved > 0 {
		fmt.Fprintf(&sb, "store failovers: %d, %d value(s) lost, %d re-sent, %d MOVED redirect(s)\n",
			u.KVFailovers, u.KVLostValues, u.KVResends, u.KVMoved)
	}
	if r.ChaosKills+r.ChaosPartitions+r.ChaosSkipped > 0 {
		fmt.Fprintf(&sb, "chaos: %d node kill(s), %d partition(s) injected, %d skipped\n",
			r.ChaosKills, r.ChaosPartitions, r.ChaosSkipped)
	}
	if len(u.Collectives) > 0 {
		sb.WriteString("collectives:")
		usage.FoldSorted(u.Collectives, func(k string, n int64) { fmt.Fprintf(&sb, " %s=%d", k, n) })
		sb.WriteByte('\n')
	}
	if u.HybridSmallValues+u.HybridBulkValues > 0 {
		fmt.Fprintf(&sb, "hybrid routing: %d inline value(s), %d bulk value(s) (%d chunks, %d bytes)\n",
			u.HybridSmallValues, u.HybridBulkValues, u.HybridChunks, u.HybridBulkBytes)
	}
	fmt.Fprintf(&sb, "instance starts: %d cold / %d warm\n", r.ColdStarts, r.WarmStarts)
	return sb.String()
}

func fmtLatency(ls LatencyStats) string {
	if ls.Count == 0 {
		return "n/a"
	}
	return fmt.Sprintf("p50=%v p95=%v p99=%v mean=%v max=%v",
		ls.P50.Round(time.Millisecond), ls.P95.Round(time.Millisecond),
		ls.P99.Round(time.Millisecond), ls.Mean.Round(time.Millisecond),
		ls.Max.Round(time.Millisecond))
}
