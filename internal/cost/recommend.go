// Package cost is the a-priori side of the FSD-Inference cost model (paper
// §IV): it estimates, before anything runs, the request counts a workload will
// be billed for, and turns them into the §IV-C design recommendations (which
// channel, and why) that the planner's analytic pre-filter shares. Equations
// (1)-(7) themselves — a count into dollars — are usage.Meter.Cost and nothing
// here: the counts predicted below are priced there, as the counts a run's
// workers ledger are (core's bill hooks) and the counts the simulated services
// meter. The §VI-F validation of the model against billed actuals is
// experiments.CostValidation.
package cost

import (
	"fmt"

	"fsdinference/internal/cloud/kvstore"
	"fsdinference/internal/cloud/pricing"
	"fsdinference/internal/cloud/usage"
)

// Channel names a communication-channel recommendation.
type Channel string

// Recommended channels (§IV-C).
const (
	ChannelSerial Channel = "FSD-Inf-Serial"
	ChannelQueue  Channel = "FSD-Inf-Queue"
	ChannelObject Channel = "FSD-Inf-Object"
	ChannelMemory Channel = "FSD-Inf-Memory"
)

// Workload describes an inference workload for a-priori channel selection.
type Workload struct {
	// ModelBytes is the raw serialized model size.
	ModelBytes int64
	// MemOverhead is the in-memory blowup factor of the runtime.
	MemOverhead float64
	// InstanceCapMB is the largest single-instance memory available.
	InstanceCapMB int
	// Workers is the intended parallelism P.
	Workers int
	// BytesPerPairPerLayer is the expected encoded communication volume
	// for one (source, target) pair in one layer.
	BytesPerPairPerLayer int64
	// PairsPerLayer is the number of communicating pairs per layer.
	PairsPerLayer int64
	// Layers is the layer count.
	Layers int

	// ConcurrentRuns is the peak number of engine runs in flight at once
	// (the serving layer's observed MaxConcurrentRuns). 0 means a single
	// run. Overlapping runs multiply the store's resident working set:
	// every in-flight run parks a layer's worth of pair values in the
	// node until the receivers drain them.
	ConcurrentRuns int

	// QueriesPerDay is the expected sustained request volume. 0 means
	// unknown: the recommendation then stays within the pay-per-request
	// channels, since a provisioned memory node bills while idle — the
	// sporadic-workload killer the paper cites when ruling ElastiCache
	// out (§II-D).
	QueriesPerDay int64
	// MemoryNodeHourly overrides the provisioned in-memory node's hourly
	// price (0 uses the default catalogue's cache.m6g.large rate).
	MemoryNodeHourly float64
}

// FitsSingleInstance reports whether the model fits one FaaS instance.
func (w Workload) FitsSingleInstance() bool {
	return float64(w.ModelBytes)*w.MemOverhead <= float64(w.InstanceCapMB)*1024*1024
}

// comfortFactor is the fraction of the instance cap a model may occupy and
// still count as "comfortably" fitting (§IV-C): beyond it, activation
// buffers and runtime overheads make single-instance processing
// inefficient even when the weights technically fit, as the paper observes
// for N=16384.
const comfortFactor = 0.25

// FitsComfortably reports whether single-instance execution is the
// recommended regime for this model.
func (w Workload) FitsComfortably() bool {
	return float64(w.ModelBytes)*w.MemOverhead <= comfortFactor*float64(w.InstanceCapMB)*1024*1024
}

// Advice is a channel recommendation with its reasoning, following the
// paper's design recommendations (§IV-C): serial for models that fit one
// instance; queue while per-pair volumes stay within a few publish payloads
// (API requests ~1 OOM cheaper, up to 10 targets per publish, up to 10
// sources per poll); object storage once data volumes saturate
// pub-sub/queueing capacity; and a provisioned memory store once a known
// sustained volume amortises its flat node-hour bill below the
// per-request channels' metered spend.
type Advice struct {
	Channel Channel
	Reasons []string
}

// publishCapacity is the maximum payload of one publish (10 messages of up
// to 256 KB share a 256 KB batch budget, so effectively 256 KB per call).
const publishCapacity = 256 * 1024

// saturationChunks is the per-pair chunk count beyond which the queue
// channel's publish amplification makes object storage competitive; the
// paper observes multiple publishes per target emerging beyond N=16384.
const saturationChunks = 8

// PublishChunks returns the number of publish-payload chunks one
// (source, target) pair's layer volume needs on the queue channel.
func PublishChunks(bytesPerPair int64) int64 {
	c := (bytesPerPair + publishCapacity - 1) / publishCapacity
	if c < 1 {
		c = 1
	}
	return c
}

// QueueSaturated reports whether per-pair volumes chunk beyond the point
// where the queue channel's publish amplification makes object storage
// analytically competitive (§IV-C). Recommend and the planner's analytic
// pre-filter share this rule so they cannot drift apart.
func QueueSaturated(bytesPerPair int64) bool {
	return PublishChunks(bytesPerPair) > saturationChunks
}

// MemoryValueFeasible reports whether one pair's layer volume fits a
// single stored value of the provisioned memory store — the memory
// channel ships unchunked values, so volumes above the cap rule it out
// however favourable the billing.
func MemoryValueFeasible(bytesPerPair int64) bool {
	return bytesPerPair <= int64(kvstore.DefaultConfig().MaxValueBytes)
}

// storeHeadroom is the provisioning factor between a workload's resident
// working set and the node memory it needs: half of each node is held
// back for replication buffers and copy-on-write snapshot forks, per the
// managed-cache guidance to reserve memory on write-heavy workloads —
// and an engine-run inbox is nothing but writes.
const storeHeadroom = 2.0

// MemoryWorkingSetBytes estimates the peak bytes resident in the
// provisioned store: one layer's pair values per in-flight run, times
// the peak run concurrency.
func MemoryWorkingSetBytes(w Workload) int64 {
	runs := int64(w.ConcurrentRuns)
	if runs < 1 {
		runs = 1
	}
	return runs * w.PairsPerLayer * w.BytesPerPairPerLayer
}

// MemoryNodeCapacityExceeded reports whether the workload's peak working
// set, with the write-heavy headroom applied, overflows the usable
// memory of a cluster of shards of the node type. Capacity scales
// linearly with the shard count, like the request-rate ceiling: this is
// the second analytic rule that forces bigger nodes (or more shards)
// under bulk-tensor workloads — and the rule the hybrid channel escapes
// by parking bulk values in object storage.
func MemoryNodeCapacityExceeded(w Workload, nodeType string, shards int) bool {
	if shards < 1 {
		shards = 1
	}
	nt, ok := kvstore.Catalog[nodeType]
	if !ok {
		nt = kvstore.Catalog[kvstore.DefaultNodeType]
	}
	usable := nt.MemoryGB * float64(int64(1)<<30) * float64(shards)
	return float64(MemoryWorkingSetBytes(w))*storeHeadroom > usable
}

// MemoryOpsPerQuery estimates the store operations one query issues on
// the memory channel: one push and one pop per (pair, layer), plus the
// barrier and reduce traffic (roughly four ops per worker). It is the
// demand side of the per-node request-rate ceiling.
func MemoryOpsPerQuery(w Workload) int64 {
	return 2*w.PairsPerLayer*int64(w.Layers) + 4*int64(w.Workers)
}

// MemoryClusterSaturated reports whether the workload's sustained
// operation rate exceeds the aggregate request-rate ceiling of a cluster
// of shards primaries of the node type: each shard enforces its own
// ceiling, so capacity scales linearly with the shard count. A saturated
// configuration is infeasible however cheap — queries would back up
// behind the limiter without bound — which is the analytic rule that
// makes the planner reach for more shards under heavy sustained volume.
func MemoryClusterSaturated(w Workload, nodeType string, shards int) bool {
	if w.QueriesPerDay <= 0 {
		return false
	}
	if shards < 1 {
		shards = 1
	}
	nt, ok := kvstore.Catalog[nodeType]
	if !ok {
		nt = kvstore.Catalog[kvstore.DefaultNodeType]
	}
	demand := float64(MemoryOpsPerQuery(w)*w.QueriesPerDay) / 86400
	return demand > nt.MaxOpsPerSec*float64(shards)
}

// memoryNodeHourly resolves the provisioned node's hourly price: the
// workload's explicit override, else the catalogue's rate for the
// default node type deployments assume.
func (w Workload) memoryNodeHourly(cat pricing.Catalog) float64 {
	if w.MemoryNodeHourly > 0 {
		return w.MemoryNodeHourly
	}
	return cat.KVNodeHourly[kvstore.DefaultNodeType]
}

// RequestDailyCost returns the per-request channels' daily communication
// spend for the workload at its QueriesPerDay volume: the best of queue
// and object API pricing per query, times the volume.
func RequestDailyCost(cat pricing.Catalog, w Workload) float64 {
	q, o := APICost(cat, w.PairsPerLayer, w.BytesPerPairPerLayer)
	per := q
	if o < per {
		per = o
	}
	return per * float64(w.Layers) * float64(w.QueriesPerDay)
}

// MemoryDailyCost returns the provisioned memory store's daily spend:
// 24 node-hours whether one query arrives or a million — there is no
// per-request term at all.
func MemoryDailyCost(cat pricing.Catalog, w Workload) float64 {
	return 24 * w.memoryNodeHourly(cat)
}

// MemoryBreakEvenQueriesPerDay returns the daily query volume at which
// the provisioned memory store's flat node cost drops below the
// per-request channels' metered spend. Below it, idle billing makes the
// memory store the most expensive option.
func MemoryBreakEvenQueriesPerDay(cat pricing.Catalog, w Workload) int64 {
	w.QueriesPerDay = 1
	perQuery := RequestDailyCost(cat, w)
	if perQuery <= 0 {
		return 0
	}
	return int64(MemoryDailyCost(cat, w)/perQuery) + 1
}

// Recommend selects a channel for the workload.
func Recommend(w Workload) Advice {
	if w.FitsComfortably() {
		return Advice{
			Channel: ChannelSerial,
			Reasons: []string{
				fmt.Sprintf("model (%d MB in memory) fits comfortably in a single instance cap of %d MB; serial execution avoids all IPC latency",
					int64(float64(w.ModelBytes)*w.MemOverhead)/(1<<20), w.InstanceCapMB),
			},
		}
	}
	// Provisioned versus per-request: with a known sustained volume, a
	// flat-rate memory node can undercut the metered channels — and below
	// the break-even it bills while idle, which is why the paper rules it
	// out for sporadic workloads.
	cat := pricing.Default()
	var memReason string
	// The memory channel ships one unchunked value per (pair, layer), so
	// a per-pair volume above the store's value cap rules it out however
	// favourable the billing.
	memFeasible := MemoryValueFeasible(w.BytesPerPairPerLayer)
	if w.QueriesPerDay > 0 && memFeasible {
		memDaily := MemoryDailyCost(cat, w)
		reqDaily := RequestDailyCost(cat, w)
		if memDaily < reqDaily {
			return Advice{
				Channel: ChannelMemory,
				Reasons: []string{
					fmt.Sprintf("sustained volume (%d queries/day) amortises the provisioned node: $%.2f/day flat vs $%.2f/day in per-request charges (break-even ~%d queries/day)",
						w.QueriesPerDay, memDaily, reqDaily, MemoryBreakEvenQueriesPerDay(cat, w)),
					"memory-speed ops carry no per-request price and cut per-hop latency by ~1 OOM versus pub-sub",
				},
			}
		}
		memReason = fmt.Sprintf("a provisioned memory node would bill $%.2f/day while mostly idle at %d queries/day (break-even ~%d) — the sporadic-workload killer",
			MemoryDailyCost(cat, w), w.QueriesPerDay, MemoryBreakEvenQueriesPerDay(cat, w))
	}
	chunks := PublishChunks(w.BytesPerPairPerLayer)
	if !QueueSaturated(w.BytesPerPairPerLayer) {
		adv := Advice{
			Channel: ChannelQueue,
			Reasons: []string{
				fmt.Sprintf("per-pair layer volume %d B needs %d publish chunk(s); pub-sub/queueing API requests are ~1 OOM cheaper and amortise up to 10 targets per publish and 10 sources per poll",
					w.BytesPerPairPerLayer, chunks),
				"queue costs grow slowly with parallelism for a given data volume",
			},
		}
		if memReason != "" {
			adv.Reasons = append(adv.Reasons, memReason)
		}
		return adv
	}
	adv := Advice{
		Channel: ChannelObject,
		Reasons: []string{
			fmt.Sprintf("per-pair layer volume %d B needs %d publish chunks, saturating pub-sub payload capacity; object sizes are effectively unlimited",
				w.BytesPerPairPerLayer, chunks),
			"object storage bills per request regardless of size, so costs stay flat as volumes grow",
		},
	}
	if memReason != "" {
		adv.Reasons = append(adv.Reasons, memReason)
	}
	return adv
}

// APICost compares the per-layer communication API-request cost of the two
// channels for a given pair count and per-pair volume — the §IV-C quota
// analysis behind the "API costs ~1 OOM cheaper, up to 2 OOM in best-case
// conditions" claim. It covers request charges only (billed publishes,
// polls and deletes versus PUTs, GETs and amortised LISTs); the
// volume-proportional SNS→SQS byte charge enters the full Equation (5)
// model, not this per-request comparison. Best-case packing is assumed:
// 10 messages per publish serving 10 targets, 10 messages per poll. What is
// predicted here is the counts; usage.Meter.Cost prices them.
func APICost(cat pricing.Catalog, pairs int64, bytesPerPair int64) (queue, object float64) {
	if pairs == 0 {
		return 0, 0
	}
	chunksPerPair := (bytesPerPair + publishCapacity - 1) / publishCapacity
	if chunksPerPair < 1 {
		chunksPerPair = 1
	}
	messages := pairs * chunksPerPair
	// Publishes: up to 10 messages per call when chunks are small; one
	// call per full-size chunk otherwise.
	publishes := (messages + 9) / 10
	if chunksPerPair > 1 {
		publishes = messages
	}
	billed := publishes
	if b := pricing.BilledPublishRequests(bytesPerPair * pairs); b > billed {
		billed = b
	}
	polls := (messages + 9) / 10
	deletes := polls
	q := (&usage.Meter{SNSBilledPublishes: billed, SQSReceiveCalls: polls, SQSDeleteCalls: deletes}).Cost(cat)

	// Object: one PUT and one GET per pair; LISTs amortise to roughly one
	// per target per layer (scans overlap other workers' write phases), a
	// quarter of a LIST per pair.
	transfers := (&usage.Meter{S3PutCalls: pairs, S3GetCalls: pairs}).Cost(cat)
	lists := (&usage.Meter{S3ListCalls: pairs}).Cost(cat)
	return q.SNS + q.SQS, transfers.S3 + lists.S3/4
}
