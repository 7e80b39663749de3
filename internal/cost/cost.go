// Package cost is the a-priori side of the FSD-Inference cost model (paper
// §IV): it estimates, before anything runs, the request counts a workload will
// be billed for and the daily spend they come to — the §IV-C arithmetic that
// the planner's analytic pre-filter (plan.PrefilterChannels, whose rows
// cmd/fsdcost prints) and the experiments' tables read. Which channel a
// workload gets, and why, is decided in one place, plan's analyticPrune; this
// package holds no per-channel verdict. Equations (1)-(7) themselves — a
// count into dollars — are usage.Meter.Cost and nothing here: the counts
// predicted below are priced there, as the counts a run's workers ledger are
// (core's bill hooks) and the counts the simulated services meter. The §VI-F
// validation of the model against billed actuals is
// experiments.CostValidation.
package cost

import (
	"fsdinference/internal/cloud/kvstore"
	"fsdinference/internal/cloud/pricing"
	"fsdinference/internal/cloud/usage"
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
	// unknown: the rules that need a volume — a provisioned store's idle
	// billing (§II-D's sporadic-workload killer) and its request-rate
	// ceiling — then judge nothing, and the planner measures instead.
	QueriesPerDay int64
	// MemoryNodeHourly overrides the provisioned in-memory node's hourly
	// price (0 uses the default catalogue's cache.m6g.large rate).
	MemoryNodeHourly float64
}

// publishCapacity is the maximum payload of one publish (10 messages of up
// to 256 KB share a 256 KB batch budget, so effectively 256 KB per call).
const publishCapacity = 256 * 1024

// PublishChunks returns the number of publish-payload chunks one
// (source, target) pair's layer volume needs on the queue channel.
func PublishChunks(bytesPerPair int64) int64 {
	c := (bytesPerPair + publishCapacity - 1) / publishCapacity
	if c < 1 {
		c = 1
	}
	return c
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
	chunksPerPair := PublishChunks(bytesPerPair)
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
