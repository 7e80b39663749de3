package core

import (
	"fmt"

	"fsdinference/internal/cloud/env"
	"fsdinference/internal/cloud/pricing"
	"fsdinference/internal/cloud/usage"
	"fsdinference/internal/collective"
	"fsdinference/internal/wire"
)

// transport declares one ChannelKind: everything the engine and the planner
// know about a kind apart from its data path, which is the channel that
// open returns — its price included, in predict. The hooks' bodies live in
// the kind's channel_*.go, and the package comment says what each must
// preserve; a nil hook means the kind has nothing to do at that point, and
// every row has a predict.
type transport struct {
	// name is the paper's name for the variant, spelling how a command
	// line writes it.
	name, spelling string
	// provision creates what the kind keeps for the deployment's lifetime.
	provision func(d *Deployment) error
	// bind creates and unbind releases one run's own resources.
	bind, unbind func(d *Deployment, run *runState)
	// open returns worker w's end of the channel.
	open func(w *worker) channel
	// traits summarises the kind for the analytic collective cost model, for
	// a message of msgBytes over services calibrated as ec.
	traits func(cfg Config, ec env.Config, msgBytes int64) collective.Traits
	// predict is the kind's §IV cost model before a deployment exists: the
	// usage counts one query of w bills on the kind's own services, or why
	// cfg cannot serve w at all.
	predict func(w Workload, cfg Config) (usage.Meter, error)
	// store marks a kind that provisions the in-memory store cluster, which
	// bills node-hours by the day, idle or busy (StoreDailyCost).
	store bool
}

// transports is the one place a ChannelKind is declared, indexed by kind.
// Serial has a name and a footprint rule and nothing else: a kind without
// open runs as rank 0 of a one-rank plan that the client invokes directly
// (ChannelKind.Peerless). Hybrid owns no service and is composed from the
// Memory and Object pieces, as its channel is.
var transports = [...]transport{
	Serial: {name: "FSD-Inf-Serial", spelling: "serial", predict: predictSerial},
	Queue: {
		name: "FSD-Inf-Queue", spelling: "queue",
		provision: provisionTopics, bind: bindRunQueues, unbind: unbindRunQueues,
		open: openQueue, traits: queueTraits, predict: predictQueue,
	},
	Object: {
		name: "FSD-Inf-Object", spelling: "object",
		provision: provisionBuckets, open: openObject, traits: objectTraits, predict: predictObject,
	},
	Memory: {
		name: "FSD-Inf-Memory", spelling: "memory",
		provision: provisionStore, bind: bindStore, unbind: dropRunKeyspace,
		open: openMemory, traits: memoryTraits, predict: predictMemory, store: true,
	},
	Hybrid: {
		name: "FSD-Inf-Hybrid", spelling: "hybrid",
		provision: provisionHybrid, bind: bindStore, unbind: dropRunKeyspace,
		open: openHybrid, traits: hybridTraits, predict: predictHybrid, store: true,
	},
}

// ChannelKinds lists every kind the table declares, in table order, so code
// that ranges over kinds — the §VI-F validation, a test — covers a new row
// without being edited.
func ChannelKinds() []ChannelKind {
	kinds := make([]ChannelKind, len(transports))
	for k := range transports {
		kinds[k] = ChannelKind(k)
	}
	return kinds
}

// Peerless reports whether c has no channel (Serial): its one rank is
// invoked by the client directly, runs at the platform's maximum memory and
// exchanges nothing (see runAlone).
func (c ChannelKind) Peerless() bool { return transports[c].open == nil }

// ProvisionsStore reports whether c provisions the in-memory store cluster
// and so bills its node-hours by the day (StoreDailyCost).
func (c ChannelKind) ProvisionsStore() bool { return transports[c].store }

// known reports whether c has a row in the table.
func (c ChannelKind) known() bool { return c >= 0 && int(c) < len(transports) }

// String returns the paper's name for the variant.
func (c ChannelKind) String() string {
	if !c.known() {
		return fmt.Sprintf("ChannelKind(%d)", int(c))
	}
	return transports[c].name
}

// ParseChannelKind returns the kind whose command-line spelling is s.
func ParseChannelKind(s string) (ChannelKind, error) {
	for k := range transports {
		if transports[k].spelling == s {
			return ChannelKind(k), nil
		}
	}
	return 0, fmt.Errorf("core: unknown channel %q", s)
}

// ChannelTraits is cfg.Channel's summary for the analytic collective cost
// model, for a message of msgBytes over services calibrated as ec: what a
// worker's AutoAlgo consults inside a deployment (ec is its environment's
// configuration) and what the planner's pre-filter consults before one
// exists (env.DefaultConfig()), so the two cannot disagree. Zero fields of
// cfg take the deployment defaults; Serial has no traits.
func ChannelTraits(cfg Config, ec env.Config, msgBytes int64) collective.Traits {
	if !cfg.Channel.known() || transports[cfg.Channel].traits == nil {
		return collective.Traits{}
	}
	return transports[cfg.Channel].traits(cfg.withDefaults(), ec, msgBytes)
}

// Workload is the paper's §IV description of an inference workload, all a
// transport row's prediction reads: the model's footprint, the per-layer
// exchange at parallelism P and the daily volume.
type Workload struct {
	// ModelBytes is the raw serialized model size.
	ModelBytes int64
	// MemOverhead is the in-memory blowup factor of the runtime.
	MemOverhead float64
	// InstanceCapMB is the largest single-instance memory available.
	InstanceCapMB int
	// Workers is the intended parallelism P.
	Workers int
	// Frame is what one (source, target) pair ships in one layer: a dense
	// raw frame of rows and batch, as the planner's candidates deploy it.
	// wire sizes it (Frame.Bytes), and the Queue and Hybrid rows cut it
	// with the split their channel encodes by (Frame.Chunks).
	Frame wire.Frame
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
}

// PredictQuery is cfg.Channel's row prediction for w: the usage counts one
// query bills on the kind's own services, which usage.Meter.Cost prices, or
// why cfg cannot serve w (the error reads as a prune reason). Zero fields of
// cfg take the deployment defaults, as in ChannelTraits. It is what the
// planner's pre-filter and cmd/fsdcost know of a kind's price.
func PredictQuery(w Workload, cfg Config) (usage.Meter, error) {
	return transports[cfg.Channel].predict(w, cfg.withDefaults())
}

// predictSerial is the one rule Serial has: the whole model, at the
// runtime's in-memory blowup, must fit the largest single instance. It
// makes no call a channel bills.
func predictSerial(w Workload, _ Config) (usage.Meter, error) {
	if need := float64(w.ModelBytes) * w.MemOverhead; need > float64(w.InstanceCapMB)*float64(1<<20) {
		return usage.Meter{}, fmt.Errorf("model needs ~%d MB in memory, over the %d MB instance cap",
			int64(need)>>20, w.InstanceCapMB)
	}
	return usage.Meter{}, nil
}

// StoreDailyCost is the flat daily bill of cfg's store cluster under cat:
// 24 hours of each of its shards times (1 + replicas) nodes, idle or busy,
// with no per-request term. Zero fields of cfg take the deployment
// defaults.
func StoreDailyCost(cfg Config, cat pricing.Catalog) float64 {
	cfg = cfg.withDefaults()
	return 24 * cat.KVNodeHourly[cfg.KVNodeType] * float64(cfg.KVNodes*(1+cfg.KVReplicas))
}
