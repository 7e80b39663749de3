// Package core implements FSD-Inference (paper §III): fully serverless
// distributed DNN inference over a tree of FaaS workers that exchange
// intermediate activations through fully serverless channels.
//
// Three variants are provided, matching the paper:
//
//   - FSD-Inf-Serial: a single FaaS instance, no communication (§VI-A1),
//   - FSD-Inf-Queue: pub-sub topics fanning out to per-worker queues with
//     service-side filter policies (Algorithm 1),
//   - FSD-Inf-Object: object-storage buckets with `.dat`/`.nul` objects and
//     LIST-driven receive loops (Algorithm 2),
//
// and two the paper weighs them against: FSD-Inf-Memory (a provisioned
// in-memory store cluster) and FSD-Inf-Hybrid (per-message routing by size
// between that store and object storage).
//
// # What a transport must provide
//
// Algorithms 1 and 2 are one FSI loop over two services, and here the
// loop is written once over any number of them. A transport implements
// the two-method channel interface (channel.go): send ships one row set
// per target under a tag, gather collects a tag's values from a set of
// sources. A tag {kind, layer} names one logical exchange — {"data", k}
// is layer k of the FSI data path, {op, round} a collective step — and is
// all that matches a value to the gather expecting it.
//
// gather is gatherLoop plus the transport's arrival source: poll waits on
// the service once and hands gatherLoop each byte string as an arrival
// (tag, source worker, how many byte strings the source ships under the
// tag and which one this is, and the body — nil when the source had
// nothing to send). gatherLoop owns everything after that: the set of
// sources still owed, deduplication of redelivered chunks, buffering of
// arrivals for tags the worker has not reached, the runtime check, and
// decode-and-deliver. The transport charges what it asks of its service
// (WorkerMetrics Polls, Fetches, Deletes, Publishes, BytesSent, and its
// thread pools); the shared steps charge the worker's own CPU — the
// compression in encodeFrame/encodeChunks, BytesRecv plus parse and
// decompression in decodePayload. The data path of a new transport is
// therefore one send and one poll; Hybrid, which owns no service, is a
// routing policy over the Memory transport and the object-store helpers
// instead.
//
// Everything else the engine knows about a kind is one row of the
// transports table (transport.go), whose hooks live in the kind's
// channel_*.go next to its channel; Deploy, Start, the worker, AutoAlgo and
// the per-run ledger read the row and name no kind. A kind is that row plus
// that file. What each hook must preserve:
//
//   - provision creates the a-priori resources, after the model is staged
//     and before the functions are registered: bucket, topic and cluster
//     names and the KV service's node sequence follow creation order
//     (Hybrid: buckets, then the cluster).
//   - bind and unbind create and release a run's own resources (the Queue
//     kind's per-run queues, the store kinds' loss baseline and keyspace):
//     bind once the run is in Deployment.runs, unbind in the client process
//     before the run's done callback. Both are free control-plane work.
//   - open returns one worker's channel.
//   - traits is the kind as the analytic collective cost model sees it —
//     per-message latency, bandwidth, fan-out — from the environment's
//     service calibration. AutoAlgo inside a deployment and the planner's
//     pre-filter (ChannelTraits) read the same hook, so they cannot disagree.
//   - bill maps a worker's ledger onto the usage meter: exactly the calls the
//     channel charged to WorkerMetrics, so the per-run reconstruction and the
//     environment meter agree (TestAsyncUsageReconstructionMatchesMeter).
//
// The planner's analytic prune rules are not here: they are stated over
// cost.Workload and plan.Candidate, which this package must not import, and
// live in plan.analyticPrune, that package's one switch on a kind.
//
// Workers launch hierarchically (worker_invoke_children): the coordinator
// and every worker invoke the children Config.launchChildren enumerates for
// them, each child carrying its rank in the payload. They load their
// row-block weights and send/receive maps from the model store, and run the
// FSI loop:
// extract and compress outgoing rows, publish in parallel threads, overlap
// the local multiply, then receive, accumulate, apply the activation, and
// finally barrier and reduce the output to worker 0.
package core

import (
	"fmt"
	"time"

	"fsdinference/internal/cloud/kvstore"
	"fsdinference/internal/cloud/usage"
	"fsdinference/internal/collective"
	"fsdinference/internal/model"
	"fsdinference/internal/obs"
	"fsdinference/internal/partition"
	"fsdinference/internal/sparse"
)

// ChannelKind selects the communication channel variant.
type ChannelKind int

const (
	// Serial runs a single worker with no communication (FSD-Inf-Serial).
	Serial ChannelKind = iota
	// Queue uses pub-sub + queues (FSD-Inf-Queue).
	Queue
	// Object uses object storage (FSD-Inf-Object).
	Object
	// Memory uses a provisioned in-memory key-value store
	// (FSD-Inf-Memory): memory-speed list push/pop communication billed
	// by provisioned node-hours instead of per request — the
	// ElastiCache/Redis design the paper weighs against its channels.
	Memory
	// Hybrid routes each message by size: small control traffic (barriers,
	// reduce partials, sparse activations under HybridThresholdBytes) over
	// the in-memory store, bulk tensors chunked over object storage with
	// the chunks fetched in parallel — the FMI-style per-message channel
	// selection that lifts the one-channel-per-deployment restriction.
	Hybrid
)

// LaunchMode selects how the worker tree is populated (§III and the launch
// ablation; the paper reports the hierarchical mechanism beats a
// centralised single loop and Lambada's two-level loop).
type LaunchMode int

const (
	// Hierarchical is the paper's worker_invoke_children tree launch.
	Hierarchical LaunchMode = iota
	// Centralized has the coordinator invoke every worker itself.
	Centralized
	// TwoLevel has the coordinator invoke group leaders, each of which
	// invokes its group (the Lambada-style two-level loop).
	TwoLevel
)

var launchNames = [...]string{Hierarchical: "hierarchical", Centralized: "centralized", TwoLevel: "two-level"}

func (l LaunchMode) known() bool { return l >= 0 && int(l) < len(launchNames) }

// String names the launch mode.
func (l LaunchMode) String() string {
	if !l.known() {
		return fmt.Sprintf("LaunchMode(%d)", int(l))
	}
	return launchNames[l]
}

// launchFanout is the hierarchical launch tree's number of children per
// worker (§III).
const launchFanout = 3

// launchChildren enumerates the ranks invoker r launches — first,
// first+step, ... below end — where r = -1 is the coordinator. Walking it
// from the coordinator reaches every rank exactly once, each after its
// invoker, and the coordinator's first child is rank 0 (TestLaunchChildren).
// Deployment.launch invokes in this order, and each invoke draws the callee's
// cold-start jitter, so the order is part of the simulated result.
func (c Config) launchChildren(r int) (first, end, step int) {
	p := c.Workers()
	switch c.Launch {
	case Centralized:
		if r < 0 {
			return 0, p, 1
		}
		return 0, 0, 1
	case TwoLevel:
		// The coordinator invokes the leaders of ~sqrt(P) groups, each
		// leader its group (Lambada's two-level loop).
		g := 1
		for g*g < p {
			g++
		}
		if r < 0 {
			return 0, p, g
		}
		if r%g != 0 {
			return 0, 0, 1
		}
		return r + 1, min(r+g, p), 1
	default: // Hierarchical: the coordinator invokes the root of a heap.
		if r < 0 {
			return 0, 1, 1
		}
		return r*launchFanout + 1, min(r*launchFanout+launchFanout+1, p), 1
	}
}

// DefaultKVNodeType is the provisioned in-memory store node the Memory
// channel uses unless Config.KVNodeType overrides it.
const DefaultKVNodeType = kvstore.DefaultNodeType

// DefaultHybridThresholdBytes is the Hybrid channel's routing split unless
// Config.HybridThresholdBytes overrides it.
const DefaultHybridThresholdBytes = 128 << 10

// DefaultWorkerMemoryMB returns the paper's per-worker memory sizing for a
// given neuron count (§VI-A1: 1000/1500/2000/4000 MB for N = 1024..65536),
// chosen so partitioned weights fit with a small overhead.
func DefaultWorkerMemoryMB(neurons int) int {
	switch {
	case neurons <= 1024:
		return 1000
	case neurons <= 4096:
		return 1500
	case neurons <= 16384:
		return 2000
	default:
		return 4000
	}
}

// Config describes one FSD-Inference deployment.
type Config struct {
	// Model is the sparse DNN to serve.
	Model *model.Model
	// Plan is the offline partitioning (required unless Channel ==
	// Serial). Its worker count is the request parallelism P.
	Plan *partition.Plan
	// Channel selects the communication variant.
	Channel ChannelKind

	// Launch selects the tree-launch mechanism (default Hierarchical).
	Launch LaunchMode

	// WorkerMemoryMB sizes worker functions (default: paper sizing for
	// the model's neuron count).
	WorkerMemoryMB int
	// SerialMemoryMB sizes the serial function (default 10240, the
	// platform maximum, as in §VI-A1).
	SerialMemoryMB int
	// FunctionTimeout is the worker runtime limit (default: platform
	// maximum, 15 minutes).
	FunctionTimeout time.Duration

	// Threads is the per-worker communication thread pool size
	// (default 4), the ThreadPoolExecutor of §VI-A1.
	Threads int
	// Collective selects the collective topology for barrier/reduce
	// (default Flat, the paper's root-funnelled pattern; AutoAlgo picks
	// the analytically cheapest per call from the channel's traits).
	Collective collective.Algorithm
	// AllreduceOutput delivers the reduced inference output to every
	// worker (Result.AllOutputs) instead of materialising it only at
	// worker 0. Off by default: the extra broadcast is pure cost when
	// only the client reads the result.
	AllreduceOutput bool
	// Compress lets senders zlib-compress payloads (§III-C1). Whether a
	// given frame is deflated is decided per message by wire.Encode from
	// the frame's raw length, and every compress and decompress charge
	// follows the frame that was written, not this flag: a deployment
	// whose frames are all short simulates the same with it on or off.
	// The zero value is off; the compression ablation's zlib row and the
	// collectives experiment switch it on.
	Compress bool

	// PollWait is the queue long-poll wait; 0 selects short polling
	// (the polling ablation).
	PollWait time.Duration

	// HybridThresholdBytes is the Hybrid channel's routing split: encoded
	// payloads at or under it travel through the in-memory store, larger
	// ones are chunked into object storage (default 128 KiB).
	HybridThresholdBytes int
	// HybridChunkBytes sizes the Hybrid channel's bulk chunks (default
	// 1 MiB): smaller chunks mean more parallel streams per transfer.
	HybridChunkBytes int

	// KVNodeType sizes the provisioned in-memory store nodes (Memory
	// channel only; default cache.m6g.large).
	KVNodeType string
	// KVNodes is the number of primary shards of the provisioned store
	// cluster worker inboxes hash across (default 1). Each shard keeps
	// its own request-rate and bandwidth ceiling, so aggregate channel
	// throughput scales with the shard count.
	KVNodes int
	// KVReplicas is the replica count per shard (default 0). Replicas
	// bill node-hours like primaries and buy failover behaviour: R=1
	// promotes with the async-replication window lost, R>=2 runs quorum
	// writes and a single node failure loses nothing.
	KVReplicas int
	// KVFailoverWindow is how long a killed shard's slots stay
	// unavailable before promotion (default 5s).
	KVFailoverWindow time.Duration
	// KVReplicationLag bounds the async replication delay (default 50ms).
	KVReplicationLag time.Duration

	// StoreBandwidthScale multiplies the model store's transfer
	// bandwidth (default 1). The scaled-experiment harness uses it to
	// keep model-load time in proportion when projecting to paper scale.
	StoreBandwidthScale float64

	// Trace is the deployment's observability scope (internal/obs): the
	// serving layer stamps a tracer plus a per-replica track name here,
	// and the engine emits worker/channel/collective spans under it for
	// runs the tracer sampled. The zero scope disables engine tracing at
	// the cost of one pointer check per hook.
	Trace obs.Scope

	// KVFailoverCounter and KVLostValuesCounter thread the serving
	// layer's per-endpoint metrics counters down to the KV cluster, so
	// shard failovers and lost values are attributed to the endpoint
	// whose deployment owns the cluster (nil-safe; zero when metrics are
	// off).
	KVFailoverCounter   *obs.Counter
	KVLostValuesCounter *obs.Counter
}

// withDefaults fills zero fields.
func (c Config) withDefaults() Config {
	if c.WorkerMemoryMB <= 0 && c.Model != nil {
		c.WorkerMemoryMB = DefaultWorkerMemoryMB(c.Model.Spec.Neurons)
	}
	if c.SerialMemoryMB <= 0 {
		c.SerialMemoryMB = 10240
	}
	if c.FunctionTimeout <= 0 {
		c.FunctionTimeout = 15 * time.Minute
	}
	if c.Threads <= 0 {
		c.Threads = 4
	}
	if c.HybridThresholdBytes <= 0 {
		c.HybridThresholdBytes = DefaultHybridThresholdBytes
	}
	if c.HybridChunkBytes <= 0 {
		c.HybridChunkBytes = 1 << 20
	}
	if c.KVNodeType == "" {
		c.KVNodeType = DefaultKVNodeType
	}
	if c.KVNodes <= 0 {
		c.KVNodes = 1
	}
	if c.KVReplicas < 0 {
		c.KVReplicas = 0
	}
	return c
}

// Workers returns the parallelism of the deployment (1 for serial).
func (c Config) Workers() int {
	if c.Channel == Serial || c.Plan == nil {
		return 1
	}
	return c.Plan.Workers
}

// validate checks the configuration.
func (c Config) validate() error {
	if c.Model == nil {
		return fmt.Errorf("core: config requires a model")
	}
	if !c.Channel.known() {
		return fmt.Errorf("core: unknown channel %v", c.Channel)
	}
	if c.Collective < collective.Flat || c.Collective > collective.AutoAlgo {
		return fmt.Errorf("core: unknown collective %v", c.Collective)
	}
	if !c.Launch.known() {
		return fmt.Errorf("core: unknown launch mode %v", c.Launch)
	}
	if c.Channel != Serial {
		if c.Plan == nil {
			return fmt.Errorf("core: %v requires a partition plan", c.Channel)
		}
		if c.Plan.Neurons != c.Model.Spec.Neurons || c.Plan.Layers != len(c.Model.Layers) {
			return fmt.Errorf("core: plan (%d neurons, %d layers) does not match model (%d neurons, %d layers)",
				c.Plan.Neurons, c.Plan.Layers, c.Model.Spec.Neurons, len(c.Model.Layers))
		}
	}
	return nil
}

// WorkerMetrics reports one worker's activity during a run.
type WorkerMetrics struct {
	ID         int32
	StartedAt  time.Duration // virtual time the handler began
	FinishedAt time.Duration
	Warm       bool
	LoadTime   time.Duration // model/maps/input load from the store
	// BarrierTime and ReduceTime isolate the closing collectives'
	// latency (the tree/ring-versus-flat comparison metric).
	BarrierTime time.Duration
	ReduceTime  time.Duration

	MACs         float64
	RowsSent     int64
	RowsRecv     int64
	BytesSent    int64 // encoded payload bytes shipped
	BytesRecv    int64
	MessagesSent int64 // queue: messages published; object: objects written
	Publishes    int64 // queue: publish API calls; object: PUT calls
	// BilledPublishes is the worker-side ledger of 64 KiB-increment
	// billed publish requests (S), used to predict cost independently of
	// the provider's meter (§VI-F validation).
	BilledPublishes int64
	Polls           int64 // queue: receive calls; object: LIST calls
	Deletes         int64 // queue: delete-batch calls
	Fetches         int64 // queue: messages received; object: GET calls
	// Resends counts values this worker re-delivered from its run's
	// sender-side buffers after a lossy store failover (Memory channel
	// only): the recovery that lets an R<2 cluster run complete at the
	// price of extra ops and latency.
	Resends int64
	// AttrBytes is the worker-side ledger of message-attribute bytes,
	// which count toward SNS->SQS transfer volume (Z).
	AttrBytes int64
	// HybridPuts and HybridGets count the Hybrid channel's bulk chunk
	// objects written and read — S3-billed calls, kept separate from
	// Publishes/Fetches so the per-run cost reconstruction can split the
	// channel's memory-store and object-store sides.
	HybridPuts int64
	HybridGets int64
	// StoreGets counts model-store reads (weights, maps, inputs).
	StoreGets int64
	// StorePuts counts model-store writes (the root's result object).
	StorePuts    int64
	PeakMemBytes int64
}

// Runtime returns the worker's billed runtime.
func (w *WorkerMetrics) Runtime() time.Duration { return w.FinishedAt - w.StartedAt }

// Result reports one inference request.
type Result struct {
	RunID  string
	Output *sparse.Dense
	// AllOutputs holds every worker's copy of the reduced output when the
	// deployment runs with AllreduceOutput (index = worker id, nil
	// otherwise).
	AllOutputs []*sparse.Dense
	// Latency is the end-to-end query latency: client invoke to result
	// availability, in virtual time.
	Latency time.Duration
	// LaunchComplete is when the last worker instance began executing,
	// relative to the client invoke (the launch-tree ablation metric).
	LaunchComplete time.Duration
	// CoordinatorRuntime is the coordinator function's billed runtime
	// (zero for serial runs).
	CoordinatorRuntime time.Duration
	Batch              int
	Workers            []*WorkerMetrics
	// Usage is the resource consumption of this run only.
	Usage usage.Meter
	// Cost is Usage priced under the environment's catalogue.
	Cost usage.Breakdown
}

// PerSample returns the per-sample latency (Table II / Fig. 6 metric).
func (r *Result) PerSample() time.Duration {
	if r.Batch == 0 {
		return 0
	}
	return r.Latency / time.Duration(r.Batch)
}

// CostPerSample returns the per-sample dollar cost (Fig. 6 metric).
func (r *Result) CostPerSample() float64 {
	if r.Batch == 0 {
		return 0
	}
	return r.Cost.Total() / float64(r.Batch)
}

// TotalBytesSent sums encoded payload bytes shipped between workers.
func (r *Result) TotalBytesSent() int64 {
	var n int64
	for _, w := range r.Workers {
		n += w.BytesSent
	}
	return n
}

// TotalRowsSent sums activation rows shipped between workers.
func (r *Result) TotalRowsSent() int64 {
	var n int64
	for _, w := range r.Workers {
		n += w.RowsSent
	}
	return n
}
