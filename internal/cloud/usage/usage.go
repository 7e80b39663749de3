// Package usage meters simulated cloud resource consumption. It is the
// in-simulation equivalent of the "detailed AWS Cost and Usage reports" the
// paper uses to validate its cost model (§VI-F): services record every
// billable event here, and the meter converts the raw counts into billed
// line items using a pricing.Catalog.
//
// The simulation kernel runs one process at a time, so the meter needs no
// locking.
package usage

import (
	"fmt"
	"sort"
	"strings"

	"fsdinference/internal/cloud/pricing"
)

// Meter accumulates billable usage counts for one simulation run.
type Meter struct {
	// Lambda.
	LambdaInvocations int64
	LambdaGBSeconds   float64

	// SNS.
	SNSPublishCalls    int64 // raw PublishBatch API calls
	SNSBilledPublishes int64 // 64 KiB-increment billed requests (S in the paper)
	SNSMessages        int64 // individual messages published
	SNSDeliveredBytes  int64 // bytes delivered SNS->SQS (Z in the paper)

	// SQS. Receives+deletes+sends are the billed API calls (Q).
	SQSReceiveCalls int64
	SQSDeleteCalls  int64
	SQSSendCalls    int64 // fan-out deliveries from SNS; billing configurable
	SQSBillFanout   bool  // whether fan-out sends count toward Q

	// S3.
	S3PutCalls  int64 // V in the paper
	S3GetCalls  int64 // R in the paper
	S3ListCalls int64 // L in the paper
	S3BytesIn   int64
	S3BytesOut  int64

	// EC2.
	EC2Hours map[string]float64

	// KV (provisioned in-memory store). Operations and bytes are metered
	// for usage reports but carry no per-request price; the billed line
	// item is the provisioned node-hours, accrued idle or busy.
	KVOps       int64
	KVBytesIn   int64
	KVBytesOut  int64
	KVGBHours   float64
	KVNodeHours map[string]float64

	// KVReplicaHours is the replica share of KVNodeHours by node type:
	// replica nodes bill exactly like primaries (node-hours, idle or
	// busy), and this map is what the availability-versus-cost tradeoff
	// is priced from. KVShardHours breaks all node-hours down by shard
	// label (primaries and replicas of one shard share a label).
	KVReplicaHours map[string]float64
	KVShardHours   map[string]float64

	// Cluster fault/topology counters (kvcluster): failovers triggered,
	// values lost to a failover (writes not yet replicated, or a whole
	// unreplicated shard), values the memory channel re-sent from sender
	// buffers to recover, and MOVED-style redirects clients paid after a
	// topology change.
	KVFailovers  int64
	KVLostValues int64
	KVResends    int64
	KVMoved      int64

	// Collectives counts collective operations by "op/algorithm" key
	// (e.g. "barrier/tree"), one count per P-worker collective.
	Collectives map[string]int64

	// Hybrid-channel routing counters: values that stayed on the
	// memory-store control path, values whose bulk payload was chunked
	// into object storage (with their pre-chunk byte volume), and the
	// total chunk objects written.
	HybridSmallValues int64
	HybridBulkValues  int64
	HybridBulkBytes   int64
	HybridChunks      int64
}

// NewMeter returns an empty meter.
func NewMeter() *Meter {
	return &Meter{
		EC2Hours:       make(map[string]float64),
		KVNodeHours:    make(map[string]float64),
		KVReplicaHours: make(map[string]float64),
		KVShardHours:   make(map[string]float64),
		Collectives:    make(map[string]int64),
	}
}

// AddCollective records one collective operation run under the given
// algorithm ("barrier"/"tree", "allreduce"/"ring", ...).
func (m *Meter) AddCollective(op, alg string) {
	if m.Collectives == nil {
		m.Collectives = make(map[string]int64)
	}
	m.Collectives[op+"/"+alg]++
}

// AddEC2Hours records h hours of usage for the given instance type.
func (m *Meter) AddEC2Hours(instanceType string, h float64) {
	m.EC2Hours[instanceType] += h
}

// AddKVNodeHours records h provisioned hours for the given cache node
// type. An optional shard label attributes the hours to one cluster
// shard, and replica marks them as replica (not primary) capacity.
func (m *Meter) AddKVNodeHours(nodeType string, h float64) {
	m.KVNodeHours[nodeType] += h
}

// AddKVReplicaHours records h provisioned replica hours for the node
// type — the replica share of AddKVNodeHours, not an extra charge.
func (m *Meter) AddKVReplicaHours(nodeType string, h float64) {
	m.KVReplicaHours[nodeType] += h
}

// AddKVShardHours attributes h provisioned node-hours to a shard label.
func (m *Meter) AddKVShardHours(shard string, h float64) {
	m.KVShardHours[shard] += h
}

// SQSRequests returns Q, the billed queueing API request count.
func (m *Meter) SQSRequests() int64 {
	q := m.SQSReceiveCalls + m.SQSDeleteCalls
	if m.SQSBillFanout {
		q += m.SQSSendCalls
	}
	return q
}

// Snapshot returns a copy of the meter, for windowed accounting
// (subtract two snapshots to isolate one experiment's usage). The copy is
// a zero meter plus m, and 0 + x is exactly x.
func (m *Meter) Snapshot() Meter {
	var c Meter
	c.Add(*m)
	return c
}

// Sub returns the usage accumulated since the earlier snapshot prev.
func (m *Meter) Sub(prev Meter) Meter {
	d := m.Snapshot()
	d.fold(prev, -1)
	return d
}

// Add accumulates the usage o metered into m: two windows' meters merge
// into one, field by field. On a zero m it allocates the maps first and
// takes o's SQSBillFanout setting.
func (m *Meter) Add(o Meter) {
	m.SQSBillFanout = m.SQSBillFanout || o.SQSBillFanout
	m.fold(o, 1)
}

// fold adds sign·o to m. It is the one list of the meter's summable
// fields: a counter added to Meter is added here and nowhere else.
// a + (-1·b) is exactly a - b in IEEE-754, so Sub is bit-identical to a
// field-by-field subtraction.
func (m *Meter) fold(o Meter, sign int64) {
	f := float64(sign)
	m.LambdaInvocations += sign * o.LambdaInvocations
	m.LambdaGBSeconds += f * o.LambdaGBSeconds
	m.SNSPublishCalls += sign * o.SNSPublishCalls
	m.SNSBilledPublishes += sign * o.SNSBilledPublishes
	m.SNSMessages += sign * o.SNSMessages
	m.SNSDeliveredBytes += sign * o.SNSDeliveredBytes
	m.SQSReceiveCalls += sign * o.SQSReceiveCalls
	m.SQSDeleteCalls += sign * o.SQSDeleteCalls
	m.SQSSendCalls += sign * o.SQSSendCalls
	m.S3PutCalls += sign * o.S3PutCalls
	m.S3GetCalls += sign * o.S3GetCalls
	m.S3ListCalls += sign * o.S3ListCalls
	m.S3BytesIn += sign * o.S3BytesIn
	m.S3BytesOut += sign * o.S3BytesOut
	foldMap(&m.EC2Hours, o.EC2Hours, f)
	m.KVOps += sign * o.KVOps
	m.KVBytesIn += sign * o.KVBytesIn
	m.KVBytesOut += sign * o.KVBytesOut
	m.KVGBHours += f * o.KVGBHours
	foldMap(&m.KVNodeHours, o.KVNodeHours, f)
	foldMap(&m.KVReplicaHours, o.KVReplicaHours, f)
	foldMap(&m.KVShardHours, o.KVShardHours, f)
	m.KVFailovers += sign * o.KVFailovers
	m.KVLostValues += sign * o.KVLostValues
	m.KVResends += sign * o.KVResends
	m.KVMoved += sign * o.KVMoved
	foldMap(&m.Collectives, o.Collectives, sign)
	m.HybridSmallValues += sign * o.HybridSmallValues
	m.HybridBulkValues += sign * o.HybridBulkValues
	m.HybridBulkBytes += sign * o.HybridBulkBytes
	m.HybridChunks += sign * o.HybridChunks
}

// foldMap adds sign·src to *dst key by key, allocating *dst if it is nil.
func foldMap[V int64 | float64](dst *map[string]V, src map[string]V, sign V) {
	if *dst == nil {
		*dst = make(map[string]V, len(src))
	}
	for k, v := range src {
		(*dst)[k] += sign * v
	}
}

// Breakdown is a billed cost report, one line item per service, mirroring
// the compute/communication split the paper reports in §VI-F.
type Breakdown struct {
	Lambda float64
	SNS    float64
	SQS    float64
	S3     float64
	EC2    float64
	// KV is the provisioned in-memory store spend (node-hours; no
	// per-request component). KVReplica is the replica share of KV —
	// informational, already included in KV, so Total does not add it.
	KV        float64
	KVReplica float64
}

// Add accumulates o into b line by line.
func (b *Breakdown) Add(o Breakdown) {
	b.Lambda += o.Lambda
	b.SNS += o.SNS
	b.SQS += o.SQS
	b.S3 += o.S3
	b.EC2 += o.EC2
	b.KV += o.KV
	b.KVReplica += o.KVReplica
}

// Comms returns the communication cost (everything except compute).
func (b Breakdown) Comms() float64 { return b.SNS + b.SQS + b.S3 + b.KV }

// Total returns the full billed cost.
func (b Breakdown) Total() float64 { return b.Lambda + b.SNS + b.SQS + b.S3 + b.EC2 + b.KV }

// String formats the breakdown as a compact dollar report.
func (b Breakdown) String() string {
	var sb strings.Builder
	fmt.Fprintf(&sb, "compute $%.4f", b.Lambda+b.EC2)
	fmt.Fprintf(&sb, ", comms $%.4f", b.Comms())
	fmt.Fprintf(&sb, " (SNS $%.4f, SQS $%.4f, S3 $%.4f", b.SNS, b.SQS, b.S3)
	if b.KV != 0 {
		fmt.Fprintf(&sb, ", KV $%.4f", b.KV)
		if b.KVReplica != 0 {
			fmt.Fprintf(&sb, " incl. replicas $%.4f", b.KVReplica)
		}
	}
	sb.WriteString(")")
	fmt.Fprintf(&sb, ", total $%.4f", b.Total())
	return sb.String()
}

// FoldSorted calls f for each entry of m in ascending key order. Use it
// wherever map entries feed a floating-point accumulation: float
// addition is not associative, so folding in map iteration order would
// make the low bits of a total differ run to run, which the replay
// engine's bit-for-bit report equality cannot tolerate. Rendering a map
// in a fixed order is the same walk.
func FoldSorted[V any](m map[string]V, f func(k string, v V)) {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	for _, k := range keys {
		f(k, m[k])
	}
}

// Cost converts the metered usage into billed dollars under catalogue c.
func (m *Meter) Cost(c pricing.Catalog) Breakdown {
	var b Breakdown
	b.Lambda = float64(m.LambdaInvocations)*c.LambdaInvoke +
		m.LambdaGBSeconds*c.LambdaGBSecond
	b.SNS = float64(m.SNSBilledPublishes)*c.SNSPublish +
		float64(m.SNSDeliveredBytes)*c.SNSByte
	b.SQS = float64(m.SQSRequests()) * c.SQSRequest
	b.S3 = float64(m.S3PutCalls)*c.S3Put +
		float64(m.S3GetCalls)*c.S3Get +
		float64(m.S3ListCalls)*c.S3List
	FoldSorted(m.EC2Hours, func(typ string, h float64) {
		b.EC2 += h * c.EC2Hourly[typ]
	})
	FoldSorted(m.KVNodeHours, func(typ string, h float64) {
		b.KV += h * c.KVNodeHourly[typ]
	})
	FoldSorted(m.KVReplicaHours, func(typ string, h float64) {
		b.KVReplica += h * c.KVNodeHourly[typ]
	})
	return b
}

// KVShardCost prices the per-shard node-hours breakdown: shard label to
// billed dollars (primaries plus replicas of that shard). Shard labels
// do not carry the node type, so the breakdown assumes one node type per
// cluster — true for every deployment the engine creates — and prices
// each shard's hours at its cluster's node rate via the weighted average
// of KVNodeHours.
func (m *Meter) KVShardCost(c pricing.Catalog) map[string]float64 {
	var hours, dollars float64
	FoldSorted(m.KVNodeHours, func(typ string, h float64) {
		hours += h
		dollars += h * c.KVNodeHourly[typ]
	})
	if hours <= 0 {
		return nil
	}
	rate := dollars / hours
	out := make(map[string]float64, len(m.KVShardHours))
	for shard, h := range m.KVShardHours {
		if h > 0 {
			out[shard] = h * rate
		}
	}
	return out
}
