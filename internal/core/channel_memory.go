package core

import (
	"bytes"
	"fmt"
	"strconv"
	"time"

	"fsdinference/internal/cloud/env"
	"fsdinference/internal/cloud/kvcluster"
	"fsdinference/internal/cloud/kvstore"
	"fsdinference/internal/cloud/usage"
	"fsdinference/internal/collective"
	"fsdinference/internal/sim"
	"fsdinference/internal/wire"
)

// memoryChannel implements FSD-Inf-Memory: workers exchange row sets
// through a provisioned in-memory key-value cluster (ElastiCache/Redis
// class) instead of pub-sub queues or object storage. Every worker owns a
// per-run inbox list "{run}/inbox/{m}" whose key hashes into the
// cluster's 16384-slot map, scattering inboxes across the deployment's
// primary shards — each with its own request-rate and bandwidth ceiling,
// so channel throughput scales with KVNodes. Senders RPUSH one framed
// value per (target, layer) — the store's value cap is far above the
// 256 KB pub-sub ceiling, so no chunking — and receivers BLPOP their
// inbox, buffering values for phases they have not reached yet. Keys are
// run-scoped, so any number of runs overlap on one deployment; each push
// refreshes a TTL so an aborted run's keyspace expires on its own, and
// normal completion tears all shards down explicitly.
//
// Failures surface exactly as on a real cluster: while a killed shard
// fails over, operations on its slots stall; once a replica is promoted
// the worker's cached route pays a MOVED-style redirect. A lossy
// failover (R < 2) destroys in-flight inbox values — receivers detect
// the starvation, and the missing sources re-send from the run's
// host-side sender buffers (workers hold their layer outputs in memory),
// charged as fresh pushes and counted in usage.Meter.KVResends. Quorum
// replication (R >= 2) hides the failure entirely, at replica node-hour
// prices.
type memoryChannel struct {
	// client caches the cluster topology; a failover charges it one
	// redirect round trip.
	client kvcluster.Client
	// inbox is this worker's per-run inbox list key.
	inbox string
	// resentAt tracks, per tag, the cluster loss counter up to which
	// sender-buffer recovery already ran, so each lossy failover triggers
	// at most one re-send sweep per phase. The floor for phases that never
	// recovered is the run's baseLost: losses predating the run cannot
	// concern it, but a kill mid-run concerns every worker — including
	// instances that launch after it.
	resentAt map[tag]int64
	// frames[i] is the value the send in progress pushes to its i-th
	// target (see sendFrames); the run's sender log holds the same frames.
	frames [][]byte
	// outs is the target list of the push in progress, and push, built as
	// the channel opens, the task every push hands the comm pool: it pushes
	// frames[i] to outs[i].target's inbox.
	outs []targetRows
	push func(p *sim.Proc, i int) error
}

func newMemoryChannel(w *worker) *memoryChannel {
	mc := &memoryChannel{inbox: w.run.store.inboxes[w.id], resentAt: make(map[tag]int64)}
	mc.push = func(p *sim.Proc, i int) error {
		inbox := w.run.store.inboxes[mc.outs[i].target]
		return w.d.kvcluster.RPush(p, &mc.client, inbox, mc.frames[i], w.d.Cfg.FunctionTimeout)
	}
	return mc
}

func openMemory(w *worker) channel { return newMemoryChannel(w) }

// provisionStore creates the deployment's in-memory store cluster. Unlike
// topics and buckets, provisioned cache nodes are NOT free to keep: they
// bill node-hours from this moment, idle or busy — the provisioned-versus-
// per-request tradeoff of §IV. The nodes form a slot-mapped cluster:
// KVNodes primary shards (each with its own request-rate ceiling) times
// KVReplicas replicas, so the deployment buys throughput with shards and
// availability with replica node-hours.
func provisionStore(d *Deployment) error {
	cfg := d.Cfg
	cl, err := kvcluster.New(d.Env.KV, kvcluster.Config{
		Name:              d.prefix + "-kv",
		Shards:            cfg.KVNodes,
		Replicas:          cfg.KVReplicas,
		NodeType:          cfg.KVNodeType,
		FailoverWindow:    cfg.KVFailoverWindow,
		ReplicationLag:    cfg.KVReplicationLag,
		Trace:             cfg.Trace.Sub("kv"),
		FailoverCounter:   cfg.KVFailoverCounter,
		LostValuesCounter: cfg.KVLostValuesCounter,
	})
	if err != nil {
		return err
	}
	d.kvcluster = cl
	return nil
}

// storeRun is one run's state on the store kinds.
type storeRun struct {
	// inboxes[m] is worker m's inbox list key, named once as the run binds
	// so that no push builds it again.
	inboxes []string
	// sent is the host-side sender log: every framed value pushed during
	// the run, in push order. Workers hold their layer outputs in memory
	// anyway, so after a lossy store failover a receiver can have its
	// missing sources re-send from these buffers instead of deadlocking on
	// values no node holds.
	sent []sentValue
	// baseLost is the cluster's loss counter when the run began: only
	// failovers after it concern this run, even for workers whose
	// instances launch after the kill.
	baseLost int64
}

// bindStore names the run's inboxes, sizes its sender log and notes the
// cluster's loss counter as the run begins (see storeRun). The log holds a
// value per data-path transfer, one per source each receiver of each layer
// lists, and per collective message: the barrier and a flat or tree
// allreduce send 4(P-1) between them; a ring allreduce's P(P-1) grow it.
// The nil checks here and in dropRunKeyspace are for a deployment that was
// decommissioned while a late run still unbinds.
func bindStore(d *Deployment, run *runState) {
	p := d.Cfg.Workers()
	st := &storeRun{inboxes: make([]string, p)}
	for m := range st.inboxes {
		st.inboxes[m] = inboxKey(run.id, int32(m))
	}
	values := 4 * (p - 1)
	for _, layer := range d.Cfg.Plan.Recvs {
		for _, sources := range layer {
			values += len(sources)
		}
	}
	st.sent = make([]sentValue, 0, values)
	if d.kvcluster != nil {
		st.baseLost = d.kvcluster.LostValues()
	}
	run.store = st
}

// dropRunKeyspace tears down a run's key prefix on every cluster node —
// all shards, primaries and replicas (free control-plane operation, like
// queue teardown). Keys of a run that never completes expire via their TTL
// instead.
func dropRunKeyspace(d *Deployment, run *runState) {
	if d.kvcluster != nil {
		d.kvcluster.DropPrefix(run.id + "/")
	}
}

// memoryTraits is one value's path through the store on the deployment's
// node type. A node type outside the catalogue — a planner candidate, never
// a deployment, which would not have provisioned — is priced as the default
// node rather than at zero bandwidth.
func memoryTraits(cfg Config, ec env.Config, _ int64) collective.Traits {
	nt, ok := kvstore.Catalog[cfg.KVNodeType]
	if !ok {
		nt = kvstore.Catalog[DefaultKVNodeType]
	}
	return collective.Traits{
		// A value crosses the store twice: push and blocking pop.
		PerMsg:      2 * ec.KV.OpLatency,
		BytesPerSec: nt.NetBytesPerSec / 2,
		Fan:         commThreads,
	}
}

// predictMemory is the store's feasibility for w on cfg's cluster and, when
// it holds, the store operations one query issues. Those carry no price:
// the cluster bills node-hours by the day (StoreDailyCost). The channel
// ships unchunked values, so a per-pair volume above the store's
// single-value cap rules it out however favourable the billing; then the
// shards' request-rate ceiling and usable memory must carry the load.
func predictMemory(w Workload, cfg Config) (usage.Meter, error) {
	if w.PairsPerLayer > 0 && w.Frame.Bytes() > int64(kvstore.DefaultConfig().MaxValueBytes) {
		return usage.Meter{}, fmt.Errorf("per-pair volume %d B exceeds the store's single-value cap", w.Frame.Bytes())
	}
	if err := storeSaturated(w, cfg); err != nil {
		return usage.Meter{}, err
	}
	if ws, over := storeWorkingSet(w, cfg, w.Frame.Bytes()); over {
		return usage.Meter{}, fmt.Errorf("working set ~%d MB (x%d concurrent runs) overflows %d shard(s) of %s",
			ws>>20, max(1, w.ConcurrentRuns), cfg.KVNodes, cfg.KVNodeType)
	}
	return usage.Meter{KVOps: storeOps(w)}, nil
}

// storeOps estimates the store operations one query issues: one push and
// one pop per (pair, layer), plus the barrier and reduce traffic (roughly
// four ops per worker). It is the demand side of the request-rate ceiling.
func storeOps(w Workload) int64 {
	return 2*w.PairsPerLayer*int64(w.Layers) + 4*int64(w.Workers)
}

// storeSaturated returns why w's sustained operation rate exceeds the
// aggregate request-rate ceiling of cfg's shards, or nil. Each shard
// enforces its own ceiling, so capacity scales with the shard count. A
// saturated cluster is infeasible however cheap — queries would back up
// behind the limiter without bound — which is the rule that makes the
// planner reach for more shards under heavy sustained volume.
func storeSaturated(w Workload, cfg Config) error {
	if w.QueriesPerDay <= 0 {
		return nil
	}
	nt := kvstore.Catalog[cfg.KVNodeType]
	if demand := float64(storeOps(w)*w.QueriesPerDay) / 86400; demand <= nt.MaxOpsPerSec*float64(cfg.KVNodes) {
		return nil
	}
	return fmt.Errorf("sustained volume needs ~%d ops/s, saturating %d shard(s) of %s",
		storeOps(w)*w.QueriesPerDay/86400, cfg.KVNodes, cfg.KVNodeType)
}

// storeHeadroom is the provisioning factor between a workload's resident
// working set and the node memory it needs: half of each node is held
// back for replication buffers and copy-on-write snapshot forks, per the
// managed-cache guidance to reserve memory on write-heavy workloads —
// and an engine-run inbox is nothing but writes.
const storeHeadroom = 2.0

// storeWorkingSet returns the peak bytes resident in the store — one
// layer's pair values, valueBytes each, per in-flight run — and whether,
// with storeHeadroom applied, they overflow the usable memory of cfg's
// shards. Capacity scales with the shard count, like the request-rate
// ceiling: this is the rule that forces the memory channel onto bigger
// nodes (or more shards) under bulk tensors at high run concurrency, and
// the one Hybrid escapes by parking bulk values in object storage.
func storeWorkingSet(w Workload, cfg Config, valueBytes int64) (bytes int64, overflows bool) {
	bytes = int64(max(1, w.ConcurrentRuns)) * w.PairsPerLayer * valueBytes
	usable := kvstore.Catalog[cfg.KVNodeType].MemoryGB * float64(int64(1)<<30) * float64(cfg.KVNodes)
	return bytes, float64(bytes)*storeHeadroom > usable
}

// sentValue is one sender-log entry: the framed inbox value a worker
// pushed, with enough addressing to replay it for a starved receiver.
type sentValue struct {
	tag         tag
	src, target int32
	val         []byte
}

func inboxKey(runID string, target int32) string {
	return runID + "/inbox/" + strconv.Itoa(int(target))
}

// encodeMemValue frames one inbox value: a "kind:layer:src" header, a NUL
// separator, then the body — a wire-encoded (possibly compressed) row set,
// or a Hybrid bulk pointer.
func encodeMemValue(t tag, src int32, body []byte) []byte {
	var buf [memHeaderRoom]byte
	header := appendMemHeader(buf[:0], t, src)
	return append(append(make([]byte, 0, len(header)+len(body)), header...), body...)
}

// memValue is encodeMemValue(t, src, wire.Encode(rs, compress)) in one
// allocation: wire.EncodeAfter writes the set's frame right after the header,
// and the set's memo keeps that frame, a view within the value; a set that
// already has its frame (one Decode returned, or one already sent) has it
// copied after the header.
func memValue(t tag, src int32, rs *wire.RowSet, compress bool) ([]byte, error) {
	var buf [memHeaderRoom]byte
	return wire.EncodeAfter(appendMemHeader(buf[:0], t, src), rs, compress)
}

// memBody returns the body of an inbox value encodeMemValue or memValue
// framed, past its header's separator.
func memBody(val []byte) []byte { return val[bytes.IndexByte(val, 0)+1:] }

// memHeaderRoom is the stack room a value's header is written into: a tag
// kind of up to 12 bytes and two 32-bit decimals with their separators. A
// longer kind only moves the header to the heap.
const memHeaderRoom = 12 + 2*12 + 2

// appendMemHeader appends an inbox value's "kind:layer:src" header and its
// NUL separator to dst.
func appendMemHeader(dst []byte, t tag, src int32) []byte {
	dst = append(dst, t.kind...)
	dst = append(dst, ':')
	dst = strconv.AppendInt(dst, int64(t.layer), 10)
	dst = append(dst, ':')
	dst = strconv.AppendInt(dst, int64(src), 10)
	return append(dst, 0)
}

func decodeMemValue(val []byte) (t tag, src int32, body []byte, err error) {
	header, body, framed := bytes.Cut(val, []byte{0})
	kind, rest, _ := bytes.Cut(header, []byte(":"))
	layerDigits, srcDigits, _ := bytes.Cut(rest, []byte(":"))
	layer, layerOK := parseDecimal(string(layerDigits))
	s, srcOK := parseDecimal(string(srcDigits))
	if !framed || !layerOK || !srcOK {
		return tag{}, 0, nil, fmt.Errorf("core: malformed memory-channel value header %q", header)
	}
	return tag{kindOf(kind), layer}, int32(s), body, nil
}

// kindOf returns the tag kind b spells. The kinds the engine sends, the data
// path's and the collectives' operation tags, come back as their constants,
// so a value's header allocates nothing; any other kind is copied.
func kindOf(b []byte) string {
	if string(b) == dataKind {
		return dataKind
	}
	if op, ok := collective.OpTag(b); ok {
		return op
	}
	return string(b)
}

// frameValue encodes outs[i] into vals[i], the value its target is pushed,
// and logs the push. Even an empty row set is pushed so the target learns the
// transfer is complete. The header names kind, layer and source but no
// target, so the targets of one send group — which share a row set — share
// one framed value too: vals[j] is what outs[j] is pushed, nil where it took
// another route. A value is one allocation (memValue). Each target is
// charged the compressor as encodeFrame charges it.
func frameValue(w *worker, t tag, outs []targetRows, vals [][]byte, i int) error {
	rs := outs[i].rs
	for j := 0; j < i && vals[i] == nil; j++ {
		if outs[j].rs == rs {
			vals[i] = vals[j]
		}
	}
	if vals[i] == nil {
		val, err := memValue(t, w.id, rs, w.d.Cfg.Compress)
		if err != nil {
			return err
		}
		vals[i] = val
	}
	w.chargeCompress(rs, memBody(vals[i]))
	logPush(w, t, outs[i].target, vals[i])
	return nil
}

// logPush counts one inbox push of val to target, charging the run the
// store op and the value's bytes, and records it in the run's sender log
// for failover recovery. The store's traffic carries no price: it bills
// node-hours, which runUsage attributes to the run from the cluster's
// nodes.
func logPush(w *worker, t tag, target int32, val []byte) {
	// BytesSent counts the payload, not the header before the separator.
	w.metrics.BytesSent += int64(len(memBody(val)))
	w.metrics.MessagesSent++
	w.run.usage.KVOps++
	w.run.usage.KVBytesIn += int64(len(val))
	st := w.run.store
	st.sent = append(st.sent, sentValue{tag: t, src: w.id, target: target, val: val})
}

// sendFrames returns the channel's frame slots for a send to n targets,
// every one nil. A worker sends one batch at a time, so one set of slots
// serves the run.
func (mc *memoryChannel) sendFrames(n int) [][]byte {
	if cap(mc.frames) < n {
		mc.frames = make([][]byte, n)
	}
	vals := mc.frames[:n]
	clear(vals)
	return vals
}

// pushAll appends frames[i] (see sendFrames) to the slot-routed inbox list
// of outs[i].target for every i, from the comm pool, refreshing the run
// keyspace TTL.
func (mc *memoryChannel) pushAll(w *worker, outs []targetRows) error {
	mc.outs = outs
	err := w.threads("push", len(outs), mc.push)
	mc.outs = nil
	return err
}

func (mc *memoryChannel) send(w *worker, t tag, outs []targetRows) error {
	vals := mc.sendFrames(len(outs))
	for i := range outs {
		if err := frameValue(w, t, outs, vals, i); err != nil {
			return err
		}
	}
	return mc.pushAll(w, outs)
}

func (mc *memoryChannel) gather(w *worker, t tag, sources []int32, deliver func(src int32, rs *wire.RowSet)) error {
	return w.gatherLoop(t, sources, mc, decodePayload, deliver)
}

// blockWait is the BLPOP block per receive-loop iteration. Blocking reads
// are native to the store (no long-vs-short polling ablation applies), so
// the wait is fixed rather than taken from Config.PollWait.
const blockWait = time.Second

// poll is the store's arrival source: BLPOP the worker's inbox and read the
// value's tag and source from its header; one value is one source's whole
// transfer. The read is charged an op only if it reached a node, as the
// store meters it. A starved read after a lossy cluster failover triggers
// one sender-buffer re-send sweep for the phase's missing sources.
func (mc *memoryChannel) poll(w *worker, g *gathering) error {
	val, reached := w.d.kvcluster.BLPopReached(w.ctx.P, &mc.client, mc.inbox, blockWait)
	if reached {
		w.run.usage.KVOps++
	}
	if val == nil {
		return mc.recover(w, g)
	}
	w.metrics.Fetches++
	w.run.usage.KVBytesOut += int64(len(val))
	t, src, body, err := decodeMemValue(val)
	if err != nil {
		return err
	}
	return g.arrive(w, arrival{tag: t, src: src, chunks: 1, body: body})
}

// recover runs after a starved blocking read: if the cluster lost values
// to a failover since this phase last recovered, every value the run's
// sender log holds for this worker, this phase, from a still-missing
// source is re-pushed — the re-send the paper-scale system performs from
// the sender's in-memory layer outputs — charged as fresh cluster
// pushes. Later phases that also lost values recover themselves when
// they starve. Quorum-replicated clusters never lose values, so this
// never fires for them and the failover stays hidden behind the
// promotion stall.
func (mc *memoryChannel) recover(w *worker, g *gathering) error {
	lost := w.d.kvcluster.LostValues()
	floor, seen := mc.resentAt[g.tag]
	if !seen {
		floor = w.run.store.baseLost
	}
	if lost <= floor {
		return nil
	}
	mc.resentAt[g.tag] = lost
	for _, sv := range w.run.store.sent {
		if sv.target != w.id || sv.tag != g.tag || !g.wants(sv.src) {
			continue
		}
		w.d.Env.Meter.KVResends++
		w.run.usage.KVResends++
		w.run.usage.KVOps++
		w.run.usage.KVBytesIn += int64(len(sv.val))
		if err := w.d.kvcluster.RPush(w.ctx.P, &mc.client, mc.inbox, sv.val, w.d.Cfg.FunctionTimeout); err != nil {
			return err
		}
	}
	return nil
}
