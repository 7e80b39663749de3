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
// charged as fresh pushes and counted in WorkerMetrics.Resends. Quorum
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
}

func newMemoryChannel(w *worker) *memoryChannel {
	return &memoryChannel{inbox: inboxKey(w.run.id, w.id), resentAt: make(map[tag]int64)}
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

// bindStore notes the cluster's loss counter as the run begins (see
// runState.baseLost). The nil checks here and in dropRunKeyspace are for a
// deployment that was decommissioned while a late run still unbinds.
func bindStore(d *Deployment, run *runState) {
	if d.kvcluster != nil {
		run.baseLost = d.kvcluster.LostValues()
	}
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
		Fan:         cfg.Threads,
	}
}

// billStore maps a worker's ledger onto the store's traffic meters. They
// carry no price: the store bills node-hours, which runUsage attributes to
// the run from the cluster's nodes.
func billStore(w *WorkerMetrics, u *usage.Meter) {
	u.KVOps += w.Publishes + w.Polls
	u.KVBytesIn += w.BytesSent
	u.KVBytesOut += w.BytesRecv
}

// sentValue is one sender-log entry: the framed inbox value a worker
// pushed, with enough addressing to replay it for a starved receiver.
type sentValue struct {
	tag tag
	src int32
	val []byte
}

func inboxKey(runID string, target int32) string {
	return runID + "/inbox/" + strconv.Itoa(int(target))
}

// encodeMemValue frames one inbox value: a "kind:layer:src" header, a NUL
// separator, then the wire-encoded (possibly compressed) row set.
func encodeMemValue(t tag, src int32, body []byte) []byte {
	header := t.kind + ":" + strconv.Itoa(t.layer) + ":" + strconv.Itoa(int(src))
	val := make([]byte, 0, len(header)+1+len(body))
	val = append(val, header...)
	val = append(val, 0)
	return append(val, body...)
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
	return tag{string(kind), layer}, int32(s), body, nil
}

// push frames outs[i] and returns its RPUSH task (see pushVal). Even an
// empty row set is pushed so the target learns the transfer is complete.
// The header names kind, layer and source but no target, so the targets of
// one send group — which share a row set — share one framed value too:
// vals[j] is what outs[j] was pushed as, nil where it took another route.
func (mc *memoryChannel) push(w *worker, t tag, outs []targetRows, vals [][]byte, i int) (func(p *sim.Proc) error, error) {
	rs := outs[i].rs
	body, err := w.encodeFrame(rs)
	if err != nil {
		return nil, err
	}
	for j := 0; j < i && vals[i] == nil; j++ {
		if outs[j].rs == rs {
			vals[i] = vals[j]
		}
	}
	if vals[i] == nil {
		vals[i] = encodeMemValue(t, w.id, body)
	}
	return mc.pushVal(w, t, outs[i].target, vals[i]), nil
}

// valSlots returns the slots through which push shares one batch's framed
// values. A batch of one — every send at P=2, every collective hop — has
// nothing to share and borrows the caller's stack slot.
func valSlots(n int, one *[1][]byte) [][]byte {
	if n <= 1 {
		return one[:n]
	}
	return make([][]byte, n)
}

// pushVal returns the task that appends one framed value to the target's
// slot-routed inbox list (refreshing the run keyspace TTL), and records the
// value in the run's sender log for failover recovery.
func (mc *memoryChannel) pushVal(w *worker, t tag, target int32, val []byte) func(p *sim.Proc) error {
	// BytesSent counts the payload, not the header before the separator.
	w.metrics.BytesSent += int64(len(val) - bytes.IndexByte(val, 0) - 1)
	w.metrics.MessagesSent++
	w.metrics.Publishes++
	cl := w.d.kvcluster
	key := inboxKey(w.run.id, target)
	ttl := w.d.Cfg.FunctionTimeout
	if w.run.sent == nil {
		w.run.sent = make(map[int32][]sentValue)
	}
	w.run.sent[target] = append(w.run.sent[target], sentValue{tag: t, src: w.id, val: val})
	return func(p *sim.Proc) error { return cl.RPush(p, &mc.client, key, val, ttl) }
}

func (mc *memoryChannel) send(w *worker, t tag, outs []targetRows) error {
	tasks := make([]func(p *sim.Proc) error, 0, len(outs))
	var one [1][]byte
	vals := valSlots(len(outs), &one)
	for i := range outs {
		task, err := mc.push(w, t, outs, vals, i)
		if err != nil {
			return err
		}
		tasks = append(tasks, task)
	}
	return w.threads("push", tasks)
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
// transfer. A starved read after a lossy cluster failover triggers one
// sender-buffer re-send sweep for the phase's missing sources.
func (mc *memoryChannel) poll(w *worker, g *gathering) error {
	w.metrics.Polls++
	val := w.d.kvcluster.BLPop(w.ctx.P, &mc.client, mc.inbox, blockWait)
	if val == nil {
		return mc.recover(w, g)
	}
	w.metrics.Fetches++
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
		floor = w.run.baseLost
	}
	if lost <= floor {
		return nil
	}
	mc.resentAt[g.tag] = lost
	for _, sv := range w.run.sent[w.id] {
		if sv.tag != g.tag || !g.wants(sv.src) {
			continue
		}
		w.metrics.Resends++
		w.d.Env.Meter.KVResends++
		if err := w.d.kvcluster.RPush(w.ctx.P, &mc.client, mc.inbox, sv.val, w.d.Cfg.FunctionTimeout); err != nil {
			return err
		}
	}
	return nil
}
