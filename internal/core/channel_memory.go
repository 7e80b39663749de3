package core

import (
	"bytes"
	"fmt"
	"strconv"
	"time"

	"fsdinference/internal/cloud/kvcluster"
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
	// resentAt tracks, per "kind:layer" phase, the cluster loss counter
	// up to which sender-buffer recovery already ran, so each lossy
	// failover triggers at most one re-send sweep per phase. The floor
	// for phases that never recovered is the run's baseLost: losses
	// predating the run cannot concern it, but a kill mid-run concerns
	// every worker — including instances that launch after it.
	resentAt map[string]int64
	// resolveBulk, when set (Hybrid channel), resolves the bulk-pointer
	// frames a receive loop collected: each frame names chunks parked in
	// object storage, and the hook fetches every named chunk — across all
	// pointers — through one wide transfer pool, then delivers them. The
	// pointer frames themselves still travel (and replay after a
	// failover) through the in-memory inbox like any other value; the
	// receive loop defers their resolution until the gather completes so
	// one pool round amortises the object store's read latency over every
	// bulk source instead of paying it per source.
	resolveBulk func(w *worker, pending []bulkRef, deliver func(src int32, rs *wire.RowSet)) error
}

// bulkRef is one deferred bulk-pointer frame: the source that announced
// it and the raw pointer body naming its parked chunks.
type bulkRef struct {
	src  int32
	body []byte
}

func newMemoryChannel() *memoryChannel {
	return &memoryChannel{resentAt: make(map[string]int64)}
}

// sentValue is one sender-log entry: the framed inbox value a worker
// pushed, with enough addressing to replay it for a starved receiver.
type sentValue struct {
	kind   string
	layer  int
	src    int32
	target int32
	val    []byte
	ttl    time.Duration
}

func inboxKey(runID string, target int32) string {
	return runID + "/inbox/" + strconv.Itoa(int(target))
}

// encodeMemValue frames one inbox value: a "kind:layer:src" header, a NUL
// separator, then the wire-encoded (possibly compressed) row set.
func encodeMemValue(kind string, layer int, src int32, body []byte) []byte {
	header := kind + ":" + strconv.Itoa(layer) + ":" + strconv.Itoa(int(src))
	val := make([]byte, 0, len(header)+1+len(body))
	val = append(val, header...)
	val = append(val, 0)
	return append(val, body...)
}

func decodeMemValue(val []byte) (kind string, layer int, src int32, body []byte, err error) {
	sep := bytes.IndexByte(val, 0)
	if sep < 0 {
		return "", 0, 0, nil, fmt.Errorf("core: malformed memory-channel value (no header)")
	}
	parts := bytes.SplitN(val[:sep], []byte(":"), 3)
	if len(parts) != 3 {
		return "", 0, 0, nil, fmt.Errorf("core: malformed memory-channel header %q", val[:sep])
	}
	layer, err = strconv.Atoi(string(parts[1]))
	if err != nil {
		return "", 0, 0, nil, fmt.Errorf("core: malformed memory-channel layer: %w", err)
	}
	src64, err := strconv.Atoi(string(parts[2]))
	if err != nil {
		return "", 0, 0, nil, fmt.Errorf("core: malformed memory-channel source: %w", err)
	}
	return string(parts[0]), layer, int32(src64), val[sep+1:], nil
}

// push frames outs[i] and returns its RPUSH task (see pushVal). Even an
// empty row set is pushed so the target learns the transfer is complete.
// The header names kind, layer and source but no target, so the targets of
// one send group — which share a row set — share one framed value too:
// vals[j] is what outs[j] was pushed as, nil where it took another route.
func (mc *memoryChannel) push(w *worker, kind string, layer int, outs []targetRows, vals [][]byte, i int) (func(p *sim.Proc) error, error) {
	rs := outs[i].rs
	if w.d.Cfg.Compress && rs.Len() > 0 {
		w.ctx.Compress(rs.RawBytes())
	}
	for j := 0; j < i && vals[i] == nil; j++ {
		if outs[j].rs == rs {
			vals[i] = vals[j]
		}
	}
	if vals[i] == nil {
		body, err := wire.Encode(rs, w.d.Cfg.Compress)
		if err != nil {
			return nil, err
		}
		vals[i] = encodeMemValue(kind, layer, w.id, body)
	}
	return mc.pushVal(w, kind, layer, outs[i].target, vals[i]), nil
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
func (mc *memoryChannel) pushVal(w *worker, kind string, layer int, target int32, val []byte) func(p *sim.Proc) error {
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
	w.run.sent[target] = append(w.run.sent[target], sentValue{
		kind: kind, layer: layer, src: w.id, target: target, val: val, ttl: ttl,
	})
	return func(p *sim.Proc) error { return cl.RPush(p, &mc.client, key, val, ttl) }
}

func (mc *memoryChannel) send(w *worker, layer int, outs []targetRows) error {
	return mc.sendTaggedAll(w, "data", layer, outs)
}

func (mc *memoryChannel) receive(w *worker, layer int, sources []int32, deliver func(src int32, rs *wire.RowSet)) error {
	return mc.collect(w, "data", layer, sources, deliver)
}

// blockWait is the BLPOP block per receive-loop iteration. Blocking reads
// are native to the store (no long-vs-short polling ablation applies), so
// the wait is fixed rather than taken from Config.PollWait.
const blockWait = time.Second

// collect runs the memory-channel receive loop for any value kind: BLPOP
// the worker's inbox, deliver matching values, and buffer values for
// future phases (a fast upstream worker may already be pushing the next
// layer). One value completes one source for the (kind, layer). A
// starved read after a lossy cluster failover triggers one sender-buffer
// re-send sweep for the phase's missing sources.
func (mc *memoryChannel) collect(w *worker, kind string, layer int, sources []int32, deliver func(src int32, rs *wire.RowSet)) error {
	cl := w.d.kvcluster
	key := inboxKey(w.run.id, w.id)
	remaining := make(map[int32]bool, len(sources))
	for _, s := range sources {
		remaining[s] = true
	}

	var bulk []bulkRef
	process := func(src int32, body []byte) error {
		if !remaining[src] {
			return nil // duplicate or foreign source
		}
		if mc.resolveBulk != nil && isBulkPointer(body) {
			bulk = append(bulk, bulkRef{src: src, body: body})
			delete(remaining, src)
			return nil
		}
		rs, err := w.decodePayload(body)
		if err != nil {
			return err
		}
		if deliver != nil && rs.Len() > 0 {
			deliver(src, rs)
		}
		delete(remaining, src)
		return nil
	}

	// Drain anything buffered by earlier phases first.
	pkey := pendKey(kind, layer)
	for _, pm := range w.pending[pkey] {
		if err := process(pm.src, pm.body); err != nil {
			return err
		}
	}
	delete(w.pending, pkey)

	for len(remaining) > 0 {
		if w.ctx.Remaining() <= 0 {
			return fmt.Errorf("core: worker %d out of runtime collecting %s/layer %d", w.id, kind, layer)
		}
		w.metrics.Polls++
		val := cl.BLPop(w.ctx.P, &mc.client, key, blockWait)
		if val == nil {
			if err := mc.recover(w, kind, layer, pkey, remaining); err != nil {
				return err
			}
			continue
		}
		w.metrics.Fetches++
		vkind, vlayer, src, body, err := decodeMemValue(val)
		if err != nil {
			return err
		}
		if vkind == kind && vlayer == layer {
			if err := process(src, body); err != nil {
				return err
			}
			continue
		}
		// Buffer for the phase that expects it.
		k := pendKey(vkind, vlayer)
		w.pending[k] = append(w.pending[k], pendingMsg{src: src, chunks: 1, seq: 0, body: body})
	}
	if len(bulk) > 0 {
		return mc.resolveBulk(w, bulk, deliver)
	}
	return nil
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
func (mc *memoryChannel) recover(w *worker, kind string, layer int, pkey string, remaining map[int32]bool) error {
	lost := w.d.kvcluster.LostValues()
	floor, seen := mc.resentAt[pkey]
	if !seen {
		floor = w.run.baseLost
	}
	if lost <= floor {
		return nil
	}
	mc.resentAt[pkey] = lost
	key := inboxKey(w.run.id, w.id)
	for _, sv := range w.run.sent[w.id] {
		if sv.kind != kind || sv.layer != layer || !remaining[sv.src] {
			continue
		}
		w.metrics.Resends++
		w.d.Env.Meter.KVResends++
		if err := w.d.kvcluster.RPush(w.ctx.P, &mc.client, key, sv.val, sv.ttl); err != nil {
			return err
		}
	}
	return nil
}

// sendTagged ships one row set under an (op, round) tag — the collective
// algorithms' point-to-point primitive, riding the same inbox framing as
// the data path.
func (mc *memoryChannel) sendTagged(w *worker, op string, round int, target int32, rs *wire.RowSet) error {
	return mc.sendTaggedAll(w, op, round, []targetRows{{target: target, rs: rs}})
}

func (mc *memoryChannel) sendTaggedAll(w *worker, op string, round int, outs []targetRows) error {
	tasks := make([]func(p *sim.Proc) error, 0, len(outs))
	var one [1][]byte
	vals := valSlots(len(outs), &one)
	for i := range outs {
		task, err := mc.push(w, op, round, outs, vals, i)
		if err != nil {
			return err
		}
		tasks = append(tasks, task)
	}
	return w.threads("push", tasks)
}

func (mc *memoryChannel) gatherTagged(w *worker, op string, round int, sources []int32, deliver func(src int32, rs *wire.RowSet)) error {
	return mc.collect(w, op, round, sources, deliver)
}
