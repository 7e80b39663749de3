package core

import (
	"fmt"
	"strconv"
	"strings"

	"fsdinference/internal/sim"
	"fsdinference/internal/wire"
)

// hybridChannel implements FSD-Inf-Hybrid: per-message channel selection
// in the FMI style. Every logical value still announces itself through the
// in-memory store inbox — the ordering, buffering and failover machinery
// of the Memory channel apply unchanged — but the payload's route depends
// on its size:
//
//   - control traffic and sparse activations at or under
//     HybridThresholdBytes travel inline through the store, paying its
//     sub-millisecond op latency;
//   - bulk tensors are split into HybridChunkBytes chunks written to
//     object storage from a HybridFanout-wide transfer pool, and only a
//     tiny pointer frame (chunk count + key prefix) rides the inbox. The
//     receiver streams the chunks back through the same wide pool, so the
//     transfer's aggregate bandwidth is fanout x the per-connection object
//     store rate — past the crossover point, more than the memory store's
//     per-caller network path delivers — and decodes each chunk as it
//     lands.
//
// Failover recovery is inherited: the pointer frame sits in the run's
// sender log like any inbox value, and the chunks it names persist in
// object storage across a store failover, so replaying the pointer is a
// complete re-delivery.
type hybridChannel struct {
	memoryChannel
}

func newHybridChannel() *hybridChannel {
	hc := &hybridChannel{memoryChannel: memoryChannel{resentAt: make(map[string]int64)}}
	hc.resolveBulk = hc.fetchBulk
	return hc
}

// bulkMagic marks a pointer frame in an inbox value body. It is distinct
// from the wire codec's row-set magic, so the receive loop can tell a
// pointer from an inline payload by its first byte.
const bulkMagic = 0xF6

func isBulkPointer(body []byte) bool {
	return len(body) > 0 && body[0] == bulkMagic
}

// encodeBulkPointer frames "chunks:prefix": everything a receiver needs to
// stream the parked chunks back.
func encodeBulkPointer(chunks int, prefix string) []byte {
	s := strconv.Itoa(chunks) + ":" + prefix
	out := make([]byte, 0, 1+len(s))
	out = append(out, bulkMagic)
	return append(out, s...)
}

func decodeBulkPointer(body []byte) (chunks int, prefix string, err error) {
	if !isBulkPointer(body) {
		return 0, "", fmt.Errorf("core: not a bulk pointer frame")
	}
	s := string(body[1:])
	colon := strings.IndexByte(s, ':')
	if colon < 0 {
		return 0, "", fmt.Errorf("core: malformed bulk pointer %q", s)
	}
	chunks, err = strconv.Atoi(s[:colon])
	if err != nil || chunks < 1 {
		return 0, "", fmt.Errorf("core: malformed bulk chunk count %q", s)
	}
	return chunks, s[colon+1:], nil
}

func (hc *hybridChannel) bulkPrefix(w *worker, kind string, layer int, target int32) string {
	return fmt.Sprintf("%s/bulk/%s/%d/%d_%d", w.run.id, kind, layer, w.id, target)
}

func chunkKey(prefix string, i int) string {
	return prefix + "/" + strconv.Itoa(i)
}

// sendAll routes one batch of values: small ones become inline inbox
// pushes; bulk ones park their chunks in object storage first (all
// targets' chunks through one HybridFanout-wide pool), then announce
// themselves with pointer pushes. The chunk PUTs complete before any
// pointer is pushed, so a receiver's GETs never race the upload.
func (hc *hybridChannel) sendAll(w *worker, kind string, layer int, outs []targetRows) error {
	d := w.d
	var inline []func(p *sim.Proc) error // small pushes + pointer pushes
	var puts []func(p *sim.Proc) error

	var one [1][]byte
	vals := valSlots(len(outs), &one) // inline values, shared per send group
	for i, out := range outs {
		if int(out.rs.RawBytes()) <= d.Cfg.HybridThresholdBytes {
			task, err := hc.push(w, kind, layer, outs, vals, i)
			if err != nil {
				return err
			}
			inline = append(inline, task)
			d.Env.Meter.HybridSmallValues++
			continue
		}
		if d.Cfg.Compress {
			w.ctx.Compress(out.rs.RawBytes())
		}
		chunks, err := wire.EncodeChunks(out.rs, d.Cfg.HybridChunkBytes, d.Cfg.Compress)
		if err != nil {
			return err
		}
		bucket := d.buckets[int(out.target)%len(d.buckets)]
		prefix := hc.bulkPrefix(w, kind, layer, out.target)
		for i, c := range chunks {
			c := c
			key := chunkKey(prefix, i)
			puts = append(puts, func(p *sim.Proc) error { return bucket.Put(p, key, c) })
			w.metrics.BytesSent += int64(len(c))
		}
		w.metrics.MessagesSent += int64(len(chunks))
		w.metrics.HybridPuts += int64(len(chunks))
		d.Env.Meter.HybridBulkValues++
		d.Env.Meter.HybridBulkBytes += out.rs.RawBytes()
		d.Env.Meter.HybridChunks += int64(len(chunks))
		ptr := encodeMemValue(kind, layer, w.id, encodeBulkPointer(len(chunks), prefix))
		inline = append(inline, hc.pushVal(w, kind, layer, out.target, ptr))
	}
	if err := w.threadsN("bput", d.Cfg.HybridFanout, puts); err != nil {
		return err
	}
	return w.threads("push", inline)
}

// fetchBulk resolves the pointer frames one receive loop collected:
// every named chunk, across all sources, streams back from object
// storage through a single HybridFanout-wide pool — one pool round
// amortises the store's read latency over the whole gather — then each
// source's chunks decode and deliver in pointer-arrival order.
func (hc *hybridChannel) fetchBulk(w *worker, pending []bulkRef, deliver func(src int32, rs *wire.RowSet)) error {
	// The chunk objects live in the bucket keyed by this worker (the
	// send-side routed by target).
	bucket := w.d.buckets[int(w.id)%len(w.d.buckets)]
	bodies := make([][][]byte, len(pending))
	var tasks []func(p *sim.Proc) error
	for pi, ref := range pending {
		chunks, prefix, err := decodeBulkPointer(ref.body)
		if err != nil {
			return err
		}
		bodies[pi] = make([][]byte, chunks)
		for i := 0; i < chunks; i++ {
			pi, i := pi, i
			key := chunkKey(prefix, i)
			tasks = append(tasks, func(p *sim.Proc) error {
				b, err := bucket.Get(p, key)
				if err != nil {
					return err
				}
				bodies[pi][i] = b
				return nil
			})
		}
	}
	w.metrics.HybridGets += int64(len(tasks))
	if err := w.threadsN("bget", w.d.Cfg.HybridFanout, tasks); err != nil {
		return err
	}
	for pi, ref := range pending {
		for _, b := range bodies[pi] {
			rs, err := w.decodePayload(b)
			if err != nil {
				return err
			}
			if deliver != nil && rs.Len() > 0 {
				deliver(ref.src, rs)
			}
		}
	}
	return nil
}

func (hc *hybridChannel) send(w *worker, layer int, outs []targetRows) error {
	return hc.sendAll(w, "data", layer, outs)
}

func (hc *hybridChannel) sendTagged(w *worker, op string, round int, target int32, rs *wire.RowSet) error {
	return hc.sendAll(w, op, round, []targetRows{{target: target, rs: rs}})
}

func (hc *hybridChannel) sendTaggedAll(w *worker, op string, round int, outs []targetRows) error {
	return hc.sendAll(w, op, round, outs)
}
