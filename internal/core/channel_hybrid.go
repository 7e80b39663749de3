package core

import (
	"fmt"
	"strconv"
	"strings"

	"fsdinference/internal/cloud/env"
	"fsdinference/internal/cloud/usage"
	"fsdinference/internal/collective"
	"fsdinference/internal/sim"
	"fsdinference/internal/wire"
)

// hybridChannel implements FSD-Inf-Hybrid: per-message channel selection
// in the FMI style. It owns no service: it is a routing policy over the
// Memory transport and the object-store helpers the Object channel uses.
// Every logical value still announces itself through the in-memory store
// inbox — the Memory transport's framing and failover recovery and the
// shared loop's ordering and buffering apply unchanged — but the payload's
// route depends on its size:
//
//   - control traffic and sparse activations at or under
//     HybridThresholdBytes travel inline through the store, paying its
//     sub-millisecond op latency;
//   - bulk tensors are split into HybridChunkBytes chunks written to
//     object storage from a hybridFanout-wide transfer pool, and only a
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
	// mem carries every inline value and every pointer frame.
	mem *memoryChannel
	// bulk holds the pointer frames the current gather set aside.
	bulk []bulkRef
}

// bulkRef is one deferred bulk-pointer frame: the source that announced
// it, and how many chunks it parked under which key prefix.
type bulkRef struct {
	src    int32
	chunks int
	prefix string
}

// hybridFanout is the Hybrid channel's per-worker parallel chunk transfer
// width, separate from Config.Threads because bulk tensor staging wants far
// wider concurrency than control pushes.
const hybridFanout = 32

func openHybrid(w *worker) channel {
	return &hybridChannel{mem: newMemoryChannel(w)}
}

// provisionHybrid creates both sides: the bulk route's buckets, then the
// store cluster every value announces itself through.
func provisionHybrid(d *Deployment) error {
	if err := provisionBuckets(d); err != nil {
		return err
	}
	return provisionStore(d)
}

// hybridTraits follows the message's route: the store for what travels
// inline, object storage from the hybridFanout-wide pool for bulk.
func hybridTraits(cfg Config, ec env.Config, msgBytes int64) collective.Traits {
	if msgBytes > int64(cfg.HybridThresholdBytes) {
		return objectRouteTraits(ec, hybridFanout)
	}
	return memoryTraits(cfg, ec, msgBytes)
}

// billHybrid bills the control plane through the store and the bulk chunks
// through object storage.
func billHybrid(w *WorkerMetrics, u *usage.Meter) {
	billStore(w, u)
	u.S3PutCalls += w.HybridPuts
	u.S3GetCalls += w.HybridGets
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
	digits, prefix, found := strings.Cut(string(body[1:]), ":")
	chunks, ok := parseDecimal(digits)
	if !found || !ok || chunks < 1 {
		return 0, "", fmt.Errorf("core: malformed bulk pointer %q", body[1:])
	}
	return chunks, prefix, nil
}

func bulkPrefix(w *worker, t tag, target int32) string {
	return fmt.Sprintf("%s/bulk/%s/%d/%d_%d", w.run.id, t.kind, t.layer, w.id, target)
}

func chunkKey(prefix string, i int) string {
	return prefix + "/" + strconv.Itoa(i)
}

// send routes one batch of values: small ones become inline inbox
// pushes; bulk ones park their chunks in object storage first (all
// targets' chunks through one hybridFanout-wide pool), then announce
// themselves with pointer pushes. The chunk PUTs complete before any
// pointer is pushed, so a receiver's GETs never race the upload.
func (hc *hybridChannel) send(w *worker, t tag, outs []targetRows) error {
	d := w.d
	var inline []func(p *sim.Proc) error // small pushes + pointer pushes
	var puts []func(p *sim.Proc) error

	var one [1][]byte
	vals := valSlots(len(outs), &one) // inline values, shared per send group
	for i, out := range outs {
		if int(out.rs.RawBytes()) <= d.Cfg.HybridThresholdBytes {
			task, err := hc.mem.push(w, t, outs, vals, i)
			if err != nil {
				return err
			}
			inline = append(inline, task)
			d.Env.Meter.HybridSmallValues++
			continue
		}
		chunks, err := w.encodeChunks(out.rs, d.Cfg.HybridChunkBytes)
		if err != nil {
			return err
		}
		bucket := w.bucketFor(out.target)
		prefix := bulkPrefix(w, t, out.target)
		for ci, c := range chunks {
			puts = append(puts, putTask(bucket, chunkKey(prefix, ci), c))
			w.metrics.BytesSent += int64(len(c))
		}
		w.metrics.MessagesSent += int64(len(chunks))
		w.metrics.HybridPuts += int64(len(chunks))
		d.Env.Meter.HybridBulkValues++
		d.Env.Meter.HybridBulkBytes += out.rs.RawBytes()
		d.Env.Meter.HybridChunks += int64(len(chunks))
		ptr := encodeMemValue(t, w.id, encodeBulkPointer(len(chunks), prefix))
		inline = append(inline, hc.mem.pushVal(w, t, out.target, ptr))
	}
	if err := w.threadsN("bput", hybridFanout, puts); err != nil {
		return err
	}
	return w.threads("push", inline)
}

// gather runs the shared loop over the memory transport's inbox with a
// decode step that sets pointer frames aside, then resolves them. The
// pointer frames themselves travel (and replay after a failover) through
// the inbox like any other value; their resolution waits until the gather
// completes so one pool round amortises the object store's read latency
// over every bulk source instead of paying it per source.
func (hc *hybridChannel) gather(w *worker, t tag, sources []int32, deliver func(src int32, rs *wire.RowSet)) error {
	hc.bulk = hc.bulk[:0]
	if err := w.gatherLoop(t, sources, hc.mem, hc.decode, deliver); err != nil {
		return err
	}
	if len(hc.bulk) == 0 {
		return nil
	}
	return hc.fetchBulk(w, deliver)
}

// decode sets a pointer frame aside for fetchBulk — its source is complete
// as far as the inbox is concerned — and decodes an inline value in place.
func (hc *hybridChannel) decode(w *worker, src int32, body []byte) (*wire.RowSet, error) {
	if !isBulkPointer(body) {
		return decodePayload(w, src, body)
	}
	chunks, prefix, err := decodeBulkPointer(body)
	if err != nil {
		return nil, err
	}
	hc.bulk = append(hc.bulk, bulkRef{src: src, chunks: chunks, prefix: prefix})
	return nil, nil
}

// fetchBulk resolves the pointer frames one gather set aside: every named
// chunk, across all sources, streams back from object storage through a
// single hybridFanout-wide pool, then each source's chunks decode and
// deliver in pointer-arrival order.
func (hc *hybridChannel) fetchBulk(w *worker, deliver func(src int32, rs *wire.RowSet)) error {
	var keys []string
	for _, ref := range hc.bulk {
		for i := 0; i < ref.chunks; i++ {
			keys = append(keys, chunkKey(ref.prefix, i))
		}
	}
	w.metrics.HybridGets += int64(len(keys))
	// The chunk objects live in the bucket keyed by this worker (the
	// send side routed by target).
	bodies, err := w.getBodies("bget", hybridFanout, w.bucketFor(w.id), keys)
	if err != nil {
		return err
	}
	for _, ref := range hc.bulk {
		for _, b := range bodies[:ref.chunks] {
			rs, err := decodePayload(w, ref.src, b)
			if err != nil {
				return err
			}
			if deliver != nil && rs.Len() > 0 {
				deliver(ref.src, rs)
			}
		}
		bodies = bodies[ref.chunks:]
	}
	return nil
}
