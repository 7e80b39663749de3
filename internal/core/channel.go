package core

import (
	"fmt"
	"slices"
	"strconv"

	"fsdinference/internal/wire"
)

// tag names one logical exchange between workers: {dataKind, k} is the FSI
// data path of layer k, {op, round} one step of a collective. A value
// finds the gather that expects it by its tag alone.
type tag struct {
	kind  string
	layer int
}

// dataKind tags the FSI loop's per-layer activation exchange.
const dataKind = "data"

// targetRows is one (target, rows) send-map entry materialised with data.
type targetRows struct {
	target int32
	rs     *wire.RowSet
}

// channel is the communication variant under the FSI loop and the
// collectives. Both methods run in worker Proc context.
type channel interface {
	// send ships one row set per target under t with the transport's
	// native fan-out concurrency (thread pools, publish batches) and
	// returns once every send is issued and acknowledged. An empty row set
	// is still announced, so its target learns the transfer is complete.
	send(w *worker, t tag, outs []targetRows) error
	// gather collects values tagged t until every source in sources has
	// delivered completely, invoking deliver per arriving non-empty row
	// set.
	gather(w *worker, t tag, sources []int32, deliver func(src int32, rs *wire.RowSet)) error
}

// arrival is one byte string a transport took off its service: who sent
// it, under which tag, and where it sits among the byte strings its source
// announced for that tag.
type arrival struct {
	tag    tag
	src    int32
	chunks int // byte strings src ships under tag
	seq    int // this one's index in [0, chunks)
	// body is an encoded row set; nil when the source announced that it
	// has nothing to send and there is nothing to read or decode.
	body []byte
}

// arrivalSource is the receive half of a transport — the one part of a
// gather that is a service's own. Everything after an arrival is taken off
// the service (matching it to a tag, buffering, deduplication, decoding,
// completion) is gatherLoop's.
type arrivalSource interface {
	// poll waits on the service once and hands whatever arrived to
	// g.arrive in service order, charging the service calls it makes to
	// the run's meter. A transport that pays per body consults g.wants first.
	poll(w *worker, g *gathering) error
}

// gathering is the state of one gatherLoop call, lent to the arrival source.
// It lives in the worker (worker.gath) and is reset by each call.
type gathering struct {
	tag tag
	// remaining holds the sources that still owe byte strings for tag, each
	// with which of its byte strings have arrived, by seq — nil until a
	// source announces more than one.
	remaining map[int32][]bool
	decode    decodeFunc
	deliver   func(src int32, rs *wire.RowSet)
}

// decodeFunc turns one arrived body into a row set to deliver, charging the
// worker for it; a nil row set delivers nothing.
type decodeFunc func(w *worker, src int32, body []byte) (*wire.RowSet, error)

// wants reports whether src still owes byte strings to this gather.
func (g *gathering) wants(src int32) bool {
	_, ok := g.remaining[src]
	return ok
}

// arrive takes one arrival off a transport. A value of another tag is
// buffered for the gather that will expect it (a fast upstream worker may
// already be sending layer k+1 while this worker still collects layer k).
// Byte strings from completed or unlisted sources are ignored, and so is a
// redelivered chunk: standard queues deliver at least once, and a
// visibility timeout elapsing mid-processing must neither double-count a
// chunk nor complete its source early. The rest decode, deliver, and count
// toward their source's completion.
func (g *gathering) arrive(w *worker, a arrival) error {
	if a.tag != g.tag {
		w.pending[a.tag] = append(w.pending[a.tag], a)
		return nil
	}
	seen, ok := g.remaining[a.src]
	if !ok {
		return nil
	}
	if a.chunks > 1 {
		if seen == nil {
			seen = make([]bool, a.chunks)
			g.remaining[a.src] = seen
		}
		if a.seq < 0 || a.seq >= len(seen) {
			return fmt.Errorf("core: worker %d: byte string %d of %d from worker %d for %s/layer %d",
				w.id, a.seq, len(seen), a.src, a.tag.kind, a.tag.layer)
		}
		if seen[a.seq] {
			return nil
		}
		seen[a.seq] = true
	}
	if a.body != nil {
		rs, err := g.decode(w, a.src, a.body)
		if err != nil {
			return err
		}
		if rs != nil && rs.Len() > 0 && g.deliver != nil {
			g.deliver(a.src, rs)
		}
	}
	if !slices.Contains(seen, false) {
		delete(g.remaining, a.src)
	}
	return nil
}

// gatherLoop is the receive loop of Algorithms 1 and 2, written once for
// every transport: drain what earlier gathers buffered for t, then poll the
// arrival source until every source in sources has delivered all the byte
// strings it announced, giving up when the function's runtime is spent.
func (w *worker) gatherLoop(t tag, sources []int32, from arrivalSource, decode decodeFunc, deliver func(src int32, rs *wire.RowSet)) error {
	// A worker gathers one tag at a time, so the state and its map are the
	// worker's, reused: handed to the arrival source through an interface,
	// a fresh pair would be two heap allocations per gather.
	g := &w.gath
	if g.remaining == nil {
		g.remaining = make(map[int32][]bool, len(sources))
	}
	clear(g.remaining)
	for _, s := range sources {
		g.remaining[s] = nil
	}
	g.tag, g.decode, g.deliver = t, decode, deliver

	early := w.pending[t]
	delete(w.pending, t)
	for _, a := range early {
		if err := g.arrive(w, a); err != nil {
			return err
		}
	}
	for len(g.remaining) > 0 {
		if w.ctx.Remaining() <= 0 {
			return fmt.Errorf("core: worker %d out of runtime collecting %s/layer %d", w.id, t.kind, t.layer)
		}
		if err := from.poll(w, g); err != nil {
			return err
		}
	}
	return nil
}

// decodePayload decodes one received byte string, charging transfer-side
// CPU (parse, plus decompression when the frame arrived deflated). It is
// the decodeFunc of every transport whose bodies are all row sets. A layer's
// activation rows decode into the worker's receive arena and header
// (recvSet), whose set is read before the next decode, and so do the sets the
// gather's root copies into the result (see worker.foldRoot); every other
// collective's sets are unioned and forwarded, so they decode into sets of
// their own that keep their frames, through the run's frame table: the
// ranks a broadcast or a pass-around hands one frame share the one set it
// decodes to, which the collectives never append to. Each rank is still
// charged its own parse and inflate.
func decodePayload(w *worker, _ int32, body []byte) (*wire.RowSet, error) {
	w.ctx.Serialize(int64(len(body)))
	if wire.Deflated(body) {
		w.ctx.Decompress(int64(len(body)))
	}
	var rs *wire.RowSet
	var err error
	if w.gath.tag.kind == dataKind || w.foldRoot {
		rs = &w.recvSet
		w.recvIDs, w.recvVals, err = wire.DecodeAppend(body, rs, w.recvIDs, w.recvVals)
	} else {
		rs, err = w.d.runFrames(w.run).Decode(body)
	}
	if err != nil {
		return nil, fmt.Errorf("core: worker %d decoding payload: %w", w.id, err)
	}
	return rs, nil
}

// encodeFrame is the sender-side step of a transport whose values have no
// size cap: return the frame of rs, shared by every target rs is sent to,
// and charge the compression of rs when wire deflated it (a frame short
// enough to ship raw, the empty completion marker included, costs nothing).
func (w *worker) encodeFrame(rs *wire.RowSet) ([]byte, error) {
	p, err := wire.Encode(rs, w.d.Cfg.Compress)
	w.chargeCompress(rs, p)
	return p, err
}

// chargeCompress charges the compression of rs when its frame p is deflated.
func (w *worker) chargeCompress(rs *wire.RowSet, p []byte) {
	if wire.Deflated(p) {
		w.ctx.Compress(rs.RawBytes())
	}
}

// encodeChunks is the same step for a size-capped service: rs becomes one
// or more byte strings of at most limit bytes each, and the compressor is
// charged for the bytes of rs less what the raw chunks carry. The chunks are
// the rank's buffer (chanBufs.chunks), read before the next call; the send
// empties it as it returns (doneSending).
func (w *worker) encodeChunks(rs *wire.RowSet, limit int) ([][]byte, error) {
	clear(w.chunks)
	chunks, err := wire.EncodeChunks(w.chunks[:0], rs, limit, w.d.Cfg.Compress)
	w.chunks = chunks
	deflated := rs.RawBytes()
	for _, c := range chunks {
		if !wire.Deflated(c) {
			deflated -= int64(len(c))
		}
	}
	if deflated > 0 {
		w.ctx.Compress(deflated)
	}
	return chunks, err
}

// parseDecimal parses s as exactly the decimal strconv.Itoa writes for a
// 32-bit value — no "+", no leading zeros — so a frame header, pointer or
// object key that decodes re-encodes to the same bytes.
func parseDecimal(s string) (int, bool) {
	n, err := strconv.ParseInt(s, 10, 32)
	if err != nil {
		return 0, false
	}
	var buf [12]byte
	if string(strconv.AppendInt(buf[:0], n, 10)) != s {
		return 0, false
	}
	return int(n), true
}
