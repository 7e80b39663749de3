// Package wire implements the payload format workers exchange: sets of
// activation rows (global neuron ids plus batch-width float32 values),
// serialized compactly, zlib-compressed when long enough for that to pay,
// and split into size-limited byte strings using the paper's
// number-of-nonzeros heuristic (§III-C1).
//
// The queue channel must respect the pub-sub service's 256 KB message
// limit; the object channel has no practical size limit but uses the same
// encoding for a single object per (source, target, layer). The chunker
// aims to maximise utilisation of the allowed message size while grouping
// and compressing rows only once, as the paper's send path does.
//
// The rule this package enforces for its callers: one encode per distinct
// row set per worker; forwards pass frames through. The encoded frame is a
// property of the RowSet — Encode memoises it on the set, Decode seeds it
// with the payload it parsed, and the two mutators (Add, Append) drop it —
// so a worker that ships one set to many targets, or a collective hop that
// forwards the set it received, pays the compressor once and nobody outside
// this package keeps a cache. How often that happens is a property of the
// partition plan: on Block N=256 plans 16% of the send-map entries at P=8
// and 37% at P=32 repeat another target's row list; on HGPDNN N=1024 P=8
// (0 of 223) and Block N=1024 P=4 (0 of 144) none do.
//
// Whether a frame is deflated is decided per message, from its size (as
// FMI, arXiv 2305.08763, picks a transport per message), not per
// deployment: a compressing sender deflates a set whose raw frame is
// deflateFrom (768) bytes or more and ships a shorter one raw, because the
// paper compresses so that fewer 64 KB publishes are billed and fewer
// 256 KB messages are needed, and no sub-kilobyte frame changes either
// count. What deflate costs the host does not shrink with the frame
// (BenchmarkEncodeBySize: about 20 us a frame to reset and flush the
// compressor plus 30 - 55 ns a byte, against 0.5 ns a byte raw), and at
// P=32 on N=256 a worker ships 4.5 k frames an inference whose bodies
// average 0.45 KB. The constant was picked on the benchmark's two channel
// workloads (contract mode, seed 7, one 20 s run per cell; simulated
// numbers relative to deflating everything):
//
//	deflateFrom  collective_p32                      channel_sweep (8.8 KB frames)
//	             wall_qps  sim_p50_ms  sim $/kq      sim_p50_ms  sim $/kq
//	0            5.4       887.78      1.62170       1085.80     1.03387
//	256          6.4       -0.001 %    -0.001 %      =           =
//	512          16.6      -0.04 %     -0.01 %       -0.001 %    +0.002 %
//	768          28.0      -0.10 %     -0.02 %       -0.002 %    +0.007 %
//	1024         28.8      -0.10 %     -0.02 %       -0.004 %    +0.02 %
//	2048         26.9      -0.10 %     -0.02 %       +0.45 %     +0.16 %
//	4096         26.1      -0.10 %     -0.02 %       +0.44 %     +0.28 %
//
// Host speed is flat from 768 up; past it the simulated bill starts to
// climb on the workload whose frames are worth compressing. Bytes on the
// wire do rise — wire.sim_bytes_per_q on collective_p32 goes 1.24 -> 1.81
// MB — while latency and cost do not, because the simulated sender and
// receiver stop paying compress and decompress time for those frames and
// the store bills node-hours, not bytes. A service that does price bytes
// shows it: the queue channel's per-byte delivery charge (Z) makes the
// Queue/flat cell of core's TestGoldenResultP32 (P=32) cost 2.4 % more.
package wire

import (
	"bytes"
	"compress/zlib"
	"encoding/binary"
	"fmt"
	"io"
	"math"
	"sync"
	"sync/atomic"
)

// Encode/Decode sit on the serving replay hot path (every query stages an
// input payload and every run emits a result payload), and a cold
// zlib.Writer allocates ~380 KB of deflate state per call. The pools below
// recycle compressor and decompressor state across calls; Reset fully
// reinitialises the deflate stream, so pooled and fresh writers produce
// byte-identical output and simulated payload sizes are unaffected.
var (
	zlibWriters = sync.Pool{New: func() any { return zlib.NewWriter(io.Discard) }}
	zlibReaders sync.Pool // holds io.ReadCloser values implementing zlib.Resetter
	bodyBufs    = sync.Pool{New: func() any { return new(bytes.Buffer) }}
)

const (
	magic      = 0xF5
	flagZlib   = 0x01
	headerSize = 2 + 4 + 4 // magic+flags, batch, nrows

	// deflateFrom is the raw frame length from which a compressing sender
	// deflates; the package comment has the sweep it was picked from.
	deflateFrom = 768
)

// RowSet is a set of activation rows in transit: row i has global neuron id
// IDs[i] and Batch values at Vals[i*Batch : (i+1)*Batch]. Once a set has
// been through Encode or came out of Decode, change its rows only through
// Add and Append: they are what keeps the memoised frame honest.
type RowSet struct {
	Batch int
	IDs   []int32
	Vals  []float32

	// enc is the set's encoded frame, raw at index 0 and zlib at index 1,
	// nil until Encode produces or Decode seeds it.
	enc [2][]byte
}

// NewRowSet returns an empty RowSet for the given batch width.
func NewRowSet(batch int) *RowSet {
	return &RowSet{Batch: batch}
}

// NewRowSetCap returns an empty RowSet for the given batch width with
// capacity for rows rows, so hot paths that know the row count up front
// avoid repeated append growth (at batch 4096 each regrowth copies the
// whole value backing array).
func NewRowSetCap(batch, rows int) *RowSet {
	return &RowSet{
		Batch: batch,
		IDs:   make([]int32, 0, rows),
		Vals:  make([]float32, 0, rows*batch),
	}
}

// Add appends one row. vals must have Batch elements.
func (rs *RowSet) Add(id int32, vals []float32) {
	if len(vals) != rs.Batch {
		panic(fmt.Sprintf("wire: row of %d values, batch is %d", len(vals), rs.Batch))
	}
	rs.IDs = append(rs.IDs, id)
	rs.Vals = append(rs.Vals, vals...)
	rs.enc = [2][]byte{}
}

// Append adds every row of src, which must have the same batch width.
func (rs *RowSet) Append(src *RowSet) {
	if src.Batch != rs.Batch {
		panic(fmt.Sprintf("wire: appending batch-%d rows to a batch-%d set", src.Batch, rs.Batch))
	}
	rs.IDs = append(rs.IDs, src.IDs...)
	rs.Vals = append(rs.Vals, src.Vals...)
	rs.enc = [2][]byte{}
}

// Len returns the number of rows.
func (rs *RowSet) Len() int { return len(rs.IDs) }

// Row returns the values of the i-th row.
func (rs *RowSet) Row(i int) []float32 {
	return rs.Vals[i*rs.Batch : (i+1)*rs.Batch]
}

// RawBytes returns the uncompressed serialized size.
func (rs *RowSet) RawBytes() int64 {
	return headerSize + int64(len(rs.IDs))*4 + int64(len(rs.Vals))*4
}

// NNZ returns the number of nonzero values across all rows — the paper's
// chunking heuristic input.
func (rs *RowSet) NNZ() int64 {
	var n int64
	for _, v := range rs.Vals {
		if v != 0 {
			n++
		}
	}
	return n
}

// Slice returns a RowSet view of rows [lo, hi): it shares those rows with
// rs and nothing past them, so an Add or Append on the view reallocates
// instead of writing over rs's next row.
func (rs *RowSet) Slice(lo, hi int) *RowSet {
	return &RowSet{
		Batch: rs.Batch,
		IDs:   rs.IDs[lo:hi:hi],
		Vals:  rs.Vals[lo*rs.Batch : hi*rs.Batch : hi*rs.Batch],
	}
}

// Encode serializes the row set: a 2-byte magic/flags preamble, then batch
// width, row count, row ids and values (little-endian). With compress set
// and a raw frame of deflateFrom bytes or more, everything after the
// preamble is zlib-compressed; a shorter set ships raw under either flag.
// The frame is memoised on the set, so encoding an unchanged set again —
// for another target, or at the next hop of a collective — returns the same
// bytes without running the compressor; callers share the result and must
// not modify it.
func Encode(rs *RowSet, compress bool) ([]byte, error) {
	f := 0
	if deflates(rs, compress) {
		f = 1
	}
	if p := rs.enc[f]; p != nil {
		return p, nil
	}
	if len(rs.IDs) == 0 {
		rs.enc[f] = emptyFrame(rs.Batch)
		return rs.enc[f], nil
	}
	p, err := encode(rs, f == 1)
	if err != nil {
		return nil, err
	}
	rs.enc[f] = p
	return p, nil
}

// deflates is the per-message rule: a compressing sender deflates rs only
// when its raw frame is long enough for that to change a billed unit.
func deflates(rs *RowSet, compress bool) bool {
	return compress && rs.RawBytes() >= deflateFrom
}

// Deflated reports whether frame, as Encode wrote it or a transport
// delivered it, carries a zlib body: what a sender paid the compressor for
// and a receiver must inflate.
func Deflated(frame []byte) bool {
	return len(frame) >= 2 && frame[1]&flagZlib != 0
}

// encode builds a fresh frame, zlib-compressed when deflate is set,
// allocating nothing but the frame itself.
func encode(rs *RowSet, deflate bool) ([]byte, error) {
	n := 8 + len(rs.IDs)*4 + len(rs.Vals)*4
	if !deflate {
		// Build the payload in place: at batch 4096 the body is megabytes,
		// and an encode-then-append would copy all of it a second time.
		out := make([]byte, 2+n)
		out[0], out[1] = magic, 0
		fillBody(out[2:], rs)
		return out, nil
	}
	raw := bodyBufs.Get().(*bytes.Buffer)
	defer bodyBufs.Put(raw)
	raw.Reset()
	raw.Grow(n)
	body := raw.AvailableBuffer()[:n]
	fillBody(body, rs)

	buf := bodyBufs.Get().(*bytes.Buffer)
	defer bodyBufs.Put(buf)
	buf.Reset()
	buf.WriteByte(magic)
	buf.WriteByte(flagZlib)
	zw := zlibWriters.Get().(*zlib.Writer)
	defer zlibWriters.Put(zw)
	zw.Reset(buf)
	if _, err := zw.Write(body); err != nil {
		return nil, fmt.Errorf("wire: compressing payload: %w", err)
	}
	if err := zw.Close(); err != nil {
		return nil, fmt.Errorf("wire: closing compressor: %w", err)
	}
	// An exact-size copy: the frame outlives the call on the set's memo, so
	// it should not pin a grown buffer's slack.
	return append(make([]byte, 0, buf.Len()), buf.Bytes()...), nil
}

// emptyFrames holds the frame of the empty row set per batch width — the
// completion marker every barrier hop and every all-zero send ships, ten
// raw bytes whatever the sender's flag. It is a constant of the format, so
// it is computed once per process; the cap bounds what a stream of hostile
// batch widths could park here.
var (
	emptyFrames     sync.Map // batch (int) -> []byte
	emptyFramesSize atomic.Int64
)

const emptyFramesCap = 4096

func emptyFrame(batch int) []byte {
	if v, ok := emptyFrames.Load(batch); ok {
		return v.([]byte)
	}
	p := make([]byte, headerSize)
	p[0] = magic
	fillBody(p[2:], &RowSet{Batch: batch})
	if emptyFramesSize.Load() < emptyFramesCap {
		if _, loaded := emptyFrames.LoadOrStore(batch, p); !loaded {
			emptyFramesSize.Add(1)
		}
	}
	return p
}

// fillBody serializes the row set into body, which must be exactly
// 8 + 4*len(IDs) + 4*len(Vals) bytes.
func fillBody(body []byte, rs *RowSet) {
	binary.LittleEndian.PutUint32(body[0:4], uint32(rs.Batch))
	binary.LittleEndian.PutUint32(body[4:8], uint32(len(rs.IDs)))
	off := 8
	for _, id := range rs.IDs {
		binary.LittleEndian.PutUint32(body[off:], uint32(id))
		off += 4
	}
	for _, v := range rs.Vals {
		binary.LittleEndian.PutUint32(body[off:], math.Float32bits(v))
		off += 4
	}
}

// Decode parses a payload produced by Encode. The returned set keeps b as
// its frame for b's flag, so forwarding it re-encodes nothing; the caller
// must not modify b afterwards. Only a payload Encode could have framed is
// kept: unknown flag bits, bytes trailing the compressed stream or a zlib
// body shorter than Encode deflates parse, but do not describe the set.
func Decode(b []byte) (*RowSet, error) {
	if len(b) < 2 || b[0] != magic {
		return nil, fmt.Errorf("wire: bad payload preamble")
	}
	if !Deflated(b) {
		rs, err := parseBody(b[2:])
		if err == nil && b[1] == 0 {
			rs.enc[0] = b
		}
		return rs, err
	}
	src := bytes.NewReader(b[2:])
	var err error
	zr, pooled := zlibReaders.Get().(io.ReadCloser)
	if pooled {
		err = zr.(zlib.Resetter).Reset(src, nil)
	} else {
		zr, err = zlib.NewReader(src)
	}
	if zr != nil {
		// Reset reinitialises the stream whatever state an error left it
		// in, so the reader goes back to the pool on every path.
		defer zlibReaders.Put(zr)
	}
	if err != nil {
		return nil, fmt.Errorf("wire: opening decompressor: %w", err)
	}
	scratch := bodyBufs.Get().(*bytes.Buffer)
	defer bodyBufs.Put(scratch)
	scratch.Reset()
	if _, err := scratch.ReadFrom(zr); err != nil {
		return nil, fmt.Errorf("wire: decompressing payload: %w", err)
	}
	if err := zr.Close(); err != nil {
		return nil, fmt.Errorf("wire: closing decompressor: %w", err)
	}
	rs, err := parseBody(scratch.Bytes())
	if err == nil && b[1] == flagZlib && src.Len() == 0 && deflates(rs, true) {
		rs.enc[1] = b
	}
	return rs, err
}

// parseBody parses an uncompressed frame body into a fresh row set. The
// header's counts come off the wire, so they are checked against the body's
// length before anything is multiplied or allocated.
func parseBody(body []byte) (*RowSet, error) {
	if len(body) < 8 {
		return nil, fmt.Errorf("wire: payload body too short (%d bytes)", len(body))
	}
	batch := int64(binary.LittleEndian.Uint32(body[0:4]))
	n := int64(binary.LittleEndian.Uint32(body[4:8]))
	// n rows take n id words and n*batch value words; dividing instead of
	// multiplying keeps hostile counts from overflowing.
	words, odd := int64(len(body)-8)/4, (len(body)-8)%4
	fits := odd == 0 && n <= words
	if fits && n == 0 {
		fits = words == 0
	} else if fits {
		fits = (words-n)%n == 0 && (words-n)/n == batch
	}
	if !fits {
		return nil, fmt.Errorf("wire: payload body is %d bytes, not what batch=%d rows=%d needs",
			len(body), batch, n)
	}
	rs := &RowSet{
		Batch: int(batch),
		IDs:   make([]int32, n),
		Vals:  make([]float32, n*batch),
	}
	off := 8
	for i := range rs.IDs {
		rs.IDs[i] = int32(binary.LittleEndian.Uint32(body[off:]))
		off += 4
	}
	for i := range rs.Vals {
		rs.Vals[i] = math.Float32frombits(binary.LittleEndian.Uint32(body[off:]))
		off += 4
	}
	return rs, nil
}

// assumedCompressionRatio is the planning estimate of compressed-to-raw
// size used by the NNZ heuristic. Nonzero float32 activations compress
// modestly; zero runs compress almost completely, which is why the
// heuristic counts nonzeros rather than raw bytes.
const assumedCompressionRatio = 0.6

// rowsPerChunk is the paper's NNZ heuristic: how many of the set's rows
// fit one byte string of at most limit bytes, at least one.
func rowsPerChunk(rs *RowSet, limit int, compress bool) int {
	return max(1, (limit-headerSize)/estRowBytes(rs, compress))
}

func estRowBytes(rs *RowSet, compress bool) int {
	nnz := rs.NNZ()
	if nnz == 0 {
		nnz = 1
	}
	// Estimated contribution of one row: its id plus its share of
	// nonzero values (zeros are assumed compressed away).
	valBytes := float64(nnz*4) / float64(rs.Len())
	per := 4.0 + valBytes
	if compress {
		per = 4 + valBytes*assumedCompressionRatio
	}
	return int(per) + 1
}

// EncodeChunks serializes the row set into one or more payloads, each at
// most limit bytes. The initial split uses the NNZ heuristic so rows are
// grouped and compressed only once in the common case; any chunk whose
// encoded form still exceeds the limit is re-split recursively. An empty
// row set yields a single empty payload (the "nothing to send, but here is
// my completion marker" case of Algorithm 1).
func EncodeChunks(rs *RowSet, limit int, compress bool) ([][]byte, error) {
	if limit <= headerSize+8 {
		return nil, fmt.Errorf("wire: chunk limit %d too small", limit)
	}
	if rs.Len() == 0 {
		p, err := Encode(rs, compress)
		if err != nil {
			return nil, err
		}
		return [][]byte{p}, nil
	}
	rowsPer := rowsPerChunk(rs, limit, compress)
	var out [][]byte
	var encode func(lo, hi int) error
	encode = func(lo, hi int) error {
		// A chunk that is the whole set is the set: its frame is memoised.
		chunk := rs
		if hi-lo < rs.Len() {
			chunk = rs.Slice(lo, hi)
		}
		p, err := Encode(chunk, compress)
		if err != nil {
			return err
		}
		if len(p) > limit && hi-lo > 1 {
			mid := (lo + hi) / 2
			if err := encode(lo, mid); err != nil {
				return err
			}
			return encode(mid, hi)
		}
		if len(p) > limit {
			return fmt.Errorf("wire: single row encodes to %d bytes, over the %d limit", len(p), limit)
		}
		out = append(out, p)
		return nil
	}
	for lo := 0; lo < rs.Len(); lo += rowsPer {
		hi := lo + rowsPer
		if hi > rs.Len() {
			hi = rs.Len()
		}
		if err := encode(lo, hi); err != nil {
			return nil, err
		}
	}
	return out, nil
}
