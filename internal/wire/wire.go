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
// A decoded set has one of two lifetimes, and the receiver picks the decode
// that matches. Decode returns a set of its own with the parsed payload
// memoised as its frame: for a set that outlives the exchange it arrived in,
// as a collective's partial results do when they are unioned or forwarded.
// DecodeAppend fills a caller-owned set header with a view of caller-owned
// storage the payload's rows were appended to: for rows read once and
// dropped, as a worker's activation rows are when the layer they arrived for
// ends and the worker truncates the storage for the next. Both share the
// inflate step and the one body parser.
//
// The receive side has the send side's rule too: one decode per distinct
// frame per table. A Frames table hands every caller that decodes the same
// bytes from it the one set it decoded first, read-only, so a collective's
// receivers share the frame one sender shipped to many of them (a broadcast)
// or that hop after hop forwarded (the ring's pass-around). It is keyed by
// the frame's content, not its address, since one frame reaches its
// receivers in as many copies as a store holds values.
//
// Two encodes write a frame where its bytes are needed rather than into a
// set first: EncodeAfter writes a set's frame right after a caller's header
// in one allocation (a store value is a header and a frame), and
// EncodeMatrixRows frames chosen rows of a row-major matrix without copying
// them into a set.
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
	"hash/maphash"
	"io"
	"math"
	"slices"
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
	if deflates(rs.RawBytes(), compress) {
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

// EncodeAfter returns header followed by Encode(rs, compress), in one fresh
// allocation the caller owns. A set with no frame memoised for the flag is
// framed in place after the header, and the memo keeps that frame, a view
// of the returned bytes that starts past the header, so a later Encode of
// the unchanged set returns it; the caller must not modify the returned
// bytes. A set already framed (or empty) has its frame copied after the
// header. The header is only read.
func EncodeAfter(header []byte, rs *RowSet, compress bool) ([]byte, error) {
	f := 0
	if deflates(rs.RawBytes(), compress) {
		f = 1
	}
	if rs.enc[f] == nil && len(rs.IDs) > 0 {
		val, err := build(header, rawBodyLen(rs), rs.fillBody, f == 1)
		if err != nil {
			return nil, err
		}
		rs.enc[f] = val[len(header):]
		return val, nil
	}
	p, err := Encode(rs, compress)
	if err != nil {
		return nil, err
	}
	return append(append(make([]byte, 0, len(header)+len(p)), header...), p...), nil
}

// EncodeMatrixRows is Encode of the set of rows ids, in that order, of the
// row-major matrix data, batch values a row: row id is data[id*batch :
// (id+1)*batch]. The frame is written from the matrix, so the rows are not
// copied into a set first, and nothing is memoised. As with Encode, callers
// must not modify the result (no ids return the shared empty frame).
func EncodeMatrixRows(data []float32, batch int, ids []int32, compress bool) ([]byte, error) {
	if len(ids) == 0 {
		return emptyFrame(batch), nil
	}
	n := 8 + len(ids)*4*(1+batch)
	fill := func(body []byte) {
		off := fillHead(body, batch, ids)
		// Each run of consecutive ids is one span of the matrix.
		for i := 0; i < len(ids); {
			j := i + 1
			for j < len(ids) && ids[j] == ids[j-1]+1 {
				j++
			}
			lo := int(ids[i]) * batch
			off = fillVals(body, off, data[lo:lo+(j-i)*batch])
			i = j
		}
	}
	return build(nil, n, fill, deflates(int64(2+n), compress))
}

// deflates is the per-message rule: a compressing sender deflates a set only
// when its raw frame, raw bytes long, is long enough for that to change a
// billed unit.
func deflates(raw int64, compress bool) bool {
	return compress && raw >= deflateFrom
}

// Deflated reports whether frame, as Encode wrote it or a transport
// delivered it, carries a zlib body: what a sender paid the compressor for
// and a receiver must inflate.
func Deflated(frame []byte) bool {
	return len(frame) >= 2 && frame[1]&flagZlib != 0
}

// encode builds a fresh frame of rs, zlib-compressed when deflate is set,
// allocating nothing but the frame itself.
func encode(rs *RowSet, deflate bool) ([]byte, error) {
	return build(nil, rawBodyLen(rs), rs.fillBody, deflate)
}

// rawBodyLen is the length of rs's frame body before any deflate.
func rawBodyLen(rs *RowSet) int { return 8 + len(rs.IDs)*4 + len(rs.Vals)*4 }

// build returns prefix followed by a fresh frame whose raw body is the n
// bytes fill writes, zlib-compressed when deflate is set, allocating
// nothing but the returned bytes.
func build(prefix []byte, n int, fill func(body []byte), deflate bool) ([]byte, error) {
	if !deflate {
		// Build the payload in place: at batch 4096 the body is megabytes,
		// and an encode-then-append would copy all of it a second time.
		out := make([]byte, len(prefix)+2+n)
		frame := out[copy(out, prefix):]
		frame[0], frame[1] = magic, 0
		fill(frame[2:])
		return out, nil
	}
	raw := bodyBufs.Get().(*bytes.Buffer)
	defer bodyBufs.Put(raw)
	raw.Reset()
	raw.Grow(n)
	body := raw.AvailableBuffer()[:n]
	fill(body)

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
	out := make([]byte, 0, len(prefix)+buf.Len())
	return append(append(out, prefix...), buf.Bytes()...), nil
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
	(&RowSet{Batch: batch}).fillBody(p[2:])
	if emptyFramesSize.Load() < emptyFramesCap {
		if _, loaded := emptyFrames.LoadOrStore(batch, p); !loaded {
			emptyFramesSize.Add(1)
		}
	}
	return p
}

// fillBody serializes the row set into body, which must be exactly
// 8 + 4*len(IDs) + 4*len(Vals) bytes.
func (rs *RowSet) fillBody(body []byte) {
	fillVals(body, fillHead(body, rs.Batch, rs.IDs), rs.Vals)
}

// fillHead writes a frame body's batch width, row count and row ids to the
// front of body and returns the offset the values start at.
func fillHead(body []byte, batch int, ids []int32) int {
	binary.LittleEndian.PutUint32(body[0:4], uint32(batch))
	binary.LittleEndian.PutUint32(body[4:8], uint32(len(ids)))
	off := 8
	for _, id := range ids {
		binary.LittleEndian.PutUint32(body[off:], uint32(id))
		off += 4
	}
	return off
}

// fillVals writes vals to body from off and returns the offset past them.
func fillVals(body []byte, off int, vals []float32) int {
	for _, v := range vals {
		binary.LittleEndian.PutUint32(body[off:], math.Float32bits(v))
		off += 4
	}
	return off
}

// Decode parses a payload produced by Encode into a set of its own. The
// returned set keeps b as its frame for b's flag, so forwarding it
// re-encodes nothing; the caller must not modify b afterwards. Only a payload
// Encode could have framed is kept: unknown flag bits, bytes trailing the
// compressed stream or a zlib body shorter than Encode deflates parse, but do
// not describe the set. This is the decode for a set that outlives the
// exchange it arrived in — one a collective unions or forwards; a set read
// once and dropped decodes into caller-owned storage with DecodeAppend.
func Decode(b []byte) (*RowSet, error) {
	rs := new(RowSet)
	if _, _, err := DecodeAppend(b, rs, nil, nil); err != nil {
		return nil, err
	}
	return rs, nil
}

// Frames decodes frames for receivers that are handed the same bytes more
// than once: it remembers the set each frame decoded to, keyed by the frame's
// content. The zero value is ready to use; a Frames is for one goroutine at a
// time.
type Frames struct {
	seed maphash.Seed
	// sets holds each decoded set by its frame's hash. The key is the set's
	// memoised frame, so the table stores no copy of it; a frame whose hash
	// another frame holds decodes afresh.
	sets map[uint64]*RowSet
}

// Decode is wire.Decode of b, except that a frame this table decoded before
// returns the set it decoded then. The returned set is shared with every
// caller that decoded the same bytes from this table and is read-only: no
// caller may Add or Append to it or write its rows. A payload Decode parses
// but does not keep as the set's frame (unknown flag bits, bytes after the
// zlib stream) is decoded afresh at every call.
func (f *Frames) Decode(b []byte) (*RowSet, error) {
	if f.sets == nil {
		f.seed = maphash.MakeSeed()
		f.sets = make(map[uint64]*RowSet)
	}
	h := maphash.Bytes(f.seed, b)
	held, taken := f.sets[h]
	if taken && len(b) >= 2 && b[1] <= flagZlib && bytes.Equal(held.enc[b[1]], b) {
		return held, nil
	}
	rs, err := Decode(b)
	if err == nil && !taken && b[1] <= flagZlib && rs.enc[b[1]] != nil {
		f.sets[h] = rs
	}
	return rs, err
}

// Reset forgets every set f decoded, keeping the table's storage for the
// frames of the next user.
func (f *Frames) Reset() { clear(f.sets) }

// DecodeAppend is Decode into caller-owned storage: the payload's row ids and
// values are appended to ids and vals, which are returned grown, and rs, a
// header the caller owns, is overwritten with the set that views exactly the
// appended elements, b memoised as its frame as Decode keeps it. Its slices
// are capped, so an Add or Append on the set reallocates rather than writing
// past its rows, and nothing already in ids and vals is written to. The set
// lives as long as the caller leaves that storage and the header alone: a
// worker decodes each of a layer's arrivals into one header over one arena
// and, when the layer ends, truncates the arena and empties the header, so
// that the header's memo does not keep the last frame alive. On error rs, ids
// and vals are left as they were passed. Nil storage is allocated at the
// payload's exact size, which is what Decode does.
func DecodeAppend(b []byte, rs *RowSet, ids []int32, vals []float32) ([]int32, []float32, error) {
	if len(b) < 2 || b[0] != magic {
		return ids, vals, fmt.Errorf("wire: bad payload preamble")
	}
	if !Deflated(b) {
		ids, vals, err := parseBody(b[2:], rs, ids, vals)
		if err == nil && b[1] == 0 {
			rs.enc[0] = b
		}
		return ids, vals, err
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
		return ids, vals, fmt.Errorf("wire: opening decompressor: %w", err)
	}
	scratch := bodyBufs.Get().(*bytes.Buffer)
	defer bodyBufs.Put(scratch)
	scratch.Reset()
	if _, err := scratch.ReadFrom(zr); err != nil {
		return ids, vals, fmt.Errorf("wire: decompressing payload: %w", err)
	}
	if err := zr.Close(); err != nil {
		return ids, vals, fmt.Errorf("wire: closing decompressor: %w", err)
	}
	ids, vals, err = parseBody(scratch.Bytes(), rs, ids, vals)
	if err == nil && b[1] == flagZlib && src.Len() == 0 && deflates(rs.RawBytes(), true) {
		rs.enc[1] = b
	}
	return ids, vals, err
}

// parseBody parses an uncompressed frame body into rs, appending its rows to
// ids and vals (see DecodeAppend). The header's counts come off the wire, so
// they are checked against the body's length before anything is multiplied
// or allocated.
func parseBody(body []byte, rs *RowSet, ids []int32, vals []float32) ([]int32, []float32, error) {
	if len(body) < 8 {
		return ids, vals, fmt.Errorf("wire: payload body too short (%d bytes)", len(body))
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
		return ids, vals, fmt.Errorf("wire: payload body is %d bytes, not what batch=%d rows=%d needs",
			len(body), batch, n)
	}
	ids, rowIDs := extend(ids, int(n))
	vals, rowVals := extend(vals, int(n*batch))
	off := 8
	for i := range rowIDs {
		rowIDs[i] = int32(binary.LittleEndian.Uint32(body[off:]))
		off += 4
	}
	for i := range rowVals {
		rowVals[i] = math.Float32frombits(binary.LittleEndian.Uint32(body[off:]))
		off += 4
	}
	*rs = RowSet{Batch: int(batch), IDs: rowIDs, Vals: rowVals}
	return ids, vals, nil
}

// extend lengthens s by n elements and returns it with a capped window of the
// n new ones, whose contents are the caller's to overwrite. A nil s becomes a
// slice of exactly n.
func extend[E any](s []E, n int) (all, tail []E) {
	if s == nil {
		s = make([]E, 0, n)
	}
	all = slices.Grow(s, n)[:len(s)+n]
	return all, all[len(s):len(all):len(all)]
}

// assumedCompressionRatio is the NNZ heuristic's estimate of a deflated
// body's size over the raw size of its nonzero values. Nonzero float32
// activations compress modestly; zero runs compress almost completely,
// which is why the heuristic counts nonzeros rather than raw bytes.
const assumedCompressionRatio = 0.6

// rowBytes is the paper's NNZ heuristic per row: the estimated share of a
// frame body that one of rows rows holding nnz nonzero values takes, its
// id plus its share of the nonzeros (zeros are assumed compressed away),
// the nonzeros at assumedCompressionRatio under compress. The chunk split
// divides its limit by it.
func rowBytes(rows, nnz int64, compress bool) float64 {
	valBytes := float64(max(nnz, 1)*4) / float64(rows)
	if compress {
		// The conversion forbids a fused multiply-add, so the split cuts
		// the same on every GOARCH.
		return 4 + float64(valBytes*assumedCompressionRatio)
	}
	return 4 + valBytes
}

// RawRowBytes is one row's share of a raw frame of batch values a row: its
// id and its values, zeros included, 4 bytes each, as Encode writes them.
func RawRowBytes(batch int) int64 { return 4 * (1 + int64(batch)) }

// Frame is the shape of a dense row set, Rows rows of Batch values, every
// value nonzero, shipped raw: what one (source, target) pair sends in a
// layer as the §IV cost model sees it, before the set exists.
type Frame struct {
	Rows  int64
	Batch int
}

// Bytes is len(Encode(rs, false)) for a set rs of f's shape: the header and
// each row's id and values.
func (f Frame) Bytes() int64 { return headerSize + f.Rows*RawRowBytes(f.Batch) }

// Chunks is what EncodeChunks(rs, limit, false) cuts a dense set rs of f's
// shape into, one frame a byte string: rowsPerChunk's rows each and the
// rest in the last, or one empty frame for an empty f. It is exact: a raw
// chunk of dense rows encodes to its Bytes, which the row term keeps under
// the limit, so the split never halves one. It errs where EncodeChunks
// does: on a limit too small for any frame and on a row wider than limit.
func (f Frame) Chunks(limit int) ([]Frame, error) {
	if limit <= headerSize+8 {
		return nil, fmt.Errorf("wire: chunk limit %d too small", limit)
	}
	if f.Rows == 0 {
		return []Frame{f}, nil
	}
	if row := (Frame{Rows: 1, Batch: f.Batch}).Bytes(); row > int64(limit) {
		return nil, fmt.Errorf("wire: single row encodes to %d bytes, over the %d limit", row, limit)
	}
	per := int64(rowsPerChunk(f.Rows, f.Rows*int64(f.Batch), limit, false))
	chunks := make([]Frame, 0, (f.Rows+per-1)/per)
	for lo := int64(0); lo < f.Rows; lo += per {
		chunks = append(chunks, Frame{Rows: min(per, f.Rows-lo), Batch: f.Batch})
	}
	return chunks, nil
}

// rowsPerChunk is the paper's NNZ heuristic: how many rows of a set of rows
// rows holding nnz nonzero values fit one byte string of at most limit
// bytes, at least one. EncodeChunks cuts by it and Frame.Chunks counts by
// it.
func rowsPerChunk(rows, nnz int64, limit int, compress bool) int {
	return max(1, (limit-headerSize)/(int(rowBytes(rows, nnz, compress))+1))
}

// EncodeChunks serializes the row set into one or more payloads, each at
// most limit bytes, and appends them to dst. The initial split uses the NNZ
// heuristic so rows are grouped and compressed only once in the common
// case; any chunk whose encoded form still exceeds the limit is re-split
// recursively. An empty row set yields a single empty payload (the "nothing
// to send, but here is my completion marker" case of Algorithm 1). A set
// sent whole allocates only its frame, and none when it is memoised. On an
// error, the chunks cut before it stay appended.
func EncodeChunks(dst [][]byte, rs *RowSet, limit int, compress bool) ([][]byte, error) {
	if limit <= headerSize+8 {
		return dst, fmt.Errorf("wire: chunk limit %d too small", limit)
	}
	if rs.Len() == 0 {
		p, err := Encode(rs, compress)
		if err != nil {
			return dst, err
		}
		return append(dst, p), nil
	}
	rowsPer := rowsPerChunk(int64(rs.Len()), rs.NNZ(), limit, compress)
	var err error
	for lo := 0; lo < rs.Len() && err == nil; lo += rowsPer {
		dst, err = appendChunk(dst, rs, lo, min(lo+rowsPer, rs.Len()), limit, compress)
	}
	return dst, err
}

// appendChunk appends the frame of rows [lo, hi) of rs to dst, halving the
// range until each half's frame fits limit.
func appendChunk(dst [][]byte, rs *RowSet, lo, hi, limit int, compress bool) ([][]byte, error) {
	// A chunk that is the whole set is the set: its frame is memoised.
	chunk := rs
	if hi-lo < rs.Len() {
		chunk = rs.Slice(lo, hi)
	}
	p, err := Encode(chunk, compress)
	if err != nil {
		return dst, err
	}
	if len(p) > limit && hi-lo > 1 {
		mid := (lo + hi) / 2
		if dst, err = appendChunk(dst, rs, lo, mid, limit, compress); err != nil {
			return dst, err
		}
		return appendChunk(dst, rs, mid, hi, limit, compress)
	}
	if len(p) > limit {
		return dst, fmt.Errorf("wire: single row encodes to %d bytes, over the %d limit", len(p), limit)
	}
	return append(dst, p), nil
}
