package wire

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"math"
	"math/rand"
	"testing"
	"testing/quick"
)

// clone rebuilds rs row by row: equal content, no memoised frame.
func clone(rs *RowSet) *RowSet {
	cp := NewRowSet(rs.Batch)
	for i := 0; i < rs.Len(); i++ {
		cp.Add(rs.IDs[i], rs.Row(i))
	}
	return cp
}

// wantZlib states the rule from outside: a compressing sender deflates a
// set whose raw frame (preamble, two counts, a word per id and per value)
// is deflateFrom bytes or more, and nothing else.
func wantZlib(rs *RowSet, compress bool) bool {
	return compress && 2+8+4*len(rs.IDs)+4*len(rs.Vals) >= deflateFrom
}

// freshEncode is what Encode produces for rs's content with no memo in
// play: the reference every memo hit must equal byte for byte.
func freshEncode(t testing.TB, rs *RowSet, compress bool) []byte {
	t.Helper()
	p, err := encode(clone(rs), wantZlib(rs, compress))
	if err != nil {
		t.Fatal(err)
	}
	return p
}

// oneRowOf returns a single-row set whose raw frame is n bytes long; frames
// are 10 + 4*rows*(1+batch) bytes, so n must be 2 mod 4 and at least 14.
func oneRowOf(t testing.TB, rng *rand.Rand, n int) *RowSet {
	t.Helper()
	if n < 14 || n%4 != 2 {
		t.Fatalf("no row set frames to %d bytes", n)
	}
	row := make([]float32, (n-14)/4)
	for j := range row {
		if rng.Intn(2) == 0 {
			row[j] = float32(rng.NormFloat64())
		}
	}
	rs := NewRowSet(len(row))
	rs.Add(int32(rng.Intn(1<<20)), row)
	return rs
}

// TestDeflateBoundaryProperty walks raw frame lengths across deflateFrom. A
// frame is 2 mod 4 bytes long, so the lengths next to the threshold are the
// reachable ones around it: everything below ships raw under either flag, as
// one shared slice; from the threshold on a compressing sender writes zlib
// and a plain one the raw frame; and all of it round-trips bit for bit.
func TestDeflateBoundaryProperty(t *testing.T) {
	rng := rand.New(rand.NewSource(768))
	below, from := 0, 0
	for n := deflateFrom&^3 - 30; n <= deflateFrom+32; n += 4 {
		rs := oneRowOf(t, rng, n)
		plain, err := Encode(rs, false)
		if err != nil {
			t.Fatal(err)
		}
		comp, err := Encode(rs, true)
		if err != nil {
			t.Fatal(err)
		}
		if len(plain) != n || Deflated(plain) {
			t.Fatalf("%d-byte set: Encode(rs, false) wrote %d bytes, deflated %v", n, len(plain), Deflated(plain))
		}
		if n < deflateFrom {
			below++
			if &comp[0] != &plain[0] {
				t.Fatalf("%d-byte set, under the threshold: the two flags did not share one raw frame", n)
			}
		} else {
			from++
			if !Deflated(comp) {
				t.Fatalf("%d-byte set, at or over the threshold: a compressing sender shipped it raw", n)
			}
		}
		for _, p := range [][]byte{plain, comp} {
			back, err := Decode(p)
			if err != nil {
				t.Fatal(err)
			}
			if !rowSetsEqual(rs, back) {
				t.Fatalf("%d-byte set: round trip changed the rows", n)
			}
			if again, _ := Encode(back, true); !bytes.Equal(again, comp) {
				t.Fatalf("%d-byte set: the decoded set frames differently", n)
			}
		}
	}
	if below < 4 || from < 4 {
		t.Fatalf("walk missed a side of the threshold: %d below, %d from it", below, from)
	}
}

// checkEncode encodes rs twice under both flags and requires each result to
// equal a fresh encode of the same content.
func checkEncode(t testing.TB, what string, rs *RowSet) {
	t.Helper()
	for _, compress := range []bool{false, true} {
		want := freshEncode(t, rs, compress)
		for pass := 0; pass < 2; pass++ {
			got, err := Encode(rs, compress)
			if err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(got, want) {
				t.Fatalf("%s, compress=%v, pass %d: Encode differs from a fresh encode (%d vs %d bytes)",
					what, compress, pass, len(got), len(want))
			}
		}
	}
}

// TestMemoEqualsFreshEncodeProperty walks a row set through every way its
// content or identity can change — Add, Append, Slice, Decode — and requires
// Encode to return a fresh encode's bytes at each step, for both flags.
func TestMemoEqualsFreshEncodeProperty(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		rs := randomRowSet(rng, 40, 8, 0.4)
		checkEncode(t, "new", rs)

		row := make([]float32, rs.Batch)
		row[0] = float32(rng.NormFloat64())
		rs.Add(int32(rng.Intn(1<<20)), row)
		checkEncode(t, "after Add", rs)

		more := NewRowSet(rs.Batch)
		for i := rng.Intn(10); i > 0; i-- {
			more.Add(int32(rng.Intn(1<<20)), row)
		}
		rs.Append(more)
		checkEncode(t, "after Append", rs)

		lo := rng.Intn(rs.Len())
		hi := lo + rng.Intn(rs.Len()-lo+1)
		checkEncode(t, "Slice", rs.Slice(lo, hi))
		checkEncode(t, "after Slice", rs)

		for _, compress := range []bool{false, true} {
			p, _ := Encode(rs, compress)
			dec, err := Decode(p)
			if err != nil {
				t.Fatal(err)
			}
			checkEncode(t, "Decode", dec)
			dec.Add(7, row)
			checkEncode(t, "Decode then Add", dec)
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Fatal(err)
	}
}

// TestDecodeKeepsItsFrame pins the forward path: a decoded set re-encodes
// under the flag it arrived with to the very bytes that were parsed,
// without a compressor in sight, and mutating it lets go of them.
func TestDecodeKeepsItsFrame(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	for _, n := range []int{deflateFrom/2 | 2, 4*deflateFrom | 2} { // a frame that ships raw, one that deflates
		rs := oneRowOf(t, rng, n)
		for _, compress := range []bool{false, true} {
			p := freshEncode(t, rs, compress)
			dec, err := Decode(p)
			if err != nil {
				t.Fatal(err)
			}
			again, _ := Encode(dec, compress)
			if &again[0] != &p[0] {
				t.Fatalf("%d bytes, compress=%v: forwarding a decoded set encoded it again", n, compress)
			}
			dec.Append(rs)
			again, _ = Encode(dec, compress)
			if &again[0] == &p[0] {
				t.Fatalf("%d bytes, compress=%v: Append kept a frame that no longer describes the set", n, compress)
			}
		}
	}
}

// TestDecodeDropsFramesEncodeWouldNotWrite: payloads that parse but that
// Encode could not have produced must not become the set's frame.
func TestDecodeDropsFramesEncodeWouldNotWrite(t *testing.T) {
	rng := rand.New(rand.NewSource(6))
	rs := oneRowOf(t, rng, 2*deflateFrom|2)
	for _, compress := range []bool{false, true} {
		p := freshEncode(t, rs, compress)

		flagged := append([]byte{}, p...)
		flagged[1] |= 0x80
		trailing := append(append([]byte{}, p...), "junk"...)
		cases := map[string][]byte{"unknown flag bit": flagged}
		if compress { // a raw frame with trailing bytes does not parse at all
			cases["trailing bytes"] = trailing
		}
		for name, b := range cases {
			dec, err := Decode(b)
			if err != nil {
				t.Fatalf("compress=%v, %s: %v", compress, name, err)
			}
			got, _ := Encode(dec, compress)
			if !bytes.Equal(got, p) {
				t.Fatalf("compress=%v, %s: the hostile payload came back out of Encode", compress, name)
			}
		}
	}

	// A zlib frame whose body is under the threshold parses, but a sender
	// following the rule ships that set raw: the frame is not kept.
	short := oneRowOf(t, rng, deflateFrom/2|2)
	z, err := encode(short, true)
	if err != nil {
		t.Fatal(err)
	}
	dec, err := Decode(z)
	if err != nil || !rowSetsEqual(short, dec) {
		t.Fatalf("short zlib frame: err %v, rows equal %v", err, err == nil && rowSetsEqual(short, dec))
	}
	if got, _ := Encode(dec, true); !bytes.Equal(got, freshEncode(t, short, true)) || Deflated(got) {
		t.Fatal("short zlib frame: the deflated payload came back out of Encode")
	}
}

// referenceChunks is EncodeChunks as it was before frames were memoised:
// every chunk a fresh encode of a Slice view.
func referenceChunks(t testing.TB, rs *RowSet, limit int, compress bool) [][]byte {
	t.Helper()
	if rs.Len() == 0 {
		return [][]byte{freshEncode(t, rs, compress)}
	}
	rowsPer := rowsPerChunk(rs, limit, compress)
	var out [][]byte
	var split func(lo, hi int)
	split = func(lo, hi int) {
		p := freshEncode(t, rs.Slice(lo, hi), compress)
		if len(p) > limit && hi-lo > 1 {
			split(lo, (lo+hi)/2)
			split((lo+hi)/2, hi)
			return
		}
		out = append(out, p)
	}
	for lo := 0; lo < rs.Len(); lo += rowsPer {
		hi := lo + rowsPer
		if hi > rs.Len() {
			hi = rs.Len()
		}
		split(lo, hi)
	}
	return out
}

// TestEncodeChunksUnchangedProperty: chunking a set — into one chunk (the
// memoised whole-set frame), into many, or through the re-split path, and
// again from the memo — yields exactly the chunks it always did.
func TestEncodeChunksUnchangedProperty(t *testing.T) {
	oneChunk, reSplit := 0, 0
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		// Dense rows defeat the NNZ estimate's assumed compression ratio,
		// so small limits reach the recursive re-split.
		rs := randomRowSet(rng, 120, 16, []float64{0.05, 0.5, 1}[rng.Intn(3)])
		compress := rng.Intn(2) == 0
		for _, limit := range []int{128 + rng.Intn(512), 1 << 20} {
			want := referenceChunks(t, rs, limit, compress)
			for _, c := range want {
				if len(c) > limit {
					return true // a single row over the limit: EncodeChunks errors, nothing to compare
				}
			}
			for pass := 0; pass < 2; pass++ {
				got, err := EncodeChunks(rs, limit, compress)
				if err != nil {
					t.Fatal(err)
				}
				if len(got) != len(want) {
					t.Fatalf("seed %d limit %d: %d chunks, want %d", seed, limit, len(got), len(want))
				}
				for i := range got {
					if !bytes.Equal(got[i], want[i]) {
						t.Fatalf("seed %d limit %d pass %d: chunk %d differs", seed, limit, pass, i)
					}
				}
			}
			if len(want) == 1 {
				oneChunk++
			}
			// More chunks than the heuristic's initial split: a chunk was
			// re-split.
			if per := rowsPerChunk(rs, limit, compress); rs.Len() > 0 && len(want) > (rs.Len()+per-1)/per {
				reSplit++
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 80}); err != nil {
		t.Fatal(err)
	}
	if oneChunk == 0 || reSplit == 0 {
		t.Fatalf("cases not exercised: %d one-chunk, %d re-split", oneChunk, reSplit)
	}
}

// TestEmptyFrameIsShared: the completion marker is one raw frame per batch
// width, however many empty sets ship it and under whichever flag.
func TestEmptyFrameIsShared(t *testing.T) {
	a, _ := Encode(NewRowSet(16), false)
	for _, compress := range []bool{false, true} {
		b, _ := Encode(NewRowSet(16), compress)
		c, _ := Encode(NewRowSet(0), compress)
		if &a[0] != &b[0] {
			t.Fatalf("compress=%v: two empty batch-16 sets encoded separately", compress)
		}
		if bytes.Equal(a, c) {
			t.Fatalf("compress=%v: batch 16 and batch 0 share a marker", compress)
		}
		if len(b) != headerSize || !bytes.Equal(b, freshEncode(t, NewRowSet(16), compress)) {
			t.Fatalf("compress=%v: shared marker is %d bytes, or differs from a fresh encode", compress, len(b))
		}
	}
}

func TestAppendPanicsOnWrongWidth(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("wrong-width Append did not panic")
		}
	}()
	NewRowSet(4).Append(NewRowSet(2))
}

// FuzzDecode: Decode never panics on hostile bytes, and whenever it accepts
// a payload, Encode of the result — under either flag, from the kept frame
// or from scratch — decodes to the same rows. The payload is kept as the
// set's frame under a flag only if it carries the flag byte Encode writes
// for those rows and ends where the parsed frame ended, and always if it is
// what Encode writes byte for byte. The seeds frame every set both ways
// whatever its length, so zlib frames under the threshold are among them.
func FuzzDecode(f *testing.F) {
	rng := rand.New(rand.NewSource(11))
	sets := []*RowSet{NewRowSet(0), NewRowSet(16), randomRowSet(rng, 20, 8, 0.3), randomRowSet(rng, 3, 64, 1),
		bitsRowSet(rng), bitsRowSet(rng), bitsRowSet(rng), oneRowOf(f, rng, deflateFrom|2)}
	for _, rs := range sets {
		for _, deflate := range []bool{false, true} {
			p, err := encode(rs, deflate)
			if err != nil {
				f.Fatal(err)
			}
			f.Add(p)
			f.Add(p[:len(p)/2])
			f.Add(p[:len(p)-1])
			f.Add(append(append([]byte{}, p...), 0xF5, 0x01, 0x00))
			flagged := append([]byte{}, p...)
			flagged[1] ^= 0x02
			f.Add(flagged)
		}
	}
	f.Add([]byte{magic, 0, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF})
	f.Add([]byte{magic, 0, 1, 0, 0, 0x40, 0, 0, 0, 0x40})

	f.Fuzz(func(t *testing.T, b []byte) {
		rs, err := Decode(b)
		if err != nil {
			return
		}
		for _, compress := range []bool{false, true} {
			p, err := Encode(rs, compress)
			if err != nil {
				t.Fatalf("re-encoding an accepted payload: %v", err)
			}
			if &p[0] == &b[0] {
				// Decode kept b as the frame: it must carry the flag Encode
				// writes for these rows, alone, and end where the frame ends.
				if want := wantZlib(rs, compress); b[1] != 0 && b[1] != flagZlib || Deflated(b) != want {
					t.Fatalf("compress=%v: kept a frame flagged %#x, Encode deflates these rows: %v", compress, b[1], want)
				}
				if _, err := Decode(b[:len(b)-1]); err == nil {
					t.Fatalf("compress=%v: kept a frame with bytes past its end", compress)
				}
			} else if fresh := freshEncode(t, rs, compress); !bytes.Equal(p, fresh) {
				t.Fatalf("compress=%v: Encode returned neither the parsed frame nor a fresh encode", compress)
			} else if bytes.Equal(b, fresh) {
				t.Fatalf("compress=%v: the payload is what Encode writes, and was not kept", compress)
			}
			back, err := Decode(p)
			if err != nil {
				t.Fatalf("compress=%v: decoding Encode's output: %v", compress, err)
			}
			if !rowSetsEqual(rs, back) {
				t.Fatalf("compress=%v: Encode's output describes other rows than were decoded", compress)
			}
		}
	})
}

// referenceBody is the frame body written value by value through
// encoding/binary: what fillBody must produce and parseBody must read,
// whatever loop form they use.
func referenceBody(rs *RowSet) []byte {
	b := binary.LittleEndian.AppendUint32(nil, uint32(rs.Batch))
	b = binary.LittleEndian.AppendUint32(b, uint32(len(rs.IDs)))
	for _, id := range rs.IDs {
		b = binary.LittleEndian.AppendUint32(b, uint32(id))
	}
	for _, v := range rs.Vals {
		b = binary.LittleEndian.AppendUint32(b, math.Float32bits(v))
	}
	return b
}

// bitsRowSet is a row set whose values are raw bit patterns (NaN payloads,
// negative zero, denormals among them) and whose lengths straddle any block
// size a fill or parse loop might walk in.
func bitsRowSet(rng *rand.Rand) *RowSet {
	rs := NewRowSet(1 + rng.Intn(19))
	row := make([]float32, rs.Batch)
	for n := rng.Intn(23); n > 0; n-- {
		for j := range row {
			row[j] = math.Float32frombits(rng.Uint32())
		}
		rs.Add(int32(rng.Uint32()), row)
	}
	return rs
}

// TestBodyBytesMatchReferenceProperty: fillBody writes referenceBody's bytes
// and parseBody reads them back to the same ids and value bits.
func TestBodyBytesMatchReferenceProperty(t *testing.T) {
	f := func(seed int64) bool {
		rs := bitsRowSet(rand.New(rand.NewSource(seed)))
		want := referenceBody(rs)
		got := make([]byte, len(want))
		fillBody(got, rs)
		if !bytes.Equal(got, want) {
			t.Fatalf("seed %d: fillBody differs from the reference body", seed)
		}
		back, err := parseBody(want)
		if err != nil {
			t.Fatal(err)
		}
		return rowSetsEqual(rs, back)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}

// TestViewSetFramesLikeAddedSet: a row set that views a matrix's backing
// array — ids 0..n-1 over data[:n*batch:n*batch] — frames to the bytes of
// the set built by Add from the same rows, under both flags, and growing
// the view reallocates rather than writing into the array's spare capacity.
func TestViewSetFramesLikeAddedSet(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		rows, batch := rng.Intn(20), 1+rng.Intn(9)
		spare := rng.Intn(2) * batch
		data := make([]float32, rows*batch, rows*batch+spare)
		for i := range data {
			if rng.Intn(3) == 0 {
				data[i] = float32(rng.NormFloat64())
			}
		}
		added := NewRowSet(batch)
		ids := make([]int32, rows)
		for r := range ids {
			ids[r] = int32(r)
			added.Add(int32(r), data[r*batch:(r+1)*batch])
		}
		view := &RowSet{Batch: batch, IDs: ids, Vals: data[:len(data):len(data)]}
		for _, compress := range []bool{false, true} {
			got, err := Encode(view, compress)
			if err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(got, freshEncode(t, added, compress)) {
				t.Fatalf("seed %d compress=%v: the view's frame differs from the added set's", seed, compress)
			}
		}
		past := data[:cap(data)]
		view.Add(99, make([]float32, batch))
		view.Vals[len(view.Vals)-1] = 1
		for _, v := range past[rows*batch:] {
			if v != 0 {
				t.Fatalf("seed %d: Add on a view wrote into the matrix's spare capacity", seed)
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}

// BenchmarkBody times fillBody and parseBody on the Serial engine's widest
// frame, 64 rows of 4096 values, and reports ns per value. The loops are the
// plain ones (body[off:], off += 4): 0.63 - 0.79 fill and 1.3 - 1.6 parse on
// one vCPU. Indexing a pre-sliced destination (dst[4*i:]) read 1.07 - 1.13
// and 1.6 - 2.0, an advancing dst = dst[4:] the same as the plain loop; only
// four values an iteration was faster (0.45 - 0.47, 0.75 - 0.94), which no
// workload's end-to-end number resolved, so it was not kept.
func BenchmarkBody(b *testing.B) {
	rs := &RowSet{Batch: 4096, IDs: make([]int32, 64), Vals: make([]float32, 64*4096)}
	for i := range rs.Vals {
		rs.Vals[i] = float32(i % 7)
	}
	body := make([]byte, 8+4*len(rs.IDs)+4*len(rs.Vals))
	perValue := func(b *testing.B) {
		b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N)/float64(len(rs.Vals)), "ns/value")
	}
	b.Run("fill", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			fillBody(body, rs)
		}
		perValue(b)
	})
	b.Run("parse", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if _, err := parseBody(body); err != nil {
				b.Fatal(err)
			}
		}
		perValue(b)
	})
}

// BenchmarkEncodeBySize times one fresh frame, raw and deflated, over the
// body sizes the channel workloads ship — batch-16 rows as collective_p32
// sends them (about 0.45 KB a frame), batch-64 rows as channel_sweep does
// (8.8 KB) — and reports ns/frame and the frame's length, so deflateFrom
// can be re-derived without bench/. Run with -cpu 1. On one vCPU deflate
// read 20 us at 146 B, 40 us at 758 B, 0.2 ms at 4 KB and 0.9 ms at 16 KB
// against 0.09, 0.34, 1.9 and 6.9 us raw, for frames a third to a fifth as
// long: the host pays two orders of magnitude at every size, so the
// threshold sits where the bytes saved stop changing a billed unit (the
// sweep in the package comment), not where deflate gets cheap.
func BenchmarkEncodeBySize(b *testing.B) {
	rng := rand.New(rand.NewSource(16))
	for _, c := range []struct{ batch, rows int }{
		{16, 2}, {16, 4}, {16, 7}, {16, 11}, {16, 15}, {16, 30}, {16, 60}, // 146 B ... 4 KB
		{64, 16}, {64, 34}, {64, 63}, // 4 KB, 8.8 KB, 16 KB
	} {
		rs := NewRowSetCap(c.batch, c.rows)
		row := make([]float32, c.batch)
		for i := 0; i < c.rows; i++ {
			for j := range row {
				row[j] = 0
				if rng.Intn(2) == 0 { // post-ReLU activations: about half are zero
					row[j] = float32(rng.Intn(32))
				}
			}
			rs.Add(int32(rng.Intn(1<<16)), row)
		}
		for _, deflate := range []bool{false, true} {
			name := "raw"
			if deflate {
				name = "zlib"
			}
			b.Run(fmt.Sprintf("batch%d/%dB/%s", c.batch, rs.RawBytes(), name), func(b *testing.B) {
				var p []byte
				for i := 0; i < b.N; i++ {
					var err error
					if p, err = encode(rs, deflate); err != nil {
						b.Fatal(err)
					}
				}
				b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N), "ns/frame")
				b.ReportMetric(float64(len(p)), "B/frame")
			})
		}
	}
}
