package wire

import (
	"math/rand"
	"runtime"
	"slices"
	"testing"
)

// TestFrameBytesTracksEncodeProperty holds Frame.Bytes to len(Encode(...))
// over random row sets at density 0, .1, .5 and 1, compressed and not, on
// both sides of deflateFrom: a raw frame writes every value, zeros
// included, so a set's shape alone sizes it exactly. A deflated frame is
// not what a Frame describes; the grid only checks that it occurs.
func TestFrameBytesTracksEncodeProperty(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	raw, deflated := 0, 0
	for _, density := range []float64{0, .1, .5, 1} {
		for _, compress := range []bool{false, true} {
			for i := 0; i < 60; i++ {
				rs := randomRowSet(rng, 1+rng.Intn(200), 32, density)
				p, err := Encode(rs, compress)
				if err != nil {
					t.Fatal(err)
				}
				f := Frame{Rows: int64(rs.Len()), Batch: rs.Batch}
				if Deflated(p) {
					deflated++
					continue
				}
				raw++
				if f.Bytes() != int64(len(p)) {
					t.Fatalf("density %v compress %v: raw frame of %d rows x %d is %d B, sized %d",
						density, compress, rs.Len(), rs.Batch, len(p), f.Bytes())
				}
			}
		}
	}
	if raw == 0 || deflated == 0 {
		t.Fatalf("cases not exercised: %d raw, %d deflated", raw, deflated)
	}
}

// TestChunksBoundsEncodeChunksProperty: over random dense sets, batches and
// limits, Frame.Chunks is EncodeChunks' raw split exactly, chunk for chunk
// (each chunk frame's Bytes is its byte string's length), and both refuse
// the same limits. A set with zeros, or one cut for deflating, is cut by its
// own NNZ term, so the dense frame's count only bounds it, within the bands
// below. Measured over this grid: raw sets with zeros pack more rows a
// chunk and are halved where that overflows, 0.90 to 1.88 times the count;
// deflated sets shrink to as little as 0.02 of it (all zeros), and dense
// ones, whose floats deflate less than the heuristic assumes, are halved
// up to 1.67 times it.
func TestChunksBoundsEncodeChunksProperty(t *testing.T) {
	rng := rand.New(rand.NewSource(13))
	exact, refused := 0, 0
	for i := 0; i < 400; i++ {
		rs := randomRowSet(rng, 400, 64, 1)
		limit := headerSize + 1 + rng.Intn(4000)
		f := Frame{Rows: int64(rs.Len()), Batch: rs.Batch}
		if rs.NNZ() != f.Rows*int64(f.Batch) {
			t.Fatalf("set %d is not dense", i)
		}
		want, wantErr := EncodeChunks(nil, rs, limit, false)
		got, err := f.Chunks(limit)
		if (err == nil) != (wantErr == nil) {
			t.Fatalf("%d rows x %d at limit %d: Chunks errs %v, EncodeChunks %v", f.Rows, f.Batch, limit, err, wantErr)
		}
		if err != nil {
			refused++
			continue
		}
		if len(got) != len(want) {
			t.Fatalf("%d rows x %d at limit %d: counted %d chunks, cut %d", f.Rows, f.Batch, limit, len(got), len(want))
		}
		for j := range got {
			if got[j].Bytes() != int64(len(want[j])) {
				t.Fatalf("%d rows x %d at limit %d: chunk %d sized %d, cut %d B", f.Rows, f.Batch, limit, j, got[j].Bytes(), len(want[j]))
			}
		}
		exact++
	}
	if exact == 0 || refused == 0 {
		t.Fatalf("cases not exercised: %d exact, %d refused", exact, refused)
	}
	const limit = 2000
	rawLo, zLo, hi := 0.85, 0.01, 2.0
	for _, density := range []float64{0, .1, .5, 1} {
		for _, compress := range []bool{false, true} {
			if density == 1 && !compress {
				continue
			}
			for i := 0; i < 60; i++ {
				rs := randomRowSet(rng, 400, 64, density)
				chunks, err := EncodeChunks(nil, rs, limit, compress)
				if err != nil {
					t.Fatal(err)
				}
				dense, err := Frame{Rows: int64(rs.Len()), Batch: rs.Batch}.Chunks(limit)
				if err != nil {
					t.Fatal(err)
				}
				r := float64(len(chunks)) / float64(len(dense))
				if lo := map[bool]float64{false: rawLo, true: zLo}[compress]; r < lo || r > hi {
					t.Errorf("density %v compress %v: %d rows x %d cut into %d chunks, dense frame %d",
						density, compress, rs.Len(), rs.Batch, len(chunks), len(dense))
				}
			}
		}
	}
}

// TestChunksCountsBodiesOfTheLimit: every chunk repeats the header, and the
// split's row term keeps a byte of slack a row, so at limit 1000 a chunk of
// one-value rows holds 990/9 = 110 of them, not the 123 whose 994 B would
// fit; the last chunk holds the rest. A row over the limit and a limit no
// frame fits are refused.
func TestChunksCountsBodiesOfTheLimit(t *testing.T) {
	const limit = 1000
	for _, tc := range []struct {
		rows int64
		want []int64
	}{
		{0, []int64{0}}, {1, []int64{1}}, {110, []int64{110}}, {111, []int64{110, 1}},
		{123, []int64{110, 13}}, {221, []int64{110, 110, 1}},
	} {
		chunks, err := Frame{Rows: tc.rows, Batch: 1}.Chunks(limit)
		if err != nil {
			t.Fatal(err)
		}
		var got []int64
		for _, c := range chunks {
			got = append(got, c.Rows)
		}
		if !slices.Equal(got, tc.want) {
			t.Errorf("%d rows: chunks of %v rows, want %v", tc.rows, got, tc.want)
		}
	}
	if _, err := (Frame{Rows: 1, Batch: 246}).Chunks(limit); err != nil {
		t.Errorf("a row of exactly the limit refused: %v", err)
	}
	if _, err := (Frame{Rows: 1, Batch: 247}).Chunks(limit); err == nil {
		t.Error("a row over the limit counted")
	}
	if _, err := (Frame{}).Chunks(headerSize + 8); err == nil {
		t.Error("a limit no frame fits counted")
	}
}

// TestDeflatedReadsTheFlagBit: a frame is deflated by its flag bit alone,
// from two bytes on; shorter input carries no flag.
func TestDeflatedReadsTheFlagBit(t *testing.T) {
	for _, tc := range []struct {
		frame []byte
		want  bool
	}{
		{nil, false}, {[]byte{magic}, false}, {[]byte{flagZlib}, false},
		{[]byte{magic, 0}, false}, {[]byte{magic, flagZlib}, true},
		{[]byte{magic, 0x02}, false}, {[]byte{magic, 0x03}, true},
	} {
		if got := Deflated(tc.frame); got != tc.want {
			t.Errorf("Deflated(%x) = %v, want %v", tc.frame, got, tc.want)
		}
	}
}

// TestInflateReaderIsPooled: a decode hands its zlib reader back, so the
// next decode resets it instead of allocating a decompressor: about 1.1 KB
// a decode of this frame, against 42 KB with a fresh reader each time.
//
// The race detector's sync.Pool drops a quarter of the items it is handed,
// at random, so under -race a fresh decompressor (40 KB) shows up in about a
// quarter of the decodes and a fresh body buffer (15 KB) in another: there
// at least half the decodes must allocate less than a decompressor does.
// Without the reader going back to the pool every decode allocates one, so
// the test fails in both builds.
func TestInflateReaderIsPooled(t *testing.T) {
	rs := oneRowOf(t, rand.New(rand.NewSource(9)), 4*deflateFrom|2)
	p, err := Encode(rs, true)
	if err != nil || !Deflated(p) {
		t.Fatalf("no deflated frame: %v", err)
	}
	ids, vals, into := make([]int32, 0, 1), make([]float32, 0, rs.Batch), new(RowSet)
	if _, _, err := DecodeAppend(p, into, ids, vals); err != nil {
		t.Fatal(err)
	}
	const runs = 100
	var before, after runtime.MemStats
	var total uint64
	reset := 0
	for i := 0; i < runs; i++ {
		runtime.ReadMemStats(&before)
		if _, _, err := DecodeAppend(p, into, ids, vals); err != nil {
			t.Fatal(err)
		}
		runtime.ReadMemStats(&after)
		n := after.TotalAlloc - before.TotalAlloc
		total += n
		if n < 32<<10 {
			reset++
		}
	}
	if raceEnabled {
		if reset < runs/2 {
			t.Fatalf("%d of %d decodes of a deflated frame allocate a decompressor", runs-reset, runs)
		}
		return
	}
	if per := total / runs; per > 8<<10 {
		t.Fatalf("a decode of a deflated frame allocates %d B", per)
	}
}
