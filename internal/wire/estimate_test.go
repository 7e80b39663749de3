package wire

import (
	"math/rand"
	"runtime"
	"testing"
)

// TestFrameBytesTracksEncodeProperty holds FrameBytes to len(Encode(...))
// over random row sets at density 0, .1, .5 and 1, compressed and not, on
// both sides of deflateFrom. A frame that ships raw is sized exactly. A
// deflated one lands in the band below, measured over this grid at 0.50
// to 1.10 of the actual length: the heuristic assumes zeros compress away,
// but zeros scattered among nonzeros do not (density .1 and .5 run low),
// and random ids compress a little (density 0 runs high).
func TestFrameBytesTracksEncodeProperty(t *testing.T) {
	const lo, hi = 0.45, 1.2
	rng := rand.New(rand.NewSource(11))
	small, large := 0, 0
	minR, maxR := 10.0, 0.0
	for _, density := range []float64{0, .1, .5, 1} {
		for _, compress := range []bool{false, true} {
			for i := 0; i < 60; i++ {
				rs := randomRowSet(rng, 1+rng.Intn(200), 32, density)
				p, err := Encode(rs, compress)
				if err != nil {
					t.Fatal(err)
				}
				est := FrameBytes(int64(rs.Len()), rs.NNZ(), rs.Batch, compress)
				if !Deflated(p) {
					small++
					if est != int64(len(p)) {
						t.Fatalf("density %v compress %v: raw frame of %d rows x %d is %d B, estimated %d",
							density, compress, rs.Len(), rs.Batch, len(p), est)
					}
					continue
				}
				large++
				r := float64(est) / float64(len(p))
				minR, maxR = min(minR, r), max(maxR, r)
				if r < lo || r > hi {
					t.Errorf("density %v: %d rows x %d deflate to %d B, estimated %d (%.2fx, band %v-%v)",
						density, rs.Len(), rs.Batch, len(p), est, r, lo, hi)
				}
			}
		}
	}
	if small == 0 || large == 0 {
		t.Fatalf("cases not exercised: %d raw, %d deflated", small, large)
	}
	t.Logf("deflated frames: estimate/actual %.2f to %.2f", minR, maxR)
}

// TestChunksBoundsEncodeChunksProperty holds Chunks(FrameBytes(...)) to
// len(EncodeChunks(...)) over random sets at density 0, .1, .5 and 1,
// compressed and not, at a limit that cuts most of them several times.
// Chunks counts chunks packed full, so it is a lower bound. The split cuts
// whole rows, as many as the NNZ heuristic's row term, rounded up, says fit,
// and halves a chunk that encodes over the limit, so it cuts more. Measured
// over this grid: dense raw sets up to 1.17 times the count (whole rows and
// the rounding), other sets up to 3.67 (the row term counts no zeros of a
// raw set, the deflate estimate runs low at density .1 and .5, and halving
// leaves chunks part full).
func TestChunksBoundsEncodeChunksProperty(t *testing.T) {
	const limit = 2000
	rng := rand.New(rand.NewSource(13))
	dense, other := 0.0, 0.0
	for _, density := range []float64{0, .1, .5, 1} {
		for _, compress := range []bool{false, true} {
			for i := 0; i < 60; i++ {
				rs := randomRowSet(rng, 400, 64, density)
				chunks, err := EncodeChunks(rs, limit, compress)
				if err != nil {
					t.Fatal(err)
				}
				est := Chunks(FrameBytes(int64(rs.Len()), rs.NNZ(), rs.Batch, compress), limit)
				r := float64(len(chunks)) / float64(est)
				if density == 1 && !compress {
					dense = max(dense, r)
				} else {
					other = max(other, r)
				}
				if r < 1 || r > 4 || density == 1 && !compress && r > 1.2 {
					t.Errorf("density %v compress %v: %d rows x %d cut into %d chunks, counted %d",
						density, compress, rs.Len(), rs.Batch, len(chunks), est)
				}
			}
		}
	}
	t.Logf("chunks cut over chunks counted: dense raw up to %.2f, others up to %.2f", dense, other)
}

// TestChunksCountsBodiesOfTheLimit: each chunk repeats the header, so a
// frame fills k chunks until its rows pass k times what one chunk carries.
func TestChunksCountsBodiesOfTheLimit(t *testing.T) {
	const limit = 1000
	for _, tc := range []struct{ frame, want int64 }{
		{0, 1}, {headerSize, 1}, {limit, 1}, {limit + 1, 2},
		{2*limit - headerSize, 2}, {2*limit - headerSize + 1, 3},
	} {
		if got := Chunks(tc.frame, limit); got != tc.want {
			t.Errorf("Chunks(%d, %d) = %d, want %d", tc.frame, limit, got, tc.want)
		}
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
func TestInflateReaderIsPooled(t *testing.T) {
	rs := oneRowOf(t, rand.New(rand.NewSource(9)), 4*deflateFrom|2)
	p, err := Encode(rs, true)
	if err != nil || !Deflated(p) {
		t.Fatalf("no deflated frame: %v", err)
	}
	ids, vals := make([]int32, 0, 1), make([]float32, 0, rs.Batch)
	if _, _, _, err := DecodeAppend(p, ids, vals); err != nil {
		t.Fatal(err)
	}
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	const runs = 20
	for i := 0; i < runs; i++ {
		if _, _, _, err := DecodeAppend(p, ids, vals); err != nil {
			t.Fatal(err)
		}
	}
	runtime.ReadMemStats(&after)
	if per := (after.TotalAlloc - before.TotalAlloc) / runs; per > 8<<10 {
		t.Fatalf("a decode of a deflated frame allocates %d B", per)
	}
}
