package wire

import (
	"bytes"
	"math"
	"math/rand"
	"testing"
	"testing/quick"
)

func randomRowSet(rng *rand.Rand, maxRows, maxBatch int, density float64) *RowSet {
	batch := 1 + rng.Intn(maxBatch)
	rs := NewRowSet(batch)
	n := rng.Intn(maxRows + 1)
	vals := make([]float32, batch)
	for i := 0; i < n; i++ {
		for j := range vals {
			if rng.Float64() < density {
				vals[j] = float32(rng.NormFloat64())
			} else {
				vals[j] = 0
			}
		}
		rs.Add(int32(rng.Intn(1<<20)), vals)
	}
	return rs
}

func rowSetsEqual(a, b *RowSet) bool {
	if a.Batch != b.Batch || a.Len() != b.Len() {
		return false
	}
	for i := range a.IDs {
		if a.IDs[i] != b.IDs[i] {
			return false
		}
	}
	for i := range a.Vals {
		// By bits: NaNs a fuzzer finds must compare equal to themselves.
		if math.Float32bits(a.Vals[i]) != math.Float32bits(b.Vals[i]) {
			return false
		}
	}
	return true
}

func TestEncodeDecodeRoundTripProperty(t *testing.T) {
	for _, compress := range []bool{false, true} {
		compress := compress
		f := func(seed int64) bool {
			rng := rand.New(rand.NewSource(seed))
			rs := randomRowSet(rng, 50, 16, 0.5)
			p, err := Encode(rs, compress)
			if err != nil {
				return false
			}
			got, err := Decode(p)
			if err != nil {
				return false
			}
			return rowSetsEqual(rs, got)
		}
		if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
			t.Fatalf("compress=%v: %v", compress, err)
		}
	}
}

func TestCompressionShrinksSparseData(t *testing.T) {
	rs := NewRowSet(64)
	vals := make([]float32, 64)
	vals[0] = 1.5 // one nonzero per row
	for i := 0; i < 100; i++ {
		rs.Add(int32(i), vals)
	}
	plain, _ := Encode(rs, false)
	comp, _ := Encode(rs, true)
	if len(comp)*4 > len(plain) {
		t.Fatalf("compressed %d vs plain %d: sparse rows should shrink 4x+", len(comp), len(plain))
	}
}

func TestDecodeRejectsCorrupt(t *testing.T) {
	rs := NewRowSet(4)
	for i := int32(0); i < 64; i++ { // long enough that Encode deflates it
		rs.Add(i, []float32{1, 2, 3, 4})
	}
	p, _ := Encode(rs, true)
	if !Deflated(p) {
		t.Fatal("the compressed case is not a zlib frame")
	}

	if _, err := Decode(nil); err == nil {
		t.Error("nil payload accepted")
	}
	if _, err := Decode([]byte{0x00, 0x00}); err == nil {
		t.Error("bad magic accepted")
	}
	if _, err := Decode(p[:len(p)-3]); err == nil {
		t.Error("truncated zlib stream accepted")
	}
	plain, _ := Encode(rs, false)
	if _, err := Decode(plain[:len(plain)-2]); err == nil {
		t.Error("truncated plain payload accepted")
	}
	// Corrupt the declared row count of a plain payload.
	bad := append([]byte{}, plain...)
	bad[6] = 0xFF
	if _, err := Decode(bad); err == nil {
		t.Error("inconsistent row count accepted")
	}
}

func TestEmptyRowSet(t *testing.T) {
	rs := NewRowSet(8)
	p, err := Encode(rs, true)
	if err != nil {
		t.Fatal(err)
	}
	got, err := Decode(p)
	if err != nil {
		t.Fatal(err)
	}
	if got.Len() != 0 || got.Batch != 8 {
		t.Fatalf("round-trip empty: %+v", got)
	}
	chunks, err := EncodeChunks(rs, 1024, true)
	if err != nil {
		t.Fatal(err)
	}
	if len(chunks) != 1 {
		t.Fatalf("empty row set produced %d chunks, want 1 completion marker", len(chunks))
	}
}

func TestAddPanicsOnWrongWidth(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("wrong-width Add did not panic")
		}
	}()
	rs := NewRowSet(4)
	rs.Add(0, []float32{1})
}

func TestEncodeChunksRespectLimitProperty(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		rs := randomRowSet(rng, 200, 32, 0.3)
		limit := 256 + rng.Intn(4096)
		compress := rng.Intn(2) == 0
		chunks, err := EncodeChunks(rs, limit, compress)
		if err != nil {
			return false
		}
		total := 0
		for _, c := range chunks {
			if len(c) > limit {
				return false
			}
			got, err := Decode(c)
			if err != nil {
				return false
			}
			total += got.Len()
		}
		return total == rs.Len()
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}

func TestEncodeChunksPreservesOrderAndContent(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	rs := randomRowSet(rng, 300, 8, 0.4)
	chunks, err := EncodeChunks(rs, 2048, true)
	if err != nil {
		t.Fatal(err)
	}
	rebuilt := NewRowSet(rs.Batch)
	for _, c := range chunks {
		got, err := Decode(c)
		if err != nil {
			t.Fatal(err)
		}
		for i := 0; i < got.Len(); i++ {
			rebuilt.Add(got.IDs[i], got.Row(i))
		}
	}
	if !rowSetsEqual(rs, rebuilt) {
		t.Fatal("chunk reassembly mismatch")
	}
}

func TestEncodeChunksTooSmallLimit(t *testing.T) {
	rs := NewRowSet(4)
	rs.Add(1, []float32{1, 2, 3, 4})
	if _, err := EncodeChunks(rs, 10, false); err == nil {
		t.Error("tiny limit accepted")
	}
	// A single row that can't fit the limit must error, not loop.
	wide := NewRowSet(1024)
	wide.Add(1, make([]float32, 1024))
	if _, err := EncodeChunks(wide, 64, false); err == nil {
		t.Error("oversized single row accepted")
	}
}

func TestEstimateChunksTracksReality(t *testing.T) {
	// Dense data, no compression: the estimate must be within 2x of the
	// actual chunk count.
	rng := rand.New(rand.NewSource(3))
	rs := randomRowSet(rng, 500, 16, 1.0)
	for rs.Len() == 0 {
		rs = randomRowSet(rng, 500, 16, 1.0)
	}
	limit := 4096
	per := rowsPerChunk(rs, limit, false)
	est := (rs.Len() + per - 1) / per
	chunks, err := EncodeChunks(rs, limit, false)
	if err != nil {
		t.Fatal(err)
	}
	if est > 2*len(chunks) || len(chunks) > 2*est {
		t.Fatalf("estimate %d vs actual %d chunks: heuristic too far off", est, len(chunks))
	}
}

func TestNNZAndRawBytes(t *testing.T) {
	rs := NewRowSet(3)
	rs.Add(5, []float32{0, 1, 0})
	rs.Add(9, []float32{2, 0, 3})
	if rs.NNZ() != 3 {
		t.Fatalf("NNZ = %d", rs.NNZ())
	}
	if rs.RawBytes() != 10+2*4+6*4 {
		t.Fatalf("RawBytes = %d", rs.RawBytes())
	}
}

func TestSliceView(t *testing.T) {
	rs := NewRowSet(2)
	rs.Add(1, []float32{1, 2})
	rs.Add(2, []float32{3, 4})
	rs.Add(3, []float32{5, 6})
	s := rs.Slice(1, 3)
	if s.Len() != 2 || s.IDs[0] != 2 || s.Row(1)[1] != 6 {
		t.Fatalf("slice = %+v", s)
	}
}

// TestSliceAddLeavesParentAlone: a Slice shares its parent's rows and nothing
// past them, so an Add on the view grows a copy and the parent keeps its
// rows, and the frame it memoised keeps describing them.
func TestSliceAddLeavesParentAlone(t *testing.T) {
	rs := NewRowSetCap(2, 3)
	rs.Add(1, []float32{1, 2})
	rs.Add(2, []float32{3, 4})
	rs.Add(3, []float32{5, 6})
	frame, err := Encode(rs, false)
	if err != nil {
		t.Fatal(err)
	}
	frame = append([]byte(nil), frame...)

	s := rs.Slice(0, 1)
	s.Add(9, []float32{7, 8})
	if s.Len() != 2 || s.IDs[1] != 9 || s.Row(1)[0] != 7 {
		t.Fatalf("slice after Add = %+v", s)
	}
	if rs.IDs[1] != 2 || rs.Row(1)[0] != 3 || rs.Row(1)[1] != 4 {
		t.Fatalf("Add on a slice of row 0 overwrote the parent's row 1: ids %v vals %v", rs.IDs, rs.Vals)
	}
	again, err := Encode(rs, false)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(again, frame) || !bytes.Equal(again, freshEncode(t, rs, false)) {
		t.Fatal("the parent's frame no longer matches its rows")
	}
}
