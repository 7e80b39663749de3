package model

import (
	"encoding/binary"
	"fmt"
	"math"
	"math/rand"
	"testing"
	"testing/quick"

	"fsdinference/internal/sparse"
)

func TestGenerateTopology(t *testing.T) {
	spec := GraphChallengeSpec(256, 8, 1)
	m, err := Generate(spec)
	if err != nil {
		t.Fatal(err)
	}
	if len(m.Layers) != 8 {
		t.Fatalf("layers = %d", len(m.Layers))
	}
	for k, w := range m.Layers {
		if w.Rows != 256 || w.Cols != 256 {
			t.Fatalf("layer %d dims %dx%d", k, w.Rows, w.Cols)
		}
		for r := 0; r < w.Rows; r++ {
			if w.RowNNZ(r) != spec.FanIn {
				t.Fatalf("layer %d row %d has %d in-edges, want %d", k, r, w.RowNNZ(r), spec.FanIn)
			}
			cols, _ := w.Row(r)
			for i := 1; i < len(cols); i++ {
				if cols[i] == cols[i-1] {
					t.Fatalf("layer %d row %d has duplicate source %d", k, r, cols[i])
				}
			}
		}
	}
	if m.NNZ() != int64(8*256*32) {
		t.Fatalf("total nnz = %d", m.NNZ())
	}
}

func TestGenerateDeterministic(t *testing.T) {
	a, _ := Generate(GraphChallengeSpec(128, 4, 7))
	b, _ := Generate(GraphChallengeSpec(128, 4, 7))
	for k := range a.Layers {
		la, lb := a.Layers[k], b.Layers[k]
		if la.NNZ() != lb.NNZ() {
			t.Fatalf("layer %d nnz differs", k)
		}
		for i := range la.Val {
			if la.Val[i] != lb.Val[i] || la.ColIdx[i] != lb.ColIdx[i] {
				t.Fatalf("layer %d entry %d differs", k, i)
			}
		}
	}
	c, _ := Generate(GraphChallengeSpec(128, 4, 8))
	same := true
	for i := range a.Layers[0].ColIdx {
		if a.Layers[0].ColIdx[i] != c.Layers[0].ColIdx[i] {
			same = false
			break
		}
	}
	if same {
		t.Fatal("different seeds produced identical topology")
	}
}

func TestGenerateValidation(t *testing.T) {
	bad := []Spec{
		{Neurons: 0, Layers: 1, FanIn: 1},
		{Neurons: 10, Layers: 0, FanIn: 1},
		{Neurons: 10, Layers: 1, FanIn: 0},
		{Neurons: 10, Layers: 1, FanIn: 11},
	}
	for i, s := range bad {
		if _, err := Generate(s); err == nil {
			t.Errorf("spec %d accepted: %+v", i, s)
		}
	}
}

func TestBiasFor(t *testing.T) {
	cases := map[int]float32{1024: -0.30, 4096: -0.35, 16384: -0.40, 65536: -0.45, 500: -0.30}
	for n, want := range cases {
		if got := BiasFor(n); got != want {
			t.Errorf("BiasFor(%d) = %v, want %v", n, got, want)
		}
	}
}

func TestActivationsStayAliveAndSparse(t *testing.T) {
	// The synthetic dynamics must neither die nor fully saturate across a
	// deep network — otherwise the communication-sparsity machinery the
	// paper exploits would be untested.
	spec := GraphChallengeSpec(512, 60, 3)
	m, err := Generate(spec)
	if err != nil {
		t.Fatal(err)
	}
	cur := GenerateInputs(512, 16, 0.2, 4)
	for k, w := range m.Layers {
		z, _ := sparse.Mul(w, cur)
		sparse.ReLUBiasClamp(z, spec.Bias, spec.Clamp)
		cur = z
		if k < 4 {
			continue // let dynamics settle
		}
		elem := float64(cur.NNZ()) / float64(len(cur.Data))
		if elem < 0.05 || elem > 0.98 {
			t.Fatalf("layer %d element density %.3f outside (0.05, 0.98)", k, elem)
		}
		rows := float64(len(cur.NonzeroRows())) / float64(cur.Rows)
		if rows > 0.97 {
			t.Fatalf("layer %d row density %.3f: no dead neurons, .nul path untestable", k, rows)
		}
	}
	for _, v := range cur.Data {
		if v > spec.Clamp {
			t.Fatalf("activation %v exceeds clamp %v", v, spec.Clamp)
		}
	}
}

func TestGenerateInputsDensityAndDeterminism(t *testing.T) {
	x := GenerateInputs(1000, 50, 0.2, 9)
	density := float64(x.NNZ()) / float64(len(x.Data))
	if density < 0.17 || density > 0.23 {
		t.Fatalf("density = %.3f, want ~0.2", density)
	}
	for _, v := range x.Data {
		if v != 0 && v != 1 {
			t.Fatalf("non-binary input value %v", v)
		}
	}
	y := GenerateInputs(1000, 50, 0.2, 9)
	for i := range x.Data {
		if x.Data[i] != y.Data[i] {
			t.Fatal("inputs not deterministic")
		}
	}
}

// floatInputs is GenerateInputs as it thresholded before it went branch-free:
// a float compare of the 53-bit draw scaled to [0, 1) against the density.
func floatInputs(neurons, batch int, density float64, seed int64) *sparse.Dense {
	s := uint64(seed)
	x := sparse.NewDense(neurons, batch)
	for i := range x.Data {
		s += 0x9e3779b97f4a7c15
		z := s
		z ^= z >> 30
		z *= 0xbf58476d1ce4e5b9
		z ^= z >> 27
		z *= 0x94d049bb133111eb
		z ^= z >> 31
		if float64(z>>11)*(1.0/(1<<53)) < density {
			x.Data[i] = 1
		}
	}
	return x
}

// TestGenerateInputsMatchesFloatCompare: the branch-free threshold sets the
// very bits the float compare did, on random seeds at densities 0, 0.2, 0.5
// and 1 (and outside [0, 1] and NaN), and on the draws next to each
// density's cut, where a rounding slip would show first.
func TestGenerateInputsMatchesFloatCompare(t *testing.T) {
	densities := []float64{0, 0.2, 0.5, 1, -0.5, 1.5, math.NaN(),
		1.0 / 3, math.Nextafter(0.2, 1), math.SmallestNonzeroFloat64, math.Nextafter(1, 0)}
	f := func(seed int64) bool {
		for _, d := range densities {
			got, want := GenerateInputs(16, 9, d, seed), floatInputs(16, 9, d, seed)
			for i := range want.Data {
				if math.Float32bits(got.Data[i]) != math.Float32bits(want.Data[i]) {
					t.Fatalf("seed %d density %v: value %d is %v, the float compare's %v", seed, d, i, got.Data[i], want.Data[i])
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(1))
	for i := 0; i < 1000; i++ {
		densities = append(densities, rng.Float64())
	}
	for _, d := range densities {
		cut := inputCut(d)
		for u := cut - 2; u != cut+3; u++ {
			if u >= 1<<53 {
				continue // past the largest draw (or wrapped below 0)
			}
			var want float32
			if float64(u)*(1.0/(1<<53)) < d {
				want = 1
			}
			if got := below(u, cut); got != want {
				t.Fatalf("density %v cut %d: draw %d thresholds to %v, the float compare to %v", d, cut, u, got, want)
			}
		}
	}
}

func TestReferenceMatchesLayerwiseFloat32(t *testing.T) {
	// float64 reference and float32 serial path agree closely on a small
	// model.
	spec := GraphChallengeSpec(128, 10, 5)
	m, _ := Generate(spec)
	x := GenerateInputs(128, 8, 0.2, 6)

	ref := Reference(m, x)

	cur := x.Clone()
	for _, w := range m.Layers {
		z, _ := sparse.Mul(w, cur)
		sparse.ReLUBiasClamp(z, spec.Bias, spec.Clamp)
		cur = z
	}
	if !OutputsClose(ref, cur, 1e-2) {
		t.Fatal("reference and float32 serial outputs diverge")
	}
}

func TestOutputsCloseShapeMismatch(t *testing.T) {
	a := sparse.NewDense(2, 2)
	b := sparse.NewDense(2, 3)
	if OutputsClose(a, b, 1) {
		t.Fatal("shape mismatch reported close")
	}
}

func TestEncodeDecodeCSRRoundTrip(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		rows := 1 + rng.Intn(20)
		cols := 1 + rng.Intn(20)
		var tr []sparse.Triplet
		for r := 0; r < rows; r++ {
			for c := 0; c < cols; c++ {
				if rng.Float64() < 0.25 {
					tr = append(tr, sparse.Triplet{Row: int32(r), Col: int32(c), Val: float32(rng.NormFloat64())})
				}
			}
		}
		m, err := sparse.NewCSR(rows, cols, tr)
		if err != nil {
			return false
		}
		got, err := DecodeCSR(EncodeCSR(m))
		if err != nil {
			return false
		}
		if got.Rows != m.Rows || got.Cols != m.Cols || got.NNZ() != m.NNZ() {
			return false
		}
		for i := range m.Val {
			if got.Val[i] != m.Val[i] || got.ColIdx[i] != m.ColIdx[i] {
				return false
			}
		}
		for i := range m.RowPtr {
			if got.RowPtr[i] != m.RowPtr[i] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}

func TestDecodeCSRRejectsCorrupt(t *testing.T) {
	if _, err := DecodeCSR([]byte{1, 2, 3}); err == nil {
		t.Error("short blob accepted")
	}
	m, _ := sparse.NewCSR(2, 2, []sparse.Triplet{{Row: 0, Col: 0, Val: 1}})
	b := EncodeCSR(m)
	if _, err := DecodeCSR(b[:len(b)-2]); err == nil {
		t.Error("truncated blob accepted")
	}
}

func TestWeightBytes(t *testing.T) {
	m, _ := Generate(GraphChallengeSpec(256, 4, 1))
	// 4 layers x (nnz*8 + (rows+1)*4)
	want := int64(4 * (256*32*8 + 257*4))
	if m.WeightBytes() != want {
		t.Fatalf("WeightBytes = %d, want %d", m.WeightBytes(), want)
	}
}

// DecodeCSR parses a blob produced by EncodeCSR: the round-trip reference
// the encoding's tests check it against.
func DecodeCSR(b []byte) (*sparse.CSR, error) {
	if len(b) < 12 {
		return nil, fmt.Errorf("model: CSR blob too short (%d bytes)", len(b))
	}
	rows := int(binary.LittleEndian.Uint32(b[0:4]))
	cols := int(binary.LittleEndian.Uint32(b[4:8]))
	nnz := int(binary.LittleEndian.Uint32(b[8:12]))
	want := 12 + (rows+1)*4 + nnz*8
	if len(b) != want {
		return nil, fmt.Errorf("model: CSR blob is %d bytes, want %d for %dx%d nnz=%d",
			len(b), want, rows, cols, nnz)
	}
	m := &sparse.CSR{
		Rows:   rows,
		Cols:   cols,
		RowPtr: make([]int32, rows+1),
		ColIdx: make([]int32, nnz),
		Val:    make([]float32, nnz),
	}
	off := 12
	for i := range m.RowPtr {
		m.RowPtr[i] = int32(binary.LittleEndian.Uint32(b[off:]))
		off += 4
	}
	for i := range m.ColIdx {
		m.ColIdx[i] = int32(binary.LittleEndian.Uint32(b[off:]))
		off += 4
	}
	for i := range m.Val {
		m.Val[i] = math.Float32frombits(binary.LittleEndian.Uint32(b[off:]))
		off += 4
	}
	return m, nil
}

// BenchmarkGenerateInputs times one query's input at stream_day's shape
// (64 x 1) and one full coalesced batch's (64 x 4096), at density 0.2.
func BenchmarkGenerateInputs(b *testing.B) {
	for _, batch := range []int{1, 4096} {
		b.Run(fmt.Sprintf("64x%d", batch), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				inputSink = GenerateInputs(64, batch, 0.2, int64(i))
			}
		})
	}
}

var inputSink *sparse.Dense
