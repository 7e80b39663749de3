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
