package sparse

import (
	"fmt"
	"math"
	"math/rand"
	"testing"
	"testing/quick"
)

func TestNewCSRBasic(t *testing.T) {
	m, err := NewCSR(3, 4, []Triplet{
		{0, 1, 2.0}, {2, 3, 5.0}, {0, 0, 1.0}, {1, 2, -3.0},
	})
	if err != nil {
		t.Fatal(err)
	}
	if m.NNZ() != 4 {
		t.Fatalf("nnz = %d", m.NNZ())
	}
	cols, vals := m.Row(0)
	if len(cols) != 2 || cols[0] != 0 || cols[1] != 1 || vals[0] != 1 || vals[1] != 2 {
		t.Fatalf("row 0 = %v %v", cols, vals)
	}
	if m.RowNNZ(1) != 1 || m.RowNNZ(2) != 1 {
		t.Fatalf("row nnz = %d, %d", m.RowNNZ(1), m.RowNNZ(2))
	}
}

func TestNewCSRSumsDuplicates(t *testing.T) {
	m, err := NewCSR(2, 2, []Triplet{{0, 0, 1}, {0, 0, 2.5}, {1, 1, -1}, {1, 1, 1}})
	if err != nil {
		t.Fatal(err)
	}
	if m.NNZ() != 2 {
		t.Fatalf("nnz = %d, want duplicates merged", m.NNZ())
	}
	if m.Val[0] != 3.5 {
		t.Fatalf("summed value = %v", m.Val[0])
	}
}

func TestNewCSRBoundsChecked(t *testing.T) {
	if _, err := NewCSR(2, 2, []Triplet{{2, 0, 1}}); err == nil {
		t.Error("row out of range accepted")
	}
	if _, err := NewCSR(2, 2, []Triplet{{0, -1, 1}}); err == nil {
		t.Error("negative col accepted")
	}
	if _, err := NewCSR(-1, 2, nil); err == nil {
		t.Error("negative dims accepted")
	}
}

func TestEmptyCSR(t *testing.T) {
	m, err := NewCSR(3, 3, nil)
	if err != nil {
		t.Fatal(err)
	}
	if m.NNZ() != 0 {
		t.Fatalf("nnz = %d", m.NNZ())
	}
	x := NewDense(3, 2)
	x.Set(0, 0, 1)
	z, macs := Mul(m, x)
	if macs != 0 || z.NNZ() != 0 {
		t.Fatalf("empty matrix multiply: macs=%d nnz=%d", macs, z.NNZ())
	}
}

func TestSelectRows(t *testing.T) {
	m, _ := NewCSR(4, 4, []Triplet{
		{0, 0, 1}, {1, 1, 2}, {2, 2, 3}, {3, 3, 4}, {3, 0, 5},
	})
	sub := m.SelectRows([]int32{3, 1})
	if sub.Rows != 2 || sub.Cols != 4 {
		t.Fatalf("dims = %dx%d", sub.Rows, sub.Cols)
	}
	cols, vals := sub.Row(0) // original row 3
	if len(cols) != 2 || cols[0] != 0 || vals[0] != 5 || cols[1] != 3 || vals[1] != 4 {
		t.Fatalf("row 0 = %v %v", cols, vals)
	}
	cols, vals = sub.Row(1) // original row 1
	if len(cols) != 1 || cols[0] != 1 || vals[0] != 2 {
		t.Fatalf("row 1 = %v %v", cols, vals)
	}
}

// naiveMul is the reference dense implementation used by property tests.
func naiveMul(w *CSR, x *Dense) *Dense {
	z := NewDense(w.Rows, x.Cols)
	for r := 0; r < w.Rows; r++ {
		cols, vals := w.Row(r)
		for i, c := range cols {
			for j := 0; j < x.Cols; j++ {
				z.Data[r*z.Cols+j] += vals[i] * x.At(int(c), j)
			}
		}
	}
	return z
}

func matricesClose(a, b *Dense, tol float64) bool {
	if a.Rows != b.Rows || a.Cols != b.Cols {
		return false
	}
	for i := range a.Data {
		if math.Abs(float64(a.Data[i]-b.Data[i])) > tol {
			return false
		}
	}
	return true
}

func randomCase(rng *rand.Rand) (*CSR, *Dense) {
	rows := 1 + rng.Intn(12)
	cols := 1 + rng.Intn(12)
	batch := 1 + rng.Intn(5)
	var tr []Triplet
	for r := 0; r < rows; r++ {
		for c := 0; c < cols; c++ {
			if rng.Float64() < 0.3 {
				tr = append(tr, Triplet{int32(r), int32(c), float32(rng.NormFloat64())})
			}
		}
	}
	w, _ := NewCSR(rows, cols, tr)
	x := NewDense(cols, batch)
	for i := range x.Data {
		if rng.Float64() < 0.6 {
			x.Data[i] = float32(rng.NormFloat64())
		}
	}
	return w, x
}

func TestMulMatchesNaiveProperty(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		w, x := randomCase(rng)
		got, _ := Mul(w, x)
		want := naiveMul(w, x)
		return matricesClose(got, want, 1e-4)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

// mulCase is a weight matrix whose rows have every live-weight count Mul's
// four-at-a-time passes can end on, and an activation matrix batch wide in
// which about a third of the rows are zero. A live weight is a stored entry
// whose activation row is not zero. Row k < 10 has k live weights among a
// random number of dead ones; row 10 stores only dead weights; row 11
// stores every column, more live weights than a pass takes many times over;
// row 12 is empty.
func mulCase(rng *rand.Rand, batch int) (*CSR, *Dense) {
	const cols = 64
	x := NewDense(cols, batch)
	var liveCols, deadCols []int32
	for c := 0; c < cols; c++ {
		if c < 2 || c >= 12 && rng.Intn(3) == 0 {
			deadCols = append(deadCols, int32(c)) // a zero activation row
			continue
		}
		liveCols = append(liveCols, int32(c))
		for j := 0; j < batch; j++ {
			if rng.Intn(5) != 0 { // zeros inside a live row still multiply
				x.Set(c, j, float32(rng.NormFloat64()))
			}
		}
		if x.RowIsZero(c) {
			x.Set(c, 0, 1)
		}
	}
	var tr []Triplet
	add := func(r int, cs []int32) {
		for _, c := range cs {
			tr = append(tr, Triplet{int32(r), c, float32(rng.NormFloat64())})
		}
	}
	pick := func(cs []int32, n int) []int32 {
		out := append([]int32(nil), cs...)
		rng.Shuffle(len(out), func(i, j int) { out[i], out[j] = out[j], out[i] })
		return out[:n]
	}
	for r := 0; r < 10; r++ {
		add(r, pick(liveCols, r))
		add(r, pick(deadCols, rng.Intn(len(deadCols)+1)))
	}
	add(10, pick(deadCols, 1+rng.Intn(len(deadCols))))
	add(11, append(append([]int32(nil), liveCols...), deadCols...))
	w, err := NewCSR(13, cols, tr)
	if err != nil {
		panic(err)
	}
	return w, x
}

// TestMulGatherMatchesMulProperty holds Mul to the closure-form reference,
// which adds in the contract order: every element equal by Float32bits and
// the same MAC count, for live-weight counts 0 to 9 and beyond, rows with
// only zero activation rows under them, and batch widths 1 to 9.
func TestMulGatherMatchesMulProperty(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		for batch := 1; batch <= 9; batch++ {
			w, x := mulCase(rng, batch)
			got, gotMACs := Mul(w, x)
			want := NewDense(w.Rows, x.Cols)
			wantMACs := MulGatherInto(w, func(c int32) []float32 {
				if x.RowIsZero(int(c)) {
					return nil
				}
				return x.Row(int(c))
			}, want)
			if gotMACs != wantMACs || !sameBits(got, want) {
				t.Logf("seed %d batch %d: macs %d, want %d", seed, batch, gotMACs, wantMACs)
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}

// TestMulIntoMatchesMul: MulInto into a matrix that held other values comes
// out bit for bit as Mul's fresh matrix, with the same MAC count, whatever z
// held — NaN payloads, -0 and noise, or zeros — and when z is a wider
// batch's buffer taken back from a Spare for a narrower batch. A row no live
// weight reaches must come out +0, not what the buffer held. x carries -0
// and one NaN payload among its activations (one payload, so no two meet in
// an add; see TestKernelsSpecialValuesBits).
func TestMulIntoMatchesMul(t *testing.T) {
	negZero := float32(math.Copysign(0, -1))
	nan := math.Float32frombits(0x7fc00123)
	rng := rand.New(rand.NewSource(5))
	junk := func(z *Dense) {
		for i := range z.Data {
			switch rng.Intn(4) {
			case 0:
				z.Data[i] = negZero
			case 1:
				z.Data[i] = math.Float32frombits(0x7f800000 | uint32(1+rng.Intn(1<<22)))
			default:
				z.Data[i] = float32(rng.NormFloat64())
			}
		}
	}
	var spare Spare
	var first *float32
	for i, batch := range []int{17, 9, 1, 4, 8, 16, 3} {
		w, x := mulCase(rng, batch)
		for j := range x.Data {
			switch rng.Intn(8) {
			case 0:
				x.Data[j] = negZero
			case 1:
				x.Data[j] = nan
			}
		}
		want, wantMACs := Mul(w, x)
		held := NewDense(w.Rows, x.Cols)
		junk(held)
		recycled := spare.Take(w.Rows, x.Cols)
		if i == 0 {
			first = &recycled.Data[0]
		} else if &recycled.Data[0] != first {
			t.Fatalf("batch %d: the spare did not hand back the batch-17 buffer", batch)
		}
		for _, z := range []struct {
			name string
			z    *Dense
		}{{"held other values", held}, {"zeroed", NewDense(w.Rows, x.Cols)}, {"recycled wider", recycled}} {
			macs := MulInto(w, x, z.z)
			if macs != wantMACs || !sameBits(z.z, want) {
				t.Fatalf("batch %d, z %s: MulInto differs from Mul (macs %d, want %d)", batch, z.name, macs, wantMACs)
			}
		}
		junk(recycled)
		spare.Give(recycled)
	}
}

// TestSpareKeepsTheLargest: a Spare hands its buffer out once, keeps what it
// holds when that is too small for a Take, and keeps the larger of what it
// holds and what it is given.
func TestSpareKeepsTheLargest(t *testing.T) {
	var s Spare
	small := s.Take(2, 3)
	s.Give(small)
	if got := s.Take(2, 3); got != small {
		t.Fatal("Take did not return the buffer given back")
	}
	if got := s.Take(2, 3); got == small {
		t.Fatal("Take handed one buffer out twice")
	}
	s.Give(small)
	big := s.Take(4, 4) // too large for small: new, and small stays
	if big == small || len(big.Data) != 16 {
		t.Fatal("Take reshaped a buffer too small for it")
	}
	s.Give(big)
	s.Give(small)
	if got := s.Take(1, 5); got != big || got.Rows != 1 || got.Cols != 5 || len(got.Data) != 5 {
		t.Fatal("the spare did not keep the larger buffer, reshaped")
	}
}

// TestKernelsSpecialValuesBits passes NaN payloads (in x, in z and in the
// weights), infinities, subnormals and signed zeros through Mul and
// MulRowsInto and compares them with MulGatherInto by Float32bits and MAC
// count, at every tile width. Each case holds one NaN payload, in its
// quiet and its signalling form, and no infinity, or infinities and no
// NaN input: where two NaNs of different payloads meet in one operation,
// which one survives depends on the operand order, which Go leaves to the
// compiler, so no case lets that happen. Products and sums of the finite
// values cannot overflow, so the only NaNs a payload case makes are its
// own; in the infinity case every NaN is made by the hardware (0*Inf,
// Inf-Inf) and has its one default bit pattern.
func TestKernelsSpecialValuesBits(t *testing.T) {
	negZero := float32(math.Copysign(0, -1))
	inf := float32(math.Inf(1))
	tame := []float32{0, negZero, math.SmallestNonzeroFloat32, -math.SmallestNonzeroFloat32,
		math.Float32frombits(0x007fffff), math.Float32frombits(0x807fffff), 1, -1}
	cases := []struct {
		name  string
		extra []float32
	}{
		{"infinities", []float32{inf, -inf, math.MaxFloat32, -math.MaxFloat32}},
		{"quiet NaN", []float32{math.Float32frombits(0x7fc00001), math.Float32frombits(0x7f800001)}},
		{"-NaN", []float32{math.Float32frombits(0xffc12345), math.Float32frombits(0xff812345)}},
		{"full NaN", []float32{math.Float32frombits(0x7fffffff)}},
		{"x86 default NaN", []float32{math.Float32frombits(0xffc00000)}}, // no signalling form quiets to it
	}
	rng := rand.New(rand.NewSource(1))
	for _, tc := range cases {
		name, special := tc.name, append(append([]float32(nil), tame...), tc.extra...)
		draw := func() float32 {
			if rng.Intn(3) == 0 {
				return special[rng.Intn(len(special))]
			}
			return float32(rng.NormFloat64())
		}
		for _, batch := range rowsWidths {
			rows, cols := 1+rng.Intn(8), 1+rng.Intn(24)
			var tr []Triplet
			for r := 0; r < rows; r++ {
				for c := 0; c < cols; c++ {
					if rng.Intn(3) != 0 {
						tr = append(tr, Triplet{int32(r), int32(c), draw()})
					}
				}
			}
			w, err := NewCSR(rows, cols, tr)
			if err != nil {
				t.Fatal(err)
			}
			x := NewDense(cols, batch)
			for c := 0; c < cols; c++ {
				if rng.Intn(5) < 1+3*(batch%2) {
					continue // a zero row: four in five at odd widths, so some weight rows meet only zero rows
				}
				for j := 0; j < batch; j++ {
					x.Set(c, j, draw())
				}
			}
			lookup := func(c int32) []float32 {
				if x.RowIsZero(int(c)) {
					return nil
				}
				return x.Row(int(c))
			}
			table := make([][]float32, cols)
			for c := range table {
				table[c] = lookup(int32(c))
			}

			z := NewDense(rows, batch)
			for i := range z.Data {
				z.Data[i] = draw()
			}
			want, got := z.Clone(), z.Clone()
			wantMACs := MulGatherInto(w, lookup, want)
			if gotMACs := MulRowsInto(w, table, got); gotMACs != wantMACs || !sameBits(got, want) {
				t.Errorf("%s, batch %d: MulRowsInto macs %d, want %d (or the bits differ)", name, batch, gotMACs, wantMACs)
			}
			want = NewDense(rows, batch)
			wantMACs = MulGatherInto(w, lookup, want)
			if got, gotMACs := Mul(w, x); gotMACs != wantMACs || !sameBits(got, want) {
				t.Errorf("%s, batch %d: Mul macs %d, want %d (or the bits differ)", name, batch, gotMACs, wantMACs)
			}
		}
	}

	// An absent row adds nothing, not even to the sign of a zero: z of -0s
	// and present rows of -0s (each product -0) between absent ones, so
	// every element stays -0.
	for _, batch := range rowsWidths {
		var tr []Triplet
		table := make([][]float32, 9)
		for c := range table {
			tr = append(tr, Triplet{0, int32(c), 1})
			if c%2 == 1 {
				table[c] = make([]float32, batch)
				for j := range table[c] {
					table[c][j] = negZero
				}
			}
		}
		w, _ := NewCSR(1, len(table), tr)
		z := NewDense(1, batch)
		for i := range z.Data {
			z.Data[i] = negZero
		}
		want, got := z.Clone(), z.Clone()
		wantMACs := MulGatherInto(w, func(c int32) []float32 { return table[c] }, want)
		if gotMACs := MulRowsInto(w, table, got); gotMACs != wantMACs || !sameBits(got, want) {
			t.Errorf("signed zeros, batch %d: MulRowsInto macs %d, want %d (or the bits differ)", batch, gotMACs, wantMACs)
		}
	}
}

// reluBranchForm is ReLUBiasClamp's definition, the branchy loops the
// kernel's select must reproduce bit for bit.
func reluBranchForm(data []float32, bias, clamp float32) int64 {
	if clamp > 0 {
		for i, v := range data {
			v += bias
			if v < 0 {
				v = 0
			} else if v > clamp {
				v = clamp
			}
			data[i] = v
		}
		return int64(len(data))
	}
	for i, v := range data {
		v += bias
		if v < 0 {
			v = 0
		}
		data[i] = v
	}
	return int64(len(data))
}

// TestReLUBiasClampMatchesBranchForm compares the kernel with its
// definition by Float32bits and op count: signed zeros, infinities,
// subnormals, NaNs with several payloads, values either side of 0 and of
// the clamp, and a million random bit patterns, under biases of either
// sign (both zeros included) and clamps on, off at 0 and off below it.
func TestReLUBiasClampMatchesBranchForm(t *testing.T) {
	in := []float32{
		0, float32(math.Copysign(0, -1)),
		float32(math.Inf(1)), float32(math.Inf(-1)),
		math.SmallestNonzeroFloat32, -math.SmallestNonzeroFloat32,
		math.Float32frombits(0x007fffff), math.Float32frombits(0x807fffff),
		math.Float32frombits(0x7fc00000), math.Float32frombits(0xffc00000),
		math.Float32frombits(0x7fc00001), math.Float32frombits(0x7f800001),
		math.Float32frombits(0xff812345), math.Float32frombits(0x7fffffff),
		math.MaxFloat32, -math.MaxFloat32,
	}
	for _, edge := range []float32{0, 0.3, -0.3, 0.5, -0.5, 32, 32.3, 31.5, 32.5} {
		in = append(in, edge, math.Nextafter32(edge, float32(math.Inf(1))), math.Nextafter32(edge, float32(math.Inf(-1))))
	}
	rng := rand.New(rand.NewSource(1))
	for i := 0; i < 1_000_000; i++ {
		in = append(in, math.Float32frombits(rng.Uint32()))
	}
	got, want := NewDense(1, len(in)), make([]float32, len(in))
	negZero := float32(math.Copysign(0, -1))
	for _, bias := range []float32{-0.3, 0, negZero, 0.5} {
		for _, clamp := range []float32{32, 0, -1} {
			copy(got.Data, in)
			copy(want, in)
			gotOps, wantOps := ReLUBiasClamp(got, bias, clamp), reluBranchForm(want, bias, clamp)
			if gotOps != wantOps {
				t.Fatalf("bias %v clamp %v: ops %d, want %d", bias, clamp, gotOps, wantOps)
			}
			for i := range want {
				if g, w := math.Float32bits(got.Data[i]), math.Float32bits(want[i]); g != w {
					t.Fatalf("bias %v clamp %v: %#08x became %#08x, want %#08x",
						bias, clamp, math.Float32bits(in[i]), g, w)
				}
			}
		}
	}
}

func TestMulGatherAccumulates(t *testing.T) {
	// Two gather passes over disjoint column subsets must equal one full
	// multiply — this is exactly how the distributed engine accumulates
	// local and received contributions (Algorithm 1 lines 8, 16-17).
	rng := rand.New(rand.NewSource(42))
	w, x := randomCase(rng)
	want, _ := Mul(w, x)

	z := NewDense(w.Rows, x.Cols)
	half := int32(w.Cols / 2)
	MulGatherInto(w, func(c int32) []float32 {
		if c >= half || x.RowIsZero(int(c)) {
			return nil
		}
		return x.Row(int(c))
	}, z)
	MulGatherInto(w, func(c int32) []float32 {
		if c < half || x.RowIsZero(int(c)) {
			return nil
		}
		return x.Row(int(c))
	}, z)
	if !matricesClose(z, want, 1e-4) {
		t.Fatal("split gather != full multiply")
	}
}

func TestMulSkipsZeroRowsInOpCount(t *testing.T) {
	w, _ := NewCSR(1, 2, []Triplet{{0, 0, 1}, {0, 1, 1}})
	x := NewDense(2, 8)
	for j := 0; j < 8; j++ {
		x.Set(0, j, 1) // row 0 nonzero, row 1 all zero
	}
	_, macs := Mul(w, x)
	if macs != 8 {
		t.Fatalf("macs = %d, want 8 (zero activation row skipped)", macs)
	}
}

func TestReLUBiasClamp(t *testing.T) {
	d := NewDense(1, 5)
	copy(d.Data, []float32{-1, 0.2, 0.5, 40, 31.9})
	ops := ReLUBiasClamp(d, -0.3, 32)
	if ops != 5 {
		t.Fatalf("ops = %d", ops)
	}
	want := []float32{0, 0, 0.2, 32, 31.6}
	for i, w := range want {
		if math.Abs(float64(d.Data[i]-w)) > 1e-5 {
			t.Fatalf("data[%d] = %v, want %v", i, d.Data[i], w)
		}
	}
}

func TestReLUBiasClampNoClamp(t *testing.T) {
	d := NewDense(1, 2)
	copy(d.Data, []float32{50, -50})
	ReLUBiasClamp(d, 0, 0)
	if d.Data[0] != 50 || d.Data[1] != 0 {
		t.Fatalf("data = %v", d.Data)
	}
}

func TestNonzeroRowsAndRowIsZero(t *testing.T) {
	d := NewDense(4, 3)
	d.Set(1, 2, 5)
	d.Set(3, 0, -1)
	nz := d.NonzeroRows()
	if len(nz) != 2 || nz[0] != 1 || nz[1] != 3 {
		t.Fatalf("nonzero rows = %v", nz)
	}
	if !d.RowIsZero(0) || d.RowIsZero(1) {
		t.Fatal("RowIsZero wrong")
	}
}

func TestDenseCloneIndependent(t *testing.T) {
	d := NewDense(2, 2)
	d.Set(0, 0, 1)
	c := d.Clone()
	c.Set(0, 0, 9)
	if d.At(0, 0) != 1 {
		t.Fatal("clone shares storage")
	}
}

func TestBytes(t *testing.T) {
	m, _ := NewCSR(2, 2, []Triplet{{0, 0, 1}, {1, 1, 1}})
	if m.Bytes() != 2*8+3*4 {
		t.Fatalf("CSR bytes = %d", m.Bytes())
	}
	d := NewDense(3, 3)
	if d.Bytes() != 36 {
		t.Fatalf("dense bytes = %d", d.Bytes())
	}
}

func TestZero(t *testing.T) {
	d := NewDense(2, 2)
	d.Set(1, 1, 7)
	d.Zero()
	if d.NNZ() != 0 {
		t.Fatal("Zero left nonzeros")
	}
}

// serialCase is one layer at Serial's stream_day shape: N=64, fan-in 32,
// weights of magnitude 0.2 to 0.6 with either sign, and a {0,1} input at
// density 0.2 (model.GenerateInputs' form; that package imports this one).
func serialCase(batch int) (*CSR, *Dense) {
	const n, fanIn = 64, 32
	rng := rand.New(rand.NewSource(1))
	var ents []Triplet
	for r := 0; r < n; r++ {
		for _, c := range rng.Perm(n)[:fanIn] {
			v := float32(0.2 + 0.4*rng.Float64())
			if rng.Intn(2) == 0 {
				v = -v
			}
			ents = append(ents, Triplet{int32(r), int32(c), v})
		}
	}
	w, err := NewCSR(n, n, ents)
	if err != nil {
		panic(err)
	}
	x := NewDense(n, batch)
	for i := range x.Data {
		if rng.Float64() < 0.2 {
			x.Data[i] = 1
		}
	}
	return w, x
}

// serialBatches are Serial's batch widths: a small coalesced
// batch, stream_day's typical run and its largest.
var serialBatches = []int{256, 1042, 4096}

// BenchmarkMulSerial times Mul at Serial's shape, allocation of z
// included, as the one-rank worker calls it for its last layer.
//
//	go test ./internal/sparse -run '^$' -bench 'MulSerial|ReLUBiasClamp' -cpu 1
func BenchmarkMulSerial(b *testing.B) {
	for _, batch := range serialBatches {
		w, x := serialCase(batch)
		b.Run(fmt.Sprintf("batch=%d", batch), func(b *testing.B) {
			b.ReportAllocs()
			var macs int64
			for i := 0; i < b.N; i++ {
				_, m := Mul(w, x)
				macs += m
			}
			b.ReportMetric(float64(macs)/b.Elapsed().Seconds()/1e9, "GMAC/s")
		})
	}
}

// BenchmarkReLUBiasClamp times the activation on a freshly multiplied z,
// whose post-bias signs are close to a coin flip. Each pass restores the
// pristine z with copy first (clamping its own output over and over would
// converge to zeros a branch predicts perfectly); the copy sub-benchmark
// times the copy alone, to subtract.
func BenchmarkReLUBiasClamp(b *testing.B) {
	for _, batch := range serialBatches {
		w, x := serialCase(batch)
		pristine, _ := Mul(w, x)
		z := pristine.Clone()
		b.Run(fmt.Sprintf("batch=%d/copy", batch), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				copy(z.Data, pristine.Data)
			}
		})
		b.Run(fmt.Sprintf("batch=%d/copy+relu", batch), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				copy(z.Data, pristine.Data)
				ReLUBiasClamp(z, -0.3, 32)
			}
		})
	}
}

// Set assigns element (r, c).
func (d *Dense) Set(r, c int, v float32) { d.Data[r*d.Cols+c] = v }
