// Package sparse provides the float32 sparse/dense linear algebra used by
// the inference engine: CSR weight matrices, dense row-major activation
// matrices (rows = neurons, columns = batch samples), and the
// multiply-accumulate kernels for distributed MVP/MMP (paper §III-C).
//
// The kernels return exact operation counts so the simulator can charge
// calibrated virtual compute time for the work actually performed — sparsity
// in both weights and activations directly reduces the charged time, as it
// does for the paper's SciPy workers.
//
// # Accumulation order
//
// Every kernel adds the products of one output element z[r][j] in the same
// order: the stored entries of weight row r by ascending column, one
// float32 multiply and one float32 add each, absent and zero activation
// rows skipped. Float addition does not associate, so this order is part of
// the contract: outputs, the golden cells of internal/core and the
// benchmark's sim_digest are compared bit for bit. A kernel may change how
// it walks memory, never the order of the adds into one element. The
// distributed worker runs two passes per layer over disjoint column sets
// (CSR.SplitCols: the columns it owns, then the columns it receives), so
// its order is own columns ascending, then foreign columns ascending.
//
// # Which kernel serves which path
//
//   - Mul, the Serial engine and the baselines: one full-width dense x,
//     batches of hundreds to thousands of columns. A streaming loop over
//     the whole batch per four live stored weights of a row (mulAdd4):
//     z[r][:] += v0*x[c0][:] + ... + v3*x[c3][:], added one product at a
//     time; a row's last one to three live weights take a pass each
//     (mulAdd1).
//   - MulRowsInto, the FSI worker (Algorithm 1 line 8 and lines 16-17): x is
//     a table of row slices indexed by global column id, batches of 4 to a
//     few hundred columns. It keeps a tile of z in registers while it walks
//     the weight row, so z is loaded and stored once per tile rather than
//     once per product, and nothing is called per nonzero.
//   - MulGatherInto, the closure form of the same product, is the reference
//     both are tested against (math.Float32bits on every element, equal MAC
//     counts) and what the benchmark's sparse probe times; the engine no
//     longer calls it.
//
// # The kernels on amd64
//
// On amd64 the inner loops of Mul and MulRowsInto are packed SSE
// (kernels_amd64.s), four float32 lanes an instruction; every other GOARCH
// runs the Go loops of kernels_generic.go, which `make portable` tests.
// SSE is part of every amd64 processor (GOAMD64=v1), so nothing is detected
// at run time and there is no second path to select. Packed, each element
// still gets the bits the scalar loop gives it:
//
//   - a lane of MULPS or ADDPS is the IEEE single multiply or add that
//     MULSS or ADDSS makes, rounded once;
//   - the multiply and the add stay two instructions: nothing is fused (a
//     fused multiply-add rounds once for both, and differs in the last bit);
//   - the operands keep their roles: t = x*v, then acc = acc + t, the
//     weights of a row in ascending column order;
//   - MXCSR is left as Go runs it: round to nearest, subnormals neither
//     flushed nor read as zero.
//
// The one thing operand order decides is which payload survives when two
// NaNs of different payloads meet in one operation, and Go leaves that to
// its compiler: TestKernelsSpecialValuesBits passes NaN payloads,
// infinities, subnormals and signed zeros through both kernels without
// letting that happen.
//
// mulAdd4 and mulAdd1 take eight elements an iteration in two registers,
// then four, then one at a time. MulRowsInto's kernel walks every row in
// one call. It first compacts the row's entries whose activation row is
// present into a stack buffer: it stores every entry and advances past a
// present one, so a nil row costs no branch (the branch on it was
// mispredicted often enough to halve the received half's speed). Then it
// walks the compacted entries once per register tile: 32 columns in eight
// XMM accumulators while they fit, then 16, 8 and 4, and the last nc%4
// columns one at a time, the weight broadcast to four lanes. The 4-column
// tile rides along with the compaction, adding -0 for a nil entry (an
// identity for every value but a signalling NaN, and an accumulator no
// present entry reached is not stored), so a batch of 4 to 7 walks its
// entries once. A column id outside x or a present row narrower than z
// makes the kernel stop and MulRowsInto panic as Go's slicing would.
//
// BenchmarkMulRows (N=1024, 32 stored weights a row, -cpu 1, GMAC/s, the
// median of ten alternating runs a side on a shared 2-vCPU Xeon @ 2.1 GHz,
// whose speed wanders by half from minute to minute, and in brackets the
// median ratio of packed to scalar over the ten pairs): MulRowsInto over a
// P=2 worker's own half of the block (every column present) and its
// received half (a fifth absent), the scalar Go loops against the packed
// kernel, and MulGatherInto over the whole block with half the columns
// absent, as one of the engine's former two passes saw it:
//
//	batch   gather, whole   own: scalar   packed          received: scalar   packed
//	    4       0.15            1.21      1.18 (0.95×)          0.82         1.00 (1.21×)
//	    8       0.23            1.23      2.14 (1.57×)          0.93         1.62 (1.39×)
//	   16       0.37            1.45      3.87 (2.61×)          0.75         3.17 (3.89×)
//	   32       0.51            1.33      5.30 (3.74×)          0.78         4.45 (5.47×)
//	   64       0.68            1.32      6.59 (4.49×)          0.95         6.36 (7.20×)
//	  256       0.82            1.32      7.61 (5.05×)          1.20         7.81 (5.87×)
//
// At batch 4 the kernel is bound by the compaction, about twenty
// instructions an entry, and wins least; the unchanged gather column read
// 0.84× in the same pairs. Twenty shorter alternating pairs of the batch-4
// cells alone, on a quieter machine, read 1.74 to 2.05 for the own half (19
// of 20 pairs won) and 1.53 to 1.62 for the received half (15 of 20), the
// gather column 1.01×. Taking the entries without compacting them ran the
// own half at 1.4 - 2.2 and the received half at 0.56 - 0.81, a
// mispredicted branch on every fifth entry.
//
// Mul is deliberately not tiled. At the Serial engine's batch of 4096 an
// activation row is 16 KB, so the 32 rows one weight row multiplies all map
// to the same L1 sets: walked tile by tile they evict each other (a tiled
// scalar kernel at batch 4096 measured 1.1 GMAC/s against the streaming
// loop's 1.5 - 1.7), while the streaming loop reads each of them once, end
// to end. Four live weights a pass load and store z[r][j] once per four
// products instead of once per product; eight measured 10 % slower than
// four with the scalar loop, and applying the activation row by row inside
// Mul was slower than ReLUBiasClamp's own pass. Blocking the batch into
// column panels of 256 to 1024 columns gave up the one long sequential
// stream per product for many short ones and took 1.6 - 2 times as long.
// BenchmarkMulSerial (N=64, fan-in 32, input density 0.2, -cpu 1,
// allocation of z included, GMAC/s, median of the same ten alternating
// runs a side, every pair won; one weight a pass, scalar, ran 1.1 - 1.5):
//
//	batch   four a pass, scalar   packed
//	  256          2.18           6.41 (2.83×)
//	 1042          2.31           6.97 (2.91×)
//	 4096          2.44           7.51 (3.02×)
package sparse

import (
	"fmt"
	"math"
	"sort"
)

// Triplet is one nonzero matrix entry in coordinate form.
type Triplet struct {
	Row, Col int32
	Val      float32
}

// CSR is a compressed sparse row float32 matrix. Column indices within each
// row are strictly increasing. Rows and Cols bound the index space; either
// may exceed the populated range (workers hold row blocks with global column
// indices).
type CSR struct {
	Rows, Cols int
	RowPtr     []int32 // len Rows+1
	ColIdx     []int32 // len NNZ
	Val        []float32
}

// NewCSR builds a CSR matrix from triplets. Duplicate (row, col) entries are
// summed. The input slice is reordered in place.
func NewCSR(rows, cols int, entries []Triplet) (*CSR, error) {
	if rows < 0 || cols < 0 {
		return nil, fmt.Errorf("sparse: negative dimensions %dx%d", rows, cols)
	}
	for _, e := range entries {
		if e.Row < 0 || int(e.Row) >= rows || e.Col < 0 || int(e.Col) >= cols {
			return nil, fmt.Errorf("sparse: entry (%d,%d) outside %dx%d", e.Row, e.Col, rows, cols)
		}
	}
	sort.Slice(entries, func(i, j int) bool {
		if entries[i].Row != entries[j].Row {
			return entries[i].Row < entries[j].Row
		}
		return entries[i].Col < entries[j].Col
	})
	m := &CSR{
		Rows:   rows,
		Cols:   cols,
		RowPtr: make([]int32, rows+1),
	}
	m.ColIdx = make([]int32, 0, len(entries))
	m.Val = make([]float32, 0, len(entries))
	for i := 0; i < len(entries); {
		j := i
		v := float32(0)
		for j < len(entries) && entries[j].Row == entries[i].Row && entries[j].Col == entries[i].Col {
			v += entries[j].Val
			j++
		}
		m.ColIdx = append(m.ColIdx, entries[i].Col)
		m.Val = append(m.Val, v)
		m.RowPtr[entries[i].Row+1]++
		i = j
	}
	for r := 0; r < rows; r++ {
		m.RowPtr[r+1] += m.RowPtr[r]
	}
	return m, nil
}

// NNZ returns the number of stored entries.
func (m *CSR) NNZ() int { return len(m.Val) }

// RowNNZ returns the number of stored entries in row r.
func (m *CSR) RowNNZ(r int) int { return int(m.RowPtr[r+1] - m.RowPtr[r]) }

// Row returns the column indices and values of row r (shared slices; do not
// modify).
func (m *CSR) Row(r int) ([]int32, []float32) {
	lo, hi := m.RowPtr[r], m.RowPtr[r+1]
	return m.ColIdx[lo:hi], m.Val[lo:hi]
}

// Bytes returns the raw in-memory footprint of the matrix data
// (values + column indices + row pointers).
func (m *CSR) Bytes() int64 {
	return int64(len(m.Val))*8 + int64(len(m.RowPtr))*4
}

// SelectRows returns a new CSR containing only the given rows of m, in the
// given order (the row block a worker owns). Column indices are preserved
// (global).
func (m *CSR) SelectRows(rows []int32) *CSR {
	sub := &CSR{
		Rows:   len(rows),
		Cols:   m.Cols,
		RowPtr: make([]int32, len(rows)+1),
	}
	nnz := 0
	for _, r := range rows {
		nnz += m.RowNNZ(int(r))
	}
	sub.ColIdx = make([]int32, 0, nnz)
	sub.Val = make([]float32, 0, nnz)
	for i, r := range rows {
		cols, vals := m.Row(int(r))
		sub.ColIdx = append(sub.ColIdx, cols...)
		sub.Val = append(sub.Val, vals...)
		sub.RowPtr[i+1] = sub.RowPtr[i] + int32(len(cols))
	}
	return sub
}

// SplitCols splits m by column into two matrices of m's shape: the entries
// whose column c has part[c] == id, and the rest. Row structure and the
// order of entries within a row are kept, and both results are built at
// exact size. The engine splits a worker's row block into the columns the
// worker owns and the columns it receives (see MulRowsInto).
func (m *CSR) SplitCols(part []int32, id int32) (in, out *CSR) {
	nin := 0
	for _, c := range m.ColIdx {
		if part[c] == id {
			nin++
		}
	}
	sized := func(nnz int) *CSR {
		return &CSR{
			Rows: m.Rows, Cols: m.Cols,
			RowPtr: make([]int32, m.Rows+1),
			ColIdx: make([]int32, 0, nnz),
			Val:    make([]float32, 0, nnz),
		}
	}
	in, out = sized(nin), sized(m.NNZ()-nin)
	for r := 0; r < m.Rows; r++ {
		cols, vals := m.Row(r)
		for i, c := range cols {
			dst := out
			if part[c] == id {
				dst = in
			}
			dst.ColIdx = append(dst.ColIdx, c)
			dst.Val = append(dst.Val, vals[i])
		}
		in.RowPtr[r+1] = int32(len(in.Val))
		out.RowPtr[r+1] = int32(len(out.Val))
	}
	return in, out
}

// Dense is a row-major dense float32 matrix. For activations, rows index
// neurons and columns index batch samples.
type Dense struct {
	Rows, Cols int
	Data       []float32
}

// NewDense returns a zeroed Rows x Cols dense matrix.
func NewDense(rows, cols int) *Dense {
	return &Dense{Rows: rows, Cols: cols, Data: make([]float32, rows*cols)}
}

// Row returns row r as a slice backed by the matrix.
func (d *Dense) Row(r int) []float32 { return d.Data[r*d.Cols : (r+1)*d.Cols] }

// At returns element (r, c).
func (d *Dense) At(r, c int) float32 { return d.Data[r*d.Cols+c] }

// Set assigns element (r, c).
func (d *Dense) Set(r, c int, v float32) { d.Data[r*d.Cols+c] = v }

// Bytes returns the raw in-memory footprint of the matrix data.
func (d *Dense) Bytes() int64 { return int64(len(d.Data)) * 4 }

// Zero clears the matrix in place.
func (d *Dense) Zero() {
	for i := range d.Data {
		d.Data[i] = 0
	}
}

// Clone returns a deep copy.
func (d *Dense) Clone() *Dense {
	c := NewDense(d.Rows, d.Cols)
	copy(c.Data, d.Data)
	return c
}

// NonzeroRows returns the indices of rows with at least one nonzero value,
// in one allocation.
func (d *Dense) NonzeroRows() []int32 {
	out := make([]int32, 0, d.Rows)
	for r := 0; r < d.Rows; r++ {
		if !d.RowIsZero(r) {
			out = append(out, int32(r))
		}
	}
	return out
}

// RowIsZero reports whether row r is entirely zero.
func (d *Dense) RowIsZero(r int) bool {
	for _, v := range d.Row(r) {
		if v != 0 {
			return false
		}
	}
	return true
}

// NNZ returns the number of nonzero elements.
func (d *Dense) NNZ() int64 {
	var n int64
	for _, v := range d.Data {
		if v != 0 {
			n++
		}
	}
	return n
}

// RowLookup maps a global column index of a weight matrix to the
// corresponding activation row vector, or nil if that row is zero/absent.
type RowLookup func(col int32) []float32

// MulGatherInto computes z += W · x, where x rows are fetched through
// lookup, and z has W.Rows rows (local indexing). It returns the number of
// multiply-add operations actually performed: absent (nil) activation rows
// contribute nothing and cost nothing, matching sparse execution. It is the
// closure-form reference for MulRowsInto, which the engine runs.
func MulGatherInto(w *CSR, lookup RowLookup, z *Dense) int64 {
	if z.Rows != w.Rows {
		panic(fmt.Sprintf("sparse: z has %d rows, want %d", z.Rows, w.Rows))
	}
	var macs int64
	for r := 0; r < w.Rows; r++ {
		cols, vals := w.Row(r)
		zrow := z.Row(r)
		for i, c := range cols {
			xrow := lookup(c)
			if xrow == nil {
				continue
			}
			v := vals[i]
			zr := zrow[:len(xrow)]
			for j, xv := range xrow {
				zr[j] += v * xv
			}
			macs += int64(len(xrow))
		}
	}
	return macs
}

// MulRowsInto computes z += W · x, where x is a row table indexed by W's
// global column ids: x[c] is activation row c, at least z.Cols wide (values
// past z.Cols are not read), or nil when that row is zero or absent. It is
// MulGatherInto with the lookup replaced by the table and the batch walked
// in register tiles: a tile of z is loaded once, every present nonzero of
// the weight row is accumulated into it in registers (a += v*x[c][j],
// columns ascending — the order MulGatherInto adds them in, so the results
// are bit-identical), and it is stored once. A column id outside x, or a
// present row narrower than z, panics. Returns the multiply-add count, as
// MulGatherInto does.
func MulRowsInto(w *CSR, x [][]float32, z *Dense) int64 {
	if z.Rows != w.Rows {
		panic(fmt.Sprintf("sparse: z has %d rows, want %d", z.Rows, w.Rows))
	}
	return mulRows(w, x, z)
}

// Mul computes z = W · x for a full-width dense activation matrix
// (x.Rows == W.Cols), the serial/baseline path. Zero activation rows are
// skipped and not charged, as in sparse execution. Returns z and the
// multiply-add count.
//
// Each weight row's live stored weights (those whose activation row is not
// zero) are taken four at a time: one pass over the batch loads z[r][j]
// once, adds the four products in ascending column order and stores it
// once. A row's last one to three live weights take a pass each.
func Mul(w *CSR, x *Dense) (*Dense, int64) {
	if x.Rows != w.Cols {
		panic(fmt.Sprintf("sparse: x has %d rows, want %d", x.Rows, w.Cols))
	}
	zero := make([]bool, x.Rows)
	for r := 0; r < x.Rows; r++ {
		zero[r] = x.RowIsZero(r)
	}
	z := NewDense(w.Rows, x.Cols)
	var live int64
	nc := x.Cols
	xd := x.Data
	for r := 0; r < w.Rows; r++ {
		cols, vals := w.Row(r)
		vals = vals[:len(cols)] // one length for both: no bounds check on vals[i]
		zrow := z.Data[r*nc : r*nc+nc]
		var xs [4][]float32
		var vs [4]float32
		n := 0
		for i, c := range cols {
			if zero[c] {
				continue
			}
			xs[n], vs[n] = xd[int(c)*nc:int(c)*nc+nc], vals[i]
			n++
			if n == 4 {
				mulAdd4(zrow, xs[0], xs[1], xs[2], xs[3], vs[0], vs[1], vs[2], vs[3])
				live += 4
				n = 0
			}
		}
		for k := 0; k < n; k++ {
			mulAdd1(zrow, xs[k], vs[k])
		}
		live += int64(n)
	}
	return z, live * int64(nc)
}

// ReLUBiasClamp applies x = min(clamp, max(0, x + bias)) elementwise in
// place (the Graph Challenge activation: bias, ReLU, threshold at 32). A
// clamp of 0 or below disables clamping. Returns the element-op count.
//
// The result is exactly the branchy form's — if v < 0 then 0, else if
// v > clamp then clamp, else v — with -0 and NaN payloads passed through,
// but it is selected on the float's bits rather than branched to: the sign
// of a freshly multiplied element plus bias is close to a coin flip, so the
// branch mispredicted about every other element, and the compiler turns an
// integer select into CMOV (BenchmarkReLUBiasClamp at batch 1042, copy
// subtracted: 5.7 ns an element branched, 1.8 selected). The builtin min
// and max are not used: they canonicalise NaN and order -0 below +0, so
// they differ in the bits.
func ReLUBiasClamp(d *Dense, bias, clamp float32) int64 {
	if !(clamp > 0) {
		clamp = float32(math.Inf(1)) // no v exceeds it: clamping is off
	}
	cb := math.Float32bits(clamp)
	data := d.Data
	for i, v := range data {
		v += bias
		u := math.Float32bits(v)
		if v < 0 {
			u = 0
		}
		if v > clamp {
			u = cb
		}
		data[i] = math.Float32frombits(u)
	}
	return int64(len(data))
}
