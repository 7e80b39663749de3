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
//     batches of hundreds to thousands of columns. A streaming loop: for
//     each stored weight, z[r][:] += v * x[c][:] across the whole batch.
//   - MulRowsInto, the FSI worker (Algorithm 1 line 8 and lines 16-17): x is
//     a table of row slices indexed by global column id, batches of 4 to 64
//     columns. It keeps a tile of 8, 4 or 1 elements of z in registers while
//     it walks the weight row, so z is loaded and stored once per tile
//     rather than once per product, and nothing is called per nonzero.
//   - MulGatherInto, the closure form of the same product, is the reference
//     MulRowsInto is tested against (math.Float32bits on every element,
//     equal MAC counts) and what the benchmark's sparse probe times; the
//     engine no longer calls it.
//
// BenchmarkMulRows (N=1024, 32 stored weights a row, -cpu 1, GMAC/s, the
// range of best-of-five runs on a shared 2-vCPU Xeon @ 2.1 GHz): what one of
// the engine's former two passes saw, MulGatherInto over a whole P=2 block
// with half the columns absent, against MulRowsInto over the block's own
// half (every column present) and its received half (a tenth absent):
//
//	batch   MulGatherInto, whole   MulRowsInto, own   MulRowsInto, received
//	    4        0.13                 0.9 - 1.1           0.6 - 1.3
//	    8        0.23 - 0.29          1.2 - 1.6           0.9 - 1.3
//	   64        0.57 - 0.84          1.3 - 1.9           0.9 - 1.2
//	  256        1.1  - 1.3           1.9 - 2.1           1.1 - 1.9
//
// Mul is deliberately not tiled. At the Serial engine's batch of 4096 an
// activation row is 16 KB, so the 32 rows one weight row multiplies all map
// to the same L1 sets: walked tile by tile they evict each other (the tiled
// kernel at batch 4096 measured 1.1 GMAC/s against the streaming loop's
// 1.5 - 1.7), while the streaming loop reads each of them once, end to end.
//
// Nor is it blocked into column panels. Walking the batch in panels of 256,
// 512 or 1024 columns (1 to 4 KB of a row at a time, the whole weight
// matrix once per panel) keeps the panel's slices of x and z in L1/L2, but
// it gives up the one long sequential stream per product for many short
// ones: at N=64, 16 stored weights a row, batch 4096, -cpu 1, the streaming
// loop took 2.0 - 2.1 ms a multiply and the panels 3.2 - 4.2 ms at every
// width, results equal bit for bit. The Serial engine's host time was in the
// batch-sized copies around Mul, not in it.
package sparse

import (
	"fmt"
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

// ColNNZ returns, for each column, the number of stored entries. Used by the
// partitioner to weigh communication nets.
func (m *CSR) ColNNZ() []int32 {
	counts := make([]int32, m.Cols)
	for _, c := range m.ColIdx {
		counts[c]++
	}
	return counts
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
// in register tiles of 8, then 4, then 1 columns: a tile of z is loaded
// once, every present nonzero of the weight row is accumulated into it in
// registers (a += v*x[c][j], columns ascending — the order MulGatherInto
// adds them in, so the results are bit-identical), and it is stored once,
// with one bounds check per nonzero and tile. Returns the multiply-add
// count, as MulGatherInto does.
func MulRowsInto(w *CSR, x [][]float32, z *Dense) int64 {
	if z.Rows != w.Rows {
		panic(fmt.Sprintf("sparse: z has %d rows, want %d", z.Rows, w.Rows))
	}
	nc := z.Cols
	var macs int64
	for r := 0; r < w.Rows; r++ {
		cols, vals := w.Row(r)
		vals = vals[:len(cols)] // one length for both: no bounds check on vals[i]
		zrow := z.Data[r*nc : r*nc+nc]
		j := 0
		for ; j+8 <= nc; j += 8 {
			zt := zrow[j : j+8 : j+8]
			a0, a1, a2, a3, a4, a5, a6, a7 := zt[0], zt[1], zt[2], zt[3], zt[4], zt[5], zt[6], zt[7]
			for i, c := range cols {
				xr := x[c]
				if xr == nil {
					continue
				}
				xt := xr[j : j+8 : j+8]
				v := vals[i]
				macs += 8
				a0 += v * xt[0]
				a1 += v * xt[1]
				a2 += v * xt[2]
				a3 += v * xt[3]
				a4 += v * xt[4]
				a5 += v * xt[5]
				a6 += v * xt[6]
				a7 += v * xt[7]
			}
			zt[0], zt[1], zt[2], zt[3], zt[4], zt[5], zt[6], zt[7] = a0, a1, a2, a3, a4, a5, a6, a7
		}
		if j+4 <= nc {
			zt := zrow[j : j+4 : j+4]
			a0, a1, a2, a3 := zt[0], zt[1], zt[2], zt[3]
			for i, c := range cols {
				xr := x[c]
				if xr == nil {
					continue
				}
				xt := xr[j : j+4 : j+4]
				v := vals[i]
				macs += 4
				a0 += v * xt[0]
				a1 += v * xt[1]
				a2 += v * xt[2]
				a3 += v * xt[3]
			}
			zt[0], zt[1], zt[2], zt[3] = a0, a1, a2, a3
			j += 4
		}
		for ; j < nc; j++ {
			a := zrow[j]
			for i, c := range cols {
				if xr := x[c]; xr != nil {
					a += vals[i] * xr[j]
					macs++
				}
			}
			zrow[j] = a
		}
	}
	return macs
}

// Mul computes z = W · x for a full-width dense activation matrix
// (x.Rows == W.Cols), the serial/baseline path. Zero activation rows are
// skipped and not charged, as in sparse execution. Returns z and the
// multiply-add count.
func Mul(w *CSR, x *Dense) (*Dense, int64) {
	if x.Rows != w.Cols {
		panic(fmt.Sprintf("sparse: x has %d rows, want %d", x.Rows, w.Cols))
	}
	zero := make([]bool, x.Rows)
	for r := 0; r < x.Rows; r++ {
		zero[r] = x.RowIsZero(r)
	}
	z := NewDense(w.Rows, x.Cols)
	var macs int64
	nc := x.Cols
	xd := x.Data
	for r := 0; r < w.Rows; r++ {
		cols, vals := w.Row(r)
		zrow := z.Row(r)
		for i, c := range cols {
			if zero[c] {
				continue
			}
			v := vals[i]
			xrow := xd[int(c)*nc : int(c)*nc+nc]
			// Reslice so the compiler can prove zr and xrow share a
			// length and drop the per-element bounds checks; the
			// accumulation order per output element is unchanged.
			zr := zrow[:len(xrow)]
			for j, xv := range xrow {
				zr[j] += v * xv
			}
			macs += int64(nc)
		}
	}
	return z, macs
}

// ReLUBiasClamp applies x = min(clamp, max(0, x + bias)) elementwise in
// place (the Graph Challenge activation: bias, ReLU, threshold at 32). A
// clamp of 0 or below disables clamping. Returns the element-op count.
func ReLUBiasClamp(d *Dense, bias, clamp float32) int64 {
	if clamp > 0 {
		for i, v := range d.Data {
			v += bias
			if v < 0 {
				v = 0
			} else if v > clamp {
				v = clamp
			}
			d.Data[i] = v
		}
		return int64(len(d.Data))
	}
	for i, v := range d.Data {
		v += bias
		if v < 0 {
			v = 0
		}
		d.Data[i] = v
	}
	return int64(len(d.Data))
}

// AccumulateRow adds src into row r of d.
func (d *Dense) AccumulateRow(r int, src []float32) {
	row := d.Row(r)
	for i, v := range src {
		row[i] += v
	}
}
