package sparse

// The amd64 kernels are packed SSE assembly (kernels_amd64.s; see "The
// kernels on amd64" in the package comment). The Go wrappers below make
// the checks the Go slicing made, so the assembly reads and writes only
// inside its slices.

// mulRows is MulRowsInto's kernel: register tiles of 32, 16, 8 and 4
// columns, then one column at a time, every row walked in one call.
func mulRows(w *CSR, x [][]float32, z *Dense) int64 {
	nc := z.Cols
	zd := z.Data[:w.Rows*nc]
	rowPtr := w.RowPtr[:w.Rows+1]
	nnz := min(len(w.ColIdx), len(w.Val))
	if rowPtr[0] < 0 || int(rowPtr[w.Rows]) > nnz {
		mulRowsFault(w, x, nc)
	}
	macs, ok := mulRowsSSE(rowPtr, w.ColIdx, w.Val, x, zd, nc)
	if !ok {
		mulRowsFault(w, x, nc)
	}
	return macs
}

// mulRowsFault is called when the assembly refused its input — a row's
// entries out of order in RowPtr, a column id outside x, or an activation
// row narrower than z — and raises the panic Go's slicing raises for it.
func mulRowsFault(w *CSR, x [][]float32, nc int) {
	for r := 0; r < w.Rows; r++ {
		cols, _ := w.Row(r)
		for _, c := range cols {
			if xr := x[c]; xr != nil && nc > 0 {
				_ = xr[nc-1]
			}
		}
	}
	panic("sparse: MulRowsInto: the kernel refused an input Go accepts")
}

// mulAdd4 adds v0*x0 + v1*x1 + v2*x2 + v3*x3 into z, one product at a time
// in that order: each element is loaded once and stored once, and its four
// adds are the four the one-at-a-time loop would make. Every x is len(z).
func mulAdd4(z, x0, x1, x2, x3 []float32, v0, v1, v2, v3 float32) {
	n := len(z)
	mulAdd4SSE(z, x0[:n], x1[:n], x2[:n], x3[:n], v0, v1, v2, v3)
}

// mulAdd1 adds v*x into z. x is len(z).
func mulAdd1(z, x []float32, v float32) {
	mulAdd1SSE(z, x[:len(z)], v)
}

// mulRowsSSE walks len(rowPtr)-1 rows of z (nc wide, row-major) and adds
// val[i]*x[colIdx[i]][j] into z[r][j] for each entry i of row r whose
// activation row is not nil. It returns the multiply-add count, and ok
// false, having stopped, when rowPtr decreases, a column id is outside x or
// an activation row is shorter than nc. rowPtr[0] >= 0 and the last entry
// is at most len(colIdx) and len(val).
//
//go:noescape
func mulRowsSSE(rowPtr, colIdx []int32, val []float32, x [][]float32, z []float32, nc int) (macs int64, ok bool)

// mulAdd4SSE is mulAdd4 with every x at least len(z) long.
//
//go:noescape
func mulAdd4SSE(z, x0, x1, x2, x3 []float32, v0, v1, v2, v3 float32)

// mulAdd1SSE is mulAdd1 with x at least len(z) long.
//
//go:noescape
func mulAdd1SSE(z, x []float32, v float32)
