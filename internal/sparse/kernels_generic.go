//go:build !amd64

package sparse

// The portable kernels: the Go loops the amd64 assembly replaces, for every
// other GOARCH. They add in the same order (see "Accumulation order" in the
// package comment); whether a GOARCH's compiler fuses a multiply and an add
// is that compiler's choice.

// mulRows is MulRowsInto's kernel: register tiles of 8, then 4, then 1
// columns.
func mulRows(w *CSR, x [][]float32, z *Dense) int64 {
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

// mulAdd4 adds v0*x0 + v1*x1 + v2*x2 + v3*x3 into z, one product at a time
// in that order: each element is loaded once and stored once, and its four
// adds are the four the one-at-a-time loop would make. Every x is len(z).
// It is kept out of line: inlined into Mul, the loop ran short of registers
// and spilled its index to the stack on every element.
//
//go:noinline
func mulAdd4(z, x0, x1, x2, x3 []float32, v0, v1, v2, v3 float32) {
	// Reslice so the compiler can prove every slice shares z's length and
	// drop the per-element bounds checks.
	x0, x1, x2, x3 = x0[:len(z)], x1[:len(z)], x2[:len(z)], x3[:len(z)]
	for j := range z {
		a := z[j]
		a += v0 * x0[j]
		a += v1 * x1[j]
		a += v2 * x2[j]
		a += v3 * x3[j]
		z[j] = a
	}
}

// mulAdd1 adds v*x into z. x is len(z).
func mulAdd1(z, x []float32, v float32) {
	x = x[:len(z)]
	for j := range z {
		z[j] += v * x[j]
	}
}
