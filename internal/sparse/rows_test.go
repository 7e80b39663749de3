package sparse

import (
	"fmt"
	"math"
	"math/rand"
	"testing"
	"testing/quick"
)

// rowsCase is a random weight block with empty rows, a random column
// ownership, and an activation row table batch wide in which each row is
// absent with probability pNil (1 makes the table all-nil).
func rowsCase(rng *rand.Rand, batch int, pNil float64) (w *CSR, owner []int32, table [][]float32) {
	rows, cols := 1+rng.Intn(16), 1+rng.Intn(24)
	var tr []Triplet
	for r := 0; r < rows; r++ {
		if rng.Intn(4) == 0 {
			continue // an empty row
		}
		for c := 0; c < cols; c++ {
			if rng.Float64() < 0.4 {
				tr = append(tr, Triplet{int32(r), int32(c), float32(rng.NormFloat64())})
			}
		}
	}
	w, _ = NewCSR(rows, cols, tr)
	owner = make([]int32, cols)
	table = make([][]float32, cols)
	for c := range table {
		owner[c] = int32(rng.Intn(3))
		if rng.Float64() < pNil {
			continue
		}
		table[c] = make([]float32, batch)
		for j := range table[c] {
			table[c][j] = float32(rng.NormFloat64())
		}
	}
	return w, owner, table
}

// randomDense returns a rows x cols matrix of random values: the kernels
// accumulate into z, so the tests start from a z that is not zero.
func randomDense(rng *rand.Rand, rows, cols int) *Dense {
	d := NewDense(rows, cols)
	for i := range d.Data {
		d.Data[i] = float32(rng.NormFloat64())
	}
	return d
}

// sameBits reports whether a and b hold bit-identical values.
func sameBits(a, b *Dense) bool {
	if a.Rows != b.Rows || a.Cols != b.Cols {
		return false
	}
	for i := range a.Data {
		if math.Float32bits(a.Data[i]) != math.Float32bits(b.Data[i]) {
			return false
		}
	}
	return true
}

// only returns the table restricted to the columns whose owner is (mine) or
// is not (!mine) id — the closure-form reference's two lookups.
func only(table [][]float32, owner []int32, id int32, mine bool) RowLookup {
	return func(c int32) []float32 {
		if (owner[c] == id) != mine {
			return nil
		}
		return table[c]
	}
}

// rowsWidths are the batch widths the tile ladder (8, then 4, then 1) has
// to get right: below a tile, exactly one, one plus a remainder, several.
var rowsWidths = []int{1, 3, 4, 5, 8, 12, 13, 64}

// TestMulRowsMatchesGatherProperty holds the table kernel to the
// closure-form reference: every element equal by Float32bits and the same
// MAC count, over every tile shape, random nil patterns, empty rows and
// all-nil tables.
func TestMulRowsMatchesGatherProperty(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		for _, batch := range rowsWidths {
			for _, pNil := range []float64{0, 0.3, 1} {
				w, _, table := rowsCase(rng, batch, pNil)
				want := randomDense(rng, w.Rows, batch)
				got := want.Clone()
				wantMACs := MulGatherInto(w, func(c int32) []float32 { return table[c] }, want)
				gotMACs := MulRowsInto(w, table, got)
				if gotMACs != wantMACs || !sameBits(got, want) {
					t.Logf("seed %d batch %d pNil %v: macs %d, want %d", seed, batch, pNil, gotMACs, wantMACs)
					return false
				}
				if pNil == 1 && gotMACs != 0 {
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Fatal(err)
	}
}

// TestMulRowsSplitMatchesWholeBlockProperty is the engine's use of the
// kernel against what it replaced: the own half then the other half of a
// split block over one row table, against two closure passes over the whole
// block, the first seeing only the owned rows and the second only the rest
// (Algorithm 1 line 8, then lines 16-17). Bits and both MAC counts agree.
func TestMulRowsSplitMatchesWholeBlockProperty(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		for _, batch := range rowsWidths {
			w, owner, table := rowsCase(rng, batch, 0.3)
			id := int32(rng.Intn(3))
			own, other := w.SplitCols(owner, id)
			want := NewDense(w.Rows, batch)
			got := NewDense(w.Rows, batch)
			wantOwn := MulGatherInto(w, only(table, owner, id, true), want)
			wantOther := MulGatherInto(w, only(table, owner, id, false), want)
			gotOwn := MulRowsInto(own, table, got)
			gotOther := MulRowsInto(other, table, got)
			if gotOwn != wantOwn || gotOther != wantOther || !sameBits(got, want) {
				t.Logf("seed %d batch %d: macs %d+%d, want %d+%d", seed, batch, gotOwn, gotOther, wantOwn, wantOther)
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Fatal(err)
	}
}

// TestMulRowsRejectsShortRow: an activation row narrower than z is a
// programmer error caught by whichever tile first reads past it.
func TestMulRowsRejectsShortRow(t *testing.T) {
	w, _ := NewCSR(1, 2, []Triplet{{0, 1, 1}})
	for _, width := range []int{12, 9, 5} { // under a 13-wide z: short of the 1-, the 4- and the 8-tile
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("a %d-wide activation row under a 13-wide z did not panic", width)
				}
			}()
			MulRowsInto(w, [][]float32{nil, make([]float32, width)}, NewDense(1, 13))
		}()
	}
}

// TestSplitColsProperty: the two halves are the block — same shape, every
// row's entries partitioned by ownership with their order kept, RowPtr
// exact — and are built at exact size.
func TestSplitColsProperty(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		w, owner, _ := rowsCase(rng, 1, 0)
		id := int32(rng.Intn(3))
		in, out := w.SplitCols(owner, id)
		for _, h := range []*CSR{in, out} {
			if h.Rows != w.Rows || h.Cols != w.Cols || len(h.RowPtr) != w.Rows+1 || h.RowPtr[0] != 0 ||
				int(h.RowPtr[w.Rows]) != h.NNZ() || len(h.ColIdx) != len(h.Val) ||
				cap(h.ColIdx) != len(h.ColIdx) || cap(h.Val) != len(h.Val) {
				return false
			}
		}
		if in.NNZ()+out.NNZ() != w.NNZ() {
			return false
		}
		for r := 0; r < w.Rows; r++ {
			cols, vals := w.Row(r)
			inCols, inVals := in.Row(r)
			outCols, outVals := out.Row(r)
			i, o := 0, 0
			for k, c := range cols {
				if owner[c] == id {
					if i >= len(inCols) || inCols[i] != c || inVals[i] != vals[k] {
						return false
					}
					i++
				} else {
					if o >= len(outCols) || outCols[o] != c || outVals[o] != vals[k] {
						return false
					}
					o++
				}
			}
			if i != len(inCols) || o != len(outCols) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

// benchBlock is a worker's weight block at P=2: N rows of nnzPerRow random
// columns, and a row table in which the worker owns the even columns.
func benchBlock(n, nnzPerRow, batch int) (w *CSR, owner []int32, table [][]float32) {
	rng := rand.New(rand.NewSource(1))
	var ents []Triplet
	for r := 0; r < n; r++ {
		for _, c := range rng.Perm(n)[:nnzPerRow] {
			ents = append(ents, Triplet{int32(r), int32(c), rng.Float32() - 0.5})
		}
	}
	w, err := NewCSR(n, n, ents)
	if err != nil {
		panic(err)
	}
	owner = make([]int32, n)
	table = make([][]float32, n)
	for c := range table {
		owner[c] = int32(c % 2)
		row := make([]float32, batch)
		for j := range row {
			row[j] = rng.Float32()
		}
		table[c] = row
	}
	return w, owner, table
}

// BenchmarkMulRows is the developer microbenchmark behind the GMAC/s table
// in the package comment: the FSI kernel on a worker's own block (every
// column present) and on its received block (a fifth of the rows absent, as
// after ReLU), against the closure-form reference making one of the two
// whole-block passes the engine used to make, half the columns absent.
//
//	go test ./internal/sparse -run '^$' -bench MulRows -cpu 1
func BenchmarkMulRows(b *testing.B) {
	const n, nnzPerRow = 1024, 32
	for _, batch := range []int{4, 8, 64, 256} {
		w, owner, table := benchBlock(n, nnzPerRow, batch)
		own, other := w.SplitCols(owner, 0)
		ownOnly := make([][]float32, n)
		received := make([][]float32, n)
		for c, row := range table {
			if owner[c] == 0 {
				ownOnly[c] = row
			} else if c%10 != 1 {
				received[c] = row
			}
		}
		z := NewDense(n, batch)
		run := func(name string, kernel func() int64) {
			b.Run(fmt.Sprintf("batch=%d/%s", batch, name), func(b *testing.B) {
				var macs int64
				for i := 0; i < b.N; i++ {
					macs += kernel()
				}
				b.ReportMetric(float64(macs)/b.Elapsed().Seconds()/1e9, "GMAC/s")
			})
		}
		run("gather-whole", func() int64 {
			return MulGatherInto(w, func(c int32) []float32 { return ownOnly[c] }, z)
		})
		run("rows-own", func() int64 { return MulRowsInto(own, ownOnly, z) })
		run("rows-received", func() int64 { return MulRowsInto(other, received, z) })
	}
}
