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
// absent with probability pNil (1 makes the table all-nil). One block in
// eight is wide enough that its rows hold more entries than the amd64
// kernel compacts at a time (128).
func rowsCase(rng *rand.Rand, batch int, pNil float64) (w *CSR, owner []int32, table [][]float32) {
	rows, cols := 1+rng.Intn(16), 1+rng.Intn(24)
	if rng.Intn(8) == 0 {
		rows, cols = 1+rng.Intn(4), 330+rng.Intn(330)
	}
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

// rowsWidths are the batch widths the tile ladder (32, 16, 8, 4, then one
// column at a time) has to get right: every width to 9, then widths that
// take each combination of tiles, each with and without a remainder.
var rowsWidths = []int{1, 2, 3, 4, 5, 6, 7, 8, 9, 12, 13, 15, 16, 17, 31, 32, 33, 48, 63, 64, 65, 100}

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

// TestMulRowsRejectsShortRow: an activation row narrower than z, and a
// column id outside the row table, are programmer errors that panic rather
// than read past the table or the row.
func TestMulRowsRejectsShortRow(t *testing.T) {
	mustPanic := func(what string, w *CSR, x [][]float32, nc int) {
		t.Helper()
		defer func() {
			if recover() == nil {
				t.Errorf("%s did not panic", what)
			}
		}()
		MulRowsInto(w, x, NewDense(w.Rows, nc))
	}
	w, _ := NewCSR(1, 2, []Triplet{{0, 1, 1}})
	// A 63-wide z takes a tile of 32, 16, 8 and 4 columns and a 3-column
	// tail; a 59-wide one the same but the 4-column tile, which the amd64
	// kernel checks on a path of its own. Each width is one element short
	// of one of them.
	for _, tc := range []struct{ nc, width int }{
		{63, 31}, {63, 47}, {63, 55}, {63, 59}, {63, 62},
		{59, 31}, {59, 47}, {59, 55}, {59, 58},
	} {
		mustPanic(fmt.Sprintf("a %d-wide activation row under a %d-wide z", tc.width, tc.nc), w, [][]float32{nil, make([]float32, tc.width)}, tc.nc)
	}
	for _, nc := range []int{1, 4, 63} {
		for rows := 0; rows <= 1; rows++ { // the id 1 past the table's end, then at it
			x := make([][]float32, rows)
			for c := range x {
				x[c] = make([]float32, nc)
			}
			mustPanic(fmt.Sprintf("column id 1 in a %d-row table at width %d", len(x), nc), w, x, nc)
		}
	}
	wide, _ := NewCSR(1, 41, []Triplet{{0, 0, 1}, {0, 40, 1}})
	mustPanic("column id 40 in a 3-row table", wide, [][]float32{make([]float32, 8), nil, nil}, 8)
}

// FuzzMulRowsInto holds the kernel to the closure-form reference on random
// shapes, nil rows, rows shorter and longer than z and column ids past the
// end of the table: it panics exactly when a present row is narrower than
// z or an id is outside the table (at a width above zero), and otherwise
// matches MulGatherInto by Float32bits with the same MAC count.
func FuzzMulRowsInto(f *testing.F) {
	for _, width := range []uint8{0, 1, 4, 13, 33, 64, 100} {
		f.Add(int64(width), width, uint8(0), uint8(0))
	}
	f.Add(int64(7), uint8(63), uint8(5), uint8(2))
	f.Add(int64(8), uint8(16), uint8(0), uint8(9))
	f.Fuzz(func(t *testing.T, seed int64, width, cut, reshape uint8) {
		rng := rand.New(rand.NewSource(seed))
		batch := int(width % 101)
		w, _, table := rowsCase(rng, batch, 0.3)
		table = table[:len(table)-int(cut)%(len(table)+1)] // ids past the end
		for k := 0; k < int(reshape%8); k++ {
			c := rng.Intn(len(table) + 1)
			if c == len(table) || table[c] == nil {
				continue
			}
			n := batch + 1 + rng.Intn(4) // longer: the kernel reads the first batch
			if reshape&8 != 0 && batch > 0 {
				n = rng.Intn(batch) // shorter
			}
			row := make([]float32, n) // cap n: nothing past the row is addressable
			copy(row, table[c])
			table[c] = row
		}
		bad := false
		for _, c := range w.ColIdx {
			if batch > 0 && (int(c) >= len(table) || table[c] != nil && len(table[c]) < batch) {
				bad = true
			}
		}
		want := randomDense(rng, w.Rows, batch)
		got := want.Clone()
		var gotMACs int64
		panicked := func() (p bool) {
			defer func() { p = recover() != nil }()
			gotMACs = MulRowsInto(w, table, got)
			return false
		}()
		if panicked != bad {
			t.Fatalf("width %d, %d-row table: panicked %v, want %v", batch, len(table), panicked, bad)
		}
		if bad {
			return
		}
		wantMACs := MulGatherInto(w, func(c int32) []float32 {
			if int(c) >= len(table) || table[c] == nil {
				return nil // an id past the table is only accepted at width 0
			}
			return table[c][:batch]
		}, want)
		if gotMACs != wantMACs || !sameBits(got, want) {
			t.Fatalf("width %d: macs %d, want %d (or the bits differ)", batch, gotMACs, wantMACs)
		}
	})
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
	for _, batch := range []int{4, 8, 16, 32, 64, 256} {
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
