package core

import (
	"bytes"
	"math"
	"math/rand"
	"testing"
	"testing/quick"

	"fsdinference/internal/cloud/env"
	"fsdinference/internal/model"
	"fsdinference/internal/sparse"
	"fsdinference/internal/wire"
)

// addedRows is the row set built the long way — one Add, so one copy, per
// row — that the staged input frame and denseToRowSet must equal bit for
// bit however they are built.
func addedRows(d *sparse.Dense, skipZero bool) *wire.RowSet {
	rs := wire.NewRowSet(d.Cols)
	for r := 0; r < d.Rows; r++ {
		if skipZero && d.RowIsZero(r) {
			continue
		}
		rs.Add(int32(r), d.Row(r))
	}
	return rs
}

// zeroRowsDense draws a rows x cols matrix in which no row, some rows or
// every row is all zero (mode 0, 1, 2).
func zeroRowsDense(rng *rand.Rand, rows, cols, mode int) *sparse.Dense {
	d := sparse.NewDense(rows, cols)
	for r := 0; r < rows; r++ {
		if mode == 2 || mode == 1 && rng.Intn(2) == 0 {
			continue
		}
		row := d.Row(r)
		for j := range row {
			if rng.Intn(3) == 0 {
				row[j] = float32(rng.NormFloat64())
			}
		}
		row[rng.Intn(cols)] = 1 // not a zero row, whatever was drawn
	}
	return d
}

func sameBits(a, b []float32) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if math.Float32bits(a[i]) != math.Float32bits(b[i]) {
			return false
		}
	}
	return true
}

// sharesBacking reports whether two slices were cut from one array: their
// full-capacity extents then end at the same element.
func sharesBacking(a, b []float32) bool {
	if cap(a) == 0 || cap(b) == 0 {
		return false
	}
	return &a[:cap(a)][cap(a)-1] == &b[:cap(b)][cap(b)-1]
}

func frame(t testing.TB, rs *wire.RowSet, compress bool) []byte {
	t.Helper()
	p, err := wire.Encode(rs, compress)
	if err != nil {
		t.Fatal(err)
	}
	return p
}

func serialDeployment(t testing.TB, m *model.Model, compress bool) *Deployment {
	t.Helper()
	d, err := Deploy(env.NewDefault(), Config{Model: m, Channel: Serial, Compress: compress})
	if err != nil {
		t.Fatal(err)
	}
	return d
}

// TestStagedInputFrameMatchesAddedRows: the Serial engine's staged input —
// the object a run's input/<run>/full.x holds — is the frame of all N rows
// added one by one, zero rows included, under both compress flags.
func TestStagedInputFrameMatchesAddedRows(t *testing.T) {
	m, err := model.Generate(model.GraphChallengeSpec(64, 2, 1))
	if err != nil {
		t.Fatal(err)
	}
	for _, compress := range []bool{false, true} {
		d := serialDeployment(t, m, compress)
		f := func(seed int64) bool {
			rng := rand.New(rand.NewSource(seed))
			input := zeroRowsDense(rng, 64, 1+rng.Intn(9), int(uint64(seed)%3))
			blobs, err := d.encodedInput(input, input.Cols)
			if err != nil {
				t.Fatal(err)
			}
			if len(blobs) != 1 || !bytes.Equal(blobs[0], frame(t, addedRows(input, false), compress)) {
				t.Fatalf("seed %d compress=%v: staged input differs from the frame of its rows", seed, compress)
			}
			return true
		}
		if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
			t.Fatal(err)
		}
	}
}

// TestDenseToRowSetMatchesAddedRows: the result row set holds the non-zero
// rows of the matrix — same ids, same value bits, same frame under both
// flags as the set built by Add.
func TestDenseToRowSetMatchesAddedRows(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		d := zeroRowsDense(rng, 1+rng.Intn(30), 1+rng.Intn(9), int(uint64(seed)%3))
		got, want := denseToRowSet(d), addedRows(d, true)
		if got.Batch != want.Batch || len(got.IDs) != len(want.IDs) || !sameBits(got.Vals, want.Vals) {
			t.Fatalf("seed %d: %d rows of batch %d, want %d of %d", seed, got.Len(), got.Batch, want.Len(), want.Batch)
		}
		for i, id := range want.IDs {
			if got.IDs[i] != id {
				t.Fatalf("seed %d: row %d has id %d, want %d", seed, i, got.IDs[i], id)
			}
		}
		for _, compress := range []bool{false, true} {
			if !bytes.Equal(frame(t, got, compress), frame(t, want, compress)) {
				t.Fatalf("seed %d compress=%v: frames differ", seed, compress)
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 150}); err != nil {
		t.Fatal(err)
	}
}

// TestSerialRunLeavesInputUntouched: a Serial run reads its input and
// nothing else — the matrix holds the same bits after a memo-cold run and
// after a memo hit, no Result.Output is cut from the input's array (not even
// for a model without layers, whose output equals its input), and two runs
// on one input agree bit for bit.
func TestSerialRunLeavesInputUntouched(t *testing.T) {
	m, err := model.Generate(model.GraphChallengeSpec(64, 3, 1))
	if err != nil {
		t.Fatal(err)
	}
	for _, mdl := range []*model.Model{m, {Spec: m.Spec}} {
		for _, compress := range []bool{false, true} {
			d := serialDeployment(t, mdl, compress)
			// A fresh matrix per deployment: the first run is a memo miss.
			input := model.GenerateInputs(64, 16, 0.2, 9)
			input.Data = append(input.Data, 7)[:len(input.Data)] // spare capacity a careless view could grow into
			before := append([]float32(nil), input.Data[:cap(input.Data)]...)
			var outs []*sparse.Dense
			for run := 0; run < 2; run++ {
				res, err := d.Infer(input)
				if err != nil {
					t.Fatal(err)
				}
				if !sameBits(input.Data[:cap(input.Data)], before) {
					t.Fatalf("layers=%d compress=%v run %d: the run wrote to its input", len(mdl.Layers), compress, run)
				}
				if sharesBacking(res.Output.Data, input.Data) {
					t.Fatalf("layers=%d compress=%v run %d: Result.Output is cut from the input's array", len(mdl.Layers), compress, run)
				}
				outs = append(outs, res.Output)
			}
			if !sameBits(outs[0].Data, outs[1].Data) {
				t.Fatalf("layers=%d compress=%v: two runs on one input disagree", len(mdl.Layers), compress)
			}
			if len(mdl.Layers) > 0 {
				if !model.OutputsClose(outs[0], model.Reference(mdl, input), 1e-2) {
					t.Fatalf("compress=%v: output diverges from reference", compress)
				}
			} else if !sameBits(outs[0].Data, input.Data) {
				t.Fatalf("compress=%v: a model without layers changed its input", compress)
			}
		}
	}
}
