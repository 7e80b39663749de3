package core

import (
	"bytes"
	"math"
	"math/rand"
	"runtime"
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
// flags as the set built by Add — and no room for more: a zero row costs it
// nothing.
func TestDenseToRowSetMatchesAddedRows(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		d := zeroRowsDense(rng, 1+rng.Intn(30), 1+rng.Intn(9), int(uint64(seed)%3))
		got, want := denseToRowSet(d), addedRows(d, true)
		if got.Batch != want.Batch || len(got.IDs) != len(want.IDs) || !sameBits(got.Vals, want.Vals) {
			t.Fatalf("seed %d: %d rows of batch %d, want %d of %d", seed, got.Len(), got.Batch, want.Len(), want.Batch)
		}
		if cap(got.Vals) != len(got.Vals) {
			t.Fatalf("seed %d: %d values in room for %d: not sized to the non-zero rows", seed, len(got.Vals), cap(got.Vals))
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
// nothing else, and what it returns is its own — the matrix holds the same
// bits after a first and after a second run of it on one deployment, no
// Result.Output is cut from the input's array (not even for a model without
// layers, whose output equals its input) or from the other run's output, and
// the two runs agree bit for bit.
func TestSerialRunLeavesInputUntouched(t *testing.T) {
	m, err := model.Generate(model.GraphChallengeSpec(64, 3, 1))
	if err != nil {
		t.Fatal(err)
	}
	for _, mdl := range []*model.Model{m, {Spec: m.Spec}} {
		for _, compress := range []bool{false, true} {
			d := serialDeployment(t, mdl, compress)
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
			if sharesBacking(outs[0].Data, outs[1].Data) {
				t.Fatalf("layers=%d compress=%v: two runs on one input returned one array", len(mdl.Layers), compress)
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

// TestFinishedRunLeavesTheBucket: a run's staged input and stored result are
// gone from the model store once the run is done, so a deployment that has
// served fifty runs holds what it held after Deploy — the model.
func TestFinishedRunLeavesTheBucket(t *testing.T) {
	for _, kind := range []ChannelKind{Serial, Queue} {
		d, m, _ := testSetup(t, 64, 2, 2, kind, nil)
		deployed := d.store.NumObjects()
		for run := 1; run <= 50; run++ {
			input := model.GenerateInputs(64, 2, 0.3, int64(run))
			res, err := d.Infer(input)
			if err != nil {
				t.Fatal(err)
			}
			if run == 1 || run == 50 {
				checkCorrect(t, m, input, res)
				if n := d.store.NumObjects(); n != deployed {
					t.Fatalf("%v: %d objects in the store after run %d, %d after Deploy", kind, n, run, deployed)
				}
			}
		}
	}
}

// TestSerialRunBytesMoved is the Serial path's allocation budget: one run of
// a 64 x 4096 batch, uncompressed, from Start to done may allocate so many
// times the batch's own bytes (1 MiB) and no more, so a batch-sized copy that
// comes back fails here and not in a benchmark three changes later. With two
// layers four batch-sized buffers are the work itself — the input frame, z of
// each layer, the result frame — and a fifth is the copy the billed Put
// keeps: 5.03 batches measured (the remainder is the kernel, the FaaS runtime
// and the JSON payloads). It was 9.04 while the input was cloned, copied into
// a row set before framing and copied again by Stage, and the result copied
// into a row set of all N rows. Every output row of this input is non-zero;
// an output with zero rows would add a row set of the others, under one
// batch. The budget leaves a tenth of headroom. TotalAlloc counts the whole
// process and one run is taken as it reads: 33 of 33 runs read 5.03 or 5.04,
// alone, inside the package's whole suite and under the race detector. The
// test must still not run in parallel with others, which would allocate
// during it.
func TestSerialRunBytesMoved(t *testing.T) {
	const neurons, batch, budget = 64, 4096, 5.5
	m, err := model.Generate(model.GraphChallengeSpec(neurons, 2, 1))
	if err != nil {
		t.Fatal(err)
	}
	d := serialDeployment(t, m, false)
	input := model.GenerateInputs(neurons, batch, 0.2, 77)
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	res, err := d.Infer(input)
	runtime.ReadMemStats(&after)
	if err != nil {
		t.Fatal(err)
	}
	checkCorrect(t, m, input, res)
	moved := float64(after.TotalAlloc-before.TotalAlloc) / float64(input.Bytes())
	t.Logf("one Serial run allocated %.2f x the batch's %d bytes", moved, input.Bytes())
	if moved > budget {
		t.Fatalf("one Serial run allocated %.2f x its batch's bytes, budget %.1f: a batch-sized copy is back", moved, budget)
	}
}
