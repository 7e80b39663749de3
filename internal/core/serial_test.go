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
	"fsdinference/internal/partition"
	"fsdinference/internal/sparse"
	"fsdinference/internal/wire"
)

// nonzeroAddedRows is the row set of d's non-zero rows built the long way —
// one Add, so one copy, per row — whose frame resultFrame must equal byte for
// byte however it is written.
func nonzeroAddedRows(d *sparse.Dense) *wire.RowSet {
	rs := wire.NewRowSet(d.Cols)
	for r := 0; r < d.Rows; r++ {
		if !d.RowIsZero(r) {
			rs.Add(int32(r), d.Row(r))
		}
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

// TestStagedInputFrameMatchesAddedRows: each worker's staged input — the
// object input/<run>/w<m>.x holds — is the frame of the rows it owns added
// one by one, zero rows included, under both compress flags: Serial's one
// rank (all N rows) and a Block plan's ranks, whose rows are framed where
// they lie in the matrix, and an HGP plan's, whose rows are copied.
func TestStagedInputFrameMatchesAddedRows(t *testing.T) {
	m, err := model.Generate(model.GraphChallengeSpec(64, 2, 1))
	if err != nil {
		t.Fatal(err)
	}
	plans := map[string]*partition.Plan{"serial": nil}
	for _, scheme := range []partition.Scheme{partition.Block, partition.HGPDNN} {
		if plans[scheme.String()], err = partition.BuildPlan(m, 3, scheme, partition.Options{Seed: 1}); err != nil {
			t.Fatal(err)
		}
	}
	for name, plan := range plans {
		for _, compress := range []bool{false, true} {
			cfg := Config{Model: m, Channel: Serial, Compress: compress}
			if plan != nil {
				cfg.Channel, cfg.Plan = Queue, plan
			}
			d, err := Deploy(env.NewDefault(), cfg)
			if err != nil {
				t.Fatal(err)
			}
			f := func(seed int64) bool {
				rng := rand.New(rand.NewSource(seed))
				input := zeroRowsDense(rng, 64, 1+rng.Intn(9), int(uint64(seed)%3))
				blobs, err := d.encodedInput(input, input.Cols)
				if err != nil {
					t.Fatal(err)
				}
				if len(blobs) != d.Cfg.Workers() {
					t.Fatalf("%s: %d staged inputs for %d workers", name, len(blobs), d.Cfg.Workers())
				}
				for worker, rows := range d.Cfg.Plan.Rows {
					want := wire.NewRowSet(input.Cols)
					for _, r := range rows {
						want.Add(r, input.Row(int(r)))
					}
					if !bytes.Equal(blobs[worker], frame(t, want, compress)) {
						t.Fatalf("%s seed %d compress=%v: worker %d's staged input differs from the frame of its rows", name, seed, compress, worker)
					}
				}
				return true
			}
			if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
				t.Fatal(err)
			}
		}
	}
}

// TestResultFrameMatchesAddedRows: the result object's frame, written from
// the matrix, is the frame of the set of its non-zero rows built by Add, under
// both flags, whether no row, some rows or every row is zero.
func TestResultFrameMatchesAddedRows(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		d := zeroRowsDense(rng, 1+rng.Intn(30), 1+rng.Intn(9), int(uint64(seed)%3))
		want := nonzeroAddedRows(d)
		for _, compress := range []bool{false, true} {
			got, err := resultFrame(d, compress)
			if err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(got, frame(t, want, compress)) {
				t.Fatalf("seed %d compress=%v: %d non-zero rows of %d: the result frame differs from the added set's",
					seed, compress, want.Len(), d.Rows)
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

// TestSerialRunBytesMoved is the Serial path's allocation budget: a run of
// a 64 x 4096 batch, uncompressed, from Start to done may allocate so many
// times the batch's own bytes (1 MiB) and no more, so a batch-sized copy that
// comes back fails here and not in a benchmark three changes later. With two
// layers a fresh deployment's run allocates four batch-sized buffers, the
// work itself: the input frame, z of each layer and the result frame (4.03
// batches measured; the remainder is the kernel, the FaaS runtime and the
// JSON payloads). The bucket keeps the frame Put is handed, so a store copy
// would be a fifth. A second run on the same deployment multiplies its first
// layer into the spare z the first run gave back, so only three are new:
// the input frame and the result frame, the simulated objects, and the last
// layer's z, which the result keeps (3.02 measured). It was 9.04 while the
// input was cloned, copied into a row set before framing and copied again
// by Stage, and the result copied into a row set of all N rows; 5.03 while
// every z was new and Put copied. Every output row of this input is
// non-zero; an output with zero rows would add a row set of the others,
// under one batch. Each budget leaves about half a batch of headroom.
// TotalAlloc counts the whole process, so the test must not run in parallel
// with others, which would allocate during it.
func TestSerialRunBytesMoved(t *testing.T) {
	const neurons, batch = 64, 4096
	m, err := model.Generate(model.GraphChallengeSpec(neurons, 2, 1))
	if err != nil {
		t.Fatal(err)
	}
	d := serialDeployment(t, m, false)
	for i, budget := range []float64{4.5, 3.5} {
		input := model.GenerateInputs(neurons, batch, 0.2, int64(77+i))
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		res, err := d.Infer(input)
		runtime.ReadMemStats(&after)
		if err != nil {
			t.Fatal(err)
		}
		checkCorrect(t, m, input, res)
		moved := float64(after.TotalAlloc-before.TotalAlloc) / float64(input.Bytes())
		t.Logf("Serial run %d allocated %.2f x the batch's %d bytes", i+1, moved, input.Bytes())
		if moved > budget {
			t.Fatalf("Serial run %d allocated %.2f x its batch's bytes, budget %.1f: a batch-sized copy is back", i+1, moved, budget)
		}
	}
}

// TestSerialReusedLayerBuffersStayIsolated: Serial runs of widths 4096, 17
// and 4096 on one deployment each match model.Reference and equal bit for
// bit a fresh deployment's run of the same input. The second run multiplies
// into the first run's spare z cut narrower, the third into it at full width
// again, and with four layers the intermediate z's alternate through the
// spare, so a value one run left in a recycled buffer would reach another's
// output here. Twelve more runs of one input then start together on the
// deployment; their cold starts, jittered, spread them over a quarter of a
// second, so runs end while others hold the spare between their layers.
// Every output stays as it was until the last run ends: a run that gave its
// result back as the spare would have it overwritten with the layers of the
// next run to take it.
func TestSerialReusedLayerBuffersStayIsolated(t *testing.T) {
	m, err := model.Generate(model.GraphChallengeSpec(64, 4, 1))
	if err != nil {
		t.Fatal(err)
	}
	d := serialDeployment(t, m, false)
	var outs, kept []*sparse.Dense
	for i, width := range []int{4096, 17, 4096} {
		input := model.GenerateInputs(64, width, 0.2, int64(30+i))
		res, err := d.Infer(input)
		if err != nil {
			t.Fatal(err)
		}
		checkCorrect(t, m, input, res)
		fresh, err := serialDeployment(t, m, false).Infer(input)
		if err != nil {
			t.Fatal(err)
		}
		if !sameBits(res.Output.Data, fresh.Output.Data) {
			t.Fatalf("run %d (width %d): output differs from a fresh deployment's", i+1, width)
		}
		outs, kept = append(outs, res.Output), append(kept, res.Output.Clone())
	}
	input := model.GenerateInputs(64, 4096, 0.2, 40)
	want, err := serialDeployment(t, m, false).Infer(input)
	if err != nil {
		t.Fatal(err)
	}
	results := make([]*Result, 12)
	for i := range results {
		i := i
		if _, err := d.Start(input, func(r *Result, err error) {
			if err != nil {
				t.Errorf("overlapping run %d: %v", i+1, err)
			}
			results[i] = r
		}); err != nil {
			t.Fatal(err)
		}
	}
	if err := d.Env.K.Run(); err != nil {
		t.Fatal(err)
	}
	for i, res := range results {
		if res == nil || !sameBits(res.Output.Data, want.Output.Data) {
			t.Fatalf("overlapping run %d: no output, or not a fresh deployment's", i+1)
		}
	}
	for i := range outs {
		if !sameBits(outs[i].Data, kept[i].Data) {
			t.Fatalf("run %d's output changed during the later runs", i+1)
		}
	}
}
