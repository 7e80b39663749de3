package serve

import (
	"fmt"
	"math"
	"math/rand"
	"runtime"
	"testing"
	"testing/quick"

	"fsdinference/internal/sparse"
)

// referenceMerge is batch assembly one row copy at a time: the merged matrix
// every loop form of mergeInputs must equal bit for bit.
func referenceMerge(out *sparse.Dense, b *batch) *sparse.Dense {
	off := 0
	for _, r := range b.reqs {
		for row := 0; row < out.Rows; row++ {
			copy(out.Row(row)[off:off+r.input.Cols], r.input.Row(row))
		}
		off += r.input.Cols
	}
	return out
}

func identicalBits(a, b *sparse.Dense) bool {
	if a.Rows != b.Rows || a.Cols != b.Cols || len(a.Data) != len(b.Data) {
		return false
	}
	for i := range a.Data {
		if math.Float32bits(a.Data[i]) != math.Float32bits(b.Data[i]) {
			return false
		}
	}
	return true
}

// TestMergeSliceRoundTripIdentical: a coalesced batch of members of mixed
// widths merges to the reference matrix, and slicing the merged matrix at
// each member's offset returns that member's matrix, bit for bit (raw bit
// patterns, so NaNs and negative zeros count).
func TestMergeSliceRoundTripIdentical(t *testing.T) {
	widths := []int{1, 2, 3, 8, 64}
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		neurons := 1 + rng.Intn(40)
		b := &batch{}
		for n := 2 + rng.Intn(12); n > 0; n-- {
			in := sparse.NewDense(neurons, widths[rng.Intn(len(widths))])
			for i := range in.Data {
				in.Data[i] = math.Float32frombits(rng.Uint32())
			}
			b.reqs = append(b.reqs, &request{input: in})
			b.samples += in.Cols
		}
		merged := mergeInputs(neurons, b)
		if !identicalBits(merged, referenceMerge(sparse.NewDense(neurons, b.samples), b)) {
			t.Fatalf("seed %d: merged batch differs from the reference merge", seed)
		}
		off := 0
		for i, r := range b.reqs {
			if !identicalBits(sliceCols(merged, off, r.input.Cols), r.input) {
				t.Fatalf("seed %d: member %d (width %d) did not come back out of the merged batch", seed, i, r.input.Cols)
			}
			off += r.input.Cols
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

// TestMergeIsOfItsOwnMembers: what a batch merges to depends on its members'
// values and on nothing a previous batch left behind. Two batches whose
// members are distinct matrices holding equal bits merge to distinct matrices
// of equal bits, and a batch built after the first one's inputs have been
// dropped and collected — so that its members may lie where those lay — still
// merges to its own values. This guards against a table of merged batches
// keyed by the addresses of members it does not keep alive, which answers the
// later batch with the earlier one's matrix whenever the allocator hands the
// addresses out again (go1.24 did so by the second round every time this was
// tried, but that is its choice: a guard, not a reproduction).
func TestMergeIsOfItsOwnMembers(t *testing.T) {
	const neurons, members = 16, 6
	build := func(fill func(i int) float32) *batch {
		b := &batch{}
		for m := 0; m < members; m++ {
			in := sparse.NewDense(neurons, 1+m%3)
			for i := range in.Data {
				in.Data[i] = fill(m*1000 + i)
			}
			b.reqs = append(b.reqs, &request{input: in})
			b.samples += in.Cols
		}
		return b
	}
	first := build(func(i int) float32 { return float32(i) })
	twin := build(func(i int) float32 { return float32(i) })
	m1, m2 := mergeInputs(neurons, first), mergeInputs(neurons, twin)
	if !identicalBits(m1, m2) {
		t.Fatal("two batches of equal members merged to different bits")
	}
	if &m1.Data[0] == &m2.Data[0] {
		t.Fatal("two batches share one merged matrix")
	}

	first, twin, m1, m2 = nil, nil, nil, nil
	for round := 0; round < 20; round++ {
		runtime.GC()
		third := build(func(i int) float32 { return -float32(i + round) })
		if got := mergeInputs(neurons, third); !identicalBits(got, referenceMerge(sparse.NewDense(neurons, third.samples), third)) {
			t.Fatalf("round %d: a batch built after another's inputs were freed did not merge to its own values", round)
		}
	}
}

// BenchmarkMergeSlice times assembling one 64 x 4096 batch from members of
// one width and slicing it back apart, through copyBlock and through the
// copy-per-row loops it replaced (the -rowcopy legs): the measurement
// copyBlock's loop form was chosen by.
func BenchmarkMergeSlice(b *testing.B) {
	const neurons, samples = 64, 4096
	merged := sparse.NewDense(neurons, samples)
	for _, w := range []int{1, 8, 64} {
		bt := &batch{samples: samples}
		for off := 0; off < samples; off += w {
			bt.reqs = append(bt.reqs, &request{input: sparse.NewDense(neurons, w)})
		}
		legs := []struct {
			name string
			run  func()
		}{
			{"merge", func() {
				for i, r := range bt.reqs {
					copyBlock(merged.Data[i*w:], samples, r.input.Data, w, neurons, w)
				}
			}},
			{"merge-rowcopy", func() { referenceMerge(merged, bt) }},
			{"slice", func() {
				for off := 0; off < samples; off += w {
					sliceCols(merged, off, w)
				}
			}},
			{"slice-rowcopy", func() {
				for off := 0; off < samples; off += w {
					out := sparse.NewDense(neurons, w)
					for row := 0; row < neurons; row++ {
						copy(out.Row(row), merged.Row(row)[off:off+w])
					}
				}
			}},
		}
		for _, leg := range legs {
			b.Run(fmt.Sprintf("%s/w%d", leg.name, w), func(b *testing.B) {
				for i := 0; i < b.N; i++ {
					leg.run()
				}
			})
		}
	}
}
