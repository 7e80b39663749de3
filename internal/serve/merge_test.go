package serve

import (
	"fmt"
	"math"
	"math/rand"
	"runtime"
	"testing"
	"testing/quick"
	"time"

	"fsdinference/internal/cloud/env"
	"fsdinference/internal/core"
	"fsdinference/internal/model"
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

// randomBatch builds a coalesced batch of random-bit members: of one width
// (so whole tiles of one-column members and wide members alone), of mixed
// widths, or mostly one column wide (so tiles start off a line boundary and
// wider members break runs of one-column ones).
func randomBatch(rng *rand.Rand, neurons int) *batch {
	widths := []int{1, 2, 3, 8, 16, 17, 64}
	mode := rng.Intn(3)
	w := widths[rng.Intn(len(widths))]
	b := &batch{}
	for n := 2 + rng.Intn(60); n > 0; n-- {
		switch {
		case mode == 1, mode == 2 && rng.Intn(8) == 0:
			w = widths[rng.Intn(len(widths))]
		case mode == 2:
			w = 1
		}
		in := sparse.NewDense(neurons, w)
		for i := range in.Data {
			in.Data[i] = math.Float32frombits(rng.Uint32())
		}
		b.reqs = append(b.reqs, &request{input: in, info: RequestInfo{Samples: w}})
		b.samples += w
	}
	return b
}

// TestMergeSliceRoundTripIdentical: a coalesced batch of members of mixed
// widths merges, tiles of one-column members included, to the reference
// matrix, and every
// member's Response.Output over the merged matrix returns that member's
// matrix, bit for bit (raw bit patterns, so NaNs and negative zeros count).
func TestMergeSliceRoundTripIdentical(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		neurons := 1 + rng.Intn(40)
		b := randomBatch(rng, neurons)
		merged := mergeInputs(neurons, b, new(sparse.Spare))
		if !identicalBits(merged, referenceMerge(sparse.NewDense(neurons, b.samples), b)) {
			t.Fatalf("seed %d: merged batch differs from the reference merge", seed)
		}
		off := 0
		for i, r := range b.reqs {
			resp := &Response{Samples: r.info.Samples, out: merged, off: off}
			if !identicalBits(resp.Output(), r.input) {
				t.Fatalf("seed %d: member %d (width %d) did not come back out of the merged batch", seed, i, r.input.Cols)
			}
			off += r.info.Samples
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

// TestResponseOutputCopiesPerCall: a coalesced member's Output is a fresh
// matrix on every call — writing to one changes neither another call's nor
// the run's output — while a request that had its run alone gets the run's
// own matrix, as it did when Response held the output as a field.
func TestResponseOutputCopiesPerCall(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	run := sparse.NewDense(8, 5)
	for i := range run.Data {
		run.Data[i] = rng.Float32()
	}
	before := run.Clone()
	member := &Response{Samples: 2, out: run, off: 1}
	a, b := member.Output(), member.Output()
	if &a.Data[0] == &b.Data[0] || &a.Data[0] == &run.Data[1] {
		t.Fatal("two Output calls share a matrix, or share the run's")
	}
	want := sliceCols(before, 1, 2)
	for i := range a.Data {
		a.Data[i] = -1
	}
	if !identicalBits(b, want) {
		t.Fatal("writing to one Output changed another call's")
	}
	if !identicalBits(run, before) {
		t.Fatal("writing to an Output changed the run's output")
	}
	alone := &Response{Samples: run.Cols, out: run}
	if alone.Output() != run {
		t.Fatal("a request that had its run alone did not get the run's matrix")
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
	m1, m2 := mergeInputs(neurons, first, new(sparse.Spare)), mergeInputs(neurons, twin, new(sparse.Spare))
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
		if got := mergeInputs(neurons, third, new(sparse.Spare)); !identicalBits(got, referenceMerge(sparse.NewDense(neurons, third.samples), third)) {
			t.Fatalf("round %d: a batch built after another's inputs were freed did not merge to its own values", round)
		}
	}
}

// BenchmarkMergeSlice times assembling one 64 x 4096 batch from members of
// one width and slicing one member's columns back out, for every member. The
// merge legs are mergeInputs' loop (merge: tiles at width 1, copyBlock
// otherwise), one copyBlock per member (merge-copyblock, the form it
// replaced at width 1) and a copy per row of each member (merge-rowcopy);
// the slice legs are sliceCols, which Response.Output runs, against a copy
// per row (slice-rowcopy).
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
			{"merge", func() { mergeInto(merged, bt) }},
			{"merge-copyblock", func() {
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

// TestFailedRunKeepsItsMergeBuffer: a coalesced run that fails — a function
// timeout too short for its 4096 samples, long enough for the smaller
// batches after it — is followed by successful coalesced runs whose outputs
// equal a fresh service's bit for bit: wide members, then a tile of
// one-column members and a narrower batch, each merged into the buffer the
// wider run before it gave back, and a lone request. The failed run's merge buffer is never taken
// back: a timed-out instance may still read it. The scheduler's spare is
// seeded with a buffer the failing batch fits, so that batch merges into it,
// and the spare must not hold it after the failure or after the runs that
// follow it.
func TestFailedRunKeepsItsMergeBuffer(t *testing.T) {
	m := testModel(t, 64, 2)
	type group struct {
		at     time.Duration
		widths []int
	}
	ok := []group{
		{10 * time.Second, []int{200, 56, 9}},
		{20 * time.Second, []int{1, 1, 1, 1, 1, 1, 1, 1, 1, 1, 1, 1, 1, 1, 1, 1, 1}},
		{30 * time.Second, []int{3, 3, 3, 3, 3}},
		{40 * time.Second, []int{7}},
	}
	newService := func(timeout time.Duration) *Service {
		svc, err := NewService(env.NewDefault(), WithCoalescing(4096, time.Second),
			WithEndpoint("s64", m, WithDeployOverride(func(c *core.Config) {
				if timeout > 0 {
					c.FunctionTimeout = timeout
				}
			})))
		if err != nil {
			t.Fatal(err)
		}
		return svc
	}
	submit := func(svc *Service, g group, seed int64) []*Handle {
		var hs []*Handle
		for i, w := range g.widths {
			hs = append(hs, svc.Submit("s64", model.GenerateInputs(64, w, 0.2, seed+int64(i)), g.at))
		}
		if err := svc.Run(); err != nil {
			t.Fatal(err)
		}
		return hs
	}

	// 4096 samples run 100 ms on the instance, the groups below 70 - 80.
	svc := newService(85 * time.Millisecond)
	sc := svc.byName["s64"].sched
	seed := sparse.NewDense(64, 4096)
	sc.spare.Give(seed)
	for _, h := range submit(svc, group{0, []int{512, 512, 512, 512, 512, 512, 512, 512}}, 1) {
		if _, err := h.Wait(); err == nil {
			t.Fatal("a request of the 4096-sample run succeeded; the timeout no longer fails it")
		}
	}
	if runs := svc.byName["s64"].stats.Runs; runs != 0 {
		t.Fatalf("%d runs succeeded in the failing group", runs)
	}
	if got := sc.spare.Take(64, 4096); got == seed {
		t.Fatal("the failed run's merge buffer came back as the spare")
	}
	fresh := newService(0)
	for gi, g := range ok {
		hs, want := submit(svc, g, int64(100*gi)), submit(fresh, g, int64(100*gi))
		for i := range hs {
			got, err := hs[i].Wait()
			if err != nil {
				t.Fatalf("group %d request %d failed: %v", gi, i, err)
			}
			ref, err := want[i].Wait()
			if err != nil {
				t.Fatal(err)
			}
			if !identicalBits(got.Output(), ref.Output()) {
				t.Fatalf("group %d request %d: output differs from a fresh service's", gi, i)
			}
		}
	}
	if runs := svc.byName["s64"].stats.Runs; runs != len(ok) {
		t.Fatalf("%d successful runs, want one per group (%d)", runs, len(ok))
	}
	if got := sc.spare.Take(64, 4096); got == seed {
		t.Fatal("the failed run's merge buffer was reused by a later run")
	}
}
