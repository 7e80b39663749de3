package partition

import (
	"crypto/sha256"
	"encoding/binary"
	"fmt"
	"hash"
	"math/rand"
	"testing"

	"fsdinference/internal/golden"
	"fsdinference/internal/hypergraph"
	"fsdinference/internal/model"
)

// TestGoldenHGPPlans pins every owner the HGP-DNN partitioner chooses on
// two input sets, so a change to the partitioner's internals (heap,
// scratch, sort) that claims to pick the same vertices can be held to it:
//
//   - 17 plans through BuildPlan(HGPDNN): N=256 × L ∈ {2, 4} ×
//     P ∈ {2, 3, 8, 16} × plan seed ∈ {1, 2001}, and channel_sweep's own
//     plan (N=1024, L=4, P=8, seed 2001), which coarsens through the most
//     levels. The other N=1024 cells would add some 16 s to the package's
//     test time and pin the same code paths;
//   - 300 random hypergraphs shaped like
//     TestPartitionPropertyValidAndBalanced's (internal/hypergraph), with
//     net costs drawn from 0–4 so that zero-gain moves and equal-gain
//     ties are common, through hypergraph.Partition.
//
// The owners are bulk binary, so the golden file holds one SHA-256 (first 8
// bytes) per input set, a line each. A moved digest is a moved partition:
// every plan, golden and simulated number downstream of HGP-DNN moves with
// it.
func TestGoldenHGPPlans(t *testing.T) {
	type cell struct {
		n, layers, workers int
		seed               int64
	}
	cells := []cell{{1024, 4, 8, 2001}}
	for _, layers := range []int{2, 4} {
		for _, workers := range []int{2, 3, 8, 16} {
			for _, seed := range []int64{1, 2001} {
				cells = append(cells, cell{256, layers, workers, seed})
			}
		}
	}
	grid := sha256.New()
	for _, c := range cells {
		m, err := model.Generate(model.GraphChallengeSpec(c.n, c.layers, 1001))
		if err != nil {
			t.Fatal(err)
		}
		p, err := BuildPlan(m, c.workers, HGPDNN, Options{Seed: c.seed})
		if err != nil {
			t.Fatal(err)
		}
		fmt.Fprintf(grid, "%d %d %d %d\n", c.n, c.layers, c.workers, c.seed)
		hashOwners(grid, p.Owner)
	}
	random := sha256.New()
	for seed := int64(1); seed <= 300; seed++ {
		h, k := tieHeavyHypergraph(seed)
		part, err := hypergraph.Partition(h, k, seed)
		if err != nil {
			t.Fatal(err)
		}
		fmt.Fprintf(random, "%d %d\n", seed, k)
		hashOwners(random, part)
	}
	golden.Check(t, fmt.Sprintf("%d-plan model grid %x\n300 random hypergraphs %x\n", len(cells), grid.Sum(nil)[:8], random.Sum(nil)[:8]))
}

func hashOwners(h hash.Hash, owner []int32) {
	buf := make([]byte, 4*len(owner))
	for i, o := range owner {
		binary.LittleEndian.PutUint32(buf[4*i:], uint32(o))
	}
	h.Write(buf)
}

// tieHeavyHypergraph draws TestPartitionPropertyValidAndBalanced's shape
// (20–219 vertices of weight 1–3, one net of 2–5 pins per vertex, k in
// 2–7) but with net costs from 0–4 rather than 1–5.
func tieHeavyHypergraph(seed int64) (*hypergraph.Hypergraph, int) {
	rng := rand.New(rand.NewSource(seed))
	n := 20 + rng.Intn(200)
	k := 2 + rng.Intn(6)
	w := make([]int64, n)
	for i := range w {
		w[i] = int64(1 + rng.Intn(3))
	}
	nets := make([][]int32, n)
	costs := make([]int64, n)
	for i := range nets {
		pins := make([]int32, 2+rng.Intn(4))
		for j := range pins {
			pins[j] = int32(rng.Intn(n))
		}
		nets[i] = pins
		costs[i] = int64(rng.Intn(5))
	}
	h, err := hypergraph.New(n, w, nets, costs)
	if err != nil {
		panic(err)
	}
	return h, k
}
