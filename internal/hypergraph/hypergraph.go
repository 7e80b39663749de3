// Package hypergraph implements a multilevel hypergraph partitioner in the
// style of PaToH, which the paper uses offline for its HGP-DNN model
// partitioning (paper §III, [12], [70]).
//
// The partitioner minimises the connectivity-1 metric Σ cost(n)·(λ(n)−1) —
// for the DNN hypergraph this is exactly the number of activation-row
// transfers between workers — subject to a balance constraint on vertex
// weights (worker compute load). K-way partitions are produced by recursive
// bisection; each bisection is multilevel:
//
//   - coarsening by heavy-connectivity matching,
//   - initial partitioning by greedy growing (plus a linear sweep
//     candidate),
//   - Fiduccia–Mattheyses refinement at every level, with the classic
//     critical-net delta-update rules. Free vertices sit in an indexed
//     max-heap keyed by (gain descending, id ascending), one slot each,
//     and a gain update moves its vertex in place. Each move takes the
//     largest feasible key; ids are unique, so that key is one vertex
//     whatever the heap's layout, and any exact priority queue over the
//     same keys selects the same moves.
//
// All randomness is seeded; partitions are deterministic.
package hypergraph

import (
	"fmt"
	"math/rand"
	"slices"
)

// Hypergraph is an immutable hypergraph: NumV vertices with integer
// weights, and nets (hyperedges) with integer costs connecting pin sets.
type Hypergraph struct {
	NumV    int
	VWeight []int64

	// Net-to-pin incidence, CSR layout.
	NetPtr  []int32
	Pins    []int32
	NetCost []int64

	// Vertex-to-net incidence, CSR layout (derived).
	VPtr  []int32
	VNets []int32
}

// New builds a hypergraph from per-vertex weights and per-net pin lists.
// Nets with fewer than two distinct pins are kept but never cut (they are
// dropped during coarsening). Pin lists may contain duplicates; they are
// deduplicated.
func New(numV int, vweight []int64, nets [][]int32, costs []int64) (*Hypergraph, error) {
	if len(vweight) != numV {
		return nil, fmt.Errorf("hypergraph: %d weights for %d vertices", len(vweight), numV)
	}
	if len(costs) != len(nets) {
		return nil, fmt.Errorf("hypergraph: %d costs for %d nets", len(costs), len(nets))
	}
	h := &Hypergraph{NumV: numV, VWeight: vweight}
	h.NetPtr = make([]int32, 1, len(nets)+1)
	seen := make([]bool, numV)
	for ni, pins := range nets {
		start := len(h.Pins)
		for _, p := range pins {
			if p < 0 || int(p) >= numV {
				return nil, fmt.Errorf("hypergraph: net %d pin %d outside [0,%d)", ni, p, numV)
			}
			if !seen[p] {
				seen[p] = true
				h.Pins = append(h.Pins, p)
			}
		}
		for _, p := range h.Pins[start:] {
			seen[p] = false
		}
		h.NetPtr = append(h.NetPtr, int32(len(h.Pins)))
		h.NetCost = append(h.NetCost, costs[ni])
	}
	h.buildVertexIncidence()
	return h, nil
}

func (h *Hypergraph) buildVertexIncidence() {
	counts := make([]int32, h.NumV+1)
	for _, p := range h.Pins {
		counts[p+1]++
	}
	for i := 0; i < h.NumV; i++ {
		counts[i+1] += counts[i]
	}
	h.VPtr = counts
	h.VNets = make([]int32, len(h.Pins))
	fill := make([]int32, h.NumV)
	for n := 0; n < h.NumNets(); n++ {
		for _, p := range h.netPins(n) {
			h.VNets[h.VPtr[p]+fill[p]] = int32(n)
			fill[p]++
		}
	}
}

// NumNets returns the net count.
func (h *Hypergraph) NumNets() int { return len(h.NetCost) }

func (h *Hypergraph) netPins(n int) []int32  { return h.Pins[h.NetPtr[n]:h.NetPtr[n+1]] }
func (h *Hypergraph) vertNets(v int) []int32 { return h.VNets[h.VPtr[v]:h.VPtr[v+1]] }

// TotalWeight returns the sum of vertex weights.
func (h *Hypergraph) TotalWeight() int64 {
	var t int64
	for _, w := range h.VWeight {
		t += w
	}
	return t
}

// The partitioner's fixed settings: every part's weight may exceed its
// target by at most eps; coarsening stops at coarsenTo vertices; the
// coarsest level tries initialTries greedy growings (a linear sweep is
// always also tried); each level runs at most maxFMPasses refinement
// passes.
const (
	eps          = 0.05
	coarsenTo    = 96
	initialTries = 8
	maxFMPasses  = 6
)

// Partition splits h into k parts by multilevel recursive bisection,
// returning a part id in [0, k) for every vertex. seed drives every
// randomised choice.
func Partition(h *Hypergraph, k int, seed int64) ([]int32, error) {
	if k <= 0 {
		return nil, fmt.Errorf("hypergraph: k must be positive, got %d", k)
	}
	part := make([]int32, h.NumV)
	if k == 1 {
		return part, nil
	}
	if k > h.NumV {
		return nil, fmt.Errorf("hypergraph: k=%d exceeds %d vertices", k, h.NumV)
	}
	rng := rand.New(rand.NewSource(seed))
	verts := make([]int32, h.NumV)
	for i := range verts {
		verts[i] = int32(i)
	}
	recurse(h, verts, k, 0, part, rng)
	return part, nil
}

// recurse assigns part ids [base, base+k) to the vertices of sub, whose
// i-th vertex is original vertex verts[i].
func recurse(sub *Hypergraph, verts []int32, k int, base int32, part []int32, rng *rand.Rand) {
	if k == 1 {
		for _, v := range verts {
			part[v] = base
		}
		return
	}
	k0 := (k + 1) / 2
	k1 := k - k0
	total := sub.TotalWeight()
	t0 := total * int64(k0) / int64(k)
	t1 := total - t0
	side := multilevelBisect(sub, t0, t1, rng)

	sub0, verts0 := induce(sub, verts, side, 0)
	sub1, verts1 := induce(sub, verts, side, 1)
	recurse(sub0, verts0, k0, base, part, rng)
	recurse(sub1, verts1, k1, base+int32(k0), part, rng)
}

// induce builds the sub-hypergraph of vertices on the given side. Nets are
// restricted to surviving pins; nets left with fewer than two pins are
// dropped (net splitting).
func induce(h *Hypergraph, verts []int32, side []int8, want int8) (*Hypergraph, []int32) {
	local := make([]int32, h.NumV)
	for i := range local {
		local[i] = -1
	}
	var newVerts []int32
	var weights []int64
	for v := 0; v < h.NumV; v++ {
		if side[v] != want {
			continue
		}
		local[v] = int32(len(newVerts))
		newVerts = append(newVerts, verts[v])
		weights = append(weights, h.VWeight[v])
	}
	sub := &Hypergraph{NumV: len(newVerts), VWeight: weights}
	sub.NetPtr = make([]int32, 1)
	for n := 0; n < h.NumNets(); n++ {
		start := len(sub.Pins)
		for _, p := range h.netPins(n) {
			if local[p] >= 0 {
				sub.Pins = append(sub.Pins, local[p])
			}
		}
		if len(sub.Pins)-start < 2 {
			sub.Pins = sub.Pins[:start]
			continue
		}
		sub.NetPtr = append(sub.NetPtr, int32(len(sub.Pins)))
		sub.NetCost = append(sub.NetCost, h.NetCost[n])
	}
	sub.buildVertexIncidence()
	return sub, newVerts
}

// multilevelBisect produces a 2-way split with target weights t0/t1.
func multilevelBisect(h *Hypergraph, t0, t1 int64, rng *rand.Rand) []int8 {
	if h.NumV <= coarsenTo {
		side := initialBisect(h, t0, t1, rng)
		refineFM(h, side, t0, t1, rng)
		return side
	}
	coarse, vmap := coarsen(h, rng)
	// Coarsening stalled: finish at this level.
	if coarse.NumV > h.NumV*9/10 {
		side := initialBisect(h, t0, t1, rng)
		refineFM(h, side, t0, t1, rng)
		return side
	}
	cside := multilevelBisect(coarse, t0, t1, rng)
	side := make([]int8, h.NumV)
	for v := 0; v < h.NumV; v++ {
		side[v] = cside[vmap[v]]
	}
	refineFM(h, side, t0, t1, rng)
	return side
}

// coarsen contracts heavy-connectivity matched vertex pairs. Returns the
// coarse hypergraph and the fine-to-coarse vertex map.
func coarsen(h *Hypergraph, rng *rand.Rand) (*Hypergraph, []int32) {
	order := rng.Perm(h.NumV)
	match := make([]int32, h.NumV)
	for i := range match {
		match[i] = -1
	}
	// Cap cluster weight so coarse vertices stay small enough for a
	// balanced bisection to exist.
	maxCluster := h.TotalWeight()/8 + 1
	// score[u] is u's affinity to the vertex being matched; cand lists,
	// in first-touch order, every u a net of that vertex reaches, and
	// isCand marks them. Both are cleared through cand per vertex.
	score := make([]float64, h.NumV)
	isCand := make([]bool, h.NumV)
	var cand []int32
	numCoarse := int32(0)
	vmap := make([]int32, h.NumV)
	for i := range vmap {
		vmap[i] = -1
	}
	for _, vi := range order {
		v := int32(vi)
		if match[v] >= 0 {
			continue
		}
		for _, u := range cand {
			score[u], isCand[u] = 0, false
		}
		cand = cand[:0]
		for _, n := range h.vertNets(int(v)) {
			pins := h.netPins(int(n))
			if len(pins) > 64 {
				continue // skip huge nets: negligible affinity signal
			}
			w := float64(h.NetCost[n]) / float64(len(pins)-1)
			for _, u := range pins {
				if u == v || match[u] >= 0 {
					continue
				}
				if !isCand[u] {
					isCand[u] = true
					cand = append(cand, u)
				}
				score[u] += w
			}
		}
		best := int32(-1)
		bestScore := 0.0
		for _, u := range cand {
			if h.VWeight[v]+h.VWeight[u] > maxCluster {
				continue
			}
			s := score[u]
			if s > bestScore || (s == bestScore && best >= 0 && u < best) {
				best, bestScore = u, s
			}
		}
		vmap[v] = numCoarse
		match[v] = v
		if best >= 0 {
			match[best] = v
			vmap[best] = numCoarse
		}
		numCoarse++
	}

	coarse := &Hypergraph{NumV: int(numCoarse), VWeight: make([]int64, numCoarse)}
	for v := 0; v < h.NumV; v++ {
		coarse.VWeight[vmap[v]] += h.VWeight[v]
	}
	// Rebuild nets on coarse vertices, dropping shrunken and duplicate
	// nets (duplicates merge their costs). Each coarse net's sorted pins
	// are cut from one arena.
	type cnet struct {
		pins []int32
		cost int64
	}
	var cnets []cnet
	arena := make([]int32, 0, len(h.Pins))
	seen := make([]bool, numCoarse)
	for n := 0; n < h.NumNets(); n++ {
		start := len(arena)
		for _, p := range h.netPins(n) {
			cp := vmap[p]
			if !seen[cp] {
				seen[cp] = true
				arena = append(arena, cp)
			}
		}
		pins := arena[start:]
		for _, cp := range pins {
			seen[cp] = false
		}
		if len(pins) < 2 {
			arena = arena[:start]
			continue
		}
		slices.Sort(pins)
		cnets = append(cnets, cnet{pins, h.NetCost[n]})
	}
	slices.SortFunc(cnets, func(a, b cnet) int { return slices.Compare(a.pins, b.pins) })
	coarse.NetPtr = make([]int32, 1)
	for i := 0; i < len(cnets); {
		j := i
		cost := int64(0)
		for j < len(cnets) && slices.Equal(cnets[j].pins, cnets[i].pins) {
			cost += cnets[j].cost
			j++
		}
		coarse.Pins = append(coarse.Pins, cnets[i].pins...)
		coarse.NetPtr = append(coarse.NetPtr, int32(len(coarse.Pins)))
		coarse.NetCost = append(coarse.NetCost, cost)
		i = j
	}
	coarse.buildVertexIncidence()
	return coarse, vmap
}

// initialBisect tries greedy growing from random seeds plus a linear sweep,
// keeping the best (cut, then balance) result.
func initialBisect(h *Hypergraph, t0, t1 int64, rng *rand.Rand) []int8 {
	best := linearSweep(h, t0)
	bestCut := bisectCut(h, best)
	for try := 0; try < initialTries; try++ {
		cand := greedyGrow(h, t0, rng)
		if cut := bisectCut(h, cand); cut < bestCut {
			best, bestCut = cand, cut
		}
	}
	return best
}

// linearSweep assigns vertices in index order to side 0 until the target
// weight is reached. With locality-structured vertex numbering this is a
// strong deterministic starting point.
func linearSweep(h *Hypergraph, t0 int64) []int8 {
	side := make([]int8, h.NumV)
	var w int64
	for v := 0; v < h.NumV; v++ {
		if w < t0 {
			w += h.VWeight[v]
		} else {
			side[v] = 1
		}
	}
	return side
}

// greedyGrow seeds side 0 with a random vertex and grows it by maximum
// affinity until it reaches the target weight.
func greedyGrow(h *Hypergraph, t0 int64, rng *rand.Rand) []int8 {
	side := make([]int8, h.NumV)
	for i := range side {
		side[i] = 1
	}
	affinity := make([]float64, h.NumV)
	inFront := make([]bool, h.NumV)
	var frontier []int32

	add := func(v int32) {
		side[v] = 0
		for _, n := range h.vertNets(int(v)) {
			pins := h.netPins(int(n))
			w := float64(h.NetCost[n]) / float64(len(pins))
			for _, u := range pins {
				if side[u] == 1 {
					affinity[u] += w
					if !inFront[u] {
						inFront[u] = true
						frontier = append(frontier, u)
					}
				}
			}
		}
	}

	seed := int32(rng.Intn(h.NumV))
	w := h.VWeight[seed]
	add(seed)
	for w < t0 {
		best := int32(-1)
		bestAff := -1.0
		for _, u := range frontier {
			if side[u] == 0 {
				continue
			}
			if affinity[u] > bestAff || (affinity[u] == bestAff && best >= 0 && u < best) {
				best, bestAff = u, affinity[u]
			}
		}
		if best < 0 {
			// Disconnected remainder: pick the lowest-index side-1
			// vertex. One is left, since side 0 weighs less than t0,
			// which is at most the total.
			for v := 0; v < h.NumV; v++ {
				if side[v] == 1 {
					best = int32(v)
					break
				}
			}
		}
		w += h.VWeight[best]
		add(best)
	}
	return side
}

func bisectCut(h *Hypergraph, side []int8) int64 {
	var cut int64
	for n := 0; n < h.NumNets(); n++ {
		pins := h.netPins(n)
		if len(pins) == 0 {
			continue
		}
		s := side[pins[0]]
		for _, p := range pins[1:] {
			if side[p] != s {
				cut += h.NetCost[n]
				break
			}
		}
	}
	return cut
}
