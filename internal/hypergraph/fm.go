package hypergraph

import (
	"container/heap"
	"math/rand"
)

// refineFM improves a bisection in place using Fiduccia–Mattheyses passes:
// vertices move between sides in best-gain-first order under the balance
// constraint, each pass keeps its best prefix, and passes repeat until no
// improvement. Gains track the cut-cost reduction of moving a vertex and
// are maintained incrementally with the classic critical-net update rules.
func refineFM(h *Hypergraph, side []int8, t0, t1 int64, rng *rand.Rand) {
	if h.NumV == 0 {
		return
	}
	maxW := [2]int64{t0 + int64(eps*float64(t0)), t1 + int64(eps*float64(t1))}

	pins := [2][]int32{make([]int32, h.NumNets()), make([]int32, h.NumNets())}
	gain := make([]int64, h.NumV)
	ver := make([]uint32, h.NumV)
	locked := make([]bool, h.NumV)
	moves := make([]int32, 0, h.NumV)

	for pass := 0; pass < maxFMPasses; pass++ {
		// Recompute pin counts, weights, gains.
		for n := 0; n < h.NumNets(); n++ {
			pins[0][n], pins[1][n] = 0, 0
			for _, p := range h.netPins(n) {
				pins[side[p]][n]++
			}
		}
		var w [2]int64
		for v := 0; v < h.NumV; v++ {
			w[side[v]] += h.VWeight[v]
		}
		var cut int64
		for n := 0; n < h.NumNets(); n++ {
			if pins[0][n] > 0 && pins[1][n] > 0 {
				cut += h.NetCost[n]
			}
		}
		pq := &fmHeap{}
		for v := 0; v < h.NumV; v++ {
			locked[v] = false
			gain[v] = vertexGain(h, side, pins, v)
			ver[v]++
			heap.Push(pq, fmItem{gain[v], int32(v), ver[v]})
		}

		overflow := func() int64 {
			ov := int64(0)
			if w[0] > maxW[0] {
				ov += w[0] - maxW[0]
			}
			if w[1] > maxW[1] {
				ov += w[1] - maxW[1]
			}
			return ov
		}

		moves = moves[:0]
		startCut := cut
		bestCut, bestOv, bestPrefix := cut, overflow(), 0
		var deferred []fmItem

		for {
			// Pop the best movable, feasible vertex.
			var v int32 = -1
			deferred = deferred[:0]
			for pq.Len() > 0 {
				it := heap.Pop(pq).(fmItem)
				if it.ver != ver[it.v] || locked[it.v] {
					continue
				}
				s := side[it.v]
				o := 1 - s
				feasible := w[o]+h.VWeight[it.v] <= maxW[o] || w[s] > maxW[s]
				if feasible {
					v = it.v
					break
				}
				deferred = append(deferred, it)
			}
			for _, it := range deferred {
				heap.Push(pq, it)
			}
			if v < 0 {
				break
			}

			s := side[v]
			o := 1 - s
			cut -= gain[v]
			applyMove(h, side, pins, gain, ver, locked, pq, v)
			w[s] -= h.VWeight[v]
			w[o] += h.VWeight[v]
			locked[v] = true
			moves = append(moves, v)

			if ov := overflow(); cut < bestCut || (cut == bestCut && ov < bestOv) {
				bestCut, bestOv, bestPrefix = cut, ov, len(moves)
			}
		}

		// Roll back to the best prefix.
		for i := len(moves) - 1; i >= bestPrefix; i-- {
			v := moves[i]
			side[v] = 1 - side[v]
		}
		if bestCut >= startCut && bestPrefix == 0 {
			break
		}
	}
}

// vertexGain computes the cut reduction of moving v to the other side.
func vertexGain(h *Hypergraph, side []int8, pins [2][]int32, v int) int64 {
	s := side[v]
	o := 1 - s
	var g int64
	for _, n := range h.vertNets(v) {
		if pins[s][n] == 1 {
			g += h.NetCost[n] // moving v uncuts this net
		}
		if pins[o][n] == 0 {
			g -= h.NetCost[n] // moving v cuts this net
		}
	}
	return g
}

// applyMove flips v to the other side, updating pin counts and the gains of
// free vertices on critical nets (the standard FM delta rules).
func applyMove(h *Hypergraph, side []int8, pins [2][]int32, gain []int64, ver []uint32, locked []bool, pq *fmHeap, v int32) {
	f := side[v]
	t := 1 - f
	bump := func(u int32, delta int64) {
		if locked[u] || u == v {
			return
		}
		gain[u] += delta
		ver[u]++
		heap.Push(pq, fmItem{gain[u], u, ver[u]})
	}
	for _, n := range h.vertNets(int(v)) {
		c := h.NetCost[n]
		np := h.netPins(int(n))
		if pins[t][n] == 0 {
			// Net becomes cut: every other (free) pin gains the
			// option to uncut later.
			for _, u := range np {
				bump(u, c)
			}
		} else if pins[t][n] == 1 {
			// The lone pin on t loses its uncut move.
			for _, u := range np {
				if side[u] == int8(t) {
					bump(u, -c)
				}
			}
		}
		pins[f][n]--
		pins[t][n]++
		if pins[f][n] == 0 {
			// Net now entirely on t: uncut; its pins lose cut-avoid
			// gains.
			for _, u := range np {
				bump(u, -c)
			}
		} else if pins[f][n] == 1 {
			// The lone remaining pin on f gains an uncut move.
			for _, u := range np {
				if u != v && side[u] == int8(f) {
					bump(u, c)
				}
			}
		}
	}
	side[v] = int8(t)
}

// fmItem is a lazy max-heap entry; stale entries (version mismatch) are
// skipped on pop.
type fmItem struct {
	gain int64
	v    int32
	ver  uint32
}

type fmHeap []fmItem

func (h fmHeap) Len() int { return len(h) }
func (h fmHeap) Less(i, j int) bool {
	if h[i].gain != h[j].gain {
		return h[i].gain > h[j].gain
	}
	return h[i].v < h[j].v
}
func (h fmHeap) Swap(i, j int) { h[i], h[j] = h[j], h[i] }
func (h *fmHeap) Push(x any)   { *h = append(*h, x.(fmItem)) }
func (h *fmHeap) Pop() any     { old := *h; n := len(old); it := old[n-1]; *h = old[:n-1]; return it }
