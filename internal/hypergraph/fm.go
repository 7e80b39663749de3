package hypergraph

import "math/rand"

// refineFM improves a bisection in place using Fiduccia–Mattheyses passes:
// vertices move between sides in best-gain-first order under the balance
// constraint, each pass keeps its best prefix, and passes repeat until no
// improvement. Gains track the cut-cost reduction of moving a vertex and
// are maintained incrementally with the classic critical-net update rules.
func refineFM(h *Hypergraph, side []int8, t0, t1 int64, rng *rand.Rand) {
	maxW := [2]int64{t0 + int64(eps*float64(t0)), t1 + int64(eps*float64(t1))}

	pins := [2][]int32{make([]int32, h.NumNets()), make([]int32, h.NumNets())}
	q := gainHeap{
		gain: make([]int64, h.NumV),
		heap: make([]int32, 0, h.NumV),
		pos:  make([]int32, h.NumV),
	}
	moves := make([]int32, 0, h.NumV)
	var deferred []int32

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
		for v := 0; v < h.NumV; v++ {
			q.gain[v] = vertexGain(h, side, pins, v)
		}
		q.fill()

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

		for {
			// Pop the best feasible free vertex; the infeasible ones
			// popped on the way go back afterwards.
			var v int32 = -1
			deferred = deferred[:0]
			for len(q.heap) > 0 {
				u := q.pop()
				s := side[u]
				o := 1 - s
				if w[o]+h.VWeight[u] <= maxW[o] || w[s] > maxW[s] {
					v = u
					break
				}
				deferred = append(deferred, u)
			}
			for _, u := range deferred {
				q.push(u)
			}
			if v < 0 {
				break
			}

			s := side[v]
			o := 1 - s
			cut -= q.gain[v]
			applyMove(h, side, pins, &q, v)
			w[s] -= h.VWeight[v]
			w[o] += h.VWeight[v]
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
// free vertices on critical nets (the standard FM delta rules). v has left
// the heap already, so a vertex outside it is locked or is v itself.
func applyMove(h *Hypergraph, side []int8, pins [2][]int32, q *gainHeap, v int32) {
	f := side[v]
	t := 1 - f
	bump := func(u int32, delta int64) {
		if q.pos[u] < 0 {
			return
		}
		q.gain[u] += delta
		q.fix(u)
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

// gainHeap is an indexed max-heap of a pass's free vertices, keyed by
// (gain descending, id ascending); pos[v] is v's slot, -1 once v has been
// popped. A gain change moves its vertex in place. Ids are unique, so the
// key is a strict total order and the vertex a pass selects does not
// depend on the heap's layout.
type gainHeap struct {
	gain []int64
	heap []int32
	pos  []int32
}

func (q *gainHeap) less(i, j int) bool {
	a, b := q.heap[i], q.heap[j]
	return q.gain[a] > q.gain[b] || (q.gain[a] == q.gain[b] && a < b)
}

func (q *gainHeap) swap(i, j int) {
	q.heap[i], q.heap[j] = q.heap[j], q.heap[i]
	q.pos[q.heap[i]] = int32(i)
	q.pos[q.heap[j]] = int32(j)
}

// fill puts every vertex in the heap.
func (q *gainHeap) fill() {
	q.heap = q.heap[:0]
	for v := range q.pos {
		q.pos[v] = int32(v)
		q.heap = append(q.heap, int32(v))
	}
	for i := len(q.heap)/2 - 1; i >= 0; i-- {
		q.down(i)
	}
}

func (q *gainHeap) push(v int32) {
	q.pos[v] = int32(len(q.heap))
	q.heap = append(q.heap, v)
	q.up(len(q.heap) - 1)
}

func (q *gainHeap) pop() int32 {
	v := q.heap[0]
	last := len(q.heap) - 1
	q.swap(0, last)
	q.heap = q.heap[:last]
	q.pos[v] = -1
	q.down(0)
	return v
}

func (q *gainHeap) fix(v int32) {
	if i := int(q.pos[v]); !q.down(i) {
		q.up(i)
	}
}

func (q *gainHeap) up(i int) {
	for i > 0 {
		p := (i - 1) / 2
		if !q.less(i, p) {
			return
		}
		q.swap(i, p)
		i = p
	}
}

// down sifts slot i towards the leaves and reports whether it moved.
func (q *gainHeap) down(i int) bool {
	i0 := i
	for n := len(q.heap); ; {
		c := 2*i + 1
		if c >= n {
			break
		}
		if r := c + 1; r < n && q.less(r, c) {
			c = r
		}
		if !q.less(c, i) {
			break
		}
		q.swap(i, c)
		i = c
	}
	return i > i0
}
