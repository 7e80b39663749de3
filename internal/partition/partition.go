// Package partition produces the offline model partitionings FSD-Inference
// runs on (paper §II-C, §III). A Plan assigns every neuron (weight-matrix
// row) to one of P workers and precomputes, for every layer, the send and
// receive maps (Xsend, Xrecv) each worker needs: which activation rows it
// must ship to which targets, and which sources it will hear from.
//
// Three schemes are provided:
//
//   - Block: contiguous equal row blocks (the simple baseline),
//   - Random: the paper's RP baseline (PaToH random placement, Table III),
//   - HGPDNN: row-wise hypergraph partitioning adapted from Demirci &
//     Ferhatosmanoglu [12] — vertices are neurons weighted by their
//     row nonzeros, and each (layer, column) pair contributes a net
//     {column} ∪ {rows with a nonzero in that column}, so the
//     connectivity-1 objective counts exactly the activation-row transfers
//     the engine will perform.
package partition

import (
	"fmt"
	"math/rand"
	"sort"

	"fsdinference/internal/hypergraph"
	"fsdinference/internal/model"
)

// Scheme selects a partitioning strategy.
type Scheme int

const (
	// Block assigns contiguous row ranges.
	Block Scheme = iota
	// Random assigns rows to workers uniformly at random (balanced),
	// the paper's RP baseline.
	Random
	// HGPDNN uses multilevel hypergraph partitioning (the paper's
	// HGP-DNN).
	HGPDNN
)

// String returns the scheme name as used in the paper.
func (s Scheme) String() string {
	switch s {
	case Block:
		return "Block"
	case Random:
		return "RP"
	case HGPDNN:
		return "HGP-DNN"
	default:
		return fmt.Sprintf("Scheme(%d)", int(s))
	}
}

// Options controls plan construction.
type Options struct {
	// Seed drives random placement and partitioner tie-breaking.
	Seed int64
}

// SendEntry lists the activation rows a worker must deliver to one target
// in one layer (a (P_n, x̄) tuple of the paper's Xsend map).
type SendEntry struct {
	Target int32
	Rows   []int32 // global neuron ids, sorted
}

// Plan is a complete offline partitioning of one model across P workers.
// Plans are computed a priori (not per request), matching the paper's
// offline PaToH post-processing of trained models.
type Plan struct {
	Workers int
	Neurons int
	Layers  int

	// Owner maps neuron id to worker id.
	Owner []int32
	// Rows lists each worker's owned neuron ids, sorted.
	Rows [][]int32

	// Sends[k][m] lists, for weight layer k (0-based), the rows of the
	// layer-k input activations that worker m must send to each target.
	Sends [][][]SendEntry
	// Recvs[k][m] lists the source workers m expects layer-k data from,
	// sorted.
	Recvs [][][]int32
}

// BuildPlan partitions the model across the given worker count.
func BuildPlan(m *model.Model, workers int, scheme Scheme, opts Options) (*Plan, error) {
	n := m.Spec.Neurons
	if workers <= 0 {
		return nil, fmt.Errorf("partition: workers must be positive, got %d", workers)
	}
	if workers > n {
		return nil, fmt.Errorf("partition: %d workers exceed %d neurons", workers, n)
	}
	var owner []int32
	var err error
	switch scheme {
	case Block:
		owner = blockOwner(n, workers)
	case Random:
		owner = randomOwner(n, workers, opts.Seed)
	case HGPDNN:
		owner, err = hgpOwner(m, workers, opts)
		if err != nil {
			return nil, err
		}
	default:
		return nil, fmt.Errorf("partition: unknown scheme %v", scheme)
	}
	p := &Plan{
		Workers: workers,
		Neurons: n,
		Layers:  len(m.Layers),
		Owner:   owner,
	}
	p.Rows = make([][]int32, workers)
	for v, o := range owner {
		p.Rows[o] = append(p.Rows[o], int32(v))
	}
	for _, rows := range p.Rows {
		sort.Slice(rows, func(i, j int) bool { return rows[i] < rows[j] })
	}
	p.buildMaps(m)
	return p, nil
}

func blockOwner(n, workers int) []int32 {
	owner := make([]int32, n)
	for v := range owner {
		// Even split with remainders spread over the first parts.
		owner[v] = int32(v * workers / n)
	}
	return owner
}

func randomOwner(n, workers int, seed int64) []int32 {
	rng := rand.New(rand.NewSource(seed))
	perm := rng.Perm(n)
	owner := make([]int32, n)
	for i, v := range perm {
		owner[v] = int32(i % workers) // balanced: round-robin over a shuffle
	}
	return owner
}

func hgpOwner(m *model.Model, workers int, opts Options) ([]int32, error) {
	n := m.Spec.Neurons
	vw := make([]int64, n)
	for _, w := range m.Layers {
		for r := 0; r < n; r++ {
			vw[r] += int64(w.RowNNZ(r))
		}
	}
	// One net per (layer, column-with-nonzeros): the column's owner pin
	// plus every row that reads it.
	var nets [][]int32
	var costs []int64
	for _, w := range m.Layers {
		colRows := make([][]int32, n)
		for r := 0; r < n; r++ {
			cols, _ := w.Row(r)
			for _, c := range cols {
				colRows[c] = append(colRows[c], int32(r))
			}
		}
		for c, rows := range colRows {
			if len(rows) == 0 {
				continue
			}
			pins := make([]int32, 0, len(rows)+1)
			pins = append(pins, int32(c))
			pins = append(pins, rows...)
			nets = append(nets, pins)
			costs = append(costs, 1)
		}
	}
	h, err := hypergraph.New(n, vw, nets, costs)
	if err != nil {
		return nil, fmt.Errorf("partition: building hypergraph: %w", err)
	}
	return hypergraph.Partition(h, workers, opts.Seed)
}

// buildMaps fills Sends and Recvs from the weight structure: at layer k,
// worker m needs activation row j for every nonzero column j of its row
// block, so j's owner sends it (once per target, service-side fan-out does
// the rest).
func (p *Plan) buildMaps(m *model.Model) {
	L := len(m.Layers)
	p.Sends = make([][][]SendEntry, L)
	p.Recvs = make([][][]int32, L)
	for k, w := range m.Layers {
		// colTargets[j] = distinct parts needing column j.
		colTargets := make([][]int32, p.Neurons)
		for r := 0; r < p.Neurons; r++ {
			part := p.Owner[r]
			cols, _ := w.Row(r)
			for _, c := range cols {
				ts := colTargets[c]
				found := false
				for _, t := range ts {
					if t == part {
						found = true
						break
					}
				}
				if !found {
					colTargets[c] = append(ts, part)
				}
			}
		}
		// sendRows[src][tgt] accumulates row ids.
		sendRows := make([][][]int32, p.Workers)
		for s := range sendRows {
			sendRows[s] = make([][]int32, p.Workers)
		}
		for j, targets := range colTargets {
			src := p.Owner[j]
			for _, t := range targets {
				if t != src {
					sendRows[src][t] = append(sendRows[src][t], int32(j))
				}
			}
		}
		p.Sends[k] = make([][]SendEntry, p.Workers)
		p.Recvs[k] = make([][]int32, p.Workers)
		for s := 0; s < p.Workers; s++ {
			for t := 0; t < p.Workers; t++ {
				rows := sendRows[s][t]
				if len(rows) == 0 {
					continue
				}
				sort.Slice(rows, func(i, j int) bool { return rows[i] < rows[j] })
				p.Sends[k][s] = append(p.Sends[k][s], SendEntry{Target: int32(t), Rows: rows})
				p.Recvs[k][t] = append(p.Recvs[k][t], int32(s))
			}
		}
		for t := 0; t < p.Workers; t++ {
			srcs := p.Recvs[k][t]
			sort.Slice(srcs, func(i, j int) bool { return srcs[i] < srcs[j] })
		}
	}
}

// Stats summarises a plan's communication and balance properties.
type Stats struct {
	// RowTransfers is the total number of activation-row transfers across
	// all layers (the connectivity-1 objective the partitioner minimises).
	RowTransfers int64
	// Pairs is the number of communicating (layer, source, target)
	// triples.
	Pairs int64
	// RowsPerPair is RowTransfers / Pairs.
	RowsPerPair float64
	// MaxRows and MinRows are the largest and smallest per-worker row
	// counts (load balance).
	MaxRows, MinRows int
	// NNZImbalance is max worker nnz over ideal, minus 1 (aggregated
	// across layers).
	NNZImbalance float64
}

// Stats computes plan statistics against its model.
func (p *Plan) Stats(m *model.Model) Stats {
	var st Stats
	for k := range p.Sends {
		for s := range p.Sends[k] {
			for _, e := range p.Sends[k][s] {
				st.RowTransfers += int64(len(e.Rows))
				st.Pairs++
			}
		}
	}
	if st.Pairs > 0 {
		st.RowsPerPair = float64(st.RowTransfers) / float64(st.Pairs)
	}
	st.MinRows = p.Neurons
	for _, rows := range p.Rows {
		if len(rows) > st.MaxRows {
			st.MaxRows = len(rows)
		}
		if len(rows) < st.MinRows {
			st.MinRows = len(rows)
		}
	}
	nnz := make([]int64, p.Workers)
	var total int64
	for _, w := range m.Layers {
		for r := 0; r < p.Neurons; r++ {
			c := int64(w.RowNNZ(r))
			nnz[p.Owner[r]] += c
			total += c
		}
	}
	var max int64
	for _, c := range nnz {
		if c > max {
			max = c
		}
	}
	if total > 0 {
		ideal := float64(total) / float64(p.Workers)
		st.NNZImbalance = float64(max)/ideal - 1
	}
	return st
}

// MapBytes estimates the serialized size of worker m's send/receive maps
// across all layers (loaded from object storage at startup).
func (p *Plan) MapBytes(worker int) int64 {
	var b int64
	for k := range p.Sends {
		for _, e := range p.Sends[k][worker] {
			b += 8 + int64(len(e.Rows))*4
		}
		b += int64(len(p.Recvs[k][worker])) * 8
	}
	return b
}
