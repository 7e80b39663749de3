// Package model provides the sparse DNN workload of the paper's evaluation:
// synthetic Graph Challenge-style deep networks (MIT/IEEE/Amazon Sparse DNN
// Graph Challenge, paper §VI-A), thresholded sparse binary inputs, and a
// serial reference inference used as ground truth.
//
// The real benchmark distributes RadiX-Net topologies and MNIST-derived
// inputs; offline, this package generates seeded synthetic equivalents with
// the properties the evaluation depends on: L layers of N neurons, exactly
// FanIn (32) incoming connections per neuron, mixed-sign weights that keep
// activations alive and sparse across deep networks, the paper's per-size
// bias values, ReLU activation, and the Graph Challenge clamp of neuron
// activations at 32.
package model

import (
	"encoding/binary"
	"fmt"
	"math"
	"math/rand"

	"fsdinference/internal/sparse"
)

// GraphChallengeSizes lists the per-layer neuron counts of the benchmark.
var GraphChallengeSizes = []int{1024, 4096, 16384, 65536}

// BiasFor returns the bias the paper applies for a given neuron count
// (§VI-A1: -0.30, -0.35, -0.40, -0.45 for N = 1024..65536).
func BiasFor(neurons int) float32 {
	switch {
	case neurons <= 1024:
		return -0.30
	case neurons <= 4096:
		return -0.35
	case neurons <= 16384:
		return -0.40
	default:
		return -0.45
	}
}

// Spec describes a synthetic sparse DNN.
type Spec struct {
	// Neurons is the per-layer neuron count N.
	Neurons int
	// Layers is the layer count L (120 in the paper's evaluation).
	Layers int
	// FanIn is the number of incoming connections per neuron (32).
	FanIn int
	// Bias is the per-layer bias added before activation.
	Bias float32
	// Clamp is the neuron activation ceiling (32 per the Graph
	// Challenge); 0 disables clamping.
	Clamp float32
	// Seed drives deterministic topology and weight generation.
	Seed int64
}

// GraphChallengeSpec returns the paper's configuration for a given neuron
// count and layer count: fan-in 32, the paper's bias, clamp 32.
func GraphChallengeSpec(neurons, layers int, seed int64) Spec {
	return Spec{
		Neurons: neurons,
		Layers:  layers,
		FanIn:   32,
		Bias:    BiasFor(neurons),
		Clamp:   32,
		Seed:    seed,
	}
}

// Validate checks the spec for basic consistency.
func (s Spec) Validate() error {
	if s.Neurons <= 0 {
		return fmt.Errorf("model: neurons must be positive, got %d", s.Neurons)
	}
	if s.Layers <= 0 {
		return fmt.Errorf("model: layers must be positive, got %d", s.Layers)
	}
	if s.FanIn <= 0 || s.FanIn >= s.Neurons {
		return fmt.Errorf("model: fan-in %d outside [1, %d)", s.FanIn, s.Neurons)
	}
	return nil
}

// Model is a sparse DNN: Layers[k] is the N x N weight matrix W^{k+1} whose
// row i holds the incoming weights of neuron i at layer k+1.
type Model struct {
	Spec   Spec
	Layers []*sparse.CSR
}

// Generate builds a deterministic synthetic model from the spec.
//
// Topology follows RadiX-Net's multi-scale structure: each neuron's FanIn
// sources are drawn at log-uniform distances (like the strides of the
// mixed-radix butterflies RadiX-Net composes), so most connections are
// local with a tail of long-range links. This preserves the property the
// paper's partitioning evaluation depends on — hypergraph partitioning can
// place communicating neurons together, cutting communication volume by
// close to an order of magnitude versus random placement (Table III). A
// fully random topology would be an expander, unpartitionable by any
// method.
//
// Weight values are mixed-sign — positive with probability 0.55, magnitudes
// uniform in [0.2, 0.6] — which keeps deep-layer activations alive (mean
// values near the clamp) but leaves ~20% of neuron rows dead per layer,
// exercising the engine's sparsity machinery. The exact RadiX-Net weights
// are not redistributable; what the evaluation requires is the benchmark's
// controlled structure, which this preserves.
func Generate(spec Spec) (*Model, error) {
	if err := spec.Validate(); err != nil {
		return nil, err
	}
	m := &Model{Spec: spec, Layers: make([]*sparse.CSR, spec.Layers)}
	for k := 0; k < spec.Layers; k++ {
		rng := rand.New(rand.NewSource(spec.Seed + int64(k)*1_000_003))
		layer, err := generateLayer(spec, rng)
		if err != nil {
			return nil, err
		}
		m.Layers[k] = layer
	}
	return m, nil
}

func generateLayer(spec Spec, rng *rand.Rand) (*sparse.CSR, error) {
	n := spec.Neurons
	entries := make([]sparse.Triplet, 0, n*spec.FanIn)
	seen := make(map[int32]bool, spec.FanIn)
	// Local window: 96% of links land uniformly within it (RadiX-Net's
	// short butterfly strides); the rest are log-uniform global mixing
	// links. The window is kept well above FanIn so deduplication does
	// not force extra long links.
	window := n / 256
	if window < 2*spec.FanIn {
		window = 2 * spec.FanIn
	}
	if window > n/2 {
		window = n / 2
	}
	logN := math.Log(float64(n) / 2)
	for i := 0; i < n; i++ {
		for k := range seen {
			delete(seen, k)
		}
		// The window draw alone reaches min(4·FanIn, n-1) sources on
		// either side (window is at least 2·FanIn or n/2), so the loop
		// finds FanIn distinct ones.
		for len(seen) < spec.FanIn {
			var dist int
			if rng.Float64() < 0.96 {
				dist = 1 + rng.Intn(window)
			} else {
				dist = int(math.Exp(rng.Float64() * logN))
			}
			if rng.Intn(2) == 0 {
				dist = -dist
			}
			src := int32(((i+dist)%n + n) % n)
			if src == int32(i) || seen[src] {
				continue
			}
			seen[src] = true
			mag := 0.2 + rng.Float64()*0.4
			if rng.Float64() >= 0.55 {
				mag = -mag
			}
			entries = append(entries, sparse.Triplet{
				Row: int32(i), Col: src, Val: float32(mag),
			})
		}
	}
	return sparse.NewCSR(n, n, entries)
}

// NNZ returns the total nonzero count across all layers.
func (m *Model) NNZ() int64 {
	var n int64
	for _, l := range m.Layers {
		n += int64(l.NNZ())
	}
	return n
}

// WeightBytes returns the raw serialized size of all layer weights.
func (m *Model) WeightBytes() int64 {
	var b int64
	for _, l := range m.Layers {
		b += l.Bytes()
	}
	return b
}

// GenerateInputs returns a batch of synthetic thresholded inputs: an
// N x batch matrix of {0,1} values with approximately the given density
// (MNIST thresholded at the Graph Challenge level is ~0.2). Columns are
// samples. A density at or below 0 gives all zeros, at or above 1 all ones;
// NaN gives all zeros.
func GenerateInputs(neurons, batch int, density float64, seed int64) *sparse.Dense {
	// Streaming replays generate inputs per query with a distinct seed, so
	// this runs a million times a day. Seeding a math/rand source costs
	// microseconds (it initialises a 607-word lagged-Fibonacci table); a
	// splitmix64 stream seeds for free and its two multiply-xor-shift
	// rounds per value are plenty for Bernoulli thresholding. Each value is
	// stored without a branch: at density 0.2 a branch on the draw is
	// mispredicted about one time in five.
	cut := inputCut(density)
	s := uint64(seed)
	x := sparse.NewDense(neurons, batch)
	for i := range x.Data {
		s += 0x9e3779b97f4a7c15
		z := s
		z ^= z >> 30
		z *= 0xbf58476d1ce4e5b9
		z ^= z >> 27
		z *= 0x94d049bb133111eb
		z ^= z >> 31
		x.Data[i] = below(z>>11, cut)
	}
	return x
}

// inputCut is the integer threshold of a 53-bit draw u: u < inputCut(d)
// exactly when float64(u)/2^53 < d. Both u/2^53 and d·2^53 are exact (a
// power-of-two scaling), and an integer is below a real x >= 0 exactly when
// it is below ceil(x). The density is clamped to [0, 1] first, which moves
// no draw's outcome. NaN becomes 0: a float compare against it is false, so
// no draw was ever below it.
func inputCut(density float64) uint64 {
	if !(density > 0) {
		return 0
	}
	if density >= 1 {
		return 1 << 53
	}
	return uint64(math.Ceil(density * (1 << 53)))
}

// below returns 1 when u < cut and 0 otherwise, for u and cut of at most
// 2^53: u - cut wraps to a number with its top bit set exactly when u is the
// smaller. (The bit converts as an int64: one instruction, where a uint64
// conversion tests for values past 2^63.)
func below(u, cut uint64) float32 { return float32(int64((u - cut) >> 63)) }

// Reference runs serial float64 inference over the whole model and returns
// the final activations. It is the ground truth the distributed engines are
// checked against (the paper validates against the benchmark's provided
// ground truths).
func Reference(m *Model, input *sparse.Dense) *sparse.Dense {
	n, batch := input.Rows, input.Cols
	cur := make([]float64, n*batch)
	for i, v := range input.Data {
		cur[i] = float64(v)
	}
	next := make([]float64, n*batch)
	for _, w := range m.Layers {
		for i := range next {
			next[i] = 0
		}
		for r := 0; r < w.Rows; r++ {
			cols, vals := w.Row(r)
			out := next[r*batch : (r+1)*batch]
			for i, c := range cols {
				in := cur[int(c)*batch : (int(c)+1)*batch]
				v := float64(vals[i])
				for j, xv := range in {
					out[j] += v * xv
				}
			}
		}
		for i := range next {
			v := next[i] + float64(m.Spec.Bias)
			if v < 0 {
				v = 0
			} else if m.Spec.Clamp > 0 && v > float64(m.Spec.Clamp) {
				v = float64(m.Spec.Clamp)
			}
			next[i] = v
		}
		cur, next = next, cur
	}
	out := sparse.NewDense(n, batch)
	for i, v := range cur {
		out.Data[i] = float32(v)
	}
	return out
}

// OutputsClose reports whether two activation matrices agree within an
// absolute tolerance, allowing for float32 summation-order differences
// between serial and distributed execution.
func OutputsClose(a, b *sparse.Dense, tol float64) bool {
	if a.Rows != b.Rows || a.Cols != b.Cols {
		return false
	}
	for i := range a.Data {
		if math.Abs(float64(a.Data[i])-float64(b.Data[i])) > tol {
			return false
		}
	}
	return true
}

// EncodeCSR serializes a CSR matrix to a compact binary blob (little-endian
// dimensions, row pointers, column indices, values). It is the on-object-
// storage format for model partitions.
func EncodeCSR(m *sparse.CSR) []byte {
	buf := make([]byte, 0, 16+len(m.RowPtr)*4+len(m.ColIdx)*4+len(m.Val)*4)
	var tmp [8]byte
	binary.LittleEndian.PutUint32(tmp[0:4], uint32(m.Rows))
	binary.LittleEndian.PutUint32(tmp[4:8], uint32(m.Cols))
	buf = append(buf, tmp[:8]...)
	binary.LittleEndian.PutUint32(tmp[0:4], uint32(len(m.ColIdx)))
	buf = append(buf, tmp[:4]...)
	for _, v := range m.RowPtr {
		binary.LittleEndian.PutUint32(tmp[0:4], uint32(v))
		buf = append(buf, tmp[:4]...)
	}
	for _, v := range m.ColIdx {
		binary.LittleEndian.PutUint32(tmp[0:4], uint32(v))
		buf = append(buf, tmp[:4]...)
	}
	for _, v := range m.Val {
		binary.LittleEndian.PutUint32(tmp[0:4], math.Float32bits(v))
		buf = append(buf, tmp[:4]...)
	}
	return buf
}
