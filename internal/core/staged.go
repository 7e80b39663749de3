package core

import (
	"fmt"
	"slices"
	"strconv"
	"sync"

	"fsdinference/internal/model"
	"fsdinference/internal/partition"
	"fsdinference/internal/sparse"
	"fsdinference/internal/wire"
)

// Staging a model — slicing per-worker row blocks and binary-encoding every
// layer — is pure in (model, plan), yet it used to run per Deploy and every
// handler re-decoded its weight blobs per run. At replay scale (replica
// pools, autoscaling, per-lane deployments) that made EncodeCSR/DecodeCSR
// the dominant allocator. stagedCache memoises the artifacts process-wide:
// the encoded blobs keep the store objects (and thus simulated transfer
// sizes, latencies and metered bytes) exactly as before, while handlers
// reuse the staged blocks in place of decoding a private copy. Weight blocks
// are read-only in the compute path (the sparse kernels do not mutate their
// operands), so sharing one block across runs, replicas and replay lanes is
// safe.
//
// This is the one process-wide cache on the engine's host side, and it stays
// because its traffic was counted: replica pools and re-plan deploys hit it
// three to eight times a round on four of the repository benchmark's five
// workloads. Its key holds the model and the plan it names, so neither
// address can be reused while the entry lives. The other cache that stays is
// the encoded frame a wire.RowSet carries (a fan-out send or a collective
// forward encodes a set once): it lives on the set and goes with it. What a
// run derives from its input — the staged frames, the layer outputs, the
// result frame — is computed by that run and released with it. None of those
// workloads hands the engine one input matrix twice, and a table keyed by
// where a caller's matrix lies either keeps every batch of a day alive or
// answers for whatever is allocated there next.
var stagedCache sync.Map // stagedKey -> *stagedModel

type stagedKey struct {
	model *model.Model
	plan  *partition.Plan // nil for Serial
}

// stagedModel holds one deployment shape's staging artifacts: store key →
// encoded blob, each worker's weight blocks in the form its kernel reads,
// and the plan's send groups. The Serial engine multiplies Model.Layers
// themselves and stages nothing but their blobs.
type stagedModel struct {
	blobs map[string][]byte
	// weights[m][k] is worker m's row block of layer k.
	weights [][]weightBlock
	// sendGroup[k][m][i] is the first entry of Plan.Sends[k][m] whose Rows
	// equal entry i's (i itself when none precedes it). Targets that need
	// the same rows of a worker form one group: the worker materialises and
	// encodes the row set once and the service fans the bytes out.
	sendGroup [][][]int
}

// weightBlock is one worker's row block of one layer, split by who owns the
// activation row each column multiplies (Algorithm 1): own holds the columns
// the worker owns, which line 8 multiplies while messages are in flight,
// other holds the rest, which lines 16-17 accumulate once their rows have
// arrived. Together they are the block entry for entry, so the two kernel
// passes visit every stored weight once. The staged object is the encoding
// of the unsplit block; bytes is that block's in-memory size, what a worker
// that decoded the object would hold.
type weightBlock struct {
	own, other *sparse.CSR
	bytes      int64
}

func stagedFor(cfg Config) *stagedModel {
	key := stagedKey{model: cfg.Model}
	if cfg.Channel != Serial {
		key.plan = cfg.Plan
	}
	if v, ok := stagedCache.Load(key); ok {
		return v.(*stagedModel)
	}
	s := &stagedModel{blobs: make(map[string][]byte)}
	if cfg.Channel == Serial {
		for k, w := range cfg.Model.Layers {
			s.blobs[serialLayerKey(k)] = model.EncodeCSR(w)
		}
	} else {
		plan := cfg.Plan
		s.weights = make([][]weightBlock, plan.Workers)
		for worker := range s.weights {
			s.weights[worker] = make([]weightBlock, len(cfg.Model.Layers))
			for k, w := range cfg.Model.Layers {
				blk := w.SelectRows(plan.Rows[worker])
				s.blobs[workerLayerKey(worker, k)] = model.EncodeCSR(blk)
				own, other := blk.SplitCols(plan.Owner, int32(worker))
				s.weights[worker][k] = weightBlock{own: own, other: other, bytes: blk.Bytes()}
			}
		}
		s.sendGroup = groupSends(plan)
	}
	if v, loaded := stagedCache.LoadOrStore(key, s); loaded {
		return v.(*stagedModel)
	}
	return s
}

// serialLayerKey and workerLayerKey name the staged weight objects.
func serialLayerKey(k int) string { return fmt.Sprintf("model/full/layer-%d.w", k) }

func workerLayerKey(worker, k int) string {
	return fmt.Sprintf("model/w%d/layer-%d.w", worker, k)
}

// serialInputKey, workerInputKey and resultKey name a run's own objects: the
// staged input (whole for Serial, one row block per worker otherwise) and
// the result the root stores. Every run builds each of its keys twice, to
// write the object and to drop it, so they are concatenated, not formatted.
func serialInputKey(run string) string { return "input/" + run + "/full.x" }

func workerInputKey(run string, worker int) string {
	return "input/" + run + "/w" + strconv.Itoa(worker) + ".x"
}

func resultKey(run string) string { return "result/" + run + ".out" }

// groupSends finds, per layer and worker, the send-map entries that list
// identical rows (see stagedModel.sendGroup).
func groupSends(plan *partition.Plan) [][][]int {
	groups := make([][][]int, len(plan.Sends))
	for k, layer := range plan.Sends {
		groups[k] = make([][]int, len(layer))
		for m, entries := range layer {
			g := make([]int, len(entries))
			for i := range entries {
				g[i] = i
				for j := 0; j < i; j++ {
					if g[j] == j && slices.Equal(entries[j].Rows, entries[i].Rows) {
						g[i] = j
						break
					}
				}
			}
			groups[k][m] = g
		}
	}
	return groups
}

// encodeInput is wire.Encode, a variable so that a test can make staging
// fail.
var encodeInput = wire.Encode

// encodedInput returns the staged payloads for one request input: a single
// full-matrix payload for Serial, one payload per worker otherwise.
func (d *Deployment) encodedInput(input *sparse.Dense, batch int) ([][]byte, error) {
	if d.Cfg.Channel == Serial {
		// Every row in order is the matrix itself: frame it in place.
		ids := make([]int32, input.Rows)
		for r := range ids {
			ids[r] = int32(r)
		}
		p, err := encodeInput(viewRows(input, ids), d.Cfg.Compress)
		if err != nil {
			return nil, fmt.Errorf("core: encoding input: %w", err)
		}
		return [][]byte{p}, nil
	}
	plan := d.Cfg.Plan
	blobs := make([][]byte, plan.Workers)
	for worker := 0; worker < plan.Workers; worker++ {
		rs := wire.NewRowSetCap(batch, len(plan.Rows[worker]))
		for _, r := range plan.Rows[worker] {
			rs.Add(r, input.Row(int(r)))
		}
		p, err := encodeInput(rs, d.Cfg.Compress)
		if err != nil {
			return nil, fmt.Errorf("core: encoding input for worker %d: %w", worker, err)
		}
		blobs[worker] = p
	}
	return blobs, nil
}

// serialResult is what the serial layer loop hands its handler: the output
// activations, the encoded result payload and the per-layer MAC and element
// counts the handler charges.
type serialResult struct {
	output    *sparse.Dense
	encoded   []byte
	layerMACs []int64
	layerOps  []int64
}

// serialCompute runs the serial layer loop for one input.
func (d *Deployment) serialCompute(input *sparse.Dense) (*serialResult, error) {
	spec := d.Cfg.Model.Spec
	// Mul reads x and writes a fresh z, so the first layer multiplies the
	// caller's matrix as it stands. Only a model without layers would hand
	// that matrix back as the run's output: it gets a copy.
	x := input
	if len(d.Cfg.Model.Layers) == 0 {
		x = input.Clone()
	}
	res := &serialResult{
		layerMACs: make([]int64, 0, len(d.Cfg.Model.Layers)),
		layerOps:  make([]int64, 0, len(d.Cfg.Model.Layers)),
	}
	for _, w := range d.Cfg.Model.Layers {
		z, macs := sparse.Mul(w, x)
		ops := sparse.ReLUBiasClamp(z, spec.Bias, spec.Clamp)
		res.layerMACs = append(res.layerMACs, macs)
		res.layerOps = append(res.layerOps, ops)
		x = z
	}
	res.output = x
	enc, err := wire.Encode(denseToRowSet(x), d.Cfg.Compress)
	if err != nil {
		return nil, err
	}
	res.encoded = enc
	return res, nil
}
