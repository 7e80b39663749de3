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
// result frame, and the sets its collective frames decode to, which the
// run's wire.Frames table shares among the ranks handed the same bytes
// (runState.frames) — is computed by that run and released with it; the
// table's storage goes back to the deployment empty, for the next run to
// fill. Its traffic was counted too: at collective_p32's P=32 a warm run
// decoded the one broadcast frame 31 times under flat, tree and auto, and
// 32 distinct pass-around frames 992 times under ring. None of those
// workloads hands the engine one input matrix twice, and a table keyed by
// where a caller's matrix lies either keeps every batch of a day alive or
// answers for whatever is allocated there next.
var stagedCache sync.Map // stagedKey -> *stagedModel

type stagedKey struct {
	model *model.Model
	plan  *partition.Plan // nil for Serial, whose one-rank plan the entry builds
}

// stagedModel holds one deployment shape's staging artifacts: the plan they
// were cut by, store key → encoded blob, each worker's weight blocks in the
// form its kernel reads, and the plan's send groups.
type stagedModel struct {
	plan  *partition.Plan
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
// of the unsplit block, stored under key; bytes is that block's in-memory
// size, what a worker that decoded the object would hold.
type weightBlock struct {
	own, other *sparse.CSR
	bytes      int64
	key        string
}

// stagedFor returns the staging artifacts of cfg's shape, building them on
// first use. Serial stages under the model alone: its plan is one rank
// owning every row (§VI-A1, Algorithm 1 with all communication removed),
// built here once per model so that every replica of it hits the cache.
func stagedFor(cfg Config) (*stagedModel, error) {
	key := stagedKey{model: cfg.Model}
	if cfg.Channel != Serial {
		key.plan = cfg.Plan
	}
	if v, ok := stagedCache.Load(key); ok {
		return v.(*stagedModel), nil
	}
	plan := key.plan
	if plan == nil {
		var err error
		if plan, err = partition.BuildPlan(cfg.Model, 1, partition.Block, partition.Options{}); err != nil {
			return nil, fmt.Errorf("core: one-rank plan: %w", err)
		}
	}
	s := &stagedModel{
		plan:      plan,
		blobs:     make(map[string][]byte),
		weights:   make([][]weightBlock, plan.Workers),
		sendGroup: groupSends(plan),
	}
	for worker := range s.weights {
		s.weights[worker] = make([]weightBlock, len(cfg.Model.Layers))
		for k, w := range cfg.Model.Layers {
			blk := w.SelectRows(plan.Rows[worker])
			key := workerLayerKey(worker, k)
			s.blobs[key] = model.EncodeCSR(blk)
			own, other := blk.SplitCols(plan.Owner, int32(worker))
			s.weights[worker][k] = weightBlock{own: own, other: other, bytes: blk.Bytes(), key: key}
		}
	}
	// A model staged meanwhile by another goroutine wins, so every
	// deployment of it shares one staging.
	v, _ := stagedCache.LoadOrStore(key, s)
	return v.(*stagedModel), nil
}

// workerLayerKey names a staged weight object.
func workerLayerKey(worker, k int) string {
	return fmt.Sprintf("model/w%d/layer-%d.w", worker, k)
}

// workerInputKey and resultKey name a run's own objects: one worker's staged
// input rows and the result the root stores. Every run builds each of its
// keys twice, to write the object and to drop it, so they are concatenated,
// not formatted.
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

// encodeInput is wire.EncodeMatrixRows, a variable so that a test can make
// staging fail.
var encodeInput = wire.EncodeMatrixRows

// encodedInput returns the staged payloads for one request input, one per
// worker: the frame of the rows the worker owns, written from the matrix
// where they lie, whether they are one ascending run of ids (Serial's one
// rank and every Block worker) or scattered (an HGP-DNN worker).
func (d *Deployment) encodedInput(input *sparse.Dense, batch int) ([][]byte, error) {
	plan := d.Cfg.Plan
	blobs := make([][]byte, plan.Workers)
	for worker, rows := range plan.Rows {
		p, err := encodeInput(input.Data, batch, rows, d.Cfg.Compress)
		if err != nil {
			return nil, fmt.Errorf("core: encoding input for worker %d: %w", worker, err)
		}
		blobs[worker] = p
	}
	return blobs, nil
}
