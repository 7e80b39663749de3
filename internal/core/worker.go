package core

import (
	"fmt"
	"strconv"

	"fsdinference/internal/cloud/faas"
	"fsdinference/internal/collective"
	"fsdinference/internal/obs"
	"fsdinference/internal/sim"
	"fsdinference/internal/sparse"
	"fsdinference/internal/wire"
)

// worker is the per-instance state of one FSI worker during a run.
type worker struct {
	d   *Deployment
	run *runState
	ctx *faas.Ctx
	id  int32

	localRows []int32
	weights   []weightBlock // local row blocks, global column ids

	// x is the row table the kernels index: this layer's input activation
	// rows by global id, nil where a row is zero or absent. The worker's
	// own rows are set before the local multiply and the rows it receives
	// after it; the two halves of a weightBlock read disjoint columns, so
	// one table serves both passes.
	x        [][]float32
	xTouched []int32

	ch      channel
	metrics *WorkerMetrics

	// pending buffers arrivals for gathers this worker has not reached yet
	// (see gathering.arrive); gath is the state of the one gather in
	// progress, reused from gather to gather.
	pending map[tag][]arrival
	gath    gathering

	// Tracing state (set only when this run was sampled): the run's
	// tracer, this worker's track name, and its lifetime span.
	trace  *obs.Tracer
	ttrack string
	tspan  obs.SpanRef
}

// opSpan opens an engine-phase span on this worker's track. The nil
// check is the entire cost when the run is untraced.
func (w *worker) opSpan(name string) obs.SpanRef {
	if w.trace == nil {
		return obs.SpanRef{}
	}
	return w.trace.Start(w.ttrack, name, obs.KindOp, w.tspan.ID())
}

// failSpan closes the worker's lifetime span on an error path, tagging
// the stage that failed.
func (w *worker) failSpan(stage string) {
	if w.trace == nil {
		return
	}
	w.tspan.SetAttr("error", stage)
	w.tspan.End()
}

// workerLink lends the worker's channel to the collective algorithms as a
// collective.Link: rank/size from the deployment, tagged exchanges mapped
// onto the channel's tags.
type workerLink struct{ w *worker }

func (l workerLink) Rank() int { return int(l.w.id) }
func (l workerLink) Size() int { return l.w.d.Cfg.Workers() }

func (l workerLink) Send(op string, round int, target int, rs *wire.RowSet) error {
	return l.w.ch.send(l.w, tag{op, round}, []targetRows{{target: int32(target), rs: rs}})
}

func (l workerLink) SendAll(op string, round int, targets []int, sets []*wire.RowSet) error {
	outs := make([]targetRows, len(targets))
	for i, t := range targets {
		outs[i] = targetRows{target: int32(t), rs: sets[i]}
	}
	return l.w.ch.send(l.w, tag{op, round}, outs)
}

func (l workerLink) Gather(op string, round int, sources []int, deliver func(src int, rs *wire.RowSet)) error {
	srcs := make([]int32, len(sources))
	for i, s := range sources {
		srcs[i] = int32(s)
	}
	return l.w.ch.gather(l.w, tag{op, round}, srcs, func(src int32, rs *wire.RowSet) {
		deliver(int(src), rs)
	})
}

// workerHandler is the FaaS body of a distributed FSI worker
// (Algorithms 1 and 2).
func (d *Deployment) workerHandler(ctx *faas.Ctx, payload []byte) ([]byte, error) {
	run, rank, err := d.runOf("worker", payload)
	if err != nil {
		return nil, err
	}

	w := &worker{
		d:       d,
		run:     run,
		ctx:     ctx,
		id:      int32(rank),
		pending: make(map[tag][]arrival),
	}
	w.metrics = &WorkerMetrics{ID: w.id, StartedAt: ctx.P.Now(), Warm: ctx.Warm}
	if sc := run.scope; sc.T != nil {
		w.trace = sc.T
		w.ttrack = fmt.Sprintf("%s/w%d", sc.Track, w.id)
		w.tspan = sc.T.Start(w.ttrack, "worker", obs.KindWorker, sc.Parent)
		w.tspan.SetAttr("warm", strconv.FormatBool(ctx.Warm))
	}
	run.metrics = append(run.metrics, w.metrics)
	if ctx.P.Now() > run.lastStart {
		run.lastStart = ctx.P.Now()
	}

	w.ch = transports[d.Cfg.Channel].open(w)

	// Launch this worker's children before any other work, spreading
	// launch responsibility across the tree.
	if err := d.launch(ctx, run, rank); err != nil {
		run.workerErrs = append(run.workerErrs, err)
		w.failSpan("invoke-children")
		return nil, err
	}
	if err := w.load(); err != nil {
		run.workerErrs = append(run.workerErrs, err)
		w.failSpan("load")
		return nil, err
	}
	if err := w.runFSI(); err != nil {
		run.workerErrs = append(run.workerErrs, err)
		w.failSpan("fsi")
		return nil, err
	}
	w.metrics.FinishedAt = ctx.P.Now()
	w.metrics.PeakMemBytes = ctx.PeakMem()
	w.tspan.End()
	return []byte(`{"ok":true}`), nil
}

// load reads this worker's weight row blocks, its input activation rows and
// accounts the send/receive maps, charging store reads and instance memory
// (§III: each worker reads its share of weights, inference data and
// per-layer send/recv maps upon launch).
func (w *worker) load() error {
	sp := w.opSpan("load")
	defer sp.End()
	p := w.ctx.P
	d := w.d
	t0 := p.Now()
	n := d.Cfg.Model.Spec.Neurons
	w.localRows = d.Cfg.Plan.Rows[w.id]
	// The fetched objects are this process's own encodings of the staged
	// blocks (the read and the parse are charged on their real length), so
	// the worker computes on the blocks and decodes nothing.
	w.weights = d.staged.weights[w.id]
	perf := w.ctx.Perf()
	for k, blk := range w.weights {
		blob, err := d.store.View(p, workerLayerKey(int(w.id), k))
		if err != nil {
			return fmt.Errorf("core: worker %d loading layer %d: %w", w.id, k, err)
		}
		w.metrics.StoreGets++
		w.ctx.Serialize(int64(len(blob)))
		w.ctx.Alloc(int64(float64(blk.bytes) * perf.MemOverheadWeights))
	}
	// Send/receive maps.
	w.ctx.Alloc(d.Cfg.Plan.MapBytes(int(w.id)) * 2)

	// Input rows.
	blob, err := d.store.View(p, workerInputKey(w.run.id, int(w.id)))
	if err != nil {
		return fmt.Errorf("core: worker %d loading input: %w", w.id, err)
	}
	w.metrics.StoreGets++
	w.ctx.Serialize(int64(len(blob)))
	if wire.Deflated(blob) {
		w.ctx.Decompress(int64(len(blob)))
	}
	rs, err := wire.Decode(blob)
	if err != nil {
		return fmt.Errorf("core: worker %d decoding input: %w", w.id, err)
	}
	w.x = make([][]float32, n)
	for i := 0; i < rs.Len(); i++ {
		w.setX(rs.IDs[i], rs.Row(i))
	}
	w.ctx.Alloc(int64(float64(rs.RawBytes()) * perf.MemOverheadData))
	w.metrics.LoadTime = p.Now() - t0
	return nil
}

func (w *worker) setX(id int32, vals []float32) {
	w.x[id] = vals
	w.xTouched = append(w.xTouched, id)
}

func (w *worker) clearLayerState() {
	for _, id := range w.xTouched {
		w.x[id] = nil
	}
	w.xTouched = w.xTouched[:0]
}

// runFSI executes the FSI loop (Algorithm 1 for the queue channel,
// Algorithm 2 for the object channel; the structure is shared and the
// channel-specific send/receive mechanics differ).
func (w *worker) runFSI() error {
	d := w.d
	spec := d.Cfg.Model.Spec
	batch := w.run.batch
	perf := w.ctx.Perf()

	// prevBytes tracks the accounted size of the activation state carried
	// between layers; recvBytes tracks this layer's received-row buffers.
	var prevBytes, recvBytes int64
	for k := range w.weights {
		lsp := w.opSpan("layer")
		if lsp.Active() {
			lsp.SetAttr("k", strconv.Itoa(k))
		}
		// Extract and ship outgoing rows for this layer
		// (Algorithm 1 lines 3-7 / Algorithm 2 lines 3-8).
		outs := w.extractSendRows(k)
		ssp := w.opSpan("send")
		if err := w.ch.send(w, tag{dataKind, k}, outs); err != nil {
			return fmt.Errorf("core: worker %d layer %d send: %w", w.id, k, err)
		}
		ssp.End()

		// Local multiply, overlapping communication with computation
		// (line 8/9): z = W_m · x_m using only locally held rows.
		z := sparse.NewDense(len(w.localRows), batch)
		zBytes := int64(float64(z.Bytes()) * perf.MemOverheadData)
		w.ctx.Alloc(zBytes)
		macs := sparse.MulRowsInto(w.weights[k].own, w.x, z)
		w.ctx.Compute(float64(macs))

		// Receive inbound rows until all sources for this layer have
		// delivered (lines 9-15 / 10-21).
		sources := d.Cfg.Plan.Recvs[k][w.id]
		recvBytes = 0
		if len(sources) > 0 {
			rsp := w.opSpan("recv")
			err := w.ch.gather(w, tag{dataKind, k}, sources, func(src int32, rs *wire.RowSet) {
				for i := 0; i < rs.Len(); i++ {
					w.setX(rs.IDs[i], rs.Row(i))
				}
				w.metrics.RowsRecv += int64(rs.Len())
				b := int64(float64(rs.RawBytes()) * perf.MemOverheadData)
				recvBytes += b
				w.ctx.Alloc(b)
			})
			rsp.End()
			if err != nil {
				return fmt.Errorf("core: worker %d layer %d receive: %w", w.id, k, err)
			}
		}

		// Accumulate received contributions (lines 16-17 / 22-23).
		rmacs := sparse.MulRowsInto(w.weights[k].other, w.x, z)
		w.ctx.Compute(float64(rmacs))

		// Activation (line 18 / 24).
		ops := sparse.ReLUBiasClamp(z, spec.Bias, spec.Clamp)
		w.ctx.ComputeElem(float64(ops))

		// The layer output becomes next layer's local input rows;
		// the previous layer's activations and this layer's receive
		// buffers are released.
		w.clearLayerState()
		for i, r := range w.localRows {
			w.setX(r, z.Row(i))
		}
		w.ctx.Free(prevBytes + recvBytes)
		prevBytes = zBytes
		lsp.End()
	}

	// Barrier, then reduce the distributed output (lines 19-22 / 25-28) —
	// both through the collectives subsystem, under the configured (or
	// auto-picked) topology.
	t0 := w.ctx.P.Now()
	if err := w.barrier(); err != nil {
		return fmt.Errorf("core: worker %d barrier: %w", w.id, err)
	}
	w.metrics.BarrierTime = w.ctx.P.Now() - t0
	t0 = w.ctx.P.Now()
	if err := w.reduce(); err != nil {
		return err
	}
	w.metrics.ReduceTime = w.ctx.P.Now() - t0
	return nil
}

// algoFor resolves the deployment's collective topology for one call.
// AutoAlgo consults the analytic model with a rank-independent payload
// estimate — every rank must resolve to the same topology or the exchange
// deadlocks, so the estimate uses the plan's even row split, not this
// rank's actual sparsity.
func (w *worker) algoFor(op collective.Op, msgBytes int64) collective.Algorithm {
	alg := w.d.Cfg.Collective
	if alg == collective.AutoAlgo {
		traits := transports[w.d.Cfg.Channel].traits(w.d.Cfg, w.d.Env.Cfg, msgBytes)
		alg = collective.Pick(op, w.d.Cfg.Workers(), msgBytes, traits)
	}
	return alg
}

// ReduceContributionBytes is the rank-independent estimate of one worker's
// contribution to the final reduce — the plan's even row share, dense — that
// AutoAlgo resolves the closing collectives with and the planner's
// pre-filter judges topologies by.
func ReduceContributionBytes(neurons, workers, batch int) int64 {
	if workers < 1 {
		workers = 1
	}
	return int64(neurons) / int64(workers) * int64(batch+1) * 4
}

// noteCollective records one collective call in the environment meter
// (rank 0 only, so a P-worker collective counts once).
func (w *worker) noteCollective(op collective.Op, alg collective.Algorithm) {
	if w.id == 0 {
		w.d.Env.Meter.AddCollective(op.String(), alg.String())
		if w.run.collectives == nil {
			w.run.collectives = make(map[string]int64)
		}
		w.run.collectives[op.String()+"/"+alg.String()]++
	}
}

// barrier synchronises all workers through the collectives subsystem.
func (w *worker) barrier() error {
	if w.d.Cfg.Workers() <= 1 {
		return nil
	}
	alg := w.algoFor(collective.OpBarrier, 0)
	w.noteCollective(collective.OpBarrier, alg)
	sp := w.opSpan("barrier")
	if sp.Active() {
		sp.SetAttr("alg", alg.String())
	}
	err := collective.Barrier(alg, workerLink{w})
	sp.End()
	return err
}

// extractSendRows materialises the layer's send map entries with data,
// skipping rows that are entirely zero (the sparsity optimisation; the
// channel still tells the target the transfer is complete). Entries of one
// send group share a single RowSet, so the channel's encode runs once per
// group; serialization work is still charged here per target, and the
// channel charges transport per target.
func (w *worker) extractSendRows(k int) []targetRows {
	entries := w.d.Cfg.Plan.Sends[k][w.id]
	group := w.d.staged.sendGroup[k][w.id]
	outs := make([]targetRows, 0, len(entries))
	batch := w.run.batch
	for i, e := range entries {
		var rs *wire.RowSet
		if g := group[i]; g < i {
			rs = outs[g].rs
		} else {
			rs = wire.NewRowSetCap(batch, len(e.Rows))
			for _, r := range e.Rows {
				row := w.x[r]
				if row == nil || allZero(row) {
					continue
				}
				rs.Add(r, row)
			}
		}
		w.ctx.Serialize(rs.RawBytes())
		w.metrics.RowsSent += int64(rs.Len())
		outs = append(outs, targetRows{target: e.Target, rs: rs})
	}
	return outs
}

func allZero(row []float32) bool {
	for _, v := range row {
		if v != 0 {
			return false
		}
	}
	return true
}

// reduce combines every worker's final activation rows into the overall
// inference result x^L (§III-C3): a gather at worker 0 by default, or —
// under AllreduceOutput — an allreduce that materialises the result at all
// P workers (Result.AllOutputs), fixing the root-only reduction.
func (w *worker) reduce() error {
	batch := w.run.batch
	mine := wire.NewRowSetCap(batch, len(w.localRows))
	for _, r := range w.localRows {
		if row := w.x[r]; row != nil {
			mine.Add(r, row)
		}
	}
	w.ctx.Serialize(mine.RawBytes())
	est := ReduceContributionBytes(w.d.Cfg.Model.Spec.Neurons, w.d.Cfg.Workers(), batch)

	if w.d.Cfg.AllreduceOutput {
		alg := w.algoFor(collective.OpAllreduce, est)
		w.noteCollective(collective.OpAllreduce, alg)
		sp := w.opSpan("allreduce")
		if sp.Active() {
			sp.SetAttr("alg", alg.String())
		}
		full, err := collective.Allreduce(alg, workerLink{w}, mine, collective.Union)
		sp.End()
		if err != nil {
			return fmt.Errorf("core: worker %d allreduce: %w", w.id, err)
		}
		out := w.fillDense(full)
		if w.run.outputs != nil && int(w.id) < len(w.run.outputs) {
			w.run.outputs[w.id] = out
		}
		if w.id != 0 {
			return nil
		}
		return w.storeResult(out)
	}

	alg := w.algoFor(collective.OpGather, est)
	w.noteCollective(collective.OpGather, alg)
	sp := w.opSpan("gather")
	if sp.Active() {
		sp.SetAttr("alg", alg.String())
	}
	full, err := collective.Gather(alg, workerLink{w}, 0, mine)
	sp.End()
	if err != nil {
		return fmt.Errorf("core: worker %d reduce: %w", w.id, err)
	}
	if w.id != 0 {
		return nil
	}
	return w.storeResult(w.fillDense(full))
}

// fillDense scatters a combined row set into a dense N x batch output.
func (w *worker) fillDense(rs *wire.RowSet) *sparse.Dense {
	out := sparse.NewDense(w.d.Cfg.Model.Spec.Neurons, w.run.batch)
	if rs != nil {
		for i := 0; i < rs.Len(); i++ {
			copy(out.Row(int(rs.IDs[i])), rs.Row(i))
		}
	}
	return out
}

// storeResult writes the result object (billed) and reports it to the
// client.
func (w *worker) storeResult(out *sparse.Dense) error {
	enc, err := wire.Encode(denseToRowSet(out), w.d.Cfg.Compress)
	if err != nil {
		return fmt.Errorf("core: encoding result: %w", err)
	}
	w.ctx.Serialize(int64(len(enc)))
	if err := w.d.store.Put(w.ctx.P, resultKey(w.run.id), enc); err != nil {
		return fmt.Errorf("core: storing result: %w", err)
	}
	w.metrics.StorePuts++
	w.run.output = out
	return nil
}

// denseToRowSet returns the non-zero rows of d as a row set, at exact size.
// When no row is zero the set views d (see viewRows); both callers frame the
// set at once and drop it, and hold d as a finished output nobody writes to.
func denseToRowSet(d *sparse.Dense) *wire.RowSet {
	ids := d.NonzeroRows()
	if len(ids) == d.Rows {
		return viewRows(d, ids)
	}
	vals := make([]float32, 0, len(ids)*d.Cols)
	for _, r := range ids {
		vals = append(vals, d.Row(int(r))...)
	}
	return &wire.RowSet{Batch: d.Cols, IDs: ids, Vals: vals}
}

// viewRows returns the row set of all of d's rows, ids being 0..Rows-1,
// without copying them: Vals is d's own array, cut to its length so that an
// Add or Append on the set reallocates rather than growing into d's spare
// capacity. The set is for encoding; d must not change while it is in use.
func viewRows(d *sparse.Dense, ids []int32) *wire.RowSet {
	n := d.Rows * d.Cols
	return &wire.RowSet{Batch: d.Cols, IDs: ids, Vals: d.Data[:n:n]}
}

// threads runs tasks on the worker's communication thread pool
// (ThreadPoolExecutor of §VI-A1): up to Threads simulated threads issue
// service calls concurrently; the call returns when all tasks finish.
// Returns the first task error, if any.
func (w *worker) threads(name string, tasks []func(p *sim.Proc) error) error {
	return w.threadsN(name, w.d.Cfg.Threads, tasks)
}

// threadsN is threads with an explicit pool width, for paths whose
// concurrency is configured separately (the Hybrid channel's bulk chunk
// fanout).
func (w *worker) threadsN(name string, width int, tasks []func(p *sim.Proc) error) error {
	if len(tasks) == 0 {
		return nil
	}
	nt := width
	if nt < 1 {
		nt = 1
	}
	if nt > len(tasks) {
		nt = len(tasks)
	}
	k := w.ctx.P.Kernel()
	wg := sim.NewWaitGroup(k)
	wg.Add(nt)
	next := 0
	var firstErr error
	for t := 0; t < nt; t++ {
		k.Go(fmt.Sprintf("w%d-%s-t%d", w.id, name, t), func(tp *sim.Proc) {
			defer wg.Done()
			for {
				if next >= len(tasks) {
					return
				}
				task := tasks[next]
				next++
				if err := task(tp); err != nil && firstErr == nil {
					firstErr = err
				}
			}
		})
	}
	wg.Wait(w.ctx.P)
	return firstErr
}
