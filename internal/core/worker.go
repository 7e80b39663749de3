package core

import (
	"fmt"
	"slices"
	"strconv"

	"fsdinference/internal/cloud/faas"
	"fsdinference/internal/cloud/sqs"
	"fsdinference/internal/collective"
	"fsdinference/internal/obs"
	"fsdinference/internal/sim"
	"fsdinference/internal/sparse"
	"fsdinference/internal/wire"
)

// worker is the per-instance state of one FSI worker during a run. A run
// allocates one per rank: on a 64-bit platform it is 568 bytes, which with
// the allocator's 8-byte header fills the 576-byte size class, and 8 bytes
// more would take the 640-byte one. Buffers only a rank with a channel
// needs are therefore behind one pointer (chanBufs).
type worker struct {
	d   *Deployment
	run *runState
	ctx *faas.Ctx
	id  int32
	// foldRoot is set while rank 0 gathers the result: each arriving set
	// is copied into the result as it is delivered, so it decodes into the
	// receive arena (see decodePayload). It sits in id's padding.
	foldRoot bool

	localRows []int32
	weights   []weightBlock // local row blocks, global column ids

	// rankBufs is the rank's data path, taken from the deployment's slot as
	// the worker starts and given back when it succeeds (see rankBufs).
	rankBufs

	ch      channel
	metrics *WorkerMetrics

	// pending buffers arrivals for gathers this worker has not reached yet
	// (see gathering.arrive); gath is the state of the one gather in
	// progress, reused from gather to gather.
	pending map[tag][]arrival
	gath    gathering
	// linkDeliver is the deliver of the collective gather in progress
	// (workerLink.Gather), and linked the one adapter that hands it every
	// delivery, built at the worker's first collective gather.
	linkDeliver func(src int, rs *wire.RowSet)
	linked      func(src int32, rs *wire.RowSet)

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

// rankBufs are one rank's data-path buffers: a layer's rows, the row-set
// headers that view them, the lists a send or a collective hop hands its
// channel and the Queue channel's messages, publish batches and receipt
// handles are written into them instead of into fresh allocations, so the
// FSI data path allocates per deployment, not per run, per layer, per value,
// per message or per hop. The deployment keeps one slot per rank
// (Deployment.bufs), as an instance stays warm between invocations. A worker empties its rank's slot
// as it starts, so a run overlapping it on the same rank allocates its own,
// and gives the buffers back, emptied, only once its handler has succeeded:
// a rank that failed or timed out may have stopped anywhere, mid-layer with
// rows in its table or with its communication threads still running, so it
// keeps what it took and the rank's next run starts fresh. Nothing that
// outlives a run points into them: frames are fresh bytes, the gathered and
// allreduced results are copies. Nor does anything in them point out past
// the layer that used it: a reused header memoises the frame it was encoded
// to or decoded from, outs the sets a send shipped and msgs and chunks the
// frames a Queue send published, so clearLayerState empties them as every
// layer ends, and the slot never keeps a run's last frames alive.
type rankBufs struct {
	// x is the row table the kernels index: this layer's input activation
	// rows by global id, nil where a row is zero or absent. The worker's
	// own rows are set before the local multiply and the rows it receives
	// after it; the two halves of a weightBlock read disjoint columns, so
	// one table serves both passes. xTouched lists the ids set, so that
	// clearLayerState empties the table without a pass over all N.
	x        [][]float32
	xTouched []int32

	// zbuf[k&1] is layer k's output z, zeroed as the layer starts. Through
	// layer k+1 x's own rows point into z_k, so the two layers in flight take
	// alternate buffers.
	zbuf [2]*sparse.Dense
	// sendIDs and sendVals are the arena extractSendRows cuts one row set per
	// send group from, and sendSets[i] the header of the set of the group
	// whose first send-map entry is i. The sets live until send returns; the
	// frames encoded from them are fresh bytes, so nothing a service holds
	// points here.
	sendIDs  []int32
	sendVals []float32
	sendSets []wire.RowSet
	// outs is the (target, set) list of the send in progress, the layer's
	// (extractSendRows) or a collective hop's (workerLink), and srcs the
	// source list of a collective hop's gather. The channels read both only
	// until the call returns.
	outs []targetRows
	srcs []int32
	// recvIDs and recvVals are the arena the input rows (load) and a layer's
	// data gather (decodePayload) decode into, and recvSet the one header
	// each decoded set fills: a set is delivered before the next arrival
	// decodes, and its rows are read and never the header. The rows live in
	// x until clearLayerState truncates the arena and empties the header at
	// the end of the layer. The gather's root decodes each set it folds into
	// the result here too, and truncates the arena once the set is copied.
	recvIDs  []int32
	recvVals []float32
	recvSet  wire.RowSet

	// chanBufs are the buffers only a rank with a channel fills, made as its
	// first worker opens the channel: a rank alone (Serial) never makes
	// them, so its worker is no larger for them.
	*chanBufs
}

// chanBufs are the buffers a rank's channel sends and polls fill.
type chanBufs struct {
	// noRows is the empty set a collective hop ships for the nil
	// contribution the collectives hand the link (see collective.Link): it
	// memoises only the format's shared empty frame.
	noRows wire.RowSet
	// chunks is the frames encodeChunks cut the set of the send in progress
	// into, read before the next set is cut. msgs is a Queue send's messages,
	// every target's chunks in send order, and sizes and bounds its publish's
	// message sizes and batch bounds (packBatches); handles is the receipt
	// handles of the Queue poll in progress. Each is emptied as its call
	// returns, and clearLayerState empties the three that hold frames or
	// strings over their whole capacity, so none keeps a frame or an
	// attribute map alive past the call.
	chunks  [][]byte
	msgs    []sqs.Message
	sizes   []int
	bounds  []int
	handles []string
	// pools is the free list of the comm pools threadsN runs: a call takes
	// one and pushes it back, emptied of its task and error, once its
	// threads are done, so no two calls in flight share a pool.
	pools []*commPool
}

// sendOuts returns the first n of the rank's send slots (see outs).
func (b *rankBufs) sendOuts(n int) []targetRows {
	if len(b.outs) < n {
		b.outs = make([]targetRows, n)
	}
	return b.outs[:n]
}

// doneSending empties the buffers a send filled: the chunks its sets were
// cut into and a Queue send's messages, sizes and batch bounds. The frames
// and attribute maps are the services' now.
func (b *chanBufs) doneSending() {
	clear(b.chunks)
	clear(b.msgs)
	b.chunks, b.msgs, b.sizes, b.bounds = b.chunks[:0], b.msgs[:0], b.sizes[:0], b.bounds[:0]
}

// takeBufs empties rank's slot and returns what it held: the buffers a
// successful earlier run of the rank gave back, or none.
func (d *Deployment) takeBufs(rank int) rankBufs {
	b := d.bufs[rank]
	d.bufs[rank] = rankBufs{}
	return b
}

// giveBufs clears the row table and hands the worker's buffers back to its
// rank's slot for the next run. Call it only once the run is done with them.
func (w *worker) giveBufs() {
	w.clearLayerState()
	w.d.bufs[w.id] = w.rankBufs
}

// workerLink lends the worker's channel to the collective algorithms as a
// collective.Link: rank/size from the deployment, tagged exchanges mapped
// onto the channel's tags.
type workerLink struct{ w *worker }

func (l workerLink) Rank() int { return int(l.w.id) }
func (l workerLink) Size() int { return l.w.d.Cfg.Workers() }

// The three exchanges build their lists in the rank's buffers (outs, srcs)
// and hand every delivery on through the worker's one adapter, so a hop
// allocates nothing of its own; a worker runs one collective step at a time.

func (l workerLink) Send(op string, round int, target int, rs *wire.RowSet) error {
	outs := l.w.sendOuts(1)
	outs[0] = targetRows{target: int32(target), rs: l.orEmpty(rs)}
	return l.w.ch.send(l.w, tag{op, round}, outs)
}

func (l workerLink) SendAll(op string, round int, targets []int, rs *wire.RowSet) error {
	outs := l.w.sendOuts(len(targets))
	rs = l.orEmpty(rs)
	for i, t := range targets {
		outs[i] = targetRows{target: int32(t), rs: rs}
	}
	return l.w.ch.send(l.w, tag{op, round}, outs)
}

// orEmpty is rs, or the worker's empty set for the nil contribution.
func (l workerLink) orEmpty(rs *wire.RowSet) *wire.RowSet {
	if rs == nil {
		return &l.w.noRows
	}
	return rs
}

func (l workerLink) Gather(op string, round int, sources []int, deliver func(src int, rs *wire.RowSet)) error {
	w := l.w
	w.srcs = w.srcs[:0]
	for _, s := range sources {
		w.srcs = append(w.srcs, int32(s))
	}
	if w.linked == nil {
		w.linked = func(src int32, rs *wire.RowSet) { w.linkDeliver(int(src), rs) }
	}
	w.linkDeliver = deliver
	err := w.ch.gather(w, tag{op, round}, w.srcs, w.linked)
	w.linkDeliver = nil
	return err
}

// workerHandler is the FaaS body of an FSI worker (Algorithms 1 and 2).
// A kind without a channel (Serial) runs it as rank 0 of a one-rank plan:
// the client invokes it directly and it runs runAlone instead of runFSI.
func (d *Deployment) workerHandler(ctx *faas.Ctx, payload []byte) ([]byte, error) {
	run, rank, err := d.runOf("worker", payload)
	if err != nil {
		return nil, err
	}

	w := &worker{
		d:        d,
		run:      run,
		ctx:      ctx,
		id:       int32(rank),
		rankBufs: d.takeBufs(rank),
		pending:  make(map[tag][]arrival),
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

	if open := transports[d.Cfg.Channel].open; open != nil {
		w.ch = open(w)
		if w.chanBufs == nil {
			w.chanBufs = new(chanBufs)
		}
	}

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
	loop := w.runFSI
	if w.ch == nil {
		loop = w.runAlone
	}
	if err := loop(); err != nil {
		run.workerErrs = append(run.workerErrs, err)
		w.failSpan("fsi")
		return nil, err
	}
	w.metrics.FinishedAt = ctx.P.Now()
	w.metrics.PeakMemBytes = ctx.PeakMem()
	w.tspan.End()
	w.giveBufs()
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
		blob, err := d.store.View(p, blk.key)
		if err != nil {
			return fmt.Errorf("core: worker %d loading layer %d: %w", w.id, k, err)
		}
		w.run.usage.S3GetCalls++
		w.run.usage.S3BytesOut += int64(len(blob))
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
	w.run.usage.S3GetCalls++
	w.run.usage.S3BytesOut += int64(len(blob))
	w.ctx.Serialize(int64(len(blob)))
	if wire.Deflated(blob) {
		w.ctx.Decompress(int64(len(blob)))
	}
	// A rank alone multiplies run.input as the dense matrix it is (see
	// runAlone): the object read above is this process's own framing of it,
	// so it is charged and not decoded, and the instance holds the matrix's
	// values only. A rank with peers decodes its rows into the receive
	// arena, where layer 0's clearLayerState drops them with the rows
	// received in that layer.
	xBytes := w.run.input.Bytes()
	if w.ch != nil {
		rs := &w.recvSet
		w.recvIDs, w.recvVals, err = wire.DecodeAppend(blob, rs, w.recvIDs, w.recvVals)
		if err != nil {
			return fmt.Errorf("core: worker %d decoding input: %w", w.id, err)
		}
		if w.x == nil {
			w.x = make([][]float32, n)
		}
		for i := 0; i < rs.Len(); i++ {
			w.setX(rs.IDs[i], rs.Row(i))
		}
		xBytes = rs.RawBytes()
	}
	w.ctx.Alloc(int64(float64(xBytes) * perf.MemOverheadData))
	w.metrics.LoadTime = p.Now() - t0
	return nil
}

func (w *worker) setX(id int32, vals []float32) {
	w.x[id] = vals
	w.xTouched = append(w.xTouched, id)
}

// clearLayerState empties the row table and the receive arena its received
// rows point into, and drops what the layer's reused headers and send lists
// point at: the frames the headers memoise, the sets outs lists and the
// frames, attribute maps and receipt handles of the Queue buffers.
func (w *worker) clearLayerState() {
	for _, id := range w.xTouched {
		w.x[id] = nil
	}
	w.xTouched = w.xTouched[:0]
	w.recvIDs, w.recvVals = w.recvIDs[:0], w.recvVals[:0]
	w.recvSet = wire.RowSet{}
	clear(w.sendSets)
	clear(w.outs)
	if b := w.chanBufs; b != nil {
		clear(b.chunks[:cap(b.chunks)])
		clear(b.msgs[:cap(b.msgs)])
		clear(b.handles[:cap(b.handles)])
	}
}

// layerOut returns the zeroed output buffer of layer k (see zbuf), shaped
// to this run's batch: a buffer an earlier run left is reused when it holds
// enough values, and replaced by a larger one when it does not.
func (w *worker) layerOut(k int) *sparse.Dense {
	rows, cols := len(w.localRows), w.run.batch
	z := w.zbuf[k&1]
	if z == nil || cap(z.Data) < rows*cols {
		z = sparse.NewDense(rows, cols)
		w.zbuf[k&1] = z
		return z
	}
	z.Rows, z.Cols, z.Data = rows, cols, z.Data[:rows*cols]
	z.Zero()
	return z
}

// runFSI executes the FSI loop (Algorithm 1 for the queue channel,
// Algorithm 2 for the object channel; the structure is shared and the
// channel-specific send/receive mechanics differ).
func (w *worker) runFSI() error {
	d := w.d
	spec := d.Cfg.Model.Spec
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
		z := w.layerOut(k)
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

// runAlone is runFSI for a rank with no peers (FSD-Inf-Serial, §VI-A1:
// Algorithm 1 with all communication removed): no send, receive, barrier or
// reduce, and every column is local, so each layer multiplies the whole
// dense activation with sparse.Mul, the faster kernel at full width, and the
// rank stores the last layer's z as the result itself. Each z is charged
// for its own layer only, and only this path records WorkerMetrics.MACs.
//
// Only the last layer's z outlives the run (every Response keeps it), so it
// alone is new: an intermediate layer multiplies into the deployment's
// spare buffer (sparse.MulInto) and gives the previous layer's z back once
// it has multiplied it, which nothing reads afterwards.
func (w *worker) runAlone() error {
	spec := w.d.Cfg.Model.Spec
	perf := w.ctx.Perf()
	// The first layer multiplies the caller's matrix as it stands. Only a
	// model without layers would hand that matrix back as the run's output:
	// it gets a copy.
	x := w.run.input
	if len(w.weights) == 0 {
		x = x.Clone()
	}
	last := len(w.weights) - 1
	for k, blk := range w.weights {
		lsp := w.opSpan("layer")
		if lsp.Active() {
			lsp.SetAttr("k", strconv.Itoa(k))
		}
		var z *sparse.Dense
		var macs int64
		if k == last {
			z, macs = sparse.Mul(blk.own, x)
		} else {
			z = w.d.zspare.Take(blk.own.Rows, x.Cols)
			macs = sparse.MulInto(blk.own, x, z)
		}
		if k > 0 {
			w.d.zspare.Give(x)
		}
		zBytes := int64(float64(z.Bytes()) * perf.MemOverheadData)
		w.ctx.Alloc(zBytes)
		w.ctx.Compute(float64(macs))
		w.metrics.MACs += float64(macs)
		w.ctx.ComputeElem(float64(sparse.ReLUBiasClamp(z, spec.Bias, spec.Clamp)))
		w.ctx.Free(zBytes)
		x = z
		lsp.End()
	}
	return w.storeResult(x)
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
// contribution to the final reduce — the plan's even row share, dense, as
// a raw frame's rows — that AutoAlgo resolves the closing collectives with
// and the planner's pre-filter judges topologies by.
func ReduceContributionBytes(neurons, workers, batch int) int64 {
	return int64(neurons) / int64(workers) * wire.RawRowBytes(batch)
}

// noteCollective records one collective call in the environment's meter and
// the run's (rank 0 only, so a P-worker collective counts once).
func (w *worker) noteCollective(op collective.Op, alg collective.Algorithm) {
	if w.id == 0 {
		w.d.Env.Meter.AddCollective(op.String(), alg.String())
		w.run.usage.AddCollective(op.String(), alg.String())
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
// channel charges transport per target. The groups' sets are capped windows
// of the send arena (see sendIDs) in the rank's headers (sendSets), so one
// group's rows never spill into the next's, and the list is the rank's
// (outs): a layer's send allocates neither.
func (w *worker) extractSendRows(k int) []targetRows {
	entries := w.d.Cfg.Plan.Sends[k][w.id]
	group := w.d.staged.sendGroup[k][w.id]
	outs := w.sendOuts(len(entries))
	if len(w.sendSets) < len(entries) {
		w.sendSets = make([]wire.RowSet, len(entries))
	}
	batch := w.run.batch
	rows := 0
	for i, e := range entries {
		if group[i] == i {
			rows += len(e.Rows)
		}
	}
	if cap(w.sendIDs) < rows {
		w.sendIDs = make([]int32, rows)
	}
	if cap(w.sendVals) < rows*batch {
		w.sendVals = make([]float32, rows*batch)
	}
	off := 0
	for i, e := range entries {
		var rs *wire.RowSet
		if g := group[i]; g < i {
			rs = outs[g].rs
		} else {
			end := off + len(e.Rows)
			rs = &w.sendSets[i]
			*rs = wire.RowSet{
				Batch: batch,
				IDs:   w.sendIDs[off:off:end],
				Vals:  w.sendVals[off*batch : off*batch : end*batch],
			}
			off = end
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
		outs[i] = targetRows{target: e.Target, rs: rs}
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
	mine := w.finalRows()
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
	// The root copies its own rows and every arriving set straight into
	// the result, each set decoded into the receive arena, which is empty
	// once the last layer ends and is emptied again after every copy; the
	// ranks in between union what they forward.
	combine := collective.Union
	var out *sparse.Dense
	if w.id == 0 {
		out = w.fillDense(mine)
		combine = func(acc, rs *wire.RowSet) *wire.RowSet {
			scatter(out, rs)
			w.recvIDs, w.recvVals = w.recvIDs[:0], w.recvVals[:0]
			return acc
		}
		w.foldRoot = true
	}
	_, err := collective.Gather(alg, workerLink{w}, 0, mine, combine)
	w.foldRoot = false
	sp.End()
	if err != nil {
		return fmt.Errorf("core: worker %d reduce: %w", w.id, err)
	}
	if w.id != 0 {
		return nil
	}
	return w.storeResult(out)
}

// finalRows returns the rank's contribution to the reduce: the last layer's
// z, whose rows are the rank's localRows (a model has at least one layer).
// The set views z, capped so that a Union on it reallocates rather than
// writing into z.
func (w *worker) finalRows() *wire.RowSet {
	z := w.zbuf[(len(w.weights)-1)&1]
	return &wire.RowSet{Batch: z.Cols, IDs: slices.Clip(w.localRows), Vals: slices.Clip(z.Data)}
}

// fillDense scatters a combined row set into a dense N x batch output.
func (w *worker) fillDense(rs *wire.RowSet) *sparse.Dense {
	out := sparse.NewDense(w.d.Cfg.Model.Spec.Neurons, w.run.batch)
	scatter(out, rs)
	return out
}

// scatter copies each row of rs into its row of out.
func scatter(out *sparse.Dense, rs *wire.RowSet) {
	for i := 0; i < rs.Len(); i++ {
		copy(out.Row(int(rs.IDs[i])), rs.Row(i))
	}
}

// storeResult writes the result object (billed) and reports it to the
// client.
func (w *worker) storeResult(out *sparse.Dense) error {
	enc, err := resultFrame(out, w.d.Cfg.Compress)
	if err != nil {
		return fmt.Errorf("core: encoding result: %w", err)
	}
	w.ctx.Serialize(int64(len(enc)))
	if err := putObject(w.d.store, w.ctx.P, resultKey(w.run.id), enc); err != nil {
		return fmt.Errorf("core: storing result: %w", err)
	}
	w.run.usage.S3PutCalls++
	w.run.usage.S3BytesIn += int64(len(enc))
	w.run.output = out
	return nil
}

// resultFrame is the result object's frame: the frame of the set of d's
// non-zero rows, written from d's rows where they lie, whether or not some
// row between them is zero.
func resultFrame(d *sparse.Dense, compress bool) ([]byte, error) {
	return wire.EncodeMatrixRows(d.Data, d.Cols, d.NonzeroRows(), compress)
}

// commThreads is the per-worker communication thread pool size, the
// ThreadPoolExecutor of §VI-A1.
const commThreads = 4

// threads runs n tasks on the worker's communication thread pool: up to
// commThreads simulated threads issue service calls concurrently, each
// calling task with the next index of 0..n-1 as it finishes the last; the
// call returns when all n finish. Returns the first task error, if any.
// The pool's shared state is the rank's, reused from call to call (see
// commPool), so a call allocates only its threads' Procs.
func (w *worker) threads(name string, n int, task func(p *sim.Proc, i int) error) error {
	return w.threadsN(name, commThreads, n, task)
}

// threadsN is threads with an explicit pool width, for paths whose
// concurrency is configured separately (the Hybrid channel's bulk chunk
// fanout).
func (w *worker) threadsN(name string, width, n int, task func(p *sim.Proc, i int) error) error {
	if n == 0 {
		return nil
	}
	nt := min(width, n)
	k := w.ctx.P.Kernel()
	pool := w.takePool(k)
	pool.task, pool.n, pool.next, pool.err = task, n, 0, nil
	pool.wg.Add(nt)
	for t := 0; t < nt; t++ {
		k.Go(w.d.threadName(w.id, name, t), pool.runFn)
	}
	pool.wg.Wait(w.ctx.P)
	err := pool.err
	pool.task, pool.err = nil, nil
	w.pools = append(w.pools, pool)
	return err
}

// takePool pops a comm pool off the rank's free list (chanBufs.pools), or
// makes one when every pool the rank has is in use.
func (w *worker) takePool(k *sim.Kernel) *commPool {
	if n := len(w.pools); n > 0 {
		pool := w.pools[n-1]
		w.pools[n-1] = nil
		w.pools = w.pools[:n-1]
		return pool
	}
	pool := &commPool{wg: sim.NewWaitGroup(k)}
	pool.runFn = pool.run
	return pool
}

// commPool is the state of one threadsN call: its threads share the task,
// the next index to take and the first error. A rank reuses its pools from
// call to call and run to run (chanBufs.pools), so a call's threads allocate
// only their Procs; runFn is run bound once, and the wait group's Cond
// keeps its waiter list. Between calls a pooled commPool holds no task and
// no error, so it keeps nothing of the last call alive.
type commPool struct {
	task    func(p *sim.Proc, i int) error
	n, next int
	err     error
	wg      *sim.WaitGroup
	runFn   func(p *sim.Proc)
}

// run is the body of every thread of the pool.
func (c *commPool) run(p *sim.Proc) {
	defer c.wg.Done()
	for c.next < c.n {
		i := c.next
		c.next++
		if err := c.task(p, i); err != nil && c.err == nil {
			c.err = err
		}
	}
}
