package core

import (
	"fmt"

	"fsdinference/internal/cloud/faas"
	"fsdinference/internal/wire"
)

// serialHandler is FSD-Inf-Serial (§VI-A1): Algorithm 1 with all
// communication removed, running on a single maximum-memory instance that
// loads the unpartitioned model and inference data, computes every layer
// locally and stores the result. Models too large for the instance fail
// with an out-of-memory error, exactly as the paper observes for N=65536.
//
// The handler shares three buffers with the host instead of holding copies
// of its own: the staged input object is the frame stageInput built (the
// store adopted it), run.input is the caller's matrix, which the first layer
// reads where it lies, and run.output is the last layer's z, which the
// client is handed as it is. The handler writes to none of them. That is
// charge-neutral because no charge is taken from a host buffer: the GET's
// transfer, Serialize and Decompress are charged on the object's length, the
// instance's memory through Alloc/Free on sizes computed from the model and
// the batch, and compute on the MAC and element counts the layer loop
// returns.
func (d *Deployment) serialHandler(ctx *faas.Ctx, payload []byte) ([]byte, error) {
	run, _, err := d.runOf("serial worker", payload)
	if err != nil {
		return nil, err
	}
	p := ctx.P
	wm := &WorkerMetrics{ID: 0, StartedAt: p.Now(), Warm: ctx.Warm}
	run.metrics = append(run.metrics, wm)
	run.lastStart = p.Now()

	spec := d.Cfg.Model.Spec
	perf := ctx.Perf()

	// Load the full model.
	t0 := p.Now()
	for k, w := range d.Cfg.Model.Layers {
		blob, err := d.store.View(p, serialLayerKey(k))
		if err != nil {
			return nil, fmt.Errorf("core: serial loading layer %d: %w", k, err)
		}
		wm.StoreGets++
		ctx.Serialize(int64(len(blob)))
		// The object is this process's own encoding of w (see the input
		// read below): the layer loop multiplies w itself.
		ctx.Alloc(int64(float64(w.Bytes()) * perf.MemOverheadWeights))
	}
	blob, err := d.store.View(p, serialInputKey(run.id))
	if err != nil {
		return nil, fmt.Errorf("core: serial loading input: %w", err)
	}
	wm.StoreGets++
	ctx.Serialize(int64(len(blob)))
	if wire.Deflated(blob) {
		ctx.Decompress(int64(len(blob)))
	}
	// The fetched blob is this process's own encoding of run.input (the
	// transfer above, and decompression if it was staged deflated, are still
	// charged on its real length), so the numeric layer loop works from the
	// host-side original instead of re-decoding the bytes.
	xBytes := int64(float64(int64(spec.Neurons*run.batch)*4) * perf.MemOverheadData)
	ctx.Alloc(xBytes)
	wm.LoadTime = p.Now() - t0

	// Layer loop: z = Wx, activation, repeat. The numbers are computed
	// first and the simulated side — per-layer compute, element ops,
	// allocation high-water — is charged from the counts they return.
	res, err := d.serialCompute(run.input)
	if err != nil {
		return nil, fmt.Errorf("core: serial encoding result: %w", err)
	}
	for k := range res.layerMACs {
		ctx.Alloc(xBytes)
		ctx.Compute(float64(res.layerMACs[k]))
		wm.MACs += float64(res.layerMACs[k])
		ctx.ComputeElem(float64(res.layerOps[k]))
		ctx.Free(xBytes)
	}

	// Store the result.
	ctx.Serialize(int64(len(res.encoded)))
	if err := d.store.Put(p, resultKey(run.id), res.encoded); err != nil {
		return nil, fmt.Errorf("core: serial storing result: %w", err)
	}
	wm.StorePuts++
	run.output = res.output
	wm.FinishedAt = p.Now()
	wm.PeakMemBytes = ctx.PeakMem()
	return []byte(`{"ok":true}`), nil
}
