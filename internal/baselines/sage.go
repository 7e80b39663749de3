package baselines

import (
	"encoding/json"
	"fmt"
	"time"

	"fsdinference/internal/cloud/env"
	"fsdinference/internal/cloud/faas"
	"fsdinference/internal/model"
	"fsdinference/internal/sim"
	"fsdinference/internal/sparse"
)

// SageConfig models a commercial serverless inference endpoint
// (Sage-SL-Inf, §VI-B): a single resource-constrained FaaS instance per
// request with hard memory, runtime and payload limits.
type SageConfig struct {
	// MemoryMB is the endpoint's maximum memory (6 GB).
	MemoryMB int
	// Timeout is the per-request runtime cap (60 s).
	Timeout time.Duration
	// PayloadLimit is the per-request payload cap (6 MB).
	PayloadLimit int
	// BytesPerSample models the request encoding of one thresholded
	// input sample (compressed binarised images come to well under a
	// byte per neuron; 0.75 B/neuron reproduces the paper's ~8,000
	// samples at N=1024).
	BytesPerSample func(neurons int) int
}

// DefaultSageConfig returns the published endpoint limits.
func DefaultSageConfig() SageConfig {
	return SageConfig{
		MemoryMB:       6144,
		Timeout:        60 * time.Second,
		PayloadLimit:   6 * 1024 * 1024,
		BytesPerSample: func(neurons int) int { return neurons * 3 / 4 },
	}
}

var sageSeq int

// RunSageSL serves a batch through the endpoint. A query is one request;
// the payload cap bounds how many samples it can carry, and a request that
// exceeds the runtime cap fails outright. Following the paper's procedure,
// the sample count is halved after a failed attempt until a request
// succeeds — reproducing the observation that the endpoint could only
// process 8,000/2,500/1,000 samples for N = 1024/4096/16384 and nothing at
// N=65536 (model over the memory cap).
func RunSageSL(e *env.Env, m *model.Model, input *sparse.Dense, cfg SageConfig) (*Result, error) {
	perf := e.FaaS.Config().Perf
	if float64(m.WeightBytes())*perf.MemOverheadWeights > float64(cfg.MemoryMB)*1024*1024 {
		return nil, fmt.Errorf("baselines: model (%d MB in memory) exceeds the %d MB endpoint cap",
			int64(float64(m.WeightBytes())*perf.MemOverheadWeights)>>20, cfg.MemoryMB)
	}
	perReq := cfg.PayloadLimit / cfg.BytesPerSample(m.Spec.Neurons)
	if perReq < 1 {
		return nil, fmt.Errorf("baselines: a single sample exceeds the %d B payload cap", cfg.PayloadLimit)
	}

	sageSeq++
	fn := fmt.Sprintf("sage-sl-%d", sageSeq)
	type chunkReq struct {
		Samples int `json:"samples"`
	}
	output := sparse.NewDense(m.Spec.Neurons, input.Cols)
	err := e.FaaS.Register(faas.FunctionConfig{
		Name:     fn,
		MemoryMB: cfg.MemoryMB,
		Timeout:  cfg.Timeout,
		Handler: func(ctx *faas.Ctx, payload []byte) ([]byte, error) {
			var req chunkReq
			if err := json.Unmarshal(payload, &req); err != nil {
				return nil, err
			}
			if !ctx.Warm {
				// Cold start loads the model from the store.
				ctx.Alloc(int64(float64(m.WeightBytes()) * perf.MemOverheadWeights))
				ctx.P.Sleep(time.Duration(float64(m.WeightBytes()) / e.EC2.Config().S3ReadBytesPerSec * float64(time.Second)))
			}
			x := sparse.NewDense(m.Spec.Neurons, req.Samples)
			for r := 0; r < m.Spec.Neurons; r++ {
				copy(x.Row(r), input.Row(r)[:req.Samples])
			}
			for _, w := range m.Layers {
				z, macs := sparse.Mul(w, x)
				ctx.Compute(float64(macs))
				ops := sparse.ReLUBiasClamp(z, m.Spec.Bias, m.Spec.Clamp)
				ctx.ComputeElem(float64(ops))
				x = z
			}
			for r := 0; r < m.Spec.Neurons; r++ {
				copy(output.Row(r)[:req.Samples], x.Row(r))
			}
			return []byte(`{"ok":true}`), nil
		},
	})
	if err != nil {
		return nil, err
	}

	snap := e.Meter.Snapshot()
	processed := 0
	var latency time.Duration
	var encErr error
	e.K.Go("sage-driver", func(p *sim.Proc) {
		t0 := p.Now()
		try := input.Cols
		if try > perReq {
			try = perReq
		}
		for try >= 1 {
			payload, err := json.Marshal(chunkReq{Samples: try})
			if err != nil {
				encErr = err
				break
			}
			fut, err := e.FaaS.Invoke(p, fn, payload)
			if err != nil {
				break
			}
			if _, err := fut.Wait(p); err != nil {
				try /= 2 // runtime cap hit: halve and retry (§VI-B)
				continue
			}
			processed = try
			break
		}
		latency = p.Now() - t0
	})
	if err := e.K.Run(); err != nil {
		return nil, err
	}
	if encErr != nil {
		return nil, fmt.Errorf("baselines: encoding request: %w", encErr)
	}
	if processed == 0 {
		return nil, fmt.Errorf("baselines: endpoint processed no samples within its limits")
	}
	used := e.Meter.Sub(snap)
	return &Result{
		Latency:          latency,
		SamplesProcessed: processed,
		Output:           output,
		Cost:             used.Cost(e.Pricing),
	}, nil
}
