// Package baselines implements the paper's comparison systems (§VI-A2,
// §VI-B):
//
//   - Server-Always-On: large provisioned VMs left running between queries,
//     evaluated "hot" (model already in memory or on attached block
//     storage) and "cold" (model fetched from object storage), mimicking
//     SageMaker Multi-Model Endpoint tiering,
//   - Server-Job-Scoped: right-sized VMs provisioned per request and shut
//     down afterwards, paying the provisioning delay on the query path,
//   - H-SpFF: the optimised HPC solution of Demirci & Ferhatosmanoglu [12]
//     on a simulated MPI cluster with a fast interconnect,
//   - Sage-SL-Inf: a commercial serverless inference endpoint with 6 GB
//     memory, 60 s runtime and 6 MB payload limits, which truncates large
//     workloads exactly as the paper observes.
//
// All baselines execute the same real sparse kernels as FSD-Inference, so
// comparisons reflect identical work under different platform models.
package baselines

import (
	"fmt"
	"time"

	"fsdinference/internal/cloud/ec2"
	"fsdinference/internal/cloud/env"
	"fsdinference/internal/cloud/usage"
	"fsdinference/internal/model"
	"fsdinference/internal/partition"
	"fsdinference/internal/sim"
	"fsdinference/internal/sparse"
)

// Result reports one baseline query.
type Result struct {
	Latency time.Duration
	// SamplesProcessed may be below the input's column count for
	// Sage-SL-Inf, whose payload and runtime caps truncate large requests
	// (§VI-B, §VI-D).
	SamplesProcessed int
	//simlint:allow testonly — baselines_test checks each baseline's output against model.Reference
	Output *sparse.Dense
	// Cost is the metered cost of this query (job-scoped instance hours,
	// serverless GB-seconds). Always-on capacity is billed per
	// provisioned day by the workload layer, not per query.
	Cost usage.Breakdown
}

// LoadSource says where a server finds the model weights.
type LoadSource int

const (
	// FromMemory: the model is resident (the hit half of AO-Hot).
	FromMemory LoadSource = iota
	// FromEBS: the model loads from attached block storage (AO-Hot
	// misses).
	FromEBS
	// FromS3: the model loads from object storage (AO-Cold, JS).
	FromS3
)

// JobScopedInstanceType returns the paper's right-sized instance for a
// neuron count (§VI-A2).
func JobScopedInstanceType(neurons int) string {
	switch {
	case neurons <= 4096:
		return "c5.2xlarge"
	case neurons <= 16384:
		return "c5.9xlarge"
	default:
		return "c5.12xlarge"
	}
}

// AlwaysOnInstanceType is the paper's always-on server size.
const AlwaysOnInstanceType = "c5.12xlarge"

// serverInfer runs the serial layer loop on an instance, charging compute
// by the operations actually performed.
func serverInfer(p *sim.Proc, inst *ec2.Instance, m *model.Model, input *sparse.Dense) *sparse.Dense {
	x := input.Clone()
	for _, w := range m.Layers {
		z, macs := sparse.Mul(w, x)
		inst.Compute(p, float64(macs))
		ops := sparse.ReLUBiasClamp(z, m.Spec.Bias, m.Spec.Clamp)
		inst.ComputeElem(p, float64(ops))
		x = z
	}
	return x
}

func modelFits(inst *ec2.Instance, m *model.Model, overhead float64) error {
	need := int64(float64(m.WeightBytes()) * overhead)
	if need > inst.MemoryBytes() {
		return fmt.Errorf("baselines: model needs %d MB, instance %s has %d GB",
			need>>20, inst.Type.Name, inst.Type.MemoryGB)
	}
	return nil
}

// RunAlwaysOn serves one query on an always-on server, loading the model
// from the given source. Capacity cost is not billed here (the always-on
// fleet bills per provisioned day in the workload layer).
func RunAlwaysOn(e *env.Env, m *model.Model, input *sparse.Dense, load LoadSource) (*Result, error) {
	var res *Result
	var runErr error
	e.K.Go("always-on", func(p *sim.Proc) {
		inst, err := e.EC2.AlwaysOn(AlwaysOnInstanceType)
		if err != nil {
			runErr = err
			return
		}
		if err := modelFits(inst, m, e.FaaS.Config().Perf.MemOverheadWeights); err != nil {
			runErr = err
			return
		}
		t0 := p.Now()
		switch load {
		case FromEBS:
			inst.LoadFromEBS(p, m.WeightBytes())
		case FromS3:
			inst.LoadFromS3(p, m.WeightBytes())
		}
		out := serverInfer(p, inst, m, input)
		res = &Result{
			Latency:          p.Now() - t0,
			SamplesProcessed: input.Cols,
			Output:           out,
		}
	})
	if err := e.K.Run(); err != nil {
		return nil, err
	}
	if runErr != nil {
		return nil, runErr
	}
	return res, nil
}

// RunJobScoped provisions a right-sized instance for the query, loads the
// model from object storage, serves it and terminates, billing the
// instance time (minimum one minute).
func RunJobScoped(e *env.Env, m *model.Model, input *sparse.Dense) (*Result, error) {
	var res *Result
	var runErr error
	snap := e.Meter.Snapshot()
	e.K.Go("job-scoped", func(p *sim.Proc) {
		t0 := p.Now()
		inst, err := e.EC2.Launch(p, JobScopedInstanceType(m.Spec.Neurons))
		if err != nil {
			runErr = err
			return
		}
		if err := modelFits(inst, m, e.FaaS.Config().Perf.MemOverheadWeights); err != nil {
			runErr = err
			return
		}
		inst.LoadFromS3(p, m.WeightBytes())
		out := serverInfer(p, inst, m, input)
		inst.Terminate(p)
		res = &Result{
			Latency:          p.Now() - t0,
			SamplesProcessed: input.Cols,
			Output:           out,
		}
	})
	if err := e.K.Run(); err != nil {
		return nil, err
	}
	if runErr != nil {
		return nil, runErr
	}
	used := e.Meter.Sub(snap)
	res.Cost = used.Cost(e.Pricing)
	return res, nil
}

// HSpFFConfig describes the simulated HPC platform for H-SpFF [12].
type HSpFFConfig struct {
	// Nodes is the MPI process count.
	Nodes int
	// CoresPerNode is the per-process core count.
	CoresPerNode int
	// NetworkBytesPerSec is the interconnect bandwidth per node.
	NetworkBytesPerSec float64
	// NetLatency is the per-message interconnect latency.
	NetLatency time.Duration
}

// DefaultHSpFFConfig returns an InfiniBand-class cluster.
func DefaultHSpFFConfig(nodes int) HSpFFConfig {
	return HSpFFConfig{
		Nodes:              nodes,
		CoresPerNode:       16,
		NetworkBytesPerSec: 10e9,
		NetLatency:         5 * time.Microsecond,
	}
}

// RunHSpFF runs the same hypergraph-partitioned inference on the simulated
// HPC cluster: per layer, compute time is the slowest node's actual
// multiply-accumulate count, and communication time is the per-node
// transfer volume over the fast interconnect plus a log-depth barrier. The
// math executes for real; only the platform model differs from FSD.
func RunHSpFF(e *env.Env, m *model.Model, plan *partition.Plan, input *sparse.Dense, cfg HSpFFConfig) (*Result, error) {
	if plan.Workers != cfg.Nodes {
		return nil, fmt.Errorf("baselines: plan has %d parts, cluster has %d nodes", plan.Workers, cfg.Nodes)
	}
	perf := e.FaaS.Config().Perf
	coreRate := perf.MACRatePerVCPU

	var res *Result
	e.K.Go("hspff", func(p *sim.Proc) {
		t0 := p.Now()
		x := input.Clone()
		for k, w := range m.Layers {
			// Per-node MACs and per-node communication volume, from
			// the actual activation sparsity.
			zero := make([]bool, x.Rows)
			for r := 0; r < x.Rows; r++ {
				zero[r] = x.RowIsZero(r)
			}
			macs := make([]int64, cfg.Nodes)
			z := sparse.NewDense(w.Rows, x.Cols)
			for r := 0; r < w.Rows; r++ {
				cols, vals := w.Row(r)
				zrow := z.Row(r)
				owner := plan.Owner[r]
				for i, c := range cols {
					if zero[c] {
						continue
					}
					v := vals[i]
					xrow := x.Row(int(c))
					for j, xv := range xrow {
						zrow[j] += v * xv
					}
					macs[owner] += int64(x.Cols)
				}
			}
			var maxMACs int64
			for _, mm := range macs {
				if mm > maxMACs {
					maxMACs = mm
				}
			}
			// Communication: rows each node ships, from the plan and
			// runtime sparsity.
			var maxBytes int64
			var maxMsgs int
			for node := 0; node < cfg.Nodes; node++ {
				var bytes int64
				msgs := 0
				for _, ent := range plan.Sends[k][node] {
					live := 0
					for _, r := range ent.Rows {
						if !zero[r] {
							live++
						}
					}
					bytes += int64(live) * int64(x.Cols) * 4
					msgs++
				}
				if bytes > maxBytes {
					maxBytes = bytes
				}
				if msgs > maxMsgs {
					maxMsgs = msgs
				}
			}
			compute := time.Duration(float64(maxMACs) / (coreRate * float64(cfg.CoresPerNode)) * float64(time.Second))
			// Non-blocking MPI sends pipeline: bandwidth-bound volume
			// plus one latency per round of outstanding messages.
			comm := time.Duration(float64(maxBytes)/cfg.NetworkBytesPerSec*float64(time.Second)) +
				cfg.NetLatency*time.Duration(1+log2ceil(maxMsgs+1))
			barrier := cfg.NetLatency * time.Duration(2*log2ceil(cfg.Nodes))
			p.Sleep(compute + comm + barrier)

			sparse.ReLUBiasClamp(z, m.Spec.Bias, m.Spec.Clamp)
			x = z
		}
		res = &Result{
			Latency:          p.Now() - t0,
			SamplesProcessed: input.Cols,
			Output:           x,
		}
	})
	if err := e.K.Run(); err != nil {
		return nil, err
	}
	return res, nil
}

func log2ceil(n int) int {
	l := 0
	for v := 1; v < n; v <<= 1 {
		l++
	}
	return l
}

// Breakdown helper for cost reporting of server fleets.
var _ = usage.Breakdown{}
