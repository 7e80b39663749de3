package core

import (
	"fsdinference/internal/cloud/usage"
)

// runUsage reconstructs one run's resource consumption into u (the Result's
// own field: a meter of its own would escape through the bill hook) from the
// run's worker-side ledgers, following the same mapping the §VI-F cost-model
// validation uses (Equations (1)-(7) evaluate these counts into dollars).
// It exists because concurrent runs share a single environment meter:
// windowed snapshots cannot attribute interleaved billing to one run, but
// every billable event of a run is also counted in its workers' metrics,
// so the per-run view can be rebuilt exactly for Lambda/SNS/SQS and for
// the request-billed S3 calls. Transfer byte counters (S3BytesIn/Out) are
// approximated from payload ledgers; they carry no cost.
func (d *Deployment) runUsage(run *runState, u *usage.Meter) {
	*u = *usage.NewMeter()
	u.SQSBillFanout = d.Env.Meter.SQSBillFanout

	// Compute side: one client invocation of the serial function or the
	// coordinator, plus one invocation per worker instance.
	u.LambdaInvocations = 1 + int64(len(run.metrics))
	memMB := d.Cfg.WorkerMemoryMB
	if d.Cfg.Channel == Serial {
		u.LambdaInvocations = 1
		memMB = d.Cfg.SerialMemoryMB
	}
	for _, w := range run.metrics {
		u.LambdaGBSeconds += float64(memMB) / 1024 * w.Runtime().Seconds()
	}
	u.LambdaGBSeconds += float64(coordinatorMemoryMB) / 1024 * run.coordRuntime.Seconds()

	// Communication side, from the worker ledgers: the model store's reads
	// and writes on every kind, then what the kind's own services were
	// asked for.
	bill := transports[d.Cfg.Channel].bill
	for _, w := range run.metrics {
		u.S3PutCalls += w.StorePuts
		u.S3GetCalls += w.StoreGets
		if bill != nil {
			bill(w, u)
		}
	}

	// Collective calls are tracked per run directly (rank 0 counts each
	// once).
	for k, v := range run.collectives {
		u.Collectives[k] += v
	}

	// Provisioned capacity: the store cluster bills node-hours, not
	// requests. A run's attributable share is its own wall time (with the
	// service's billing floor): each run "reserves" the node for its
	// duration, so overlapping runs each carry a full share and the
	// ledger sum can exceed the metered node-hours — deliberately
	// pessimistic per-run attribution of shared capacity. Idle hours
	// between runs belong to the deployment, not to any one request;
	// exact billing is always the metered window (Infer, Replay's
	// TotalCost).
	if d.kvcluster != nil {
		dur := run.end - run.start
		if min := d.Env.KV.Config().MinBilledDuration; dur < min {
			dur = min
		}
		// Every cluster node — primary shards and their replicas — bills
		// for the run's wall time: replicas are the availability premium
		// the run paid whether or not a failover happened.
		for _, n := range d.kvcluster.Nodes() {
			u.AddKVNodeHours(n.Type().Name, dur.Hours())
			u.KVGBHours += dur.Hours() * n.Type().MemoryGB
			if n.IsReplica() {
				u.AddKVReplicaHours(n.Type().Name, dur.Hours())
			}
		}
	}
}
