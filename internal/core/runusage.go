package core

import (
	"fsdinference/internal/cloud/usage"
)

// runUsage writes one run's resource consumption into u (the Result's own
// field): the run's meter as it stands when the client has the result —
// every service call its ranks made, charged where it was made, the counts
// §VI-F's Equations (1)-(7) price — plus what the run's processes and the
// store's provisioned nodes bill by the hour. It exists because concurrent
// runs share a single environment meter, whose windowed snapshots cannot
// attribute interleaved billing to one run.
func (d *Deployment) runUsage(run *runState, u *usage.Meter) {
	*u = run.usage

	// Compute side: one invocation per worker instance, plus the client's
	// invocation of the coordinator when there is one.
	u.LambdaInvocations = int64(len(run.metrics))
	if !d.Cfg.Channel.Peerless() {
		u.LambdaInvocations++
	}
	// Each product is converted before it is added, which forbids a fused
	// multiply-add, so the run bills the same on every GOARCH.
	for _, w := range run.metrics {
		u.LambdaGBSeconds += float64(float64(d.Cfg.WorkerMemoryMB) / 1024 * w.Runtime().Seconds())
	}
	u.LambdaGBSeconds += float64(float64(coordinatorMemoryMB) / 1024 * run.coordRuntime.Seconds())

	// Provisioned capacity: the store cluster bills node-hours, not
	// requests. A run's attributable share is its own wall time (with the
	// service's billing floor): each run "reserves" the node for its
	// duration, so overlapping runs each carry a full share and their
	// sum can exceed the metered node-hours — deliberately
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
			u.KVGBHours += float64(dur.Hours() * n.Type().MemoryGB)
			if n.IsReplica() {
				u.AddKVReplicaHours(n.Type().Name, dur.Hours())
			}
		}
	}
}
