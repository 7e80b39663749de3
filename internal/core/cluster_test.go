package core

import (
	"testing"
	"time"

	"fsdinference/internal/cloud/env"
	"fsdinference/internal/model"
	"fsdinference/internal/partition"
)

// Overlapping runs on a sharded, replicated deployment: both produce
// reference outputs and the teardown unwinds every cluster node —
// primaries and replicas of every shard — to zero run keys.
func TestOverlappingRunsOnShardedClusterTearDownAllShards(t *testing.T) {
	e := env.NewDefault()
	m, err := model.Generate(model.GraphChallengeSpec(256, 6, 1))
	if err != nil {
		t.Fatal(err)
	}
	plan, err := partition.BuildPlan(m, 3, partition.HGPDNN, partition.Options{Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	d, err := Deploy(e, Config{Model: m, Plan: plan, Channel: Memory, KVNodes: 2, KVReplicas: 1})
	if err != nil {
		t.Fatal(err)
	}
	if got := len(d.KVCluster().Nodes()); got != 4 {
		t.Fatalf("sharded deployment provisioned %d nodes, want 2 shards x (1+1)", got)
	}

	inA := model.GenerateInputs(256, 8, 0.2, 2)
	inB := model.GenerateInputs(256, 8, 0.2, 3)
	var resA, resB *Result
	var errA, errB error
	if _, err := d.Start(inA, func(r *Result, err error) { resA, errA = r, err }); err != nil {
		t.Fatal(err)
	}
	if _, err := d.Start(inB, func(r *Result, err error) { resB, errB = r, err }); err != nil {
		t.Fatal(err)
	}
	if err := e.K.Run(); err != nil {
		t.Fatal(err)
	}
	if errA != nil || errB != nil {
		t.Fatalf("run errors: a=%v b=%v", errA, errB)
	}
	if !model.OutputsClose(resA.Output, model.Reference(m, inA), 1e-2) {
		t.Fatal("run A output diverges from reference")
	}
	if !model.OutputsClose(resB.Output, model.Reference(m, inB), 1e-2) {
		t.Fatal("run B output diverges from reference")
	}
	// Give lagged replication applies time to land, then check the whole
	// cluster unwound — a leak on any replica would surface here.
	for node, keys := range d.KVCluster().NumKeysByNode() {
		if keys != 0 {
			t.Fatalf("node %s holds %d keys after overlapping runs", node, keys)
		}
	}
	if n := e.KV.NumKeys(); n != 0 {
		t.Fatalf("%d keys left in the store service after teardown", n)
	}
}

// A mid-run KillNode walks the availability ladder: with no replicas the
// shard's parked inbox values are destroyed and the run must re-send
// them from sender buffers; with one async replica the replication pipe
// is lost and re-sent; with quorum replicas (R=2) nothing is lost and
// nothing is re-sent — the failure hides behind the promotion stall,
// paid for in replica node-hours. In every case the run completes with
// the reference output.
func TestMidRunFailoverByReplicationMode(t *testing.T) {
	if testing.Short() {
		t.Skip("failover runs are long simulations")
	}
	m, err := model.Generate(model.GraphChallengeSpec(256, 6, 1))
	if err != nil {
		t.Fatal(err)
	}
	plan, err := partition.BuildPlan(m, 4, partition.HGPDNN, partition.Options{Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	input := model.GenerateInputs(256, 8, 0.2, 2)
	ref := model.Reference(m, input)

	run := func(replicas int, kill bool) (*Result, *env.Env) {
		t.Helper()
		e := env.NewDefault()
		d, err := Deploy(e, Config{
			Model: m, Plan: plan, Channel: Memory,
			KVNodes: 2, KVReplicas: replicas,
			KVFailoverWindow: 2 * time.Second,
			KVReplicationLag: 300 * time.Millisecond,
		})
		if err != nil {
			t.Fatal(err)
		}
		if kill {
			// 1.8s is mid-launch: worker 0 has pushed its layer-0 rows
			// into inboxes of workers that have not started yet, and the
			// pushes are younger than the replication lag.
			e.K.At(1800*time.Millisecond, func() {
				if err := d.KVCluster().KillNode(0); err != nil {
					t.Errorf("kill: %v", err)
				}
			})
		}
		res, err := d.Infer(input)
		if err != nil {
			t.Fatalf("R=%d infer: %v", replicas, err)
		}
		if !model.OutputsClose(res.Output, ref, 1e-2) {
			t.Fatalf("R=%d output diverges from reference after failover", replicas)
		}
		return res, e
	}

	baseline, _ := run(0, false)

	resends := func(r *Result) int64 {
		var n int64
		for _, w := range r.Workers {
			n += w.Resends
		}
		return n
	}

	for _, replicas := range []int{0, 1} {
		res, e := run(replicas, true)
		cl := int64(0)
		if e.Meter.KVFailovers != 1 {
			t.Fatalf("R=%d metered %d failovers, want 1", replicas, e.Meter.KVFailovers)
		}
		cl = e.Meter.KVLostValues
		if cl <= 0 {
			t.Fatalf("R=%d lost %d values across the kill, want in-flight loss", replicas, cl)
		}
		if n := resends(res); n <= 0 {
			t.Fatalf("R=%d run completed without re-sending the %d lost values", replicas, cl)
		}
		if res.Latency <= baseline.Latency {
			t.Fatalf("R=%d failover latency %v not above the %v no-failure baseline",
				replicas, res.Latency, baseline.Latency)
		}
	}

	res2, e2 := run(2, true)
	if e2.Meter.KVLostValues != 0 {
		t.Fatalf("R=2 lost %d values; quorum replication must hide a single kill", e2.Meter.KVLostValues)
	}
	if n := resends(res2); n != 0 {
		t.Fatalf("R=2 re-sent %d values; nothing should have been lost", n)
	}
	// The availability premium is visible in the bill: replica node-hours
	// accrued, and the KV spend exceeds the replica-free run's.
	var replicaHours float64
	for _, h := range e2.Meter.KVReplicaHours {
		replicaHours += h
	}
	if replicaHours <= 0 {
		t.Fatal("R=2 metered no replica node-hours")
	}
	if res2.Cost.KV <= baseline.Cost.KV {
		t.Fatalf("R=2 KV cost $%.4f not above the replica-free $%.4f", res2.Cost.KV, baseline.Cost.KV)
	}
	if res2.Cost.KVReplica <= 0 {
		t.Fatal("R=2 breakdown carries no replica share")
	}
}

// BenchmarkClusterChannel drives one inference run over the sharded,
// replicated memory-store cluster — slot routing, async replication and
// per-shard limiters all on the hot path.
func BenchmarkClusterChannel(b *testing.B) {
	m, err := model.Generate(model.GraphChallengeSpec(256, 6, 1))
	if err != nil {
		b.Fatal(err)
	}
	plan, err := partition.BuildPlan(m, 4, partition.Block, partition.Options{Seed: 1})
	if err != nil {
		b.Fatal(err)
	}
	input := model.GenerateInputs(256, 16, 0.2, 2)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		d, err := Deploy(env.NewDefault(), Config{
			Model: m, Plan: plan, Channel: Memory,
			KVNodes: 2, KVReplicas: 1,
		})
		if err != nil {
			b.Fatal(err)
		}
		if _, err := d.Infer(input); err != nil {
			b.Fatal(err)
		}
	}
}
