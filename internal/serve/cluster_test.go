package serve

import (
	"strings"
	"testing"
	"time"

	"fsdinference/internal/cloud/env"
	"fsdinference/internal/core"
	"fsdinference/internal/model"
	"fsdinference/internal/workload"
)

// The cluster extension of the per-run teardown leak check: overlapping
// runs on a sharded, replicated Memory-channel endpoint must unwind
// every cluster node — each shard's primary and replica — to zero run
// keys once the runs drain.
func TestShardedClusterEndpointTearsDownEveryShard(t *testing.T) {
	e := env.NewDefault()
	m := testModel(t, 256, 6)
	svc, err := NewService(e,
		WithEndpoint("mem", m, WithChannel(core.Memory), WithWorkers(3),
			WithDeployOverride(func(c *core.Config) {
				c.KVNodes = 2
				c.KVReplicas = 1
			})),
		WithCoalescing(4, 0),
		WithRunConcurrency(2),
	)
	if err != nil {
		t.Fatal(err)
	}
	var handles []*Handle
	for i := 0; i < 4; i++ {
		handles = append(handles, svc.Submit("mem", model.GenerateInputs(256, 4, 0.2, int64(2+i)), 0))
	}
	if err := svc.Run(); err != nil {
		t.Fatal(err)
	}
	for i, h := range handles {
		if _, err := h.Wait(); err != nil {
			t.Fatalf("run %d failed: %v", i, err)
		}
	}
	ep := svc.byName["mem"]
	if ep.stats.MaxConcurrent < 2 {
		t.Fatalf("runs never overlapped (max concurrent %d); teardown untested", ep.stats.MaxConcurrent)
	}
	for _, rep := range ep.sched.pool {
		cl := rep.d.KVCluster()
		if cl == nil {
			t.Fatal("memory endpoint replica has no cluster")
		}
		if got := len(cl.Nodes()); got != 4 {
			t.Fatalf("replica cluster has %d nodes, want 2 shards x (1+1)", got)
		}
		for node, keys := range cl.NumKeysByNode() {
			if keys != 0 {
				t.Fatalf("node %s holds %d keys after overlapping runs", node, keys)
			}
		}
	}
	if n := e.KV.NumKeys(); n != 0 {
		t.Fatalf("%d keys left in the store service after teardown", n)
	}
}

// A mid-replay shard kill surfaces in the ServiceReport: the failover,
// the lost and re-sent values, the replica node-hours that cushioned
// nothing (R=1 still loses the async pipe) and the per-shard breakdown.
func TestReplayReportCarriesFailoverStats(t *testing.T) {
	if testing.Short() {
		t.Skip("failover replay is a long simulation")
	}
	e := env.NewDefault()
	m := testModel(t, 256, 6)
	svc, err := NewService(e,
		WithEndpoint("mem", m, WithChannel(core.Memory), WithWorkers(4),
			WithDeployOverride(func(c *core.Config) {
				c.KVNodes = 2
				c.KVReplicas = 1
				c.KVFailoverWindow = 2 * time.Second
				c.KVReplicationLag = 300 * time.Millisecond
			})),
		WithCoalescing(8, 0),
	)
	if err != nil {
		t.Fatal(err)
	}
	// The late query stretches the window past the nodes' 60s billing
	// floor, so every shard accrues in-window hours for the breakdown.
	trace := []workload.Query{
		{At: 0, Neurons: 256, Samples: 8},
		{At: 2 * time.Minute, Neurons: 256, Samples: 8},
	}
	// The kill lands inside the measured window, mid-run.
	rep, err := svc.Replay(trace, ReplayOptions{
		Seed:   11,
		Verify: true,
		Chaos:  []ChaosEvent{{At: 1800 * time.Millisecond, Kind: KillNode, Endpoint: "mem"}},
	})
	if err != nil {
		t.Fatal(err)
	}
	if rep.Failed != 0 {
		t.Fatalf("%d failed queries:\n%s", rep.Failed, rep)
	}
	if rep.Usage.KVFailovers != 1 {
		t.Fatalf("report carries %d failovers, want 1:\n%s", rep.Usage.KVFailovers, rep)
	}
	if rep.Usage.KVLostValues <= 0 || rep.Usage.KVResends <= 0 {
		t.Fatalf("R=1 kill lost %d / re-sent %d values, want both positive:\n%s",
			rep.Usage.KVLostValues, rep.Usage.KVResends, rep)
	}
	if h := rep.Usage.KVReplicaHours[core.DefaultKVNodeType]; h <= 0 || rep.TotalCost.KVReplica <= 0 {
		t.Fatalf("replica capacity not metered: %.4f hours, $%.4f", h, rep.TotalCost.KVReplica)
	}
	if len(rep.Usage.KVShardHours) < 2 {
		t.Fatalf("per-shard breakdown has %d entries, want both shards: %v", len(rep.Usage.KVShardHours), rep.Usage.KVShardHours)
	}
	for shard, h := range rep.Usage.KVShardHours {
		if cost := rep.KVShardCost[shard]; cost <= 0 {
			t.Fatalf("shard %s has %.3f hours but $%.4f priced", shard, h, cost)
		}
	}
	out := rep.String()
	for _, want := range []string{"store failovers:", "replicas:", "shard "} {
		if !strings.Contains(out, want) {
			t.Fatalf("report does not surface %q:\n%s", want, out)
		}
	}
}

// TestReplayTraceEmbeddedChaos drives the same shard-kill scenario through
// the declarative chaos API: KillNode and Partition events embedded in the
// replay options, applied at trace-relative times, counted in the report —
// with an out-of-range event counted as skipped, not failed.
func TestReplayTraceEmbeddedChaos(t *testing.T) {
	if testing.Short() {
		t.Skip("chaos replay is a long simulation")
	}
	e := env.NewDefault()
	m := testModel(t, 256, 6)
	svc, err := NewService(e,
		WithEndpoint("mem", m, WithChannel(core.Memory), WithWorkers(4),
			WithDeployOverride(func(c *core.Config) {
				c.KVNodes = 2
				c.KVReplicas = 1
				c.KVFailoverWindow = 2 * time.Second
				c.KVReplicationLag = 300 * time.Millisecond
			})),
		WithCoalescing(8, 0),
	)
	if err != nil {
		t.Fatal(err)
	}
	trace := []workload.Query{
		{At: 0, Neurons: 256, Samples: 8},
		{At: 2 * time.Minute, Neurons: 256, Samples: 8},
	}
	rep, err := svc.Replay(trace, ReplayOptions{
		Seed:   11,
		Verify: true,
		Chaos: []ChaosEvent{
			{At: 1800 * time.Millisecond, Kind: KillNode, Endpoint: "mem", Shard: 0},
			{At: 2*time.Minute + 500*time.Millisecond, Kind: Partition, Shard: 1, Duration: 400 * time.Millisecond},
			{At: 3 * time.Minute, Kind: KillNode, Shard: 9}, // out of range: skipped
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	if rep.Failed != 0 {
		t.Fatalf("%d failed queries:\n%s", rep.Failed, rep)
	}
	if rep.ChaosKills != 1 || rep.ChaosPartitions != 1 || rep.ChaosSkipped != 1 {
		t.Fatalf("chaos counters kill/partition/skipped = %d/%d/%d, want 1/1/1:\n%s",
			rep.ChaosKills, rep.ChaosPartitions, rep.ChaosSkipped, rep)
	}
	if rep.Usage.KVFailovers != 1 {
		t.Fatalf("embedded kill caused %d failovers, want 1:\n%s", rep.Usage.KVFailovers, rep)
	}
	if rep.Usage.Collectives["barrier/flat"] <= 0 {
		t.Fatalf("report carries no collective counters: %v", rep.Usage.Collectives)
	}
	out := rep.String()
	for _, want := range []string{"chaos: 1 node kill(s), 1 partition(s) injected, 1 skipped", "collectives:"} {
		if !strings.Contains(out, want) {
			t.Fatalf("report does not surface %q:\n%s", want, out)
		}
	}
	// An event against an unknown endpoint must fail fast, before the
	// simulation spends anything.
	if _, err := svc.Replay(trace, ReplayOptions{
		Chaos: []ChaosEvent{{Kind: KillNode, Endpoint: "nope"}},
	}); err == nil {
		t.Fatal("chaos event against unknown endpoint did not fail")
	}
}
