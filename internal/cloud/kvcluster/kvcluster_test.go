package kvcluster

import (
	"fmt"
	"strings"
	"testing"
	"time"

	"fsdinference/internal/cloud/kvstore"
	"fsdinference/internal/cloud/usage"
	"fsdinference/internal/obs"
	"fsdinference/internal/sim"
)

func newTestCluster(t *testing.T, cfg Config) (*sim.Kernel, *usage.Meter, *Cluster) {
	t.Helper()
	k := sim.New()
	m := usage.NewMeter()
	kv := kvstore.New(k, m, kvstore.DefaultConfig())
	c, err := New(kv, cfg)
	if err != nil {
		t.Fatal(err)
	}
	return k, m, c
}

// The slot-map property test: every key routes to exactly one primary,
// slot coverage is total, and routing is stable under shard add/remove
// except for the migrated slots.
func TestSlotMapProperties(t *testing.T) {
	for _, shards := range []int{1, 2, 3, 5, 8} {
		m := BuildSlotMap(shards)
		if len(m) != NumSlots {
			t.Fatalf("shards=%d: map covers %d slots, want %d", shards, len(m), NumSlots)
		}
		owned := make([]int, shards)
		for slot, owner := range m {
			if owner < 0 || owner >= shards {
				t.Fatalf("shards=%d: slot %d owned by out-of-range shard %d", shards, slot, owner)
			}
			owned[owner]++
		}
		for i, n := range owned {
			if n == 0 {
				t.Fatalf("shards=%d: shard %d owns no slots", shards, i)
			}
		}
	}

	// Every key routes to exactly one primary, deterministically.
	_, _, c := newTestCluster(t, Config{Name: "prop", Shards: 4})
	for i := 0; i < 500; i++ {
		key := fmt.Sprintf("r%d/inbox/%d", i%7, i)
		s1, s2 := c.shardFor(key), c.shardFor(key)
		if s1 != s2 || s1.primary == nil || c.shards[s1.idx] != s1 {
			t.Fatalf("key %q routed to shard %d then %d", key, s1.idx, s2.idx)
		}
	}

	// Stability: growing n -> n+1 moves only slots the new shard wins;
	// shrinking n -> n-1 moves only the departed shard's slots.
	for n := 1; n <= 7; n++ {
		small, big := BuildSlotMap(n), BuildSlotMap(n+1)
		migrated := 0
		for slot := range small {
			if small[slot] != big[slot] {
				if big[slot] != n {
					t.Fatalf("grow %d->%d: slot %d moved %d -> %d, not to the new shard",
						n, n+1, slot, small[slot], big[slot])
				}
				migrated++
			}
		}
		if n > 1 && migrated == 0 {
			t.Fatalf("grow %d->%d: the new shard won no slots", n, n+1)
		}
		for slot := range small {
			// Shrinking is the same comparison read backwards: slots the
			// bigger map gave to shard n must redistribute, all others stay.
			if big[slot] == n && small[slot] == n {
				t.Fatalf("shrink %d->%d: slot %d still routed to the removed shard", n+1, n, slot)
			}
		}
	}
}

// Hash tags pin related keys to one slot, like Redis Cluster.
func TestSlotForKeyHashTags(t *testing.T) {
	a := SlotForKey("{run7}/inbox/1")
	b := SlotForKey("{run7}/inbox/2")
	if a != b {
		t.Fatalf("hash-tagged keys landed on slots %d and %d", a, b)
	}
	if SlotForKey("plain") != SlotForKey("plain") {
		t.Fatal("slot hashing is not deterministic")
	}
}

// Values pushed through the cluster route by slot, pop in order, and
// DropPrefix sweeps every shard — primaries and replicas.
func TestClusterOpsAndTeardown(t *testing.T) {
	k, _, c := newTestCluster(t, Config{Name: "ops", Shards: 3, Replicas: 1})
	const keys = 12
	k.Go("driver", func(p *sim.Proc) {
		for i := 0; i < keys; i++ {
			key := fmt.Sprintf("run/inbox/%d", i)
			for j := 0; j < 2; j++ {
				if err := c.RPush(p, nil, key, []byte{byte(i), byte(j)}, time.Minute); err != nil {
					t.Errorf("push %s: %v", key, err)
				}
			}
		}
		// Replication is asynchronous: let the lag drain before checking.
		p.Sleep(c.cfg.ReplicationLag * 2)
		for i := 0; i < keys; i++ {
			key := fmt.Sprintf("run/inbox/%d", i)
			v := c.BLPop(p, nil, key, time.Second)
			if len(v) != 2 || v[0] != byte(i) || v[1] != 0 {
				t.Errorf("pop %s: got %v", key, v)
			}
		}
	})
	if err := k.Run(); err != nil {
		t.Fatal(err)
	}
	got := 0
	for _, sh := range c.shards {
		got += sh.primary.NumKeys()
	}
	if got != keys {
		t.Fatalf("cluster holds %d keys after one pop each, want %d", got, keys)
	}
	c.DropPrefix("run/")
	for name, n := range c.NumKeysByNode() {
		if n != 0 {
			t.Fatalf("node %s holds %d keys after DropPrefix", name, n)
		}
	}
}

// The availability ladder: a mid-stream KillNode loses the whole shard
// at R=0, the un-replicated asynchronous pipe at R=1, and nothing under
// quorum writes at R>=2 — and in every case the shard's slots block
// until promotion, after which reads resume against the new primary.
func TestFailoverLossByReplicationMode(t *testing.T) {
	for _, tc := range []struct {
		replicas  int
		wantLost  bool
		wantExact int64 // -1 = any positive
	}{
		{0, true, -1},
		{1, true, -1},
		{2, false, 0},
	} {
		t.Run(fmt.Sprintf("R=%d", tc.replicas), func(t *testing.T) {
			k, m, c := newTestCluster(t, Config{
				Name: "fo", Shards: 1, Replicas: tc.replicas,
				FailoverWindow: 2 * time.Second,
				ReplicationLag: 100 * time.Millisecond,
			})
			const vals = 8
			var got int
			k.Go("driver", func(p *sim.Proc) {
				for i := 0; i < vals; i++ {
					if err := c.RPush(p, nil, "k", []byte{byte(i)}, 0); err != nil {
						t.Errorf("push: %v", err)
					}
				}
				// Kill inside the replication lag: async R=1 still has the
				// last writes in the pipe.
				if err := c.KillNode(0); err != nil {
					t.Errorf("kill: %v", err)
				}
				start := p.Now()
				for {
					v := c.BLPop(p, nil, "k", 5*time.Second)
					if v == nil {
						break
					}
					got++
				}
				if stall := p.Now() - start; stall < 2*time.Second {
					t.Errorf("reads resumed after %v, inside the 2s failover window", stall)
				}
			})
			if err := k.Run(); err != nil {
				t.Fatal(err)
			}
			if c.Failovers() != 1 || m.KVFailovers != 1 {
				t.Fatalf("failovers=%d metered=%d, want 1", c.Failovers(), m.KVFailovers)
			}
			lost := c.LostValues()
			if tc.wantLost && lost <= 0 {
				t.Fatalf("R=%d lost %d values, want a loss", tc.replicas, lost)
			}
			if !tc.wantLost && lost != tc.wantExact {
				t.Fatalf("R=%d lost %d values, want %d", tc.replicas, lost, tc.wantExact)
			}
			if int64(got)+lost != vals {
				t.Fatalf("R=%d: recovered %d + lost %d != pushed %d", tc.replicas, got, lost, vals)
			}
			if m.KVLostValues != lost {
				t.Fatalf("meter lost %d, cluster lost %d", m.KVLostValues, lost)
			}
			// Promotion restored the configured replica count with fresh
			// billing nodes.
			wantNodes := 1 + tc.replicas
			if n := len(c.Nodes()); n != wantNodes {
				t.Fatalf("cluster has %d live nodes after failover, want %d", n, wantNodes)
			}
		})
	}
}

// Two successive quorum failovers on one shard lose nothing: promotion
// re-syncs the surviving replicas from the new primary (their stream
// from the dead primary was cut mid-flight), so the second promotion
// candidate holds the full keyspace.
func TestBackToBackQuorumFailoversLoseNothing(t *testing.T) {
	k, _, c := newTestCluster(t, Config{
		Name: "fo2", Shards: 1, Replicas: 2,
		FailoverWindow: time.Second,
		ReplicationLag: 100 * time.Millisecond,
	})
	const vals = 8
	got := 0
	k.Go("driver", func(p *sim.Proc) {
		for i := 0; i < vals; i++ {
			if err := c.RPush(p, nil, "k", []byte{byte(i)}, 0); err != nil {
				t.Errorf("push: %v", err)
			}
		}
		// First kill lands inside the replication lag: the trailing
		// replica's async applies are dropped with the dead primary.
		if err := c.KillNode(0); err != nil {
			t.Errorf("first kill: %v", err)
		}
		p.Sleep(2 * time.Second) // past promotion and any residual lag
		if err := c.KillNode(0); err != nil {
			t.Errorf("second kill: %v", err)
		}
		for {
			v := c.BLPop(p, nil, "k", 5*time.Second)
			if v == nil {
				break
			}
			got++
		}
	})
	if err := k.Run(); err != nil {
		t.Fatal(err)
	}
	if c.Failovers() != 2 {
		t.Fatalf("failovers=%d, want 2", c.Failovers())
	}
	if c.LostValues() != 0 || got != vals {
		t.Fatalf("recovered %d of %d values, %d counted lost; quorum must survive back-to-back kills",
			got, vals, c.LostValues())
	}
}

// Releasing the cluster mid-failover must not let the pending promotion
// provision replacement nodes whose billing clocks never stop.
func TestReleaseDuringFailoverProvisionsNothing(t *testing.T) {
	k, m, c := newTestCluster(t, Config{
		Name: "rel", Shards: 1, Replicas: 1,
		FailoverWindow: time.Second,
	})
	kv := c.kv
	k.Go("driver", func(p *sim.Proc) {
		if err := c.RPush(p, nil, "k", []byte{1}, 0); err != nil {
			t.Errorf("push: %v", err)
		}
		if err := c.KillNode(0); err != nil {
			t.Errorf("kill: %v", err)
		}
		c.Release() // deployment decommissioned before the window elapses
		p.Sleep(5 * time.Second)
	})
	if err := k.Run(); err != nil {
		t.Fatal(err)
	}
	if n := kv.NumNodes(); n != 0 {
		t.Fatalf("%d nodes still provisioned (and billing) after Release during failover", n)
	}
	kv.Settle()
	snap := m.Snapshot()
	var total float64
	for _, h := range snap.KVNodeHours {
		total += h
	}
	// Two nodes lived at most ~1s plus the 60s billing floor each; a
	// leaked replacement would keep accruing past this bound forever.
	if maxHours := 2 * (61 * time.Second).Hours(); total > maxHours {
		t.Fatalf("%.4f node-hours accrued, above the %.4f bound; a node leaked past Release", total, maxHours)
	}
}

// A cached client pays one MOVED-style redirect after a promotion; the
// redirect is metered.
func TestMovedRedirectAfterPromotion(t *testing.T) {
	k, m, c := newTestCluster(t, Config{
		Name: "mv", Shards: 1, Replicas: 2,
		FailoverWindow: time.Second,
	})
	cl := &Client{}
	k.Go("driver", func(p *sim.Proc) {
		if err := c.RPush(p, cl, "k", []byte{1}, 0); err != nil {
			t.Errorf("push: %v", err)
		}
		if err := c.KillNode(0); err != nil {
			t.Errorf("kill: %v", err)
		}
		if v := c.BLPop(p, cl, "k", 5*time.Second); v == nil {
			t.Error("value lost across quorum failover")
		}
	})
	if err := k.Run(); err != nil {
		t.Fatal(err)
	}
	if c.Moved() != 1 || m.KVMoved != 1 {
		t.Fatalf("moved=%d metered=%d, want 1 redirect", c.Moved(), m.KVMoved)
	}
}

// A partition stalls the shard's slots for its duration without losing
// data or promoting.
func TestPartitionStallsWithoutLoss(t *testing.T) {
	var now func() time.Duration
	tr := obs.New(func() time.Duration { return now() }, 1)
	k, _, c := newTestCluster(t, Config{Name: "part", Shards: 1, Replicas: 1, Trace: obs.Scope{T: tr, Track: "ep"}})
	now = k.Clock()
	k.Go("driver", func(p *sim.Proc) {
		if err := c.RPush(p, nil, "k", []byte{1}, 0); err != nil {
			t.Errorf("push: %v", err)
		}
		if err := c.Partition(0, 500*time.Millisecond); err != nil {
			t.Errorf("partition: %v", err)
		}
		start := p.Now()
		if v := c.BLPop(p, nil, "k", 5*time.Second); v == nil {
			t.Error("value unavailable after the partition healed")
		}
		if stall := p.Now() - start; stall < 500*time.Millisecond {
			t.Errorf("read served after %v, inside the partition", stall)
		}
	})
	if err := k.Run(); err != nil {
		t.Fatal(err)
	}
	if c.LostValues() != 0 || c.Failovers() != 0 || c.Epoch() != 0 {
		t.Fatalf("partition lost %d values, %d failovers, epoch %d; want none",
			c.LostValues(), c.Failovers(), c.Epoch())
	}
	var faults []string
	for _, sp := range tr.Spans() {
		if sp.Kind == obs.KindFault {
			faults = append(faults, fmt.Sprintf("%s %s %v", sp.Track, sp.Name, sp.End-sp.Start))
		}
	}
	if want := "ep/s0 partition 500ms"; len(faults) != 1 || faults[0] != want {
		t.Fatalf("fault spans %q, want [%q]", faults, want)
	}
}

// TestNewRejectsImpossibleShape: a cluster needs a primary, and no shard
// has fewer than no replicas.
func TestNewRejectsImpossibleShape(t *testing.T) {
	for _, cfg := range []Config{{Name: "none", Shards: 0}, {Name: "neg", Shards: 1, Replicas: -1}} {
		kv := kvstore.New(sim.New(), usage.NewMeter(), kvstore.DefaultConfig())
		if _, err := New(kv, cfg); err == nil || !strings.Contains(err.Error(), cfg.Name) {
			t.Errorf("New(%+v) = %v, want an error naming the cluster", cfg, err)
		}
		if kv.NumNodes() != 0 {
			t.Errorf("New(%+v) provisioned %d nodes", cfg, kv.NumNodes())
		}
	}
}

// A kill during a partition supersedes it: the partition's heal must not
// reopen the shard early, and the promotion completes the failover.
func TestKillDuringPartitionSupersedesHeal(t *testing.T) {
	k, _, c := newTestCluster(t, Config{
		Name: "pk", Shards: 1, Replicas: 1,
		FailoverWindow: 2 * time.Second,
	})
	k.Go("driver", func(p *sim.Proc) {
		if err := c.RPush(p, nil, "k", []byte{1}, 0); err != nil {
			t.Errorf("push: %v", err)
		}
		p.Sleep(time.Second) // let the async replication land
		if err := c.Partition(0, 500*time.Millisecond); err != nil {
			t.Errorf("partition: %v", err)
		}
		if err := c.KillNode(0); err != nil {
			t.Errorf("kill during partition: %v", err)
		}
		start := p.Now()
		if v := c.BLPop(p, nil, "k", 10*time.Second); v == nil {
			t.Error("replicated value lost across the kill")
		}
		// The partition would have healed at +500ms; the kill's 2s
		// failover window must govern instead.
		if stall := p.Now() - start; stall < 2*time.Second {
			t.Errorf("reads resumed after %v; the partition heal reopened a failing shard", stall)
		}
	})
	if err := k.Run(); err != nil {
		t.Fatal(err)
	}
	if c.Failovers() != 1 || c.LostValues() != 0 {
		t.Fatalf("failovers=%d lost=%d, want 1 failover, 0 lost", c.Failovers(), c.LostValues())
	}
}

// Replica node-hours bill like primaries and are attributed per shard;
// promotion retags the promoted node as primary capacity.
func TestReplicaAndShardBilling(t *testing.T) {
	k, m, c := newTestCluster(t, Config{Name: "bill", Shards: 2, Replicas: 1})
	k.Go("driver", func(p *sim.Proc) {
		p.Sleep(2 * time.Minute)
	})
	if err := k.Run(); err != nil {
		t.Fatal(err)
	}
	c.kv.Settle()
	wantHours := 4 * (2 * time.Minute).Hours() // 2 shards x (1 primary + 1 replica)
	var total, replica float64
	for _, h := range m.KVNodeHours {
		total += h
	}
	for _, h := range m.KVReplicaHours {
		replica += h
	}
	if diff := total - wantHours; diff < -1e-9 || diff > 1e-9 {
		t.Fatalf("total node-hours %.6f, want %.6f", total, wantHours)
	}
	if diff := replica - wantHours/2; diff < -1e-9 || diff > 1e-9 {
		t.Fatalf("replica node-hours %.6f, want %.6f", replica, wantHours/2)
	}
	var shardHours float64
	for label, h := range m.KVShardHours {
		if h <= 0 {
			t.Fatalf("shard %s accrued no hours", label)
		}
		shardHours += h
	}
	if len(m.KVShardHours) != 2 {
		t.Fatalf("%d shard labels, want 2: %v", len(m.KVShardHours), m.KVShardHours)
	}
	if diff := shardHours - total; diff < -1e-9 || diff > 1e-9 {
		t.Fatalf("shard breakdown %.6f does not sum to total %.6f", shardHours, total)
	}
}

// Aggregate cluster throughput scales past a single node's request-rate
// ceiling once the keyspace shards: the per-node limiter caps each
// primary independently.
func TestThroughputScalesPastSingleNodeCeiling(t *testing.T) {
	if testing.Short() {
		t.Skip("saturating the per-node limiter is a long simulation")
	}
	one, err := MeasureThroughput(1, "cache.t3.small")
	if err != nil {
		t.Fatal(err)
	}
	two, err := MeasureThroughput(2, "cache.t3.small")
	if err != nil {
		t.Fatal(err)
	}
	ceiling := kvstore.Catalog["cache.t3.small"].MaxOpsPerSec
	if one > ceiling*1.10 {
		t.Fatalf("single node served %.0f ops/s, above its %.0f ceiling", one, ceiling)
	}
	if two <= ceiling*1.3 {
		t.Fatalf("2 shards served %.0f ops/s, not meaningfully past the %.0f single-node ceiling", two, ceiling)
	}
}

// An unprovisionable cluster is the caller's error to handle, not a panic.
func TestMeasureThroughputRejectsUnknownNodeType(t *testing.T) {
	if _, err := MeasureThroughput(1, "cache.no.such"); err == nil {
		t.Fatal("unknown node type: want an error")
	}
}
