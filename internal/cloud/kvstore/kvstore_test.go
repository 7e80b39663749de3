package kvstore

import (
	"fmt"
	"strings"
	"testing"
	"time"

	"fsdinference/internal/cloud/pricing"
	"fsdinference/internal/cloud/usage"
	"fsdinference/internal/sim"
)

func newSvc(t *testing.T) (*sim.Kernel, *usage.Meter, *Service) {
	t.Helper()
	k := sim.New()
	m := usage.NewMeter()
	return k, m, New(k, m, DefaultConfig())
}

func TestPushPopRoundTrip(t *testing.T) {
	k, m, s := newSvc(t)
	n, err := s.Provision("n0", "cache.m6g.large")
	if err != nil {
		t.Fatal(err)
	}
	var got []byte
	k.Go("c", func(p *sim.Proc) {
		if err := n.RPush(p, "inbox/0", []byte("hello"), 0); err != nil {
			t.Error(err)
		}
		if err := n.RPush(p, "inbox/0", []byte("world"), 0); err != nil {
			t.Error(err)
		}
		got = n.BLPop(p, "inbox/0", 0)
	})
	if err := k.Run(); err != nil {
		t.Fatal(err)
	}
	if string(got) != "hello" {
		t.Fatalf("popped %q, want FIFO head", got)
	}
	if m.KVOps != 3 || m.KVBytesIn != 10 || m.KVBytesOut != 5 {
		t.Fatalf("metered ops=%d in=%d out=%d", m.KVOps, m.KVBytesIn, m.KVBytesOut)
	}
}

// TestRPushAdoptsValue: the store keeps the slice it is pushed and hands that
// slice to the popper — on the primary, and on a replica fed through
// ReplApply — so a value crosses the store without being copied.
func TestRPushAdoptsValue(t *testing.T) {
	k, _, s := newSvc(t)
	primary, _ := s.Provision("p", "cache.m6g.large")
	replica, _ := s.Provision("r", "cache.m6g.large")
	val := []byte("one frame")
	var fromPrimary, fromReplica []byte
	k.Go("c", func(p *sim.Proc) {
		if err := primary.RPush(p, "inbox", val, time.Minute); err != nil {
			t.Error(err)
		}
		replica.ReplApply("inbox", val, time.Minute)
		fromPrimary = primary.BLPop(p, "inbox", 0)
		fromReplica = replica.BLPop(p, "inbox", 0)
	})
	if err := k.Run(); err != nil {
		t.Fatal(err)
	}
	for name, got := range map[string][]byte{"primary": fromPrimary, "replica": fromReplica} {
		if len(got) != len(val) || &got[0] != &val[0] {
			t.Errorf("%s: popped %q at another address than the pushed slice", name, got)
		}
	}
}

func TestBLPopBlocksUntilPush(t *testing.T) {
	k, _, s := newSvc(t)
	n, _ := s.Provision("n0", "cache.m6g.large")
	var got []byte
	var at time.Duration
	k.Go("consumer", func(p *sim.Proc) {
		got = n.BLPop(p, "q", 10*time.Second)
		at = p.Now()
	})
	k.GoAfter(2*time.Second, "producer", func(p *sim.Proc) {
		if err := n.RPush(p, "q", []byte("x"), 0); err != nil {
			t.Error(err)
		}
	})
	if err := k.Run(); err != nil {
		t.Fatal(err)
	}
	if string(got) != "x" {
		t.Fatalf("blocking pop got %q", got)
	}
	if at < 2*time.Second || at > 3*time.Second {
		t.Fatalf("consumer woke at %v, want shortly after the 2s push", at)
	}
}

func TestBLPopTimesOut(t *testing.T) {
	k, m, s := newSvc(t)
	n, _ := s.Provision("n0", "cache.m6g.large")
	var got []byte
	k.Go("c", func(p *sim.Proc) { got = n.BLPop(p, "empty", time.Second) })
	if err := k.Run(); err != nil {
		t.Fatal(err)
	}
	if got != nil {
		t.Fatalf("empty pop returned %q", got)
	}
	if m.KVOps != 1 {
		t.Fatalf("billed %d ops for one empty pop, want 1", m.KVOps)
	}
}

func TestTTLExpiresKeys(t *testing.T) {
	k, _, s := newSvc(t)
	n, _ := s.Provision("n0", "cache.m6g.large")
	var after []byte
	k.Go("c", func(p *sim.Proc) {
		if err := n.RPush(p, "tmp", []byte("v"), time.Second); err != nil {
			t.Error(err)
		}
		p.Sleep(2 * time.Second)
		after = n.BLPop(p, "tmp", 0)
	})
	if err := k.Run(); err != nil {
		t.Fatal(err)
	}
	if after != nil {
		t.Fatalf("expired key still returned %q", after)
	}
	if n.NumKeys() != 0 || n.UsedBytes() != 0 {
		t.Fatalf("expired key leaked: %d keys, %d bytes", n.NumKeys(), n.UsedBytes())
	}
}

func TestCapacityEnforced(t *testing.T) {
	k, _, s := newSvc(t)
	n, _ := s.Provision("n0", "cache.t3.small") // 1.37 GB
	big := make([]byte, 32<<20)
	var pushErr error
	k.Go("c", func(p *sim.Proc) {
		for i := 0; i < 64; i++ { // 2 GB attempted in 32 MB values
			if pushErr = n.RPush(p, "k", big, 0); pushErr != nil {
				return
			}
		}
	})
	if err := k.Run(); err != nil {
		t.Fatal(err)
	}
	if pushErr == nil || !strings.Contains(pushErr.Error(), "out of memory") {
		t.Fatalf("push past capacity returned %v, want an out-of-memory error", pushErr)
	}
}

func TestValueSizeCapEnforced(t *testing.T) {
	k, _, s := newSvc(t)
	n, _ := s.Provision("n0", "cache.m6g.large")
	var pushErr error
	k.Go("c", func(p *sim.Proc) {
		pushErr = n.RPush(p, "k", make([]byte, s.Config().MaxValueBytes+1), 0)
	})
	if err := k.Run(); err != nil {
		t.Fatal(err)
	}
	if pushErr == nil {
		t.Fatal("oversized value accepted")
	}
}

func TestProvisionedBillingAccruesWhileIdle(t *testing.T) {
	// The sporadic-workload killer: a node that serves nothing still bills
	// for its provisioned window (with the minimum-duration floor applied
	// up front).
	k, m, s := newSvc(t)
	n, _ := s.Provision("n0", "cache.m6g.large")
	k.GoAfter(2*time.Hour, "idle", func(p *sim.Proc) { s.Settle() })
	if err := k.Run(); err != nil {
		t.Fatal(err)
	}
	if h := m.KVNodeHours["cache.m6g.large"]; h < 1.99 || h > 2.01 {
		t.Fatalf("idle node accrued %.3f hours, want ~2", h)
	}
	if gb := m.KVGBHours; gb < 2*n.Type().MemoryGB*0.99 {
		t.Fatalf("GB-hours = %.2f, want ~%.2f", gb, 2*n.Type().MemoryGB)
	}
	cost := m.Cost(pricing.Default())
	if cost.KV <= 0 {
		t.Fatalf("idle provisioned node billed nothing: %+v", cost)
	}
	if m.KVOps != 0 {
		t.Fatalf("idle node metered %d ops", m.KVOps)
	}
}

func TestMinimumBilledDuration(t *testing.T) {
	k, m, s := newSvc(t)
	s.Provision("n0", "cache.m6g.large")
	k.Go("c", func(p *sim.Proc) {
		p.Sleep(time.Second)
		s.Settle()
	})
	if err := k.Run(); err != nil {
		t.Fatal(err)
	}
	want := s.Config().MinBilledDuration.Hours()
	if h := m.KVNodeHours["cache.m6g.large"]; h != want {
		t.Fatalf("1s-old node accrued %.5f hours, want the %.5f floor", h, want)
	}
}

func TestReleaseStopsBilling(t *testing.T) {
	k, m, s := newSvc(t)
	n, _ := s.Provision("n0", "cache.m6g.large")
	k.GoAfter(time.Hour, "rel", func(p *sim.Proc) { n.Release() })
	k.GoAfter(3*time.Hour, "late", func(p *sim.Proc) { s.Settle() })
	if err := k.Run(); err != nil {
		t.Fatal(err)
	}
	if h := m.KVNodeHours["cache.m6g.large"]; h < 0.99 || h > 1.01 {
		t.Fatalf("released node accrued %.3f hours, want ~1", h)
	}
	if s.nodes["n0"] != nil {
		t.Fatal("released node still registered")
	}
}

func TestDropPrefixTearsDownKeyspace(t *testing.T) {
	k, _, s := newSvc(t)
	n, _ := s.Provision("n0", "cache.m6g.large")
	k.Go("c", func(p *sim.Proc) {
		n.RPush(p, "r1/inbox/0", []byte("a"), 0)
		n.RPush(p, "r1/inbox/1", []byte("b"), 0)
		n.RPush(p, "r2/inbox/0", []byte("c"), 0)
	})
	if err := k.Run(); err != nil {
		t.Fatal(err)
	}
	n.DropPrefix("r1/")
	if n.NumKeys() != 1 {
		t.Fatalf("keys after drop = %d, want 1 (the r2 key)", n.NumKeys())
	}
}

// TestRecycledEntryCarriesNothing: key a is pushed with a TTL and popped
// empty, on a primary (BLPop) and on a replica (ReplApplyPop), so its entry
// goes on the node's free list; key b then takes that entry and must hold
// what b holds on a fresh node: the same values, bytes and TTL, with the
// node's usedBytes where the fresh node's is.
func TestRecycledEntryCarriesNothing(t *testing.T) {
	k, _, s := newSvc(t)
	var nodes [4]*Node
	for i, name := range []string{"primary", "fresh-primary", "replica", "fresh-replica"} {
		nodes[i], _ = s.Provision(name, DefaultNodeType)
	}
	primary, freshPrimary, replica, freshReplica := nodes[0], nodes[1], nodes[2], nodes[3]
	aVals := []string{"a-first", "a-second-longer", "a-third"}
	bVals := [][]byte{[]byte("b-one"), []byte("b-two")}
	var recycled [2]*entry
	k.Go("c", func(p *sim.Proc) {
		for _, v := range aVals {
			if err := primary.RPush(p, "a", []byte(v), time.Minute); err != nil {
				t.Error(err)
			}
			replica.ReplApply("a", []byte(v), time.Minute)
		}
		for range aVals {
			primary.BLPop(p, "a", 0)
			replica.ReplApplyPop("a")
		}
		for i, n := range []*Node{primary, replica} {
			if len(n.free) != 1 || n.UsedBytes() != 0 {
				t.Errorf("%s: %d free entries and %d bytes used after a's last pop, want 1 and 0", n.Name(), len(n.free), n.UsedBytes())
				return
			}
			recycled[i] = n.free[0]
		}
		for _, v := range bVals {
			for _, n := range []*Node{primary, freshPrimary} {
				if err := n.RPush(p, "b", v, 0); err != nil {
					t.Error(err)
				}
			}
			replica.ReplApply("b", v, 0)
			freshReplica.ReplApply("b", v, 0)
		}
	})
	if err := k.Run(); err != nil {
		t.Fatal(err)
	}
	for i, pair := range [][2]*Node{{primary, freshPrimary}, {replica, freshReplica}} {
		n, fresh := pair[0], pair[1]
		got, want := n.items["b"], fresh.items["b"]
		if got != recycled[i] {
			t.Fatalf("%s: b did not take the entry a's last pop freed", n.Name())
		}
		if fmt.Sprint(got.list) != fmt.Sprint(want.list) || got.bytes != want.bytes || got.expiresAt != want.expiresAt {
			t.Errorf("%s: b holds %q, %d bytes, expiry %v; a fresh node's holds %q, %d bytes, expiry %v",
				n.Name(), got.list, got.bytes, got.expiresAt, want.list, want.bytes, want.expiresAt)
		}
		if n.UsedBytes() != fresh.UsedBytes() {
			t.Errorf("%s: %d bytes used, a fresh node %d", n.Name(), n.UsedBytes(), fresh.UsedBytes())
		}
	}
}

func TestUnknownNodeType(t *testing.T) {
	_, _, s := newSvc(t)
	if _, err := s.Provision("n0", "cache.nonsense"); err == nil {
		t.Fatal("unknown node type accepted")
	}
}

func TestCapacitySweepReclaimsAbandonedTTLKeys(t *testing.T) {
	// Keys an aborted run abandons are never accessed again, so lazy
	// per-key expiry alone would leave their bytes counted forever; a
	// write that would fail on capacity must sweep them first.
	k, _, s := newSvc(t)
	n, _ := s.Provision("n0", "cache.t3.small") // 1.37 GB
	fill := make([]byte, 32<<20)
	live := make([]byte, 64<<20)
	var pushErr error
	k.Go("c", func(p *sim.Proc) {
		// ~1.31 GB of TTL'd keys, leaving less free capacity than the
		// upcoming 64 MB write needs.
		for i := 0; i < 42; i++ {
			if err := n.RPush(p, fmt.Sprintf("dead/%d", i), fill, 10*time.Second); err != nil {
				t.Error(err)
				return
			}
		}
		p.Sleep(11 * time.Second) // every dead key is now expired, none accessed
		pushErr = n.RPush(p, "live", live, 0)
	})
	if err := k.Run(); err != nil {
		t.Fatal(err)
	}
	if pushErr != nil {
		t.Fatalf("write failed on capacity held by expired keys: %v", pushErr)
	}
	if n.NumKeys() != 1 {
		t.Fatalf("keys = %d, want only the live one", n.NumKeys())
	}
	if n.UsedBytes() > int64(len(live))+int64(s.Config().KeyOverheadBytes) {
		t.Fatalf("used bytes %d still count abandoned keys", n.UsedBytes())
	}
}

func TestProvisionRejectsTypeMismatch(t *testing.T) {
	_, _, s := newSvc(t)
	if _, err := s.Provision("n0", "cache.r6g.large"); err != nil {
		t.Fatal(err)
	}
	if _, err := s.Provision("n0", "cache.t3.small"); err == nil {
		t.Fatal("name collision with a different node type accepted")
	}
	if n, err := s.Provision("n0", "cache.r6g.large"); err != nil || n == nil {
		t.Fatalf("same-type re-provision should return the existing node: %v", err)
	}
}

// TestSettleOrderDeterministic is the regression test for the latent
// determinism bug the maporder burndown surfaced: Settle accrued nodes
// in map iteration order, and each accrual adds float node-hours into
// the shared meter. Float addition is not associative, so two replays
// of the same trace could disagree in the meter's low bits depending on
// which order the node map happened to iterate. Settle now accrues in
// sorted node-name order; rebuilding the identical scenario must
// produce bit-identical meter totals every time.
func TestSettleOrderDeterministic(t *testing.T) {
	build := func() (float64, float64) {
		k := sim.New()
		m := usage.NewMeter()
		cfg := DefaultConfig()
		cfg.MinBilledDuration = 0 // no floor: distinct lifetimes stay distinct
		s := New(k, m, cfg)
		// Eight nodes of one type provisioned at staggered, binary-inexact
		// offsets, so the per-node hour values differ and the sum's low
		// bits depend on addition order.
		for i := 0; i < 8; i++ {
			i := i
			k.At(time.Duration(i)*737*time.Millisecond, func() {
				if _, err := s.Provision(fmt.Sprintf("n%d", i), DefaultNodeType); err != nil {
					t.Error(err)
				}
			})
		}
		k.At(10*time.Second, func() {})
		if err := k.Run(); err != nil {
			t.Fatal(err)
		}
		s.Settle()
		return m.KVGBHours, m.KVNodeHours[DefaultNodeType]
	}
	gb0, nh0 := build()
	for run := 1; run < 40; run++ {
		gb, nh := build()
		if gb != gb0 || nh != nh0 {
			t.Fatalf("Settle not deterministic: run %d got (%x, %x) want (%x, %x)",
				run, gb, nh, gb0, nh0)
		}
	}
}

// TestTTLExpiredKeysAreNotLive: a key past its TTL that no operation has
// dropped yet counts in none of the host-side inspections.
func TestTTLExpiredKeysAreNotLive(t *testing.T) {
	k, _, s := newSvc(t)
	n, _ := s.Provision("n0", "cache.m6g.large")
	k.Go("c", func(p *sim.Proc) {
		if err := n.RPush(p, "tmp", []byte("v"), time.Second); err != nil {
			t.Error(err)
		}
		if err := n.RPush(p, "keep", []byte("w"), 0); err != nil {
			t.Error(err)
		}
		p.Sleep(2 * time.Second)
	})
	if err := k.Run(); err != nil {
		t.Fatal(err)
	}
	if lens := n.ListLens(); n.NumKeys() != 1 || n.NumValues() != 1 || len(lens) != 1 || lens["keep"] != 1 {
		t.Fatalf("%d keys, %d values, lists %v; want only keep's one value", n.NumKeys(), n.NumValues(), lens)
	}
}

// TestReleasedNodeTakesNothing: a released node bills nothing for an op
// that was in flight when it went, and the replication stream and a
// re-sync add nothing to it.
func TestReleasedNodeTakesNothing(t *testing.T) {
	k, m, s := newSvc(t)
	n, _ := s.Provision("n0", "cache.t3.small")
	src, _ := s.Provision("n1", "cache.m6g.large")
	var atRelease float64
	k.Go("c", func(p *sim.Proc) {
		if err := src.RPush(p, "k", []byte("v"), 0); err != nil {
			t.Error(err)
		}
		p.Sleep(time.Hour)
		// The push sleeps through its latency; the node goes meanwhile.
		k.At(0, func() {
			n.Release()
			atRelease = m.KVNodeHours["cache.t3.small"]
		})
		if err := n.RPush(p, "k", []byte("v"), 0); err != nil {
			t.Error(err)
		}
	})
	if err := k.Run(); err != nil {
		t.Fatal(err)
	}
	if got := m.KVNodeHours["cache.t3.small"]; got != atRelease {
		t.Fatalf("released node billed %v node-hours after its release's %v", got, atRelease)
	}
	keys, used := n.NumKeys(), n.UsedBytes()
	n.ReplApply("k", []byte("v"), 0)
	n.ReplApplyPop("k")
	n.SyncFrom(src)
	if n.NumKeys() != keys || n.UsedBytes() != used {
		t.Fatalf("released node went from %d keys, %d bytes to %d, %d", keys, used, n.NumKeys(), n.UsedBytes())
	}
}

// TestTTLExpiresAtItsInstant: a key lives until the instant before its
// expiry and is gone at the expiry itself.
func TestTTLExpiresAtItsInstant(t *testing.T) {
	k, _, s := newSvc(t)
	n, _ := s.Provision("n0", "cache.m6g.large")
	var before, at []byte
	k.Go("c", func(p *sim.Proc) {
		expires := map[string]time.Duration{}
		for _, key := range []string{"a", "b"} {
			if err := n.RPush(p, key, []byte("v"), time.Second); err != nil {
				t.Error(err)
			}
			expires[key] = p.Now() + time.Second
		}
		p.Sleep(expires["a"] - time.Nanosecond - p.Now())
		before = n.BLPop(p, "a", 0)
		if p.Now() > expires["b"] {
			t.Errorf("popping a ran past b's expiry")
			return
		}
		p.Sleep(expires["b"] - p.Now())
		at = n.BLPop(p, "b", 0)
	})
	if err := k.Run(); err != nil {
		t.Fatal(err)
	}
	if before == nil || at != nil {
		t.Fatalf("a key popped 1 ns before its expiry: %q; at its expiry: %q (want a value, then nil)", before, at)
	}
}

// TestDropReturnsEveryByte: dropping keys gives back their values' bytes
// and their key overhead, so the node is empty again once the last is gone.
func TestDropReturnsEveryByte(t *testing.T) {
	k, _, s := newSvc(t)
	n, _ := s.Provision("n0", "cache.m6g.large")
	k.Go("c", func(p *sim.Proc) {
		for _, kv := range [][2]string{{"r1/0", "abc"}, {"r1/0", "de"}, {"r1/1", "f"}, {"r2/0", "ghij"}} {
			if err := n.RPush(p, kv[0], []byte(kv[1]), 0); err != nil {
				t.Error(err)
			}
		}
	})
	if err := k.Run(); err != nil {
		t.Fatal(err)
	}
	overhead := int64(s.Config().KeyOverheadBytes)
	n.DropPrefix("r1/")
	if got := n.UsedBytes(); got != 4+overhead {
		t.Fatalf("after dropping r1/: %d bytes used, want r2/0's %d", got, 4+overhead)
	}
	n.DropPrefix("")
	if n.UsedBytes() != 0 || n.NumKeys() != 0 {
		t.Fatalf("after dropping every key: %d bytes used over %d keys", n.UsedBytes(), n.NumKeys())
	}
}

// TestBLPopWaitsOutItsDeadline: a pop that finds nothing returns once its
// wait has passed, plus the op it bills, also when a push to another key
// wakes it halfway and it waits out only what is left.
func TestBLPopWaitsOutItsDeadline(t *testing.T) {
	const wait = time.Second
	for _, wake := range []bool{false, true} {
		k, _, s := newSvc(t)
		n, _ := s.Provision("n0", "cache.m6g.large")
		var got []byte
		var at time.Duration
		k.Go("c", func(p *sim.Proc) {
			got = n.BLPop(p, "empty", wait)
			at = p.Now()
		})
		if wake {
			k.GoAfter(wait/2, "other", func(p *sim.Proc) {
				if err := n.RPush(p, "other", []byte("x"), 0); err != nil {
					t.Error(err)
				}
			})
		}
		if err := k.Run(); err != nil {
			t.Fatal(err)
		}
		if want := wait + s.Config().OpLatency; got != nil || at != want {
			t.Fatalf("woken halfway %v: popped %q at %v, want nil at %v", wake, got, at, want)
		}
	}
}
