package kvstore

import (
	"fmt"
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
		got = n.LPop(p, "inbox/0")
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
		fromPrimary = primary.LPop(p, "inbox")
		fromReplica = replica.LPop(p, "inbox")
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
	k, _, s := newSvc(t)
	n, _ := s.Provision("n0", "cache.m6g.large")
	var got []byte
	k.Go("c", func(p *sim.Proc) { got = n.BLPop(p, "empty", time.Second) })
	if err := k.Run(); err != nil {
		t.Fatal(err)
	}
	if got != nil {
		t.Fatalf("empty pop returned %q", got)
	}
	if n.EmptyPops != 1 {
		t.Fatalf("empty pops = %d", n.EmptyPops)
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
		after = n.LPop(p, "tmp")
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
	if pushErr == nil {
		t.Fatal("node accepted more data than its capacity")
	}
	if n.OutOfSpace == 0 {
		t.Fatal("out-of-space not counted")
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
	if s.Node("n0") != nil {
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
