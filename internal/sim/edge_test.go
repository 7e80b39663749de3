package sim

import (
	"fmt"
	"strings"
	"testing"
	"time"
)

// TestLimiterConcurrentBurst verifies the token bucket's double-entry
// accounting under a bursty pile-up: twenty takers arrive at the same
// instant, each wanting five tokens from a bucket holding ten with a
// 100/s refill. Each taker's deficit must include every earlier taker's,
// so completions spread at exactly the sustained rate with no
// over-admission from the post-sleep refill.
func TestLimiterConcurrentBurst(t *testing.T) {
	k := New()
	l := NewLimiter(k, 100, 10)
	const takers = 20
	done := make([]time.Duration, takers)
	for i := 0; i < takers; i++ {
		i := i
		k.Go(fmt.Sprintf("taker%d", i), func(p *Proc) {
			l.Take(p, 5)
			done[i] = p.Now()
		})
	}
	if err := k.Run(); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < takers; i++ {
		// Taker i (0-based) leaves the balance at 10 - 5(i+1); its deficit
		// beyond the burst accrues at 100 tokens/s. The nanosecond
		// round-up adds at most 1ns per taker.
		deficit := 5.0*float64(i+1) - 10
		if deficit < 0 {
			deficit = 0
		}
		want := time.Duration(deficit / 100 * float64(time.Second))
		if done[i] < want || done[i] > want+time.Nanosecond {
			t.Fatalf("taker %d finished at %v, want %v (+<=1ns)", i, done[i], want)
		}
		if i > 0 && done[i] < done[i-1] {
			t.Fatalf("FIFO order violated: taker %d at %v before taker %d at %v",
				i, done[i], i-1, done[i-1])
		}
	}
	// After the queue drains the bucket is empty; one refill window later a
	// burst-sized take must pass without waiting — the refill cancels the
	// pre-subtracted deficits rather than minting extra tokens.
	k.GoAfter(time.Second, "late", func(p *Proc) {
		start := p.Now()
		l.Take(p, 10)
		if p.Now() != start {
			t.Errorf("refilled burst take waited %v", p.Now()-start)
		}
	})
	if err := k.Run(); err != nil {
		t.Fatal(err)
	}
}

// TestKillDuringCondWaitTimeout kills a proc blocked in WaitTimeout: the
// victim must unwind through its defers, and the orphaned timeout event
// must be dropped without dragging the clock to its deadline.
func TestKillDuringCondWaitTimeout(t *testing.T) {
	k := New()
	c := NewCond(k)
	cleaned := false
	victim := k.Go("victim", func(p *Proc) {
		defer func() {
			if !p.Killed() {
				t.Error("victim unwound without Killed() set")
			}
			cleaned = true
		}()
		c.WaitTimeout(p, time.Hour)
		t.Error("victim survived the kill")
	})
	k.Go("killer", func(p *Proc) {
		p.Sleep(time.Second)
		k.Kill(victim)
	})
	if err := k.Run(); err != nil {
		t.Fatal(err)
	}
	if !cleaned {
		t.Fatal("victim's defers did not run")
	}
	if k.Now() != time.Second {
		t.Fatalf("clock at %v, want 1s (the dead timeout event must not advance it)", k.Now())
	}
}

// TestStaleTimeoutDoesNotRewakeLaterSleep pins the wake-token discipline:
// after a WaitTimeout is signalled, its stale timer event must not
// interrupt the proc's next, unrelated sleep.
func TestStaleTimeoutDoesNotRewakeLaterSleep(t *testing.T) {
	k := New()
	c := NewCond(k)
	var end time.Duration
	k.Go("w", func(p *Proc) {
		if r := c.WaitTimeout(p, 2*time.Second); r != WakeSignal {
			t.Errorf("wait returned %v, want signal", r)
		}
		// The stale timeout event at t=2s targets this proc; sleeping over
		// that instant must not end early or double-wake.
		p.Sleep(5 * time.Second)
		end = p.Now()
	})
	k.Go("s", func(p *Proc) {
		p.Sleep(time.Second)
		c.Broadcast()
	})
	if err := k.Run(); err != nil {
		t.Fatal(err)
	}
	if end != 6*time.Second {
		t.Fatalf("sleep ended at %v, want 6s (stale timeout rewoke the proc)", end)
	}
}

// TestKillBeforeStart: a proc killed before its start never runs its
// function and counts as finished, whether its start waits in the heap
// (GoAfter) or in the immediate ring (Go). Run must return rather than
// hand control to a goroutine that was never started.
func TestKillBeforeStart(t *testing.T) {
	k := New()
	ran := false
	late := k.GoAfter(time.Second, "late", func(p *Proc) { ran = true })
	k.Go("killer", func(p *Proc) {
		p.Sleep(500 * time.Millisecond)
		k.Kill(late)
		soon := k.Go("soon", func(p *Proc) { ran = true })
		k.Kill(soon)
		k.Kill(soon)
	})
	errc := make(chan error, 1)
	go func() { errc <- k.Run() }()
	select {
	case err := <-errc:
		if err != nil {
			t.Fatal(err)
		}
	case <-time.After(10 * time.Second):
		t.Fatal("Run did not return after a proc was killed before it started")
	}
	if ran {
		t.Fatal("a proc killed before it started ran its function")
	}
	if k.Now() != 500*time.Millisecond {
		t.Fatalf("clock at %v, want 500ms (the killed proc's start must not advance it)", k.Now())
	}
}

// TestHeapHoldsOnlyLiveEvents: signalled WaitTimeouts, stopped After
// timers and a Kill during WaitTimeout each take their queued event out of
// the heap at once, so len(k.eq) counts only live timed wakeups.
func TestHeapHoldsOnlyLiveEvents(t *testing.T) {
	const n = 16
	k := New()
	c := NewCond(k)
	for i := 0; i < n; i++ {
		k.Go(fmt.Sprintf("w%d", i), func(p *Proc) {
			if r := c.WaitTimeout(p, time.Hour); r != WakeSignal {
				t.Errorf("waiter woke by %v, want a signal", r)
			}
		})
	}
	victim := k.Go("victim", func(p *Proc) { NewCond(k).WaitTimeout(p, time.Hour) })
	timers := make([]*Timer, n)
	for i := range timers {
		timers[i] = k.After(time.Hour, func() { t.Error("a stopped timer fired") })
	}
	check := func(what string, want int) {
		if got := len(k.eq); got != want {
			t.Errorf("%s: heap holds %d events, want %d", what, got, want)
		}
	}
	k.Go("driver", func(p *Proc) {
		p.Sleep(time.Millisecond)
		check("all parked", 2*n+1)
		c.Broadcast()
		p.Yield()
		check("waiters signalled", n+1)
		for _, tm := range timers {
			tm.Stop()
		}
		check("timers stopped", 1)
		k.Kill(victim)
		check("victim killed", 0)
	})
	if err := k.Run(); err != nil {
		t.Fatal(err)
	}
	if k.Now() != time.Millisecond {
		t.Fatalf("clock at %v, want 1ms", k.Now())
	}
}

// TestNegativeDelaysRunNow: At, After and GoAfter with a delay already
// past run at the current instant, in scheduling order, never earlier.
func TestNegativeDelaysRunNow(t *testing.T) {
	k := New()
	var order []string
	var at []time.Duration
	note := func(s string) { order = append(order, s); at = append(at, k.Now()) }
	k.At(time.Second, func() {
		k.At(-time.Second, func() { note("at") })
		k.After(-time.Second, func() { note("after") })
		k.GoAfter(-time.Second, "go", func(p *Proc) { note("go") })
	})
	if err := k.Run(); err != nil {
		t.Fatal(err)
	}
	if strings.Join(order, " ") != "at after go" || at[0] != time.Second || at[1] != time.Second || at[2] != time.Second {
		t.Fatalf("ran %v at %v; want at, after, go at 1s", order, at)
	}
}
