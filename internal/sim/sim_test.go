package sim

import (
	"fmt"
	"strings"
	"testing"
	"time"
)

func TestSleepAdvancesClock(t *testing.T) {
	k := New()
	var end time.Duration
	k.Go("a", func(p *Proc) {
		p.Sleep(5 * time.Second)
		p.Sleep(2 * time.Second)
		end = p.Now()
	})
	if err := k.Run(); err != nil {
		t.Fatal(err)
	}
	if end != 7*time.Second {
		t.Fatalf("end time = %v, want 7s", end)
	}
}

func TestNegativeSleepIsZero(t *testing.T) {
	k := New()
	k.Go("a", func(p *Proc) {
		p.Sleep(-time.Second)
		if p.Now() != 0 {
			t.Errorf("now = %v, want 0", p.Now())
		}
	})
	if err := k.Run(); err != nil {
		t.Fatal(err)
	}
}

func TestInterleavingDeterministic(t *testing.T) {
	run := func() string {
		k := New()
		var log []string
		for i := 0; i < 3; i++ {
			i := i
			k.Go(fmt.Sprintf("p%d", i), func(p *Proc) {
				for j := 0; j < 3; j++ {
					p.Sleep(time.Duration(i+1) * time.Second)
					log = append(log, fmt.Sprintf("p%d@%v", i, p.Now()))
				}
			})
		}
		if err := k.Run(); err != nil {
			t.Fatal(err)
		}
		return strings.Join(log, ",")
	}
	first := run()
	for i := 0; i < 5; i++ {
		if got := run(); got != first {
			t.Fatalf("run %d differs:\n%s\nvs\n%s", i, got, first)
		}
	}
}

func TestSimultaneousEventsFIFO(t *testing.T) {
	k := New()
	var order []string
	for _, name := range []string{"a", "b", "c"} {
		name := name
		k.Go(name, func(p *Proc) {
			p.Sleep(time.Second)
			order = append(order, name)
		})
	}
	if err := k.Run(); err != nil {
		t.Fatal(err)
	}
	if got := strings.Join(order, ""); got != "abc" {
		t.Fatalf("order = %q, want abc (FIFO tie-break)", got)
	}
}

func TestGoFromProc(t *testing.T) {
	k := New()
	var childTime time.Duration
	k.Go("parent", func(p *Proc) {
		p.Sleep(3 * time.Second)
		p.Kernel().Go("child", func(c *Proc) {
			c.Sleep(time.Second)
			childTime = c.Now()
		})
		p.Sleep(10 * time.Second)
	})
	if err := k.Run(); err != nil {
		t.Fatal(err)
	}
	if childTime != 4*time.Second {
		t.Fatalf("child finished at %v, want 4s", childTime)
	}
}

func TestGoAfter(t *testing.T) {
	k := New()
	var at time.Duration
	k.GoAfter(2*time.Second, "late", func(p *Proc) { at = p.Now() })
	if err := k.Run(); err != nil {
		t.Fatal(err)
	}
	if at != 2*time.Second {
		t.Fatalf("start = %v, want 2s", at)
	}
}

func TestAtClosure(t *testing.T) {
	k := New()
	var at time.Duration
	k.Go("a", func(p *Proc) {
		p.Kernel().At(5*time.Second, func() { at = p.Kernel().Now() })
		p.Sleep(10 * time.Second)
	})
	if err := k.Run(); err != nil {
		t.Fatal(err)
	}
	if at != 5*time.Second {
		t.Fatalf("closure ran at %v, want 5s", at)
	}
}

func TestCondBroadcastWakesAll(t *testing.T) {
	k := New()
	c := NewCond(k)
	woken := 0
	for i := 0; i < 4; i++ {
		k.Go(fmt.Sprintf("w%d", i), func(p *Proc) {
			c.Wait(p)
			woken++
			if p.Now() != 3*time.Second {
				t.Errorf("woke at %v, want 3s", p.Now())
			}
		})
	}
	k.Go("signaler", func(p *Proc) {
		p.Sleep(3 * time.Second)
		c.Broadcast()
	})
	if err := k.Run(); err != nil {
		t.Fatal(err)
	}
	if woken != 4 {
		t.Fatalf("woken = %d, want 4", woken)
	}
}

func TestCondWaitTimeoutExpires(t *testing.T) {
	k := New()
	c := NewCond(k)
	k.Go("w", func(p *Proc) {
		r := c.WaitTimeout(p, 2*time.Second)
		if r != WakeTimer {
			t.Errorf("reason = %v, want WakeTimer", r)
		}
		if p.Now() != 2*time.Second {
			t.Errorf("woke at %v, want 2s", p.Now())
		}
	})
	if err := k.Run(); err != nil {
		t.Fatal(err)
	}
}

func TestCondWaitTimeoutSignalled(t *testing.T) {
	k := New()
	c := NewCond(k)
	k.Go("w", func(p *Proc) {
		r := c.WaitTimeout(p, 10*time.Second)
		if r != WakeSignal {
			t.Errorf("reason = %v, want WakeSignal", r)
		}
		if p.Now() != time.Second {
			t.Errorf("woke at %v, want 1s", p.Now())
		}
		// The stale timeout event must not wake us again.
		p.Sleep(30 * time.Second)
		if p.Now() != 31*time.Second {
			t.Errorf("after long sleep now = %v, want 31s", p.Now())
		}
	})
	k.Go("s", func(p *Proc) {
		p.Sleep(time.Second)
		c.Broadcast()
	})
	if err := k.Run(); err != nil {
		t.Fatal(err)
	}
}

func TestCondZeroTimeoutYields(t *testing.T) {
	k := New()
	c := NewCond(k)
	k.Go("w", func(p *Proc) {
		if r := c.WaitTimeout(p, 0); r != WakeTimer {
			t.Errorf("reason = %v, want WakeTimer", r)
		}
	})
	if err := k.Run(); err != nil {
		t.Fatal(err)
	}
}

func TestBroadcastFromAt(t *testing.T) {
	k := New()
	c := NewCond(k)
	var woke time.Duration
	k.Go("w", func(p *Proc) {
		c.Wait(p)
		woke = p.Now()
	})
	k.At(4*time.Second, c.Broadcast)
	if err := k.Run(); err != nil {
		t.Fatal(err)
	}
	if woke != 4*time.Second {
		t.Fatalf("woke at %v, want 4s", woke)
	}
}

func TestDeadlockDetected(t *testing.T) {
	k := New()
	c := NewCond(k)
	k.Go("stuck", func(p *Proc) { c.Wait(p) })
	err := k.Run()
	if err == nil || !strings.Contains(err.Error(), "deadlock") {
		t.Fatalf("err = %v, want deadlock report", err)
	}
	if !strings.Contains(err.Error(), "stuck") {
		t.Fatalf("deadlock report should name the proc: %v", err)
	}
}

func TestPanicCaptured(t *testing.T) {
	k := New()
	k.Go("boom", func(p *Proc) { panic("kaboom") })
	err := k.Run()
	if err == nil || !strings.Contains(err.Error(), "kaboom") {
		t.Fatalf("err = %v, want panic report", err)
	}
	if len(k.Failures()) != 1 {
		t.Fatalf("failures = %d, want 1", len(k.Failures()))
	}
}

func TestKillTerminatesBlockedProc(t *testing.T) {
	k := New()
	reached := false
	victim := k.Go("victim", func(p *Proc) {
		p.Sleep(100 * time.Second)
		reached = true
	})
	k.Go("killer", func(p *Proc) {
		p.Sleep(time.Second)
		p.Kill(victim)
	})
	if err := k.Run(); err != nil {
		t.Fatal(err)
	}
	if reached {
		t.Fatal("victim ran past its sleep despite being killed")
	}
}

func TestKillFinishedProcIsNoop(t *testing.T) {
	k := New()
	victim := k.Go("victim", func(p *Proc) {})
	k.Go("killer", func(p *Proc) {
		p.Sleep(time.Second)
		p.Kill(victim)
	})
	if err := k.Run(); err != nil {
		t.Fatal(err)
	}
}

func TestWaitGroup(t *testing.T) {
	k := New()
	wg := NewWaitGroup(k)
	wg.Add(3)
	var done time.Duration
	for i := 1; i <= 3; i++ {
		i := i
		k.Go(fmt.Sprintf("w%d", i), func(p *Proc) {
			p.Sleep(time.Duration(i) * time.Second)
			wg.Done()
		})
	}
	k.Go("joiner", func(p *Proc) {
		wg.Wait(p)
		done = p.Now()
	})
	if err := k.Run(); err != nil {
		t.Fatal(err)
	}
	if done != 3*time.Second {
		t.Fatalf("join at %v, want 3s", done)
	}
}

func TestWaitGroupAlreadyZero(t *testing.T) {
	k := New()
	wg := NewWaitGroup(k)
	ran := false
	k.Go("joiner", func(p *Proc) {
		wg.Wait(p)
		ran = true
	})
	if err := k.Run(); err != nil {
		t.Fatal(err)
	}
	if !ran {
		t.Fatal("Wait on zero counter should not block")
	}
}

func TestLimiterDelaysBeyondBurst(t *testing.T) {
	k := New()
	// 10 tokens/sec, burst 5.
	l := NewLimiter(k, 10, 5)
	var times []time.Duration
	k.Go("a", func(p *Proc) {
		for i := 0; i < 10; i++ {
			l.Take(p, 1)
			times = append(times, p.Now())
		}
	})
	if err := k.Run(); err != nil {
		t.Fatal(err)
	}
	// First 5 at t=0; the rest spaced by 100ms.
	for i := 0; i < 5; i++ {
		if times[i] != 0 {
			t.Fatalf("take %d at %v, want 0", i, times[i])
		}
	}
	for i := 5; i < 10; i++ {
		want := time.Duration(i-4) * 100 * time.Millisecond
		if times[i] != want {
			t.Fatalf("take %d at %v, want %v", i, times[i], want)
		}
	}
}

func TestLimiterRefills(t *testing.T) {
	k := New()
	l := NewLimiter(k, 1, 2)
	k.Go("a", func(p *Proc) {
		l.Take(p, 2) // drains burst instantly
		p.Sleep(10 * time.Second)
		start := p.Now()
		l.Take(p, 2) // refilled to burst cap while sleeping
		if p.Now() != start {
			t.Errorf("refilled take delayed by %v, want 0", p.Now()-start)
		}
	})
	if err := k.Run(); err != nil {
		t.Fatal(err)
	}
}

func TestLimiterZeroRateUnlimited(t *testing.T) {
	k := New()
	l := NewLimiter(k, 0, 0)
	k.Go("a", func(p *Proc) {
		for i := 0; i < 1000; i++ {
			l.Take(p, 100)
		}
		if p.Now() != 0 {
			t.Errorf("unlimited limiter advanced clock to %v", p.Now())
		}
	})
	if err := k.Run(); err != nil {
		t.Fatal(err)
	}
}

func TestEventLimit(t *testing.T) {
	k := New()
	k.SetEventLimit(10)
	k.Go("spinner", func(p *Proc) {
		for {
			p.Sleep(time.Second)
		}
	})
	err := k.Run()
	if err == nil || !strings.Contains(err.Error(), "event limit") {
		t.Fatalf("err = %v, want event limit error", err)
	}
}

func TestManyProcsStress(t *testing.T) {
	k := New()
	const n = 500
	total := 0
	for i := 0; i < n; i++ {
		i := i
		k.Go(fmt.Sprintf("p%d", i), func(p *Proc) {
			for j := 0; j < 20; j++ {
				p.Sleep(time.Duration(1+(i+j)%7) * time.Millisecond)
			}
			total++
		})
	}
	if err := k.Run(); err != nil {
		t.Fatal(err)
	}
	if total != n {
		t.Fatalf("finished = %d, want %d", total, n)
	}
}

func TestProcName(t *testing.T) {
	k := New()
	k.Go("zed", func(p *Proc) {
		if p.Name() != "zed" {
			t.Errorf("Name = %q", p.Name())
		}
	})
	if err := k.Run(); err != nil {
		t.Fatal(err)
	}
}

func BenchmarkSimKernelEvents(b *testing.B) {
	for i := 0; i < b.N; i++ {
		k := New()
		c := NewCond(k)
		for p := 0; p < 16; p++ {
			k.Go("w", func(p *Proc) {
				for j := 0; j < 100; j++ {
					p.Sleep(1)
				}
				c.Broadcast()
			})
		}
		if err := k.Run(); err != nil {
			b.Fatal(err)
		}
	}
}
