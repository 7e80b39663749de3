package sim

import (
	"fmt"
	"runtime"
	"strings"
	"testing"
	"time"
)

// TestProcStartAllocatesOnlyTheProc: a Proc spawns 10 000 children one
// after another and waits on each. Every child runs on the carrier the one
// before it finished on, and the events, resume channel and Cond waiter
// list are recycled, so starting a child allocates its Proc struct and
// nothing else. While every Proc started a goroutine of its own through a
// closure, the same run made about 2 mallocs per child. Mallocs counts the
// whole process, so the test must not run in parallel with others.
func TestProcStartAllocatesOnlyTheProc(t *testing.T) {
	const children = 10_000
	k := New()
	c := NewCond(k)
	done := false
	child := func(p *Proc) {
		done = true
		c.Broadcast()
	}
	k.Go("parent", func(p *Proc) {
		for i := 0; i < children; i++ {
			done = false
			k.Go("child", child)
			for !done {
				c.Wait(p)
			}
		}
	})
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	err := k.Run()
	runtime.ReadMemStats(&after)
	if err != nil {
		t.Fatal(err)
	}
	per := float64(after.Mallocs-before.Mallocs) / children
	t.Logf("%.3f mallocs per child", per)
	if per > 1.05 {
		t.Errorf("starting a child made %.3f mallocs, want at most 1.05 (its Proc)", per)
	}
}

// TestRunReleasesItsCarriers: once Run returns, normally or by re-raising
// an At closure's panic, every carrier goroutine it started has exited.
func TestRunReleasesItsCarriers(t *testing.T) {
	for _, panicking := range []bool{false, true} {
		base := runtime.NumGoroutine()
		k := New()
		busy := 0
		for i := 0; i < 8; i++ {
			k.GoAfter(time.Duration(i%3)*time.Millisecond, "w", func(p *Proc) {
				p.Sleep(time.Millisecond)
				busy = max(busy, runtime.NumGoroutine()-base)
			})
		}
		if panicking {
			// Every Proc has finished by the time the closure fires.
			k.At(time.Second, func() { panic("closure boom") })
		}
		func() {
			defer func() {
				if r := recover(); panicking && r != "closure boom" {
					t.Errorf("Run panicked with %v, want closure boom", r)
				}
			}()
			if err := k.Run(); err != nil {
				t.Fatal(err)
			}
		}()
		if busy == 0 {
			t.Fatalf("panicking=%v: no carrier was running while the Procs ran", panicking)
		}
		if len(k.carriers) != 0 {
			t.Errorf("panicking=%v: %d carriers are still idle after Run", panicking, len(k.carriers))
		}
		// A goroutine's exit is asynchronous, so wait for the count to
		// come back down.
		deadline := time.Now().Add(5 * time.Second)
		for runtime.NumGoroutine() > base && time.Now().Before(deadline) {
			time.Sleep(time.Millisecond)
		}
		if n := runtime.NumGoroutine(); n > base {
			t.Errorf("panicking=%v: %d goroutines outlive Run, %d before it", panicking, n, base)
		}
	}
}

// TestCarrierRunsTheNextProcAfterPanicAndKill: the carrier of a Proc that
// panicked and the carrier of one that was killed go on to run the Procs
// started after them, in the order the events dictate, and Run reports the
// panic as the run's first failure. A Proc that ends its goroutine with
// runtime.Goexit, as t.FailNow does, hands control on as it goes.
func TestCarrierRunsTheNextProcAfterPanicAndKill(t *testing.T) {
	k := New()
	var log []string
	logf := func(format string, args ...any) {
		log = append(log, fmt.Sprintf("%v ", k.Now())+fmt.Sprintf(format, args...))
	}
	k.Go("panicker", func(p *Proc) {
		logf("panicker")
		panic("boom")
	})
	victim := k.Go("victim", func(p *Proc) {
		defer func() {
			if p.Killed() {
				logf("victim killed")
			}
		}()
		logf("victim")
		p.Sleep(time.Hour)
		logf("victim woke")
	})
	k.Go("killer", func(p *Proc) {
		logf("killer")
		k.Kill(victim)
	})
	k.Go("quitter", func(p *Proc) {
		logf("quitter")
		runtime.Goexit()
	})
	for i := 1; i <= 3; i++ {
		i := i
		k.GoAfter(time.Duration(i)*time.Millisecond, "later", func(p *Proc) {
			logf("later%d", i)
			p.Yield()
			logf("later%d again", i)
		})
	}
	err := k.Run()
	want := []string{
		"0s panicker", "0s victim", "0s killer", "0s quitter", "0s victim killed",
		"1ms later1", "1ms later1 again",
		"2ms later2", "2ms later2 again",
		"3ms later3", "3ms later3 again",
	}
	if got := strings.Join(log, ", "); got != strings.Join(want, ", ") {
		t.Errorf("schedule:\n got %s\nwant %s", got, strings.Join(want, ", "))
	}
	if want := `sim: 1 proc failure(s), first: proc "panicker" panicked: boom`; err == nil || err.Error() != want {
		t.Errorf("Run = %v, want %s", err, want)
	}
}

// TestRunUnwindsBlockedProcs: a Run that ends in a deadlock, or in an At
// closure's panic with Procs still blocked, leaves no goroutine behind.
// Ten such kernels of five blocked Procs each (one of them blocked again in
// a defer, one that recovers) take the goroutine count back to where it
// started; before Run unwound them, ten deadlocked kernels took it from 2 to
// 52. Every blocked Proc's defers run, none sees a recovered panic, and a
// Proc queued to start never runs.
func TestRunUnwindsBlockedProcs(t *testing.T) {
	for _, panicking := range []bool{false, true} {
		base := runtime.NumGoroutine()
		for i := 0; i < 10; i++ {
			k := New()
			c := NewCond(k)
			deferred, recovered := 0, 0
			for j := 0; j < 5; j++ {
				k.Go(fmt.Sprintf("stuck%d", j), func(p *Proc) {
					defer func() { deferred++ }()
					if j == 3 {
						defer func() {
							if recover() != nil {
								recovered++
							}
						}()
					}
					if j == 4 {
						defer c.Wait(p)
					}
					c.Wait(p)
				})
			}
			var late *Proc
			if panicking {
				k.At(time.Second, func() { panic("closure boom") })
				late = k.GoAfter(time.Hour, "late", func(p *Proc) { t.Error("a Proc queued to start ran") })
			}
			var err error
			var got any
			func() {
				defer func() { got = recover() }()
				err = k.Run()
			}()
			if panicking && got != "closure boom" {
				t.Fatalf("Run panicked with %v, want closure boom", got)
			}
			if !panicking && (err == nil || !strings.Contains(err.Error(), "5 proc(s) blocked forever")) {
				t.Fatalf("Run returned %v, want a deadlock of 5 procs", err)
			}
			if deferred != 5 || recovered != 0 {
				t.Errorf("panicking=%v: %d of 5 Procs ran their defers, %d recovered a panic", panicking, deferred, recovered)
			}
			if k.live != 0 || late != nil && !late.finished {
				t.Errorf("panicking=%v: %d Procs are live after Run", panicking, k.live)
			}
		}
		deadline := time.Now().Add(5 * time.Second)
		for runtime.NumGoroutine() > base && time.Now().Before(deadline) {
			time.Sleep(time.Millisecond)
		}
		if n := runtime.NumGoroutine(); n > base {
			t.Errorf("panicking=%v: %d goroutines after ten failed runs, %d before them", panicking, n, base)
		}
	}
}
