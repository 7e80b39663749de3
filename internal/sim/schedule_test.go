package sim

import (
	"fmt"
	"io"
	"math/rand"
	"strings"
	"testing"
	"time"

	"fsdinference/internal/golden"
)

// TestGoldenKernelSchedule pins what the kernel schedules, not how: seeded
// random programs over every primitive (Go/GoAfter, Sleep/Yield,
// Cond.Wait/WaitTimeout/Broadcast, WaitGroup, Limiter, Kill and
// At/After/Stop, from procs and from closures) written as each resume's
// (now, proc, reason), each closure's firing, the final clock and Run's
// error text, one line each. A change to how the event loop dispatches must
// leave the file alone.
func TestGoldenKernelSchedule(t *testing.T) {
	var b strings.Builder
	for seed := int64(1); seed <= 40; seed++ {
		scheduleProgram(&b, seed)
	}
	golden.Check(t, b.String())
}

// scheduleProgram runs one seeded random program and writes its schedule
// to w. Every fifth seed runs without the ticker that keeps Cond waiters
// moving, so some programs end in a deadlock report.
func scheduleProgram(w io.Writer, seed int64) {
	master := rand.New(rand.NewSource(seed))
	k := New()
	conds := []*Cond{NewCond(k), NewCond(k), NewCond(k)}
	lim := NewLimiter(k, 2000, 3)
	logf := func(who, format string, args ...any) {
		fmt.Fprintf(w, "%d %s "+format+"\n", append([]any{int64(k.Now()), who}, args...)...)
	}
	dur := func(r *rand.Rand) time.Duration {
		return time.Duration(r.Intn(4)) * time.Millisecond / 2
	}

	// running holds the procs that have started and not finished, in
	// start order: the only procs a program kills, since killing one
	// that has not started is its own test.
	var running []*Proc
	var timers []*Timer
	remaining := 0
	drop := func(p *Proc) {
		for i, q := range running {
			if q == p {
				running = append(running[:i], running[i+1:]...)
				return
			}
		}
	}
	killSome := func(r *rand.Rand, self *Proc) {
		if len(running) == 0 {
			return
		}
		if v := running[r.Intn(len(running))]; v != self {
			k.Kill(v)
		}
	}

	var spawn func(name string, r *rand.Rand, depth int, wg *WaitGroup)
	body := func(p *Proc, name string, r *rand.Rand, depth int) {
		steps := 3 + r.Intn(8)
		for i := 0; i < steps; i++ {
			switch op := r.Intn(13); op {
			case 0:
				p.Sleep(dur(r))
				logf(name, "sleep")
			case 1:
				p.Yield()
				logf(name, "yield")
			case 2:
				conds[r.Intn(len(conds))].Wait(p)
				logf(name, "wait")
			case 3:
				why := conds[r.Intn(len(conds))].WaitTimeout(p, dur(r))
				logf(name, "timeout %d", why)
			case 4:
				conds[r.Intn(len(conds))].Broadcast()
			case 5:
				if depth >= 2 {
					continue
				}
				wg := NewWaitGroup(k)
				n := 1 + r.Intn(3)
				wg.Add(n)
				for j := 0; j < n; j++ {
					spawn(fmt.Sprintf("%s.%d", name, i*4+j), rand.New(rand.NewSource(r.Int63())), depth+1, wg)
				}
				wg.Wait(p)
				logf(name, "joined")
			case 6:
				lim.Take(p, float64(1+r.Intn(3)))
				logf(name, "took")
			case 7:
				killSome(r, p)
			case 8:
				cr := rand.New(rand.NewSource(r.Int63()))
				k.At(dur(r), func() {
					logf(name, "at")
					switch cr.Intn(3) {
					case 0:
						conds[cr.Intn(len(conds))].Broadcast()
					case 1:
						killSome(cr, nil)
					}
				})
			case 9:
				id := len(timers)
				timers = append(timers, k.After(dur(r), func() {
					logf(name, "after %d", id)
					conds[id%len(conds)].Broadcast()
				}))
			case 10:
				if len(timers) > 0 {
					timers[r.Intn(len(timers))].Stop()
				}
			case 11:
				if r.Intn(8) == 0 {
					panic(fmt.Sprintf("%s gave up", name))
				}
			case 12:
				if depth < 2 {
					spawn(fmt.Sprintf("%s.g%d", name, i), rand.New(rand.NewSource(r.Int63())), depth+1, nil)
				}
			}
		}
	}
	spawn = func(name string, r *rand.Rand, depth int, wg *WaitGroup) {
		remaining++
		fn := func(p *Proc) {
			running = append(running, p)
			logf(name, "start")
			defer func() {
				drop(p)
				remaining--
				if wg != nil {
					wg.Done()
				}
				if p.Killed() {
					logf(name, "killed")
				}
			}()
			body(p, name, r, depth)
		}
		if d := dur(r); d > 0 {
			k.GoAfter(d, name, fn)
		} else {
			k.Go(name, fn)
		}
	}

	for i := 0; i < 3+master.Intn(4); i++ {
		spawn(fmt.Sprintf("p%d", i), rand.New(rand.NewSource(master.Int63())), 0, nil)
	}
	if seed%5 != 0 {
		k.Go("ticker", func(p *Proc) {
			for remaining > 0 {
				p.Sleep(time.Millisecond)
				for _, c := range conds {
					c.Broadcast()
				}
			}
		})
	}
	err := k.Run()
	fmt.Fprintf(w, "end %d %v\n", int64(k.Now()), err)
}

// TestClosurePanicSurfacesFromRun: a panic in an At closure comes out of
// Kernel.Run on the caller's goroutine, whichever goroutine ran the
// closure, and a proc's own recover (faas turns what it catches into a
// crashed invocation) never sees it.
func TestClosurePanicSurfacesFromRun(t *testing.T) {
	for _, tc := range []struct {
		name string
		proc func(k *Kernel, caught *bool) func(p *Proc)
	}{
		// The proc is parked in Sleep when the closure fires.
		{"parked", func(k *Kernel, caught *bool) func(p *Proc) {
			return func(p *Proc) {
				defer func() {
					if r := recover(); r != nil {
						*caught = true
					}
				}()
				k.At(time.Second, func() { panic("closure boom") })
				p.Sleep(2 * time.Second)
			}
		}},
		// The proc has just returned when the closure fires.
		{"finishing", func(k *Kernel, caught *bool) func(p *Proc) {
			return func(p *Proc) {
				defer func() {
					if r := recover(); r != nil {
						*caught = true
					}
				}()
				k.At(0, func() { panic("closure boom") })
			}
		}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			k := New()
			caught := false
			k.Go("guarded", tc.proc(k, &caught))
			var got any
			func() {
				defer func() { got = recover() }()
				err := k.Run()
				t.Errorf("Run returned %v, want the closure's panic", err)
			}()
			if got != "closure boom" {
				t.Fatalf("Run panicked with %v, want closure boom", got)
			}
			if caught {
				t.Fatal("the proc's recover caught the closure's panic")
			}
			if !strings.Contains(string(k.panicStack), "schedule_test.go") {
				t.Fatalf("recorded stack does not reach the closure:\n%s", k.panicStack)
			}
		})
	}
}

// TestStopAfterFireIsHarmless: stopping a timer whose closure already ran
// cancels nothing else, even once its event is reused: the free list hands
// the fired event to the closure's own After.
func TestStopAfterFireIsHarmless(t *testing.T) {
	k := New()
	var second time.Duration
	first := k.After(time.Second, func() {
		k.After(time.Second, func() { second = k.Now() })
	})
	k.Go("w", func(p *Proc) {
		p.Sleep(1500 * time.Millisecond)
		first.Stop()
	})
	if err := k.Run(); err != nil {
		t.Fatal(err)
	}
	if second != 2*time.Second {
		t.Fatalf("second timer fired at %v, want 2s", second)
	}
}
