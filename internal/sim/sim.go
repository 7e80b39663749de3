// Package sim provides a deterministic, process-oriented discrete-event
// simulation kernel with a virtual clock.
//
// Every simulated entity (a FaaS instance, a cloud-service delivery agent, a
// worker thread) is a Proc: a goroutine that runs only while it holds
// control. At most one goroutine holds control at any instant, so
// simulation state needs no locking and runs are fully deterministic given
// the same inputs. Real computation (sparse matrix kernels, compression)
// executes inside a Proc's turn; the virtual clock only advances through
// explicit calls such as Sleep, so wall-clock speed never affects reported
// latencies.
//
// The kernel offers the small set of primitives the cloud simulators are
// built from: timed sleeps, spawning, condition variables with timeouts
// (virtual-time analogues of sync.Cond), wait groups, and token-bucket rate
// limiters for provider API quotas.
//
// # Scheduling discipline and determinism invariants
//
// The event loop is built for raw throughput at million-query replay scale
// while preserving bit-for-bit determinism:
//
//   - Global order. Every event carries (at, seq) where seq is a strictly
//     increasing schedule counter; events execute in (at, seq) order, so
//     simultaneous events run FIFO in schedule order. This total order is
//     the determinism contract: two runs that schedule the same events in
//     the same order produce identical virtual timelines.
//   - Direct handoff. The event loop has no goroutine of its own: whoever
//     holds control runs it. Run's goroutine runs it until it starts or
//     resumes a Proc; a parking Proc runs it and hands control straight to
//     the next Proc, one goroutine switch per resume, or returns at once
//     when the next event resumes the parking Proc itself; a finishing
//     Proc's goroutine runs it once the Proc is gone. Whoever finds no
//     event left wakes Run. A goroutine touches no simulation state after
//     handing control on, since the Proc it woke may already be running on
//     another thread. A panic in an At or After closure is re-raised from
//     Run on its caller's goroutine, whichever goroutine ran the closure.
//   - Carriers. A Proc runs on a carrier goroutine that outlives it: as
//     the Proc finishes, its carrier goes on the kernel's idle stack, still
//     holding control, and then runs the event loop. Starting a Proc pops
//     the most recently idled carrier and hands it the Proc, and spawns a
//     carrier only when none is idle, so a finishing Proc whose next event
//     starts another runs it on the same goroutine with no switch at all.
//     Run releases every idle carrier and waits for it to leave before it
//     returns. A Proc still blocked when the loop stops, in a deadlock or
//     behind a closure's panic, is unwound first, so no goroutine outlives
//     Run.
//   - Immediate ring. Events scheduled at the current instant (Yield,
//     At(0, fn), Broadcast wakeups, Kill) dominate the serving hot path, so
//     they bypass the time-ordered heap into a FIFO ring. The ring never
//     holds events from more than one instant: the clock only advances by
//     popping a strictly-future heap event, which the pop rule forbids while
//     a ring event (which always precedes it in (at, seq) order) is pending.
//   - Only live events in the heap. Each heap event records its index, so
//     a dead one is removed at once: a Proc's timed wakeup (Sleep,
//     WaitTimeout, GoAfter's start) when the Proc resumes by another path
//     or is killed, and a Timer's event when it is stopped. Ring events are
//     checked lazily when popped (a superseded wakeup, a stopped timer, the
//     start of a Proc killed before it started) and dropped; being at the
//     current instant, they never move the clock.
//   - Zero-alloc steady state. Event structs are recycled through a
//     kernel-local free list, finished Procs return their resume channels
//     to a pool and their carriers to the idle stack, so schedule/wake
//     cycles allocate nothing once the pools are warm, and starting a Proc
//     allocates only its Proc struct.
//   - Blocked-Proc bookkeeping is intrusive: the kernel tracks live Procs
//     in an index-linked slice and each Proc records where it is blocked;
//     human-readable deadlock reports are reconstructed only on the error
//     path instead of maintaining a map on every park/unpark.
package sim

import (
	"fmt"
	"math"
	"os"
	"runtime"
	"runtime/debug"
	"sort"
	"sync"
	"time"
)

// WakeReason reports why a blocked Proc resumed.
type WakeReason int

const (
	// WakeTimer means the Proc's own sleep or timeout expired.
	WakeTimer WakeReason = iota
	// WakeSignal means a Cond it was waiting on was signalled.
	WakeSignal
	// WakeKill means the Proc was killed (e.g. FaaS timeout enforcement).
	WakeKill
	// wakeUnwind ends a Proc that Run found blocked when the event loop
	// stopped (see unwind).
	wakeUnwind
)

type eventKind int

const (
	evResume    eventKind = iota // resume a blocked Proc
	evStart                      // start a newly spawned Proc
	evCall                       // run a non-blocking closure
	evCancelled                  // a stopped timer's event, waiting in the ring
)

type event struct {
	at    time.Duration
	seq   uint64 // tie-break: FIFO among simultaneous events
	kind  eventKind
	index int // position in the heap, -1 outside it

	proc   *Proc
	token  uint64 // must match proc.wake or the event is stale
	reason WakeReason
	fn     func()
	timer  *Timer // the Timer whose event this is, until it fires

	next *event // free-list link
}

// before reports whether a precedes b in the global (at, seq) event order.
func (a *event) before(b *event) bool {
	if a.at != b.at {
		return a.at < b.at
	}
	return a.seq < b.seq
}

// Kernel is a discrete-event simulator instance. Create one with New, spawn
// root processes with Go, then call Run.
type Kernel struct {
	now time.Duration
	eq  []*event // time-ordered binary min-heap on (at, seq)
	seq uint64

	// imm is the FIFO ring of events scheduled at the current instant; see
	// the package comment's scheduling discipline. immHead indexes the next
	// pending ring event.
	imm     []*event
	immHead int

	free     *event // event free list
	chanPool []chan WakeReason

	// carriers are the hand-off channels of the idle carrier goroutines,
	// last idled on top (see carry). released counts the carriers Run has
	// released and that have not yet left carry.
	carriers []chan *Proc
	released sync.WaitGroup

	live  int     // procs spawned and not yet finished
	procs []*Proc // live procs, index-linked via Proc.idx

	// idle wakes Run when the goroutine holding control finds no event
	// left. It holds one token, so Run's own goroutine can post it too.
	idle chan struct{}

	failures []error

	// A closure's panic and the stack it was raised on, for Run to
	// re-raise.
	panicked   bool
	panicVal   any
	panicStack []byte
}

// New returns a fresh Kernel with the clock at zero.
func New() *Kernel {
	return &Kernel{idle: make(chan struct{}, 1)}
}

// Now returns the current virtual time. It may be called from Proc context
// or, between Run calls, from the host.
func (k *Kernel) Now() time.Duration { return k.now }

// Clock returns the kernel's virtual clock as a plain function, so
// layers above (the tracer in internal/obs) can timestamp against
// simulated time without importing the kernel. Reading it costs exactly
// what Now costs: one field load.
func (k *Kernel) Clock() func() time.Duration { return k.Now }

// getEvent pops the free list or allocates.
func (k *Kernel) getEvent() *event {
	if e := k.free; e != nil {
		k.free = e.next
		*e = event{index: -1}
		return e
	}
	return &event{index: -1}
}

// putEvent recycles a processed (or dropped) event.
func (k *Kernel) putEvent(e *event) {
	e.proc = nil
	e.fn = nil
	e.timer = nil
	e.next = k.free
	k.free = e
}

func (k *Kernel) schedule(e *event) {
	k.seq++
	e.seq = k.seq
	if e.at <= k.now {
		// Immediate event: FIFO ring, no heap traffic. schedule is only
		// ever called with at >= now, so this is the at == now case.
		k.imm = append(k.imm, e)
		return
	}
	k.eq = append(k.eq, e)
	k.siftUp(e, len(k.eq)-1)
}

// siftUp places e in the heap at position i or above it.
func (k *Kernel) siftUp(e *event, i int) {
	for i > 0 {
		parent := (i - 1) / 2
		pe := k.eq[parent]
		if !e.before(pe) {
			break
		}
		k.eq[i] = pe
		pe.index = i
		i = parent
	}
	k.eq[i] = e
	e.index = i
}

// siftDown places e in the heap at position i or below it.
func (k *Kernel) siftDown(e *event, i int) {
	h := k.eq
	n := len(h)
	for {
		child := 2*i + 1
		if child >= n {
			break
		}
		if r := child + 1; r < n && h[r].before(h[child]) {
			child = r
		}
		c := h[child]
		if !c.before(e) {
			break
		}
		h[i] = c
		c.index = i
		i = child
	}
	h[i] = e
	e.index = i
}

// heapRemove takes e out of the heap; it leaves e's index at -1.
func (k *Kernel) heapRemove(e *event) {
	i := e.index
	n := len(k.eq) - 1
	last := k.eq[n]
	k.eq[n] = nil
	k.eq = k.eq[:n]
	e.index = -1
	if i == n {
		return
	}
	if i > 0 && last.before(k.eq[(i-1)/2]) {
		k.siftUp(last, i)
	} else {
		k.siftDown(last, i)
	}
}

// pending reports whether any event remains.
func (k *Kernel) pending() bool {
	return k.immHead < len(k.imm) || len(k.eq) > 0
}

// nextEvent pops the globally next event in (at, seq) order, merging the
// immediate ring with the heap.
func (k *Kernel) nextEvent() *event {
	if k.immHead < len(k.imm) {
		ie := k.imm[k.immHead]
		if len(k.eq) == 0 || !k.eq[0].before(ie) {
			k.imm[k.immHead] = nil
			k.immHead++
			if k.immHead == len(k.imm) {
				k.imm = k.imm[:0]
				k.immHead = 0
			}
			return ie
		}
	}
	e := k.eq[0]
	k.heapRemove(e)
	return e
}

// At schedules fn to run at the current virtual time plus d, on whichever
// goroutine then holds control. fn must not block on simulation
// primitives; use Go for blocking work.
func (k *Kernel) At(d time.Duration, fn func()) {
	if d < 0 {
		d = 0
	}
	e := k.getEvent()
	e.at, e.kind, e.fn = k.now+d, evCall, fn
	k.schedule(e)
}

// Timer is a cancellable scheduled closure created by After.
type Timer struct {
	k *Kernel
	e *event // the queued event; nil once it has fired or been stopped
}

// Stop cancels the timer; the closure will not run. Stopping an expired or
// already-stopped timer is a no-op.
func (t *Timer) Stop() {
	e := t.e
	if e == nil {
		return
	}
	t.e = nil
	if e.index >= 0 {
		t.k.heapRemove(e)
		t.k.putEvent(e)
		return
	}
	e.kind = evCancelled
}

// After schedules fn like At but returns a Timer that can cancel it.
// Long-lived watchdogs (function runtime limits, visibility timeouts)
// should use After and Stop so stale events do not drag the virtual clock
// forward after the watched work completes.
func (k *Kernel) After(d time.Duration, fn func()) *Timer {
	if d < 0 {
		d = 0
	}
	e := k.getEvent()
	t := &Timer{k: k, e: e}
	e.at, e.kind, e.fn, e.timer = k.now+d, evCall, fn, t
	k.schedule(e)
	return t
}

// Go spawns a new Proc named name that starts executing fn at the current
// virtual time. It may be called before Run or from inside a running Proc.
func (k *Kernel) Go(name string, fn func(p *Proc)) *Proc {
	return k.GoAfter(0, name, fn)
}

// GoAfter spawns a new Proc that starts after virtual delay d.
func (k *Kernel) GoAfter(d time.Duration, name string, fn func(p *Proc)) *Proc {
	if d < 0 {
		d = 0
	}
	var resume chan WakeReason
	if n := len(k.chanPool); n > 0 {
		resume = k.chanPool[n-1]
		k.chanPool[n-1] = nil
		k.chanPool = k.chanPool[:n-1]
	} else {
		resume = make(chan WakeReason)
	}
	p := &Proc{k: k, name: name, resume: resume, fn: fn}
	k.live++
	p.idx = int32(len(k.procs))
	k.procs = append(k.procs, p)
	e := k.getEvent()
	e.at, e.kind, e.proc = k.now+d, evStart, p
	k.schedule(e)
	if e.index >= 0 {
		p.timed = e
	}
	return p
}

// finishProc removes a finished Proc from the live registry and recycles
// its resume channel.
func (k *Kernel) finishProc(p *Proc) {
	p.finished = true
	k.live--
	last := len(k.procs) - 1
	if int(p.idx) <= last {
		k.procs[p.idx] = k.procs[last]
		k.procs[p.idx].idx = p.idx
		k.procs[last] = nil
		k.procs = k.procs[:last]
	}
	if p.resume != nil {
		k.chanPool = append(k.chanPool, p.resume)
		p.resume = nil
	}
}

// cancelWakeup removes p's queued timed wakeup, if it has one, from the
// heap.
func (k *Kernel) cancelWakeup(p *Proc) {
	if e := p.timed; e != nil {
		p.timed = nil
		k.heapRemove(e)
		k.putEvent(e)
	}
}

// Run processes events until none remain, then returns. It returns an error
// if any Proc panicked, if Procs remain blocked with no pending events
// (simulation deadlock). A panic in an At or After closure propagates out
// of Run, after Run prints the stack the closure failed on to stderr. Procs
// a deadlock or a closure's panic leaves blocked are unwound before Run
// returns (see unwind).
func (k *Kernel) Run() error {
	k.step(nil)
	<-k.idle
	var deadlock error
	if k.live > 0 && !k.panicked {
		// Error path only: reconstruct the human-readable blocked set from
		// the intrusive registry.
		names := make([]string, 0, len(k.procs))
		for _, p := range k.procs {
			if p.where != "" {
				names = append(names, p.name+" ("+p.where+")")
			}
		}
		sort.Strings(names)
		deadlock = fmt.Errorf("sim: deadlock at t=%v: %d proc(s) blocked forever: %v", k.now, k.live, names)
	}
	if k.live > 0 {
		k.unwind()
	}
	// Release the idle carriers and wait for them to go, so that the next
	// Run's carriers reuse their goroutines instead of piling up beside
	// them.
	k.released.Add(len(k.carriers))
	for i, c := range k.carriers {
		c <- nil
		k.carriers[i] = nil
	}
	k.carriers = k.carriers[:0]
	k.released.Wait()
	if k.panicked {
		// The re-raised panic's trace starts here, so print where the
		// closure failed first.
		fmt.Fprintf(os.Stderr, "sim: panic in an At or After closure: %v\n%s", k.panicVal, k.panicStack)
		panic(k.panicVal)
	}
	if deadlock != nil {
		return deadlock
	}
	if len(k.failures) > 0 {
		return fmt.Errorf("sim: %d proc failure(s), first: %w", len(k.failures), k.failures[0])
	}
	return nil
}

// unwind ends every Proc still live once the event loop has stopped for
// good: each blocked forever in a deadlock, or wherever a closure's panic
// left it. Without it each would keep its carrier goroutine parked for the
// life of the process. The events still queued are dropped, a Proc that
// never started is finished, and every blocked Proc resumes as a killed one
// does, its defers running, except that it ends with runtime.Goexit rather
// than a panic and Killed stays false: the run ended under it, nobody killed
// it, and a recover in its defers can neither stop the unwind nor mistake it
// for a failure of the Proc's own. Events its defers schedule run as usual,
// and a Proc that blocks again in a defer is unwound again. A closure's
// panic stays the one Run re-raises.
func (k *Kernel) unwind() {
	panicked := k.panicked
	k.panicked = false
	for k.live > 0 {
		for k.pending() {
			e := k.nextEvent()
			if e.timer != nil {
				e.timer.e = nil
			}
			if p := e.proc; p != nil && p.timed == e {
				p.timed = nil
			}
			k.putEvent(e)
		}
		// Backwards, so that finishing a Proc moves one already visited
		// into its place.
		for i := len(k.procs) - 1; i >= 0; i-- {
			p := k.procs[i]
			if !p.started {
				k.finishProc(p)
				continue
			}
			p.wake++
			k.scheduleResume(p, k.now, wakeUnwind)
		}
		k.step(nil)
		<-k.idle
		k.panicked = false
	}
	k.panicked = panicked
}

// step runs the event loop on the calling goroutine, which holds control:
// Run's or an idling carrier's (self is nil) or a parking Proc's (self).
// It reports true, with the reason, when the next event resumes self.
// Otherwise it has handed control to another Proc, or to Run when no event
// is left or a closure panicked, and the caller must touch no simulation
// state.
func (k *Kernel) step(self *Proc) (WakeReason, bool) {
	for k.pending() && !k.panicked {
		e := k.nextEvent()
		// Heap events are live; a dead ring event is at the current
		// instant, so it never moves the clock either.
		k.now = e.at
		p := e.proc
		switch e.kind {
		case evCall:
			fn := e.fn
			if t := e.timer; t != nil {
				t.e = nil
			}
			k.putEvent(e)
			k.call(fn)
		case evStart:
			k.putEvent(e)
			if p.finished {
				continue // killed before it started
			}
			p.timed = nil
			p.started = true
			if n := len(k.carriers); n > 0 {
				c := k.carriers[n-1]
				k.carriers[n-1] = nil
				k.carriers = k.carriers[:n-1]
				c <- p
			} else {
				go k.carry(p)
			}
			return 0, false
		case evResume:
			reason := e.reason
			live := !p.finished && e.token == p.wake
			if p.timed == e {
				p.timed = nil
			}
			k.putEvent(e)
			if !live {
				continue // superseded while it waited in the ring
			}
			k.cancelWakeup(p)
			p.wake++
			if p == self {
				return reason, true
			}
			p.resume <- reason
			return 0, false
		case evCancelled:
			k.putEvent(e)
		}
	}
	k.idle <- struct{}{}
	return 0, false
}

// call runs a closure on the goroutine holding control. Its panic is not
// a Proc's to recover: call catches it, with the stack it was raised on,
// for Run to re-raise.
func (k *Kernel) call(fn func()) {
	ok := false
	defer func() {
		if !ok {
			k.panicked, k.panicVal = true, recover()
			k.panicStack = debug.Stack()
		}
	}()
	fn()
	ok = true
}

// Proc is a simulated process. Its methods must only be called from the
// goroutine running the Proc's function.
type Proc struct {
	k      *Kernel
	name   string
	fn     func(*Proc)
	resume chan WakeReason
	wake   uint64
	timed  *event // queued heap event that resumes or starts the Proc

	// idx is the Proc's position in the kernel's live-proc registry; an
	// int32 beside the flags keeps a Proc in the 80-byte size class.
	idx      int32
	started  bool
	killed   bool
	finished bool
	where    string // non-empty while parked; deadlock reporting only
}

// Kernel returns the kernel this Proc runs on.
func (p *Proc) Kernel() *Kernel { return p.k }

// Now returns the current virtual time.
func (p *Proc) Now() time.Duration { return p.k.now }

// carry runs p on the calling goroutine, a carrier, and then every Proc
// handed to it, until Run releases it with nil. Between Procs the carrier
// idles on next, which it pushes onto the kernel's stack while it still
// holds control; if the next event starts a Proc, step pops next itself and
// the carrier runs that Proc with no goroutine switch. next holds one Proc,
// so that a send to it never blocks: the carrier itself, in step, may be
// the sender.
func (k *Kernel) carry(p *Proc) {
	next := make(chan *Proc, 1)
	for p != nil {
		p.run()
		k.carriers = append(k.carriers, next)
		k.step(nil)
		p = <-next
	}
	k.released.Done()
}

// run runs p's function to its end, recording a panic other than a kill as
// a failure, and removes p from the live registry.
func (p *Proc) run() {
	returned := false
	defer func() {
		k := p.k
		r := recover()
		if r != nil && r != errKilled {
			k.failures = append(k.failures, fmt.Errorf("proc %q panicked: %v", p.name, r))
		}
		k.finishProc(p)
		if r == nil && !returned {
			// runtime.Goexit is ending the carrier under p (t.FailNow in
			// a test Proc): hand control on before the goroutine exits.
			k.step(nil)
		}
	}()
	p.fn(p)
	returned = true
}

// errKilled is the sentinel panic payload used to unwind a killed Proc.
var errKilled = fmt.Errorf("sim: proc killed")

// pause parks p and runs the event loop until an event resumes it.
func (p *Proc) pause(where string) WakeReason {
	p.where = where
	resume := p.resume
	r, ok := p.k.step(p)
	if !ok {
		r = <-resume
	}
	p.where = ""
	switch r {
	case WakeKill:
		p.killed = true
		panic(errKilled)
	case wakeUnwind:
		runtime.Goexit()
	}
	return r
}

// scheduleResume schedules a wakeup for p at time at, tagged with p's
// current wake token.
func (k *Kernel) scheduleResume(p *Proc, at time.Duration, reason WakeReason) {
	e := k.getEvent()
	e.at, e.kind, e.proc, e.token, e.reason = at, evResume, p, p.wake, reason
	k.schedule(e)
	if e.index >= 0 {
		p.timed = e
	}
}

// Sleep advances the Proc's virtual time by d. Negative durations count as
// zero. Sleep(0) yields, letting other ready Procs run first.
func (p *Proc) Sleep(d time.Duration) {
	if d < 0 {
		d = 0
	}
	p.wake++
	p.k.scheduleResume(p, p.k.now+d, WakeTimer)
	p.pause("sleep")
}

// Yield lets all other Procs scheduled at the current instant run before
// this one continues.
func (p *Proc) Yield() { p.Sleep(0) }

// Kill forcibly terminates target. It may be called from Proc context or
// from an At closure. Killing a finished Proc is a no-op, and a Proc
// killed before it starts never runs and counts as finished. The victim's
// pending defers run, but it must not block on simulation primitives while
// unwinding.
func (k *Kernel) Kill(target *Proc) {
	if target.finished {
		return
	}
	k.cancelWakeup(target)
	if !target.started {
		k.finishProc(target)
		return
	}
	target.wake++
	k.scheduleResume(target, k.now, WakeKill)
}

// Killed reports whether this Proc has been killed and is unwinding. Cleanup
// code (deferred billing, bookkeeping) can consult it to distinguish a
// forced termination from a normal return.
func (p *Proc) Killed() bool { return p.killed }

// Cond is a virtual-time condition variable. Procs wait on it; any Proc (or
// kernel-context closure) may Broadcast to wake all current waiters at the
// present virtual instant.
type Cond struct {
	k       *Kernel
	waiters []condWaiter
}

type condWaiter struct {
	p     *Proc
	token uint64
}

// NewCond returns a condition variable bound to kernel k.
func NewCond(k *Kernel) *Cond { return &Cond{k: k} }

// Wait blocks p until the next Broadcast.
func (c *Cond) Wait(p *Proc) {
	p.wake++
	c.waiters = append(c.waiters, condWaiter{p, p.wake})
	p.pause("cond-wait")
}

// WaitTimeout blocks p until the next Broadcast or until d elapses. It
// reports WakeSignal or WakeTimer accordingly.
func (c *Cond) WaitTimeout(p *Proc, d time.Duration) WakeReason {
	if d <= 0 {
		// Degenerate timeout: behave like an immediate poll that found
		// nothing, but still yield so signalers at this instant lose the
		// race, matching a zero-wait service call.
		p.Yield()
		return WakeTimer
	}
	p.wake++
	token := p.wake
	c.waiters = append(c.waiters, condWaiter{p, token})
	c.k.scheduleResume(p, c.k.now+d, WakeTimer)
	return p.pause("cond-wait-timeout")
}

// Broadcast wakes every Proc currently waiting on c. It may be called from
// Proc context or from an At closure.
func (c *Cond) Broadcast() {
	for _, w := range c.waiters {
		if w.p.finished || w.token != w.p.wake {
			continue
		}
		e := c.k.getEvent()
		e.at, e.kind, e.proc, e.token, e.reason = c.k.now, evResume, w.p, w.token, WakeSignal
		c.k.schedule(e)
	}
	c.waiters = c.waiters[:0]
}

// WaitGroup is a virtual-time analogue of sync.WaitGroup.
type WaitGroup struct {
	n    int
	cond *Cond
}

// NewWaitGroup returns a WaitGroup bound to kernel k.
func NewWaitGroup(k *Kernel) *WaitGroup { return &WaitGroup{cond: NewCond(k)} }

// Add increments the counter by delta.
func (w *WaitGroup) Add(delta int) {
	w.n += delta
	if w.n < 0 {
		panic("sim: negative WaitGroup counter")
	}
	if w.n == 0 {
		w.cond.Broadcast()
	}
}

// Done decrements the counter by one.
func (w *WaitGroup) Done() { w.Add(-1) }

// Wait blocks p until the counter reaches zero.
func (w *WaitGroup) Wait(p *Proc) {
	for w.n > 0 {
		w.cond.Wait(p)
	}
}

// Limiter is a virtual-time token bucket used to model provider API quotas
// (e.g. S3 requests per second per prefix). Procs taking tokens beyond the
// available burst are delayed in FIFO order.
type Limiter struct {
	k        *Kernel
	rate     float64 // tokens per second
	burst    float64
	tokens   float64
	lastFill time.Duration
}

// NewLimiter returns a Limiter with the given sustained rate (tokens/second)
// and burst capacity. A rate of 0 disables limiting.
func NewLimiter(k *Kernel, rate, burst float64) *Limiter {
	return &Limiter{k: k, rate: rate, burst: burst, tokens: burst}
}

// Take consumes n tokens, sleeping p until they are available.
//
// Accounting is double-entry and has been verified under bursty concurrent
// takers (see TestLimiterConcurrentBurst): the deficit is subtracted from
// the shared balance immediately, so later takers queue behind it (their
// own deficit includes every earlier taker's), and the post-sleep fill
// credits the refill window exactly once — the refill cancels the
// pre-subtracted deficit rather than minting extra tokens, which keeps the
// sustained throughput at exactly rate tokens/second.
func (l *Limiter) Take(p *Proc, n float64) {
	if l.rate <= 0 {
		return
	}
	l.fill()
	l.tokens -= n
	if l.tokens >= 0 {
		return
	}
	deficit := -l.tokens
	// Round the wait up to the enclosing nanosecond: truncation would wake
	// the taker marginally before its tokens have accrued, silently
	// over-admitting under sustained load.
	wait := time.Duration(math.Ceil(deficit / l.rate * float64(time.Second)))
	p.Sleep(wait)
	l.fill()
}

func (l *Limiter) fill() {
	elapsed := l.k.now - l.lastFill
	l.lastFill = l.k.now
	l.tokens += l.rate * elapsed.Seconds()
	if l.tokens > l.burst {
		l.tokens = l.burst
	}
}
