package serve

import (
	"container/heap"
	"fmt"
	"math"
	"strconv"
	"time"

	"fsdinference/internal/core"
	"fsdinference/internal/obs"
	"fsdinference/internal/plan"
	"fsdinference/internal/sim"
)

// scheduler owns one endpoint's scheduling mechanics: the coalescing
// window, the policy-ordered admission queue, the replica pool with its
// scaling decisions and replica-hour metering, and the run lifecycle. The
// policies it consults are pluggable (policy.go); the scheduler itself is
// deterministic — every decision happens at a virtual-time event.
type scheduler struct {
	ep *Endpoint

	coalesce  coalescePolicy
	admission AdmissionPolicy
	scaling   ScalingPolicy
	runConc   int // concurrent engine runs one replica sustains

	// Open coalescing window (requests whose batch has not closed yet).
	window        []*request
	windowSamples int
	windowTimer   *sim.Timer

	// Admission queue: closed-window requests awaiting dispatch, ordered
	// by the admission policy.
	queue         admissionHeap
	queuedSamples int
	seq           int

	pool     []*replica
	busyRuns int

	// Workload observation for deadline shedding, autoscaling and the
	// WorkloadProfile fed to SLO re-planning.
	estRun      time.Duration // EWMA of engine-run latency
	lastArrival time.Duration
	haveArrival bool
	interEWMA   float64 // EWMA inter-arrival seconds
	// arrivals, firstArrival and minInter describe the current
	// observation window (reset per replay so reports are not
	// contaminated by earlier traffic); the EWMA above is the live
	// re-planning signal and is never reset.
	arrivals     int
	firstArrival time.Duration
	minInter     float64 // smallest in-window inter-arrival gap, seconds

	// Pool metering.
	lastAccrue time.Duration
	graceTimer *sim.Timer
}

// replica is one deployment in an endpoint's warm pool. Since Queue-
// channel consumption is partitioned by run id (core.Deployment.Start),
// a replica can overlap up to runConc engine runs whatever its channel.
type replica struct {
	d         *core.Deployment
	active    int
	lastUsed  time.Duration
	idleSince time.Duration
	// track is the replica's trace timeline name ("ep/r3"); empty when
	// tracing is off. It survives SLO-driven deployment swaps unchanged
	// in spirit: the swap installs the fresh deployment's track.
	track string
	// stale marks a replica whose deployment predates an SLO
	// re-selection; it is replaced with the current configuration the
	// next time it goes idle.
	stale bool
}

// admissionHeap is a container/heap ordered by the admission policy.
type admissionHeap struct {
	pol  AdmissionPolicy
	reqs []*request
}

func (h *admissionHeap) Len() int           { return len(h.reqs) }
func (h *admissionHeap) Less(i, j int) bool { return h.pol.Less(h.reqs[i].info(), h.reqs[j].info()) }
func (h *admissionHeap) Swap(i, j int)      { h.reqs[i], h.reqs[j] = h.reqs[j], h.reqs[i] }
func (h *admissionHeap) Push(x any)         { h.reqs = append(h.reqs, x.(*request)) }
func (h *admissionHeap) Pop() any {
	old := h.reqs
	n := len(old)
	r := old[n-1]
	old[n-1] = nil
	h.reqs = old[:n-1]
	return r
}

func newScheduler(ep *Endpoint, coalesce coalescePolicy, admission AdmissionPolicy, scaling ScalingPolicy, runConc int) *scheduler {
	sc := &scheduler{
		ep:        ep,
		coalesce:  coalesce,
		admission: admission,
		scaling:   scaling,
		runConc:   runConc,
	}
	sc.queue.pol = admission
	return sc
}

func (sc *scheduler) now() time.Duration { return sc.ep.svc.Now() }

// admit adds a request to the endpoint's open coalescing window, arming
// the flush trigger on the first request and force-flushing when the
// window reaches the sample bound. It runs in simulation context.
func (sc *scheduler) admit(r *request) {
	now := sc.now()
	if sc.haveArrival {
		dt := (now - sc.lastArrival).Seconds()
		if sc.interEWMA == 0 {
			sc.interEWMA = dt
		} else {
			sc.interEWMA = 0.75*sc.interEWMA + 0.25*dt
		}
		if sc.arrivals > 0 && (sc.minInter == 0 || dt < sc.minInter) {
			sc.minInter = dt
		}
	}
	if sc.arrivals == 0 {
		sc.firstArrival = now
	}
	sc.arrivals++
	sc.haveArrival = true
	sc.lastArrival = now

	sc.seq++
	r.seq = sc.seq
	// Zero-ref no-op when the request is unsampled or tracing is off.
	r.phase = r.span.Child("coalesce", obs.KindPhase)
	sc.window = append(sc.window, r)
	sc.windowSamples += r.samples
	if sc.coalesce.maxBatch > 0 && sc.windowSamples >= sc.coalesce.maxBatch {
		sc.flush()
		return
	}
	if len(sc.window) == 1 {
		if sc.coalesce.maxDelay > 0 {
			sc.windowTimer = sc.ep.svc.env.K.After(sc.coalesce.maxDelay, sc.flush)
		} else {
			// Zero-delay coalescing still merges everything arriving at
			// this same virtual instant: the flush event is scheduled
			// behind all already-queued admissions.
			sc.ep.svc.env.K.At(0, sc.flush)
		}
	}
}

// flush closes the open coalescing window into the admission queue, lets
// the scaling policy see the new backlog, and dispatches.
func (sc *scheduler) flush() {
	if len(sc.window) == 0 {
		return
	}
	if sc.windowTimer != nil {
		sc.windowTimer.Stop()
		sc.windowTimer = nil
	}
	for _, r := range sc.window {
		heap.Push(&sc.queue, r)
		sc.queuedSamples += r.samples
		r.phase.End()
		r.phase = r.span.Child("queue", obs.KindPhase)
	}
	sc.window = nil
	sc.windowSamples = 0
	sc.evaluatePool()
	sc.dispatch()
}

// arrivalRate returns the EWMA request arrival rate in requests/second.
func (sc *scheduler) arrivalRate() float64 {
	if sc.interEWMA <= 0 {
		return 0
	}
	return 1 / math.Max(sc.interEWMA, 1e-3)
}

// queriesPerDay projects the EWMA arrival rate to a daily query volume —
// the number the provisioned-versus-per-request break-even is stated in.
func (sc *scheduler) queriesPerDay() int64 {
	return int64(sc.arrivalRate() * 86400)
}

// resetObservationWindow restarts the burstiness and mean-rate window
// (arrivals, first arrival, minimum gap). The arrival-rate EWMA is
// untouched: it is the live re-planning signal. Replay calls this at the
// window edge so each report's Observed profile describes that replay's
// traffic only.
func (sc *scheduler) resetObservationWindow() {
	sc.arrivals = 0
	sc.minInter = 0
}

// observedProfile emits the endpoint's live workload profile for the
// planner: arrival-rate EWMA, its daily-volume projection, the
// representative batch width and the peak-to-mean burstiness of what has
// arrived within the current observation window.
func (sc *scheduler) observedProfile(batch int) plan.WorkloadProfile {
	p := plan.WorkloadProfile{
		BatchSamples:  batch,
		Concurrency:   sc.ep.stats.MaxConcurrent,
		ArrivalRate:   sc.arrivalRate(),
		QueriesPerDay: sc.queriesPerDay(),
	}
	if sc.arrivals >= 2 && sc.minInter > 0 {
		if elapsed := (sc.lastArrival - sc.firstArrival).Seconds(); elapsed > 0 {
			mean := float64(sc.arrivals-1) / elapsed
			p.Burstiness = (1 / sc.minInter) / mean
		}
	}
	return p
}

func (sc *scheduler) poolState() PoolState {
	return PoolState{
		Now:            sc.now(),
		Replicas:       len(sc.pool),
		BusyRuns:       sc.busyRuns,
		RunCapacity:    sc.runConc,
		QueuedRequests: sc.queue.Len(),
		QueuedSamples:  sc.queuedSamples,
		ArrivalRate:    sc.arrivalRate(),
		EstRunLatency:  sc.estRun,
	}
}

// accrue charges replica-seconds for the pool size held since the last
// change, so ReplicaSeconds integrates pool size over virtual time.
func (sc *scheduler) accrue(now time.Duration) {
	sc.ep.stats.ReplicaSeconds += float64(len(sc.pool)) * (now - sc.lastAccrue).Seconds()
	sc.lastAccrue = now
}

// evaluatePool applies the scaling policy: growth immediately, shrinkage
// only over replicas idle past the grace period (arming a re-check timer
// for idle replicas still inside it).
func (sc *scheduler) evaluatePool() {
	now := sc.now()
	sc.accrue(now)
	target := sc.scaling.Target(sc.poolState())
	if target < 1 {
		target = 1
	}
	for len(sc.pool) < target {
		if sc.addReplica(now) != nil {
			break
		}
	}
	if target >= len(sc.pool) {
		return
	}
	grace := sc.scaling.IdleGrace()
	// Reclaim the coldest eligible idle replicas first.
	for len(sc.pool) > target {
		victim := -1
		for i, rep := range sc.pool {
			if rep.active > 0 || now-rep.idleSince < grace {
				continue
			}
			if victim < 0 || rep.lastUsed < sc.pool[victim].lastUsed {
				victim = i
			}
		}
		if victim < 0 {
			break
		}
		sc.accrue(now)
		// Release provisioned capacity (Memory-channel cache nodes) with
		// the replica, or it would bill node-hours forever.
		sc.pool[victim].d.Decommission()
		sc.pool = append(sc.pool[:victim], sc.pool[victim+1:]...)
		sc.ep.stats.ScaleDowns++
		sc.ep.met.setPoolSize(len(sc.pool))
	}
	// Still above target: some idle replicas are inside the grace period.
	// Arm a re-check at the earliest time one becomes reclaimable.
	if len(sc.pool) > target && sc.graceTimer == nil {
		earliest := time.Duration(math.MaxInt64)
		for _, rep := range sc.pool {
			if rep.active == 0 && rep.idleSince+grace < earliest {
				earliest = rep.idleSince + grace
			}
		}
		if earliest == time.Duration(math.MaxInt64) {
			return
		}
		delay := earliest - now
		if delay < 0 {
			delay = 0
		}
		sc.graceTimer = sc.ep.svc.env.K.After(delay, func() {
			sc.graceTimer = nil
			sc.evaluatePool()
			sc.dispatch()
		})
	}
}

// addReplica grows the pool by one scale-up. A refused deploy leaves the
// pool as it was and is returned, so the caller stops growing for this
// event.
func (sc *scheduler) addReplica(now time.Duration) error {
	rep, err := sc.ep.deployReplica()
	if err != nil {
		return err
	}
	sc.accrue(now)
	rep.lastUsed, rep.idleSince = now, now
	sc.pool = append(sc.pool, rep)
	sc.ep.stats.ScaleUps++
	if len(sc.pool) > sc.ep.stats.PeakReplicas {
		sc.ep.stats.PeakReplicas = len(sc.pool)
	}
	sc.ep.met.setPoolSize(len(sc.pool))
	return nil
}

// alertBoost is the alert-driven action for an endpoint without a
// planner: deploy one emergency replica immediately, metered like any
// scale-up. The scaling policy is not consulted — it already decided the
// current size and the burning error budget says that was not enough —
// but it reclaims the extra replica through the normal idle-grace path
// once the pressure passes.
func (sc *scheduler) alertBoost() {
	if sc.addReplica(sc.now()) == nil {
		sc.dispatch()
	}
}

// pickReplica returns the replica the next run should land on: the most
// recently used idle replica (warmest instance pools), else the least
// loaded replica with spare run capacity. nil when the pool is saturated.
func (sc *scheduler) pickReplica() *replica {
	var idle, busy *replica
	for _, rep := range sc.pool {
		switch {
		case rep.active == 0:
			if idle == nil || rep.lastUsed > idle.lastUsed {
				idle = rep
			}
		case rep.active < sc.runConc:
			if busy == nil || rep.active < busy.active ||
				(rep.active == busy.active && rep.lastUsed > busy.lastUsed) {
				busy = rep
			}
		}
	}
	if idle != nil {
		return idle
	}
	return busy
}

// dispatch forms batches from the admission queue in policy order and
// starts them on replicas with spare run capacity.
func (sc *scheduler) dispatch() {
	for sc.queue.Len() > 0 {
		rep := sc.pickReplica()
		if rep == nil {
			break
		}
		b := sc.nextBatch()
		if b == nil {
			break
		}
		sc.startRun(rep, b)
	}
	sc.ep.met.setQueueDepth(sc.queue.Len())
}

// nextBatch pops requests in admission order into one engine-run batch of
// at most maxBatch samples (an oversized request rides alone in a larger
// run), shedding requests the policy rejects at dispatch time. Returns nil
// if shedding emptied the queue.
func (sc *scheduler) nextBatch() *batch {
	now := sc.now()
	var cur *batch
	for sc.queue.Len() > 0 {
		r := sc.queue.reqs[0]
		if sc.admission.Shed(now, sc.estRun, r.info()) {
			heap.Pop(&sc.queue)
			sc.queuedSamples -= r.samples
			sc.shed(r, now)
			continue
		}
		if cur != nil && sc.coalesce.maxBatch > 0 && cur.samples+r.samples > sc.coalesce.maxBatch {
			break
		}
		heap.Pop(&sc.queue)
		sc.queuedSamples -= r.samples
		if cur == nil {
			cur = &batch{}
		}
		cur.reqs = append(cur.reqs, r)
		cur.samples += r.samples
	}
	return cur
}

// shed handles a policy-rejected request: offered once to the least
// loaded sibling endpoint serving the same model size when the policy
// reroutes, failed with ErrShed otherwise.
func (sc *scheduler) shed(r *request, now time.Duration) {
	r.phase.End()
	if sc.admission.Reroute() && !r.rerouted {
		if alt := sc.leastLoadedSibling(); alt != nil {
			r.rerouted = true
			r.span.SetAttr("rerouted", alt.name)
			sc.ep.stats.Rerouted++
			if m := sc.ep.met; m != nil {
				m.rerouted.Inc()
			}
			alt.sched.admit(r)
			return
		}
	}
	sc.ep.stats.Shed++
	if m := sc.ep.met; m != nil {
		m.requests.Inc()
		m.failures.Inc()
		m.shed.Inc()
	}
	r.span.SetAttr("error", "shed")
	r.span.End()
	r.h.fail(now, fmt.Errorf("serve: endpoint %q: %w (deadline %v, now %v)",
		sc.ep.name, ErrShed, r.deadline, now))
}

// pendingLoad is the scheduler's outstanding work — runs in flight plus
// requests queued or still inside the coalescing window — normalised by
// the pool's run capacity, so a big pool with one queued request reads
// lighter than a saturated single replica.
func (sc *scheduler) pendingLoad() float64 {
	capacity := len(sc.pool) * sc.runConc
	if capacity <= 0 {
		capacity = 1
	}
	return float64(sc.busyRuns+sc.queue.Len()+len(sc.window)) / float64(capacity)
}

// leastLoadedSibling returns the same-model-size endpoint with the
// lightest load, or nil when there is no sibling. A deadline-pressed
// request rerouted to a saturated sibling would only be shed again there;
// steering by queue depth and in-flight runs gives it a real second
// chance. Registration order breaks ties, so single-sibling behaviour is
// unchanged.
func (sc *scheduler) leastLoadedSibling() *Endpoint {
	var best *Endpoint
	bestLoad := 0.0
	for _, alt := range sc.ep.svc.byNeuronsAll[sc.ep.m.Spec.Neurons] {
		if alt == sc.ep {
			continue
		}
		load := alt.sched.pendingLoad()
		if best == nil || load < bestLoad {
			best, bestLoad = alt, load
		}
	}
	return best
}

// startRun merges the batch's inputs and begins one engine run on the
// replica; completion redistributes results to the batch's handles.
func (sc *scheduler) startRun(rep *replica, b *batch) {
	rep.active++
	rep.lastUsed = sc.now()
	sc.busyRuns++
	if rep.active > sc.ep.stats.MaxConcurrent {
		sc.ep.stats.MaxConcurrent = rep.active
	}
	// Close the queue phases and open the run span when any member
	// request is sampled: run-level sampling follows request-level
	// sampling, so coalescing — identical across replay modes — decides
	// identically everywhere.
	var runSpan obs.SpanRef
	if t := sc.ep.svc.trace; t != nil {
		sampled := false
		for _, r := range b.reqs {
			r.phase.End()
			if r.span.Active() {
				sampled = true
			}
		}
		if sampled {
			runSpan = t.Start(rep.track, "run", obs.KindRun, 0)
		}
	}
	input := mergeInputs(sc.ep.m.Spec.Neurons, b)
	id, err := rep.d.StartTraced(input, runSpan.ID(), func(res *core.Result, err error) {
		sc.finishRun(rep, b, runSpan, res, err)
	})
	if err != nil {
		runSpan.SetAttr("error", "start")
		runSpan.End()
		sc.releaseRun(rep)
		now := sc.now()
		for _, r := range b.reqs {
			r.span.SetAttr("error", "start")
			r.span.End()
			r.h.fail(now, err)
		}
		sc.ep.stats.FailedRuns++
		sc.dispatch()
		return
	}
	if runSpan.Active() {
		// The run's async id is its replica track plus the engine run id
		// — both replay-mode-stable, unlike raw span ids.
		runSpan.SetAsync(rep.track + "/" + id)
	}
}

func (sc *scheduler) releaseRun(rep *replica) {
	rep.active--
	sc.busyRuns--
	now := sc.now()
	rep.lastUsed = now
	if rep.active == 0 {
		rep.idleSince = now
		sc.maybeReplace(rep, now)
	}
}

// maybeReplace swaps an idle stale replica (one deployed before an SLO
// re-selection) for a fresh deployment of the current configuration. If
// the deploy is refused the replica keeps serving on its old deployment
// and is no longer stale.
func (sc *scheduler) maybeReplace(rep *replica, now time.Duration) {
	if !rep.stale {
		return
	}
	rep.stale = false
	nrep, err := sc.ep.deployReplica()
	if err != nil {
		return
	}
	rep.d.Decommission()
	rep.d = nrep.d
	rep.track = nrep.track
	rep.lastUsed = now
	rep.idleSince = now
}

// finishRun runs in simulation context when a replica's engine run
// completes: it releases the run slot, splits the output columns back to
// the coalesced requests, feeds the observations to the scaling/SLO
// machinery and dispatches any backlog.
func (sc *scheduler) finishRun(rep *replica, b *batch, runSpan obs.SpanRef, res *core.Result, err error) {
	sc.releaseRun(rep)
	ep := sc.ep
	now := sc.now()
	m := ep.met
	if err != nil {
		runSpan.SetAttr("error", "run")
		runSpan.End()
		ep.stats.FailedRuns++
		if m != nil {
			m.requests.Add(int64(len(b.reqs)))
			m.failures.Add(int64(len(b.reqs)))
			m.failedRuns.Inc()
		}
		for _, r := range b.reqs {
			r.span.SetAttr("error", "run")
			r.span.End()
			r.h.fail(now, err)
		}
		sc.evaluatePool()
		sc.dispatch()
		return
	}
	if sc.estRun == 0 {
		sc.estRun = res.Latency
	} else {
		sc.estRun = (3*sc.estRun + res.Latency) / 4
	}
	ep.stats.Runs++
	ep.stats.RunSamples += b.samples
	ep.stats.RunRequests += len(b.reqs)
	if b.samples > ep.stats.MaxSamples {
		ep.stats.MaxSamples = b.samples
	}
	ep.stats.Cost.Add(res.Cost)
	for _, w := range res.Workers {
		if w.Warm {
			ep.stats.WarmStarts++
		} else {
			ep.stats.ColdStarts++
		}
		if m != nil {
			if w.Warm {
				m.warmStarts.Inc()
			} else {
				m.coldStarts.Inc()
			}
		}
	}
	if runSpan.Active() {
		runSpan.SetAttr("samples", strconv.Itoa(b.samples))
		runSpan.SetAttr("requests", strconv.Itoa(len(b.reqs)))
		runSpan.End()
	}
	if m != nil {
		m.runFor(rep.d.Cfg.Channel).Inc()
		m.requests.Add(int64(len(b.reqs)))
	}
	off := 0
	for _, r := range b.reqs {
		cols := r.input.Cols
		if r.deadline > 0 && now > r.deadline {
			ep.stats.DeadlineMissed++
		}
		if r.span.Active() {
			r.span.SetAttr("run", res.RunID)
			r.span.End()
		}
		if m != nil {
			m.latency.Observe(now - r.arrived)
		}
		r.h.complete(now, &Response{
			Endpoint:      ep.name,
			RunID:         res.RunID,
			Output:        sliceCols(res.Output, off, cols),
			Latency:       now - r.arrived,
			RunLatency:    res.Latency,
			BatchSamples:  b.samples,
			BatchRequests: len(b.reqs),
			CostShare:     res.Cost.Total() * float64(cols) / float64(res.Batch),
		})
		off += cols
	}
	ep.observeRun(b.samples)
	sc.evaluatePool()
	sc.dispatch()
}
