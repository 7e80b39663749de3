package serve

import (
	"fmt"
	"time"

	"fsdinference/internal/cloud/kvcluster"
	"fsdinference/internal/model"
	"fsdinference/internal/obs"
	"fsdinference/internal/sparse"
	"fsdinference/internal/workload"
)

// ChaosKind selects a fault-injection action embedded in a replay trace.
type ChaosKind int

const (
	// KillNode fails the target shard's primary at the event time: with
	// replicas the shard fails over, without them in-flight values are
	// lost and the channel's sender-log recovery pays the bill.
	KillNode ChaosKind = iota
	// Partition makes the target shard unreachable for the event's
	// Duration without killing it; clients block and retry.
	Partition
)

// ChaosEvent is one trace-embedded fault: at a trace-relative virtual
// time, hit an endpoint's provisioned store cluster. Events against
// endpoints that have no live cluster at fire time (per-request channels,
// or every replica torn down) are counted as skipped, not failures — a
// chaos trace must stay replayable across configuration changes.
type ChaosEvent struct {
	// At is the injection time, relative to the replay start (same clock
	// as the trace's Query.At).
	//simlint:allow testonly — only tests inject chaos until the seeded fault campaign of ROADMAP 7(e) does
	At time.Duration
	// Kind selects the fault.
	//simlint:allow testonly — only tests inject chaos until the seeded fault campaign of ROADMAP 7(e) does
	Kind ChaosKind
	// Endpoint names the target; empty targets the first endpoint that
	// has a provisioned store cluster when the event fires.
	//simlint:allow testonly — only tests inject chaos until the seeded fault campaign of ROADMAP 7(e) does
	Endpoint string
	// Shard is the target shard index within the cluster.
	//simlint:allow testonly — only tests inject chaos until the seeded fault campaign of ROADMAP 7(e) does
	Shard int
	// Duration is the partition length (Partition only).
	//simlint:allow testonly — only tests inject chaos until the seeded fault campaign of ROADMAP 7(e) does
	Duration time.Duration
}

// inputDensity is the generated inputs' nonzero fraction, the evaluation
// setting.
const inputDensity = 0.2

// ReplayOptions tunes a trace replay.
type ReplayOptions struct {
	// Seed drives deterministic per-query input generation (default 1).
	Seed int64
	// Submit supplies per-query scheduling metadata (a deadline)
	// for the admission policy; nil submits every query with defaults.
	Submit func(i int, q workload.Query) SubmitOptions
	// Verify checks every request's output against serial float64
	// reference inference as the request resolves; a mismatch fails the
	// replay.
	Verify bool
	// Chaos embeds fault-injection events in the trace's timeline; the
	// report counts the injections and the failover fallout.
	//simlint:allow testonly — only tests inject chaos until the seeded fault campaign of ROADMAP 7(e) does
	Chaos []ChaosEvent
}

func (opts ReplayOptions) withDefaults() ReplayOptions {
	if opts.Seed == 0 {
		opts.Seed = 1
	}
	return opts
}

// routedQuery pairs one trace query with its resolved endpoint and its
// index in the original trace. The index — not the position in whatever
// batch or sub-slice reaches the engine — seeds the query's input
// generation, is echoed to the Submit callback and is the tracer's sampling
// key, so a lane's share of a trace, or a stream's batch, replays exactly as
// it would inside the full single-kernel replay.
type routedQuery struct {
	idx  int
	q    workload.Query
	name string
}

// route resolves one query's endpoint against this service's registry by
// model size: the first endpoint registered with the query's neuron count.
// idx is the query's index in the trace.
func (s *Service) route(idx int, q workload.Query) (routedQuery, error) {
	eps := s.byNeuronsAll[q.Neurons]
	if len(eps) == 0 {
		return routedQuery{}, fmt.Errorf("serve: no endpoint for query %d (N=%d)", idx, q.Neurons)
	}
	return routedQuery{idx: idx, q: q, name: eps[0].name}, nil
}

// routeTrace routes a whole in-memory trace up front.
func (s *Service) routeTrace(trace []workload.Query) ([]routedQuery, error) {
	if len(trace) == 0 {
		return nil, fmt.Errorf("serve: empty trace")
	}
	items := make([]routedQuery, len(trace))
	for i, q := range trace {
		var err error
		if items[i], err = s.route(i, q); err != nil {
			return nil, err
		}
	}
	return items, nil
}

// oneBatch feeds the engine a routed slice as its only batch, so every
// arrival is on the kernel before the run starts.
func oneBatch(items []routedQuery) func() ([]routedQuery, error) {
	return func() ([]routedQuery, error) {
		batch := items
		items = nil
		return batch, nil
	}
}

// Replay drives a workload query trace through the service inside one
// simulated-time run and measures what the paper's Fig. 4 comparison
// otherwise extrapolates: real per-query latency under coalescing and
// cold starts, and real metered daily cost. Queries are admitted at their
// trace arrival times (relative to the current virtual time), inputs are
// generated deterministically per query, and the report folds each request
// as it resolves, plus the endpoints' run ledgers. Latency percentiles are
// exact nearest-rank values over every request.
//
// Replay, ReplayLanes and ReplayStream are three entries to one engine
// (replayStart, replayRun.fold, replayFinish); they differ in how the trace
// reaches it and in how latencies are kept.
func (s *Service) Replay(trace []workload.Query, opts ReplayOptions) (*Report, error) {
	opts = opts.withDefaults()
	items, err := s.routeTrace(trace)
	if err != nil {
		return nil, err
	}
	run, err := s.replayStart(oneBatch(items), true, opts)
	if err != nil {
		return nil, err
	}
	return s.replayFinish(run, 0)
}

// ReplayStream drives a TraceStream through the service inside one
// simulated-time run, pulling the next batch from inside the kernel when
// the clock reaches the current batch's last arrival, so at most one batch
// of unarrived requests is in flight ahead of the clock and a million-query
// day runs in bounded memory: neither the trace, nor the requests, nor the
// latency samples are ever all live at once.
//
// The report matches Replay's except that latency percentiles are folded
// through a log-linear histogram (bucket upper bounds within ~6%, see
// obs.Histogram) rather than computed from retained samples; count, mean,
// min and max stay exact.
func (s *Service) ReplayStream(stream workload.TraceStream, opts ReplayOptions) (*Report, error) {
	opts = opts.withDefaults()
	var (
		buf  []routedQuery // one batch, routed; reused across pulls
		seen int           // queries pulled so far: the next one's trace index
		prev time.Duration // latest arrival pulled so far, across batches
	)
	next := func() ([]routedQuery, error) {
		qs := stream.Next()
		if buf == nil {
			buf = make([]routedQuery, 0, len(qs))
		}
		buf = buf[:0]
		for _, q := range qs {
			if q.At < prev {
				return nil, fmt.Errorf("serve: stream arrivals out of order (%v after %v)", q.At, prev)
			}
			prev = q.At
			it, err := s.route(seen, q)
			if err != nil {
				return nil, err
			}
			buf = append(buf, it)
			seen++
		}
		return buf, nil
	}
	run, err := s.replayStart(next, false, opts)
	if err != nil {
		return nil, err
	}
	return s.replayFinish(run, 0)
}

// latencySink accumulates one latency distribution in the form the replay's
// input allows: every sample retained and exact nearest-rank percentiles
// when the trace is a slice (its length bounds the samples), a log-linear
// histogram when it is a stream of unknown length.
type latencySink struct {
	samples []time.Duration
	hist    *obs.Histogram // nil: retain samples
}

func newLatencySink(exact bool) *latencySink {
	if exact {
		return &latencySink{}
	}
	return &latencySink{hist: &obs.Histogram{}}
}

func (l *latencySink) observe(d time.Duration) {
	if l.hist != nil {
		l.hist.Observe(d)
		return
	}
	l.samples = append(l.samples, d)
}

func (l *latencySink) stats() LatencyStats {
	if l.hist != nil {
		return histStats(l.hist)
	}
	return latencyStats(l.samples)
}

// endpointAcc is one endpoint's request-level accounting within a replay.
type endpointAcc struct {
	queries, failed, samples int
	lat                      *latencySink
}

// replayRun is one replay from the opening of its metering window to its
// report. Lanes hold it between replayStart (everything submitted and
// drained) and replayFinish, so every lane's window can be closed at the
// same global end time. Nothing in it is indexed by query: a request is
// folded into the counts and sinks when it resolves and then let go.
type replayRun struct {
	s        *Service
	opts     ReplayOptions
	win      *replayWindow
	next     func() ([]routedQuery, error)
	rep      *Report // Queries, Failed, Samples and Horizon accumulate here
	resolved int
	lat      *latencySink
	accs     map[string]*endpointAcc
	chaos    *chaosCounters
	// err is the first feed or verification error; it stops the feed and
	// is returned once the kernel has drained.
	err error
}

// replayStart drains in-flight work, opens the metering window, submits the
// first batch, arms the chaos events and drives the kernel until the feed is
// exhausted and every query has resolved. next returns the following batch
// of routed queries, empty once the trace is exhausted; exact selects the
// latency sinks' form.
func (s *Service) replayStart(next func() ([]routedQuery, error), exact bool, opts ReplayOptions) (*replayRun, error) {
	// Drain any requests already in flight first, so the metered window
	// below measures this trace and nothing else.
	if err := s.Run(); err != nil {
		return nil, err
	}
	run := &replayRun{
		s:    s,
		opts: opts,
		win:  s.openWindow(s.Now()),
		next: next,
		rep:  &Report{},
		lat:  newLatencySink(exact),
		accs: make(map[string]*endpointAcc, len(s.eps)),
	}
	for _, ep := range s.eps {
		run.accs[ep.name] = &endpointAcc{lat: newLatencySink(exact)}
	}
	run.feed()
	if run.err != nil {
		return nil, run.err
	}
	var err error
	if run.chaos, err = s.scheduleChaos(run.win.base, opts.Chaos); err != nil {
		return nil, err
	}
	if err := s.Run(); err != nil {
		return nil, err
	}
	if run.err != nil {
		return nil, run.err
	}
	if run.resolved != run.rep.Queries {
		return nil, fmt.Errorf("serve: %d of %d replayed queries did not resolve", run.rep.Queries-run.resolved, run.rep.Queries)
	}
	return run, nil
}

// feed pulls the next batch, submits it, and re-arms itself as a kernel
// event at the batch's latest arrival: a stream's order guarantees the
// following batch arrives at or after that instant, and a slice's only
// batch leaves one event that pulls nothing.
func (run *replayRun) feed() {
	if run.err != nil {
		return
	}
	items, err := run.next()
	if err != nil {
		run.err = err
		return
	}
	if len(items) == 0 {
		return
	}
	s, base, opts := run.s, run.win.base, run.opts
	fold := run.fold
	var last time.Duration
	for _, it := range items {
		in := model.GenerateInputs(it.q.Neurons, it.q.Samples, inputDensity, opts.Seed+int64(it.idx))
		var so SubmitOptions
		if opts.Submit != nil {
			so = opts.Submit(it.idx, it.q)
		}
		notify := fold
		if opts.Verify {
			// Only a verified replay pays a closure per query: it carries
			// what the check needs to where the output is still live.
			idx := it.idx
			notify = func(h *Handle) {
				run.verify(h, in, idx)
				fold(h)
			}
		}
		run.rep.Queries++
		run.accs[it.name].queries++
		s.submit(it.name, in, base+it.q.At, so, notify, it.idx)
		if it.q.At > last {
			last = it.q.At
		}
	}
	s.env.K.At(base+last-s.Now(), run.feed)
}

// fold accounts one resolved request — a completion or a reject — and is
// the last thing to see it: counts, latency into the run's and the
// endpoint's sink, and the horizon.
func (run *replayRun) fold(h *Handle) {
	run.resolved++
	a := run.accs[h.endpoint]
	if h.err != nil {
		run.rep.Failed++
		a.failed++
		return
	}
	resp := h.resp
	run.rep.Samples += resp.Samples
	a.samples += resp.Samples
	run.lat.observe(resp.Latency)
	a.lat.observe(resp.Latency)
	if at := h.finished - run.win.base; at > run.rep.Horizon {
		run.rep.Horizon = at
	}
}

// verify checks a completed request's output against serial float64
// reference inference on the endpoint it was routed to; the first mismatch
// becomes the run's error.
func (run *replayRun) verify(h *Handle, in *sparse.Dense, idx int) {
	if h.err != nil || run.err != nil {
		return
	}
	want := model.Reference(run.s.byName[h.endpoint].m, in)
	if !model.OutputsClose(h.resp.Output(), want, 1e-2) {
		run.err = fmt.Errorf("serve: query %d output diverges from reference", idx)
	}
}

// replayFinish closes the metering window and assembles the report. A
// positive endAt first advances the kernel to that virtual time (with an
// empty event), so a lane that finished early accrues provisioned
// capacity to the same global end a shared-kernel run would have — idle
// tails included.
func (s *Service) replayFinish(run *replayRun, endAt time.Duration) (*Report, error) {
	if endAt > s.Now() {
		if s.mon != nil {
			// Arm catch-up scrapes as kernel events up to the global end,
			// so a lane that drained early finalizes the same windows at
			// the same simulated instants as the single-kernel replay.
			s.mon.RunTo(endAt)
		}
		s.env.K.At(endAt-s.Now(), func() {})
		if err := s.Run(); err != nil {
			return nil, err
		}
	}
	s.closeWindow(run.win)

	rep := run.rep
	rep.Latency = run.lat.stats()
	for _, ep := range s.eps {
		rep.Endpoints = append(rep.Endpoints, ep.report(run.win.base, run.accs[ep.name]))
	}
	s.meterReport(rep, run.win)
	rep.ChaosKills = run.chaos.kills
	rep.ChaosPartitions = run.chaos.partitions
	rep.ChaosSkipped = run.chaos.skipped
	return rep, rep.Check()
}

// chaosCounters tallies trace-embedded fault injections.
type chaosCounters struct {
	kills, partitions, skipped int
}

// scheduleChaos arms the chaos events on the kernel timeline relative to
// base and returns the counters they will populate as they fire.
func (s *Service) scheduleChaos(base time.Duration, events []ChaosEvent) (*chaosCounters, error) {
	c := &chaosCounters{}
	for i, ev := range events {
		if ev.Endpoint != "" && s.byName[ev.Endpoint] == nil {
			return nil, fmt.Errorf("serve: chaos event %d targets unknown endpoint %q", i, ev.Endpoint)
		}
		ev := ev
		s.env.K.At(base+ev.At, func() {
			cl := s.chaosTarget(ev.Endpoint)
			if cl == nil || ev.Shard < 0 || ev.Shard >= cl.Shards() {
				c.skipped++
				return
			}
			switch ev.Kind {
			case Partition:
				if cl.Partition(ev.Shard, ev.Duration) == nil {
					c.partitions++
				} else {
					c.skipped++
				}
			default:
				if cl.KillNode(ev.Shard) == nil {
					c.kills++
				} else {
					c.skipped++
				}
			}
		})
	}
	return c, nil
}

// chaosTarget resolves a chaos event's target cluster at fire time: the
// named endpoint's first replica with a provisioned store, or — with no
// name — the first such replica service-wide.
func (s *Service) chaosTarget(name string) *kvcluster.Cluster {
	eps := s.eps
	if name != "" {
		// scheduleChaos refused a replay naming an unknown endpoint.
		eps = []*Endpoint{s.byName[name]}
	}
	for _, ep := range eps {
		for _, rep := range ep.sched.pool {
			if cl := rep.d.KVCluster(); cl != nil {
				return cl
			}
		}
	}
	return nil
}
