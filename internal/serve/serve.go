// Package serve implements the FSD-Inference serving layer: a long-lived,
// multi-model Service endpoint over the simulated cloud. Where core.Infer
// is one-shot — one request owning the whole kernel run — a Service
// replays a query trace and keeps many requests in flight inside a
// single simulated-time run, realising the upstream buffering the paper
// assumes for its sporadic workloads (§V-B2, §VI-C).
//
// Each named endpoint owns one model and a replica pool of deployments
// managed by a policy-driven scheduler (scheduler.go, policy.go). Requests
// pass through a per-endpoint coalescing window into an admission queue
// ordered by a pluggable admission policy — FIFO or deadline-aware with
// shedding/rerouting — and dispatch to replicas with
// spare run capacity; since Queue-channel consumption is partitioned by
// run id in core, one replica can overlap runs on any channel. A pluggable
// scaling policy sizes the pool: fixed (WithReplicas) or an autoscaler
// growing and shrinking with queue depth and arrival rate, metering every
// scale event and replica-hour. Cold and warm starts are metered by the
// FaaS platform exactly as for one-shot runs, so a sporadic day pays
// realistic cold-start latency while a bursty hour reuses warm instances.
package serve

import (
	"fmt"
	"math"
	"strconv"
	"time"

	"fsdinference/internal/cloud/env"
	"fsdinference/internal/cloud/usage"
	"fsdinference/internal/core"
	"fsdinference/internal/model"
	"fsdinference/internal/obs"
	"fsdinference/internal/obs/monitor"
	"fsdinference/internal/partition"
	"fsdinference/internal/plan"
	"fsdinference/internal/sparse"
)

// coalescePolicy bounds one endpoint's request coalescing: a batch closes
// when it holds maxBatch samples or when maxDelay has elapsed since its
// first request, whichever comes first. Requests are never split across
// engine runs, so a single request larger than maxBatch rides alone in an
// oversized run.
type coalescePolicy struct {
	maxBatch int
	maxDelay time.Duration
}

// endpointConfig accumulates per-endpoint options before deployment.
type endpointConfig struct {
	name    string
	m       *model.Model
	channel core.ChannelKind
	chanSet bool
	workers int
	scheme  partition.Scheme
	seed    int64
	slo     *SLOOptions
	mutate  func(*core.Config)
}

// serviceConfig accumulates Service options.
type serviceConfig struct {
	policy     coalescePolicy
	replicas   int
	admission  AdmissionPolicy
	scaling    ScalingPolicy
	runConc    int
	tracing    bool
	traceEvery int
	monitoring bool
	monSpec    monitor.Spec
	eps        []*endpointConfig
	err        error
}

// Option configures a Service.
type Option func(*serviceConfig)

// EndpointOption configures one endpoint.
type EndpointOption func(*endpointConfig)

// WithCoalescing sets the service-wide default coalescing policy: batches
// close at maxBatch buffered samples or after maxDelay from the first
// queued request. maxBatch <= 0 leaves batch size unbounded; maxDelay 0
// coalesces only requests arriving at the same instant.
func WithCoalescing(maxBatch int, maxDelay time.Duration) Option {
	return func(c *serviceConfig) { c.policy = coalescePolicy{maxBatch, maxDelay} }
}

// WithReplicas sets the service-wide default warm-pool size: how many
// deployment replicas each endpoint keeps. It is shorthand for
// WithScaling(FixedPool(n)) — whichever of the two appears later wins.
func WithReplicas(n int) Option {
	return func(c *serviceConfig) {
		c.replicas = n
		if n > 0 {
			c.scaling = FixedPool(n)
		}
	}
}

// WithAdmission sets the service-wide default admission policy (default
// FIFO()).
func WithAdmission(p AdmissionPolicy) Option {
	return func(c *serviceConfig) { c.admission = p }
}

// WithScaling sets the service-wide default scaling policy (default
// FixedPool of the WithReplicas size).
func WithScaling(p ScalingPolicy) Option {
	return func(c *serviceConfig) { c.scaling = p }
}

// WithRunConcurrency sets the service-wide default number of engine runs
// one replica may have in flight at once (default 1). Values above 1
// exploit the core engine's run-multiplexed channels: concurrent runs of
// one deployment are isolated per run id on every channel.
func WithRunConcurrency(n int) Option {
	return func(c *serviceConfig) { c.runConc = n }
}

// WithTracing enables the service's simulated-time tracer (internal/obs),
// sampling one in sampleEvery requests (sampleEvery <= 1 traces every
// request), and exposes the always-counting metrics registry through
// Metrics. Sampling is keyed on the request's position in the replayed
// trace, so the same workload at the same rate selects the same requests
// — and exports byte-identical Chrome traces — whether it replays on one
// shared kernel, sharded across lanes, or streamed. The option carries
// configuration rather than a tracer instance: each replay lane builds a
// tracer bound to its own kernel clock and the lanes merge afterwards.
func WithTracing(sampleEvery int) Option {
	return func(c *serviceConfig) { c.tracing = true; c.traceEvery = sampleEvery }
}

// WithMonitor enables the simulated-time SLO monitor (internal/obs/
// monitor): the metrics registry is exposed through Metrics (tracing stays
// off unless WithTracing is also applied), every endpoint's instruments
// are registered as a scrape target, and replays drive the scrape loop as
// kernel events. Unless spec.Passive is set, a firing page-severity
// burn-rate alert also closes the control loop — an SLO endpoint
// re-plans immediately instead of waiting for the break-even drift
// trigger, and a fixed endpoint gets an emergency replica. Like
// WithTracing, the option carries configuration: each replay lane builds
// a monitor bound to its own kernel and the lanes merge afterwards.
func WithMonitor(spec monitor.Spec) Option {
	return func(c *serviceConfig) { c.monitoring = true; c.monSpec = spec }
}

// WithEndpoint registers a named model endpoint.
func WithEndpoint(name string, m *model.Model, opts ...EndpointOption) Option {
	return func(c *serviceConfig) {
		ec := &endpointConfig{name: name, m: m, scheme: partition.HGPDNN, seed: 1}
		for _, o := range opts {
			o(ec)
		}
		c.eps = append(c.eps, ec)
	}
}

// WithChannel selects the endpoint's communication variant (default:
// Serial for single-worker endpoints, Queue otherwise).
func WithChannel(k core.ChannelKind) EndpointOption {
	return func(ec *endpointConfig) { ec.channel = k; ec.chanSet = true }
}

// WithWorkers sets the endpoint's FaaS worker parallelism; the partition
// plan is built from it and WithScheme.
func WithWorkers(p int) EndpointOption {
	return func(ec *endpointConfig) { ec.workers = p }
}

// WithScheme selects the partitioning scheme for auto-built plans
// (default HGPDNN).
func WithScheme(s partition.Scheme) EndpointOption {
	return func(ec *endpointConfig) { ec.scheme = s }
}

// WithSLO lets the endpoint pick its own channel and worker parallelism at
// deploy time via the workload-aware Planner (internal/plan), given
// latency/cost priorities, and re-plan when the observed arrival rate
// crosses the memory channel's break-even volume (SLOOptions) or, under
// WithMonitor, when a page-severity burn-rate alert fires. It conflicts
// with WithChannel and WithWorkers.
func WithSLO(o SLOOptions) EndpointOption {
	return func(ec *endpointConfig) { ec.slo = &o }
}

// WithDeployOverride mutates the endpoint's deployment configuration
// after defaults are applied (tuning knob for threads, polling, memory).
// Under WithSLO it is re-applied to every re-selected configuration.
func WithDeployOverride(mutate func(*core.Config)) EndpointOption {
	return func(ec *endpointConfig) { ec.mutate = mutate }
}

// Service is a long-lived multi-model serving endpoint. All endpoints
// share one simulated environment (and its kernel), so overlapping
// requests to different endpoints — and queued requests to the same
// endpoint — progress concurrently in virtual time.
type Service struct {
	env *env.Env
	// opts retains the applied options so replay lanes can rebuild
	// filtered clones of the service on fresh environments (lanes.go).
	opts   []Option
	eps    []*Endpoint
	byName map[string]*Endpoint
	// byNeuronsAll maps model size to its endpoints in registration
	// order; the first entry is the default route, later ones are
	// reroute siblings.
	byNeuronsAll map[int][]*Endpoint
	// pending holds every submitted handle that has not resolved, so a
	// failed kernel run can surface its error on all of them.
	pending map[*Handle]struct{}

	// trace is nil unless WithTracing was applied, mon unless WithMonitor
	// was; the tracer's hot paths guard on the nil, which is its whole cost
	// when off. metrics always counts: it holds every endpoint's
	// instruments, which the replay report reads.
	trace   *obs.Tracer
	metrics *obs.Registry
	mon     *monitor.Monitor
}

// Endpoint is one named model behind the Service. Its scheduling — window,
// admission queue, replica pool — lives in sched.
type Endpoint struct {
	svc  *Service
	name string
	m    *model.Model
	// dcfg is the deployment template replicas are created from; cfg is
	// the defaults-applied configuration of the latest deployment.
	dcfg   core.Config
	cfg    core.Config
	mutate func(*core.Config)
	sched  *scheduler
	slo    *sloState

	// replicaSeq numbers every replica this endpoint ever deploys, so a
	// traced replica's track name is stable across replay modes (pool
	// position is not: replaced replicas reuse slots).
	replicaSeq int
	// met caches the endpoint's registry instruments.
	met *epMetrics

	stats endpointStats
}

// sloState is an SLO-configured endpoint's control loop: the planner,
// whose Last decision is the endpoint's current one, the EWMA of observed
// run batch widths a re-plan trials at, and the runs since the last
// re-plan. The planner caches its trial measurements, so a re-plan under
// an unchanged batch width re-scores rather than re-simulates.
type sloState struct {
	opts      SLOOptions
	planner   *plan.Planner
	ewmaBatch float64
	runs      int
}

type request struct {
	h     *Handle
	input *sparse.Dense
	// info is what the admission policy reads: the sequence number admit
	// assigns, arrival, absolute deadline (0 = none) and width.
	// It is the request's only copy of them.
	info     RequestInfo
	rerouted bool
	// span is the request's trace span (zero when unsampled); phase is
	// the currently open serving stage within it (coalesce, queue).
	span  obs.SpanRef
	phase obs.SpanRef
}

type batch struct {
	reqs    []*request
	samples int
}

// endpointStats counts the run- and scheduler-level activity no registry
// instrument holds; sheds, reroutes, failed runs, starts and deploy
// failures are counted once, in the endpoint's epMetrics. Request-level
// metrics live on the handles. A replay's window restarts the stats at
// zero and records the registry counts it opened with (openWindow), so the
// report describes that window alone.
type endpointStats struct {
	Runs        int
	RunSamples  int
	RunRequests int
	MaxSamples  int
	Cost        usage.Breakdown

	DeadlineMissed int
	ScaleUps       int
	ScaleDowns     int
	Reselections   int
	MaxConcurrent  int
	PeakReplicas   int
	ReplicaSeconds float64
	// Replans records every SLO-driven configuration change in order;
	// Reselections also counts planner re-runs that kept the
	// configuration.
	Replans []ReplanEvent
	// opened is the registry counts at the window edge; the report
	// subtracts them.
	opened windowCounts
}

// NewService validates the options, builds partition plans and deploys
// every endpoint's replica pool onto the shared environment.
func NewService(e *env.Env, opts ...Option) (*Service, error) {
	return newService(e, nil, opts...)
}

// newService is NewService with an optional endpoint filter: when keep is
// non-nil, endpoints it rejects are dropped before deployment. Replay lanes
// use this to rebuild a subset of the service on a fresh environment
// without paying for (or metering) the endpoints the lane does not serve.
func newService(e *env.Env, keep func(name string) bool, opts ...Option) (*Service, error) {
	cfg := &serviceConfig{
		policy:   coalescePolicy{maxBatch: 512},
		replicas: 1,
		runConc:  1,
	}
	for _, o := range opts {
		o(cfg)
	}
	if cfg.err != nil {
		return nil, cfg.err
	}
	if keep != nil {
		kept := cfg.eps[:0]
		for _, ec := range cfg.eps {
			if keep(ec.name) {
				kept = append(kept, ec)
			}
		}
		cfg.eps = kept
	}
	if len(cfg.eps) == 0 {
		return nil, fmt.Errorf("serve: a service needs at least one endpoint")
	}
	if cfg.replicas <= 0 {
		return nil, fmt.Errorf("serve: replicas must be positive, got %d", cfg.replicas)
	}
	if cfg.runConc <= 0 {
		return nil, fmt.Errorf("serve: run concurrency must be positive, got %d", cfg.runConc)
	}
	s := &Service{
		env:          e,
		opts:         opts,
		byName:       make(map[string]*Endpoint),
		byNeuronsAll: make(map[int][]*Endpoint),
		pending:      make(map[*Handle]struct{}),
		metrics:      obs.NewRegistry(),
	}
	if cfg.tracing {
		// Built before the endpoints so initial replica deployments are
		// traced too. The tracer reads this environment's kernel clock,
		// so each lane clone gets one bound to its own kernel.
		s.trace = obs.New(e.K.Clock(), cfg.traceEvery)
	}
	if cfg.monitoring {
		// The monitor scrapes on this environment's kernel, so each lane
		// clone gets one bound to its own kernel; the chain stays alive
		// only while requests are in flight, which is what lets the
		// kernel drain.
		mon, err := monitor.New(cfg.monSpec, e.K.Clock(),
			func(d time.Duration, fn func()) { e.K.At(d, fn) },
			func() bool { return len(s.pending) > 0 })
		if err != nil {
			return nil, fmt.Errorf("serve: %w", err)
		}
		s.mon = mon
	}
	for _, ec := range cfg.eps {
		ep, err := s.buildEndpoint(ec, cfg)
		if err != nil {
			return nil, err
		}
		s.eps = append(s.eps, ep)
		s.byName[ep.name] = ep
		s.byNeuronsAll[ep.m.Spec.Neurons] = append(s.byNeuronsAll[ep.m.Spec.Neurons], ep)
	}
	if s.mon != nil {
		for _, ep := range s.eps {
			s.mon.Register(ep.met.Target)
		}
		if !cfg.monSpec.Passive {
			s.mon.Subscribe(s.onAlert)
		}
	}
	return s, nil
}

// onAlert closes the monitor→control loop: a page-severity burn-rate
// alert starting to fire triggers an immediate, alert-driven re-plan on
// an SLO endpoint (bypassing the MinRuns gate) or an emergency
// replica on a fixed one. It runs inside the scrape's kernel event, so
// the action lands at the same simulated instant in every replay mode.
func (s *Service) onAlert(ev monitor.AlertEvent) {
	if !ev.Firing || ev.Severity != monitor.Page {
		return
	}
	if ep := s.byName[ev.Endpoint]; ep != nil {
		ep.alertReplan(ev)
	}
}

func (s *Service) buildEndpoint(ec *endpointConfig, cfg *serviceConfig) (*Endpoint, error) {
	if ec.name == "" {
		return nil, fmt.Errorf("serve: endpoint name required")
	}
	if _, dup := s.byName[ec.name]; dup {
		return nil, fmt.Errorf("serve: duplicate endpoint %q", ec.name)
	}
	if ec.m == nil {
		return nil, fmt.Errorf("serve: endpoint %q has no model", ec.name)
	}
	ep := &Endpoint{svc: s, name: ec.name, m: ec.m, mutate: ec.mutate}
	if ec.slo != nil {
		if ec.chanSet || ec.workers > 0 {
			return nil, fmt.Errorf("serve: endpoint %q: WithSLO conflicts with WithChannel/WithWorkers", ec.name)
		}
		slo := ec.slo.withDefaults()
		// The pre-filter stays off because the break-even trigger reads the
		// measured break-even. A re-plan far below it would prune the
		// memory candidates, and the decision's break-even would fall back
		// to the analytic §IV-C estimate (458 462 queries/day instead of
		// the measured 103 283 on TestGoldenSLOReplayReports' trough day),
		// moving the next crossing and its re-plan.
		planner, err := plan.New(ec.m, plan.Options{
			Objective:        plan.WeightedObjective(slo.LatencyWeight),
			Grid:             plan.Grid{Channels: slo.Channels, Workers: slo.Workers},
			DisablePrefilter: true,
			Seed:             slo.Seed,
		})
		if err != nil {
			return nil, fmt.Errorf("serve: endpoint %q: %w", ec.name, err)
		}
		d, err := planner.Plan(plan.WorkloadProfile{BatchSamples: slo.ProbeBatch})
		if err != nil {
			return nil, fmt.Errorf("serve: endpoint %q: %w", ec.name, err)
		}
		ep.slo = &sloState{opts: slo, planner: planner}
		ep.dcfg = ep.override(d.Config)
	} else {
		channel := ec.channel
		if !ec.chanSet {
			channel = core.Serial
			if ec.workers > 1 {
				channel = core.Queue
			}
		}
		if channel != core.Serial && ec.workers <= 1 {
			return nil, fmt.Errorf("serve: endpoint %q: %v needs at least 2 workers", ec.name, channel)
		}
		var plan *partition.Plan
		if channel != core.Serial {
			var err error
			plan, err = partition.BuildPlan(ec.m, ec.workers, ec.scheme, partition.Options{Seed: ec.seed})
			if err != nil {
				return nil, fmt.Errorf("serve: endpoint %q: %w", ec.name, err)
			}
		}
		ep.dcfg = ep.override(core.Config{
			Model:    ec.m,
			Plan:     plan,
			Channel:  channel,
			PollWait: 2 * time.Second,
		})
	}

	if cfg.policy.maxBatch < 0 || cfg.policy.maxDelay < 0 {
		return nil, fmt.Errorf("serve: endpoint %q: negative coalescing policy", ec.name)
	}
	admission := cfg.admission
	if admission == nil {
		admission = FIFO()
	}
	scaling := cfg.scaling
	if scaling == nil {
		scaling = FixedPool(cfg.replicas)
	}

	ep.sched = newScheduler(ep, cfg.policy, admission, scaling, cfg.runConc)
	ep.met = newEpMetrics(s.metrics, ep.name)
	initial := scaling.Target(PoolState{RunCapacity: cfg.runConc})
	if initial < 1 {
		initial = 1
	}
	for i := 0; i < initial; i++ {
		rep, err := ep.deployReplica()
		if err != nil {
			return nil, fmt.Errorf("serve: endpoint %q replica %d: %w", ec.name, i, err)
		}
		ep.sched.pool = append(ep.sched.pool, rep)
	}
	ep.stats.PeakReplicas = len(ep.sched.pool)
	ep.met.Replicas.Set(float64(len(ep.sched.pool)))
	return ep, nil
}

// deployReplica deploys one replica from the endpoint's current template.
// With tracing on, the deployment's trace scope is stamped with a
// replay-mode-independent track — the endpoint name plus a per-endpoint
// replica ordinal — so engine-side spans land on the same timeline
// whether the endpoint runs on the shared kernel or inside a lane. A
// refused deploy is counted (deploy_failures_total) and returned; the
// caller goes on with the pool it has.
func (ep *Endpoint) deployReplica() (*replica, error) {
	dcfg := ep.dcfg
	var track string
	if t := ep.svc.trace; t != nil {
		track = fmt.Sprintf("%s/r%d", ep.name, ep.replicaSeq)
		dcfg.Trace = obs.Scope{T: t, Track: track}
	}
	// Thread the endpoint's KV instruments down to the deployment's
	// kvclusters so shard failovers land in the scrapeable registry.
	dcfg.KVFailoverCounter = ep.met.KVFailovers
	dcfg.KVLostValuesCounter = ep.met.KVLostValues
	ep.replicaSeq++
	d, err := core.Deploy(ep.svc.env, dcfg)
	if err != nil {
		ep.met.deployFailed()
		return nil, err
	}
	ep.cfg = d.Cfg // defaults applied
	return &replica{d: d, track: track}, nil
}

// override returns a deployment template: cfg with the endpoint's
// WithDeployOverride applied.
func (ep *Endpoint) override(cfg core.Config) core.Config {
	if ep.mutate != nil {
		ep.mutate(&cfg)
	}
	return cfg
}

// observeRun feeds one completed run's batch width to the SLO machinery
// and, once MinRuns runs have completed since the last re-plan, re-plans
// when the observed arrival rate has crossed the memory channel's
// break-even daily volume — the signal that flips the provisioned-versus-
// per-request economics.
func (ep *Endpoint) observeRun(samples int) {
	st := ep.slo
	if st == nil {
		return
	}
	if st.ewmaBatch == 0 {
		st.ewmaBatch = float64(samples)
	} else {
		st.ewmaBatch = 0.75*st.ewmaBatch + 0.25*float64(samples)
	}
	st.runs++
	if st.runs < st.opts.MinRuns {
		return
	}
	d := st.planner.Last()
	observedQPD := ep.sched.queriesPerDay()
	be := d.MemoryBreakEvenQueriesPerDay
	// The hysteresis band keeps workloads hovering at the break-even from
	// flapping: the observed volume must clear the far edge of the
	// +-breakEvenHysteresis band before the trigger fires.
	if !plan.CrossedBreakEven(d.Profile.QueriesPerDay, observedQPD, be, breakEvenHysteresis) {
		return
	}
	ep.replanTo(nil, fmt.Sprintf("arrival rate crossed the memory break-even (%d vs ~%d queries/day)",
		observedQPD, be))
}

// replanTo re-plans the endpoint under its live workload profile and swaps
// the deployment template when the winning configuration changed. The
// profile's batch width is the observed run-width EWMA, or ProbeBatch
// before any run has completed. Shared by the break-even trigger
// (observeRun) and the alert-driven path (alertReplan); obj, when non-nil,
// overrides the planner's objective for this decision only.
func (ep *Endpoint) replanTo(obj plan.Objective, reason string) {
	st := ep.slo
	st.runs = 0
	probe := st.opts.ProbeBatch
	if st.ewmaBatch > 0 {
		probe = int(math.Round(st.ewmaBatch))
	}
	d, err := st.planner.ReplanWith(ep.sched.observedProfile(probe), obj)
	if err != nil {
		return // keep the current configuration; retry after MinRuns more runs
	}
	ep.stats.Reselections++
	dcfg := ep.override(d.Config)
	if dcfg.Channel == ep.dcfg.Channel && dcfg.Workers() == ep.dcfg.Workers() {
		return // same configuration still wins; no redeploy needed
	}
	now := ep.svc.Now()
	ep.stats.Replans = append(ep.stats.Replans, ReplanEvent{
		At:          now,
		From:        ep.dcfg.Channel,
		FromWorkers: ep.dcfg.Workers(),
		To:          dcfg.Channel,
		ToWorkers:   dcfg.Workers(),
		Reason:      reason,
	})
	ep.dcfg = dcfg
	for _, rep := range ep.sched.pool {
		rep.stale = true
		if rep.active == 0 {
			// Swaps the deployment and refreshes ep.cfg; busy replicas
			// follow as they go idle.
			ep.sched.maybeReplace(rep, now)
		}
	}
}

// alertReplan is the alert-driven arm of the control loop, invoked from a
// firing page-severity burn-rate alert. An SLO endpoint re-plans
// immediately — the MinRuns gate is bypassed and the decision is re-scored
// under a latency-biased objective, since a burning error budget is
// exactly the regime where shaving run latency beats shaving cost. A fixed
// endpoint has no planner, so it gets an emergency replica instead. Alert
// events are edge-triggered (one per firing transition), which bounds the
// blast radius: a sustained violation re-plans once per rule transition,
// not once per scrape.
func (ep *Endpoint) alertReplan(ev monitor.AlertEvent) {
	if ep.slo == nil {
		ep.sched.alertBoost()
		return
	}
	ep.replanTo(plan.LatencyObjective(), fmt.Sprintf("slo alert %s (%s): burn %.1fx/%.1fx",
		ev.SLO, ev.Severity, ev.BurnShort, ev.BurnLong))
}

// Env returns the shared simulated environment.
func (s *Service) Env() *env.Env { return s.env }

// Endpoints returns the registered endpoint names in registration order.
func (s *Service) Endpoints() []string {
	names := make([]string, len(s.eps))
	for i, ep := range s.eps {
		names[i] = ep.name
	}
	return names
}

// Now returns the current virtual time of the shared kernel.
func (s *Service) Now() time.Duration { return s.env.K.Now() }

// Tracer returns the service's span tracer, or nil when tracing is off
// (WithTracing not applied). After a laned replay it holds the merged
// spans of every lane.
func (s *Service) Tracer() *obs.Tracer { return s.trace }

// Metrics returns the service's metrics registry, or nil when neither
// WithTracing nor WithMonitor was applied: the registry always counts, and
// those options expose it. Snapshots may be taken mid-replay for
// time-series windows.
func (s *Service) Metrics() *obs.Registry {
	if s.trace == nil && s.mon == nil {
		return nil
	}
	return s.metrics
}

// Monitor returns the service's SLO monitor, or nil when monitoring is
// off (WithMonitor not applied). The nil monitor is safe to read —
// Series/Alerts/Endpoints return empty, the exporters write nothing —
// so callers may chain without a guard. After a laned replay it holds
// the merged time-series and alert log of every lane.
func (s *Service) Monitor() *monitor.Monitor { return s.mon }

// SubmitOptions carries per-request scheduling metadata.
type SubmitOptions struct {
	// Deadline is the completion budget relative to the request's arrival
	// time; 0 means none. Under DeadlineAdmission, requests that cannot
	// meet their deadline are shed (ErrShed) or rerouted.
	Deadline time.Duration
}

// submit is the common submission path. notify, when non-nil, is installed
// on the handle before any validation can fail it, so a replay observes
// every resolution — including synchronous rejects — through one hook and
// never needs to retain the handle itself. idx is the
// request's sampling index: replay paths pass the query's position in
// the original trace (mode-stable), one-at-a-time Submits a service-local
// sequence.
func (s *Service) submit(name string, input *sparse.Dense, at time.Duration, opts SubmitOptions, notify func(*Handle), idx int) *Handle {
	h := &Handle{svc: s, endpoint: name, notify: notify}
	s.pending[h] = struct{}{}
	ep := s.byName[name]
	if ep == nil {
		h.fail(s.Now(), fmt.Errorf("serve: unknown endpoint %q", name))
		return h
	}
	if input == nil || input.Cols == 0 {
		h.fail(s.Now(), fmt.Errorf("serve: endpoint %q: empty input", name))
		return h
	}
	if input.Rows != ep.m.Spec.Neurons {
		h.fail(s.Now(), fmt.Errorf("serve: endpoint %q: input has %d rows, model expects %d",
			name, input.Rows, ep.m.Spec.Neurons))
		return h
	}
	if opts.Deadline < 0 {
		h.fail(s.Now(), fmt.Errorf("serve: endpoint %q: negative deadline %v", name, opts.Deadline))
		return h
	}
	delay := at - s.Now()
	s.env.K.At(delay, func() {
		now := s.Now()
		r := &request{
			h:     h,
			input: input,
			info:  RequestInfo{Arrived: now, Samples: input.Cols},
		}
		if opts.Deadline > 0 {
			r.info.Deadline = now + opts.Deadline
		}
		if t := s.trace; t != nil && t.Sample(idx) {
			r.span = t.Start(ep.name, "request", obs.KindRequest, 0)
			r.span.SetAsync("q" + strconv.Itoa(idx))
			r.span.SetAttr("samples", strconv.Itoa(input.Cols))
		}
		ep.sched.admit(r)
	})
	return h
}

// Run drives the shared simulation until every submitted request has
// drained. It may be called repeatedly; submissions made after a Run are
// served by the next one. If the simulation itself fails, the error is
// surfaced on every unresolved handle as well as returned, so no Wait
// silently loses it.
func (s *Service) Run() error {
	if err := s.env.K.Run(); err != nil {
		err = fmt.Errorf("serve: %w", err)
		now := s.env.K.Now()
		for h := range s.pending {
			h.fail(now, err)
		}
		return err
	}
	return nil
}

// mergeTile is how many one-column members mergeInputs places together:
// 16 float32s, one 64-byte cache line of an output row.
const mergeTile = 16

// mergeInputs concatenates the batch's activation matrices column-wise
// into one engine input, in admission order: a lone member's own matrix, or
// spare's buffer filled with the members (mergeInto writes every element).
func mergeInputs(neurons int, b *batch, spare *sparse.Spare) *sparse.Dense {
	if len(b.reqs) == 1 {
		return b.reqs[0].input
	}
	return mergeInto(spare.Take(neurons, b.samples), b)
}

// mergeInto fills out, of the batch's shape, from the batch's members. A run
// of mergeTile one-column members — a streamed query is one sample — is
// placed as one tile, row by row, so each output line is written once;
// copied member by member, each would write its column to every row, 16 KiB
// apart at 4096 columns and so all in one L1 set, and the next member's
// column would miss every line again. A wider member is copied whole.
// BenchmarkMergeSlice (N=64, 4096 columns, one vCPU of a Xeon with a 48 KiB
// L1d, ms to merge a batch from members of one width, five runs): the tiles
// 0.26 - 0.33 at width 1, where one copyBlock per member takes 1.16 - 1.21
// and a copy per member row 2.38 - 2.60.
func mergeInto(out *sparse.Dense, b *batch) *sparse.Dense {
	off := 0
	for i := 0; i < len(b.reqs); {
		if tile := b.reqs[i:min(i+mergeTile, len(b.reqs))]; len(tile) == mergeTile && oneColumn(tile) {
			var col [mergeTile][]float32
			for k, r := range tile {
				col[k] = r.input.Data[:out.Rows]
			}
			for row := 0; row < out.Rows; row++ {
				d := (*[mergeTile]float32)(out.Data[row*out.Cols+off:])
				for k := range col {
					d[k] = col[k][row]
				}
			}
			i, off = i+mergeTile, off+mergeTile
			continue
		}
		in := b.reqs[i].input
		copyBlock(out.Data[off:], out.Cols, in.Data, in.Cols, out.Rows, in.Cols)
		i, off = i+1, off+in.Cols
	}
	return out
}

// oneColumn reports whether every request in reqs is one sample wide.
func oneColumn(reqs []*request) bool {
	for _, r := range reqs {
		if r.input.Cols != 1 {
			return false
		}
	}
	return true
}

// sliceCols copies columns [off, off+cols) of src into a fresh matrix.
func sliceCols(src *sparse.Dense, off, cols int) *sparse.Dense {
	if off == 0 && cols == src.Cols {
		return src
	}
	out := sparse.NewDense(src.Rows, cols)
	copyBlock(out.Data, cols, src.Data[off:], src.Cols, src.Rows, cols)
	return out
}

// copyBlock copies a rows x cols block between two row-major matrices whose
// rows are dstStride and srcStride apart; dst and src start at the block's
// first element. mergeInto runs it for every member outside a tile, and
// sliceCols (so Response.Output) for every member. BenchmarkMergeSlice
// (N=64, 4096 columns, one vCPU, ms per batch of members of one width, five
// runs): it merges width-8 members in 0.23 - 0.31 against a copy per row's
// 0.33 - 0.37, and width-64 members in 0.18 - 0.22 against 0.09; the
// sporadic workloads send 8 samples a query. Slicing every member back out
// takes 1.19 - 1.76, 0.59 - 0.78 and 0.35 - 0.54 at widths 1, 8 and 64
// against 2.03 - 2.59, 0.54 - 0.64 and 0.24 - 0.27, mostly allocation; a
// replay without Verify slices nothing.
func copyBlock(dst []float32, dstStride int, src []float32, srcStride, rows, cols int) {
	for r := 0; r < rows; r++ {
		d := dst[r*dstStride : r*dstStride+cols]
		for j, v := range src[r*srcStride : r*srcStride+cols] {
			d[j] = v
		}
	}
}

// Handle is the pending result of one submitted request.
type Handle struct {
	svc      *Service
	endpoint string
	done     bool
	resp     *Response
	err      error
	finished time.Duration
	// notify, when set, observes the handle's resolution (success or
	// failure) exactly once. Replays account and release handles through
	// it instead of holding them all until the run drains.
	notify func(*Handle)
}

// Response is one request's resolved result. It holds the whole output of
// the engine run the request rode in, not a copy of its own columns, so a
// Response keeps its run's output alive for as long as it is reachable.
type Response struct {
	// Samples is the request's width: its columns of the run's output.
	Samples int
	// out is the run's output; the request's columns start at off.
	out *sparse.Dense
	off int
	// Latency is arrival to result availability, including coalescing
	// wait and admission queueing.
	Latency time.Duration
}

// Output returns this request's columns of the run's activation output.
// A request that rode in a coalesced batch gets a fresh copy on every call,
// which the caller may change without touching the run's output or another
// call's copy; a request that had its run alone gets the run's own matrix.
func (r *Response) Output() *sparse.Dense { return sliceCols(r.out, r.off, r.Samples) }

// complete and fail resolve a handle; each handle resolves once.
func (h *Handle) complete(now time.Duration, resp *Response) {
	h.done = true
	h.resp = resp
	h.finished = now
	delete(h.svc.pending, h)
	if h.notify != nil {
		h.notify(h)
	}
}

func (h *Handle) fail(now time.Duration, err error) {
	h.done = true
	h.err = err
	h.finished = now
	delete(h.svc.pending, h)
	if h.notify != nil {
		h.notify(h)
	}
}
