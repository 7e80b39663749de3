// Package serve implements the FSD-Inference serving layer: a long-lived,
// multi-model Service endpoint over the simulated cloud. Where core.Infer
// is one-shot — one request owning the whole kernel run — a Service
// accepts asynchronous Submits and keeps many requests in flight inside a
// single simulated-time run, realising the upstream buffering the paper
// assumes for its sporadic workloads (§V-B2, §VI-C).
//
// Each named endpoint owns one model and a replica pool of deployments
// managed by a policy-driven scheduler (scheduler.go, policy.go). Requests
// pass through a per-endpoint coalescing window into an admission queue
// ordered by a pluggable admission policy — FIFO, priority, or
// deadline-aware with shedding/rerouting — and dispatch to replicas with
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
	name      string
	m         *model.Model
	channel   core.ChannelKind
	chanSet   bool
	workers   int
	scheme    partition.Scheme
	seed      int64
	admission AdmissionPolicy
	slo       *SLOOptions
	mutate    func(*core.Config)
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

// WithTracing enables the service's simulated-time tracer and metrics
// registry (internal/obs), sampling one in sampleEvery requests
// (sampleEvery <= 1 traces every request). Sampling is keyed on the
// request's position in the replayed trace, so the same workload at the
// same rate selects the same requests — and exports byte-identical
// Chrome traces — whether it replays on one shared kernel, sharded
// across lanes, or streamed. The option carries configuration rather
// than a tracer instance: each replay lane builds a tracer bound to its
// own kernel clock and the lanes merge afterwards.
func WithTracing(sampleEvery int) Option {
	return func(c *serviceConfig) { c.tracing = true; c.traceEvery = sampleEvery }
}

// WithMonitor enables the simulated-time SLO monitor (internal/obs/
// monitor): the metrics registry is turned on (tracing stays off unless
// WithTracing is also applied), every endpoint's instruments are
// registered as a scrape target, and replays drive the scrape loop as
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

// WithEndpointAdmission overrides the admission policy for this endpoint.
func WithEndpointAdmission(p AdmissionPolicy) EndpointOption {
	return func(ec *endpointConfig) { ec.admission = p }
}

// WithSLO lets the endpoint pick its own channel and worker parallelism at
// deploy time via the workload-aware Planner (internal/plan), given
// latency/cost priorities, and re-plan when the observed workload drifts:
// run batch width by ReselectFactor, or the arrival rate across the
// memory channel's break-even volume (SLOOptions). It conflicts with
// WithChannel and WithWorkers.
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

	// trace is nil unless WithTracing was applied; metrics is nil unless
	// WithTracing or WithMonitor was; mon is nil unless WithMonitor was.
	// Every hot path guards on the nil, which is the whole cost of the
	// observability-off mode.
	trace   *obs.Tracer
	metrics *obs.Registry
	mon     *monitor.Monitor
	// submitSeq numbers interactive Submits for sampling. Replay paths
	// bypass it and sample on the query's trace index instead, which is
	// what makes lane-vs-single traces identical.
	submitSeq int
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
	// met caches the endpoint's registry instruments; nil when metrics
	// are off.
	met *epMetrics

	stats endpointStats
}

// sloState tracks an SLO-configured endpoint's observed workload for
// drift-triggered re-planning. The planner caches its trial measurements,
// so a re-plan under an unchanged batch width re-scores rather than
// re-simulates.
type sloState struct {
	opts       SLOOptions
	planner    *plan.Planner
	decision   *plan.Decision
	probeBatch float64
	ewmaBatch  float64
	runs       int
}

type request struct {
	h        *Handle
	input    *sparse.Dense
	arrived  time.Duration
	seq      int
	priority int
	deadline time.Duration // absolute virtual time; 0 = none
	samples  int
	rerouted bool
	// span is the request's trace span (zero when unsampled); phase is
	// the currently open serving stage within it (coalesce, queue).
	span  obs.SpanRef
	phase obs.SpanRef
}

func (r *request) info() RequestInfo {
	return RequestInfo{
		Seq:      r.seq,
		Arrived:  r.arrived,
		Priority: r.priority,
		Deadline: r.deadline,
		Samples:  r.samples,
	}
}

type batch struct {
	reqs    []*request
	samples int
}

// endpointStats counts run- and scheduler-level activity. Request-level
// metrics live on the handles. A replay's window restarts them at zero
// (openWindow), so they describe that window alone.
type endpointStats struct {
	Runs        int
	FailedRuns  int
	RunSamples  int
	RunRequests int
	MaxSamples  int
	ColdStarts  int
	WarmStarts  int
	Cost        usage.Breakdown

	Shed           int
	Rerouted       int
	DeadlineMissed int
	ScaleUps       int
	ScaleDowns     int
	DeployFailures int
	Reselections   int
	MaxConcurrent  int
	PeakReplicas   int
	ReplicaSeconds float64
	// Replans records every SLO-driven configuration change in order;
	// Reselections also counts planner re-runs that kept the
	// configuration.
	Replans []ReplanEvent
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
	}
	if cfg.tracing {
		// Built before the endpoints so initial replica deployments are
		// traced too. The tracer reads this environment's kernel clock,
		// so each lane clone gets one bound to its own kernel.
		s.trace = obs.New(e.K.Clock(), cfg.traceEvery)
	}
	if cfg.tracing || cfg.monitoring {
		s.metrics = obs.NewRegistry()
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
			s.mon.Register(ep.met.target())
		}
		if !cfg.monSpec.Passive {
			s.mon.Subscribe(s.onAlert)
		}
	}
	return s, nil
}

// onAlert closes the monitor→control loop: a page-severity burn-rate
// alert starting to fire triggers an immediate, alert-driven re-plan on
// an SLO endpoint (bypassing the MinRuns drift gate) or an emergency
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
		obj := slo.Objective
		if obj == nil {
			obj = plan.WeightedObjective(slo.LatencyWeight)
		}
		// The pre-filter stays off so the initial pick matches the golden
		// pick grid recorded from the legacy AutoSelect (internal/plan's
		// oneshot_test.go); re-plans re-score cached trials anyway.
		planner, err := plan.New(ec.m, plan.Options{
			Objective:        obj,
			Grid:             plan.Grid{Channels: slo.Channels, Workers: slo.Workers},
			DisablePrefilter: true,
			Seed:             slo.Seed,
		})
		if err != nil {
			return nil, fmt.Errorf("serve: endpoint %q: %w", ec.name, err)
		}
		ep.slo = &sloState{opts: slo, planner: planner, probeBatch: float64(slo.ProbeBatch)}
		dcfg, err := ep.selectConfig(plan.WorkloadProfile{BatchSamples: slo.ProbeBatch})
		if err != nil {
			return nil, fmt.Errorf("serve: endpoint %q: %w", ec.name, err)
		}
		ep.dcfg = dcfg
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
		ep.dcfg = core.Config{
			Model:    ec.m,
			Plan:     plan,
			Channel:  channel,
			PollWait: 2 * time.Second,
		}
		if ec.mutate != nil {
			ec.mutate(&ep.dcfg)
		}
	}

	if cfg.policy.maxBatch < 0 || cfg.policy.maxDelay < 0 {
		return nil, fmt.Errorf("serve: endpoint %q: negative coalescing policy", ec.name)
	}
	admission := cfg.admission
	if ec.admission != nil {
		admission = ec.admission
	}
	if admission == nil {
		admission = FIFO()
	}
	scaling := cfg.scaling
	if scaling == nil {
		scaling = FixedPool(cfg.replicas)
	}

	ep.sched = newScheduler(ep, cfg.policy, admission, scaling, cfg.runConc)
	if s.metrics != nil {
		ep.met = newEpMetrics(s.metrics, ep.name)
	}
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
	ep.met.setPoolSize(len(ep.sched.pool))
	return ep, nil
}

// deployReplica deploys one replica from the endpoint's current template.
// With tracing on, the deployment's trace scope is stamped with a
// replay-mode-independent track — the endpoint name plus a per-endpoint
// replica ordinal — so engine-side spans land on the same timeline
// whether the endpoint runs on the shared kernel or inside a lane. A
// refused deploy is counted (DeployFailures, deploy_failures_total) and
// returned; the caller goes on with the pool it has.
func (ep *Endpoint) deployReplica() (*replica, error) {
	dcfg := ep.dcfg
	var track string
	if t := ep.svc.trace; t != nil {
		track = fmt.Sprintf("%s/r%d", ep.name, ep.replicaSeq)
		dcfg.Trace = obs.Scope{T: t, Track: track}
	}
	if m := ep.met; m != nil {
		// Thread the endpoint's KV instruments down to the deployment's
		// kvclusters so shard failovers land in the scrapeable registry.
		dcfg.KVFailoverCounter = m.kvFailovers
		dcfg.KVLostValuesCounter = m.kvLostValues
	}
	ep.replicaSeq++
	d, err := core.Deploy(ep.svc.env, dcfg)
	if err != nil {
		ep.stats.DeployFailures++
		ep.met.deployFailed()
		return nil, err
	}
	ep.cfg = d.Cfg // defaults applied
	return &replica{d: d, track: track}, nil
}

// selectConfig plans (or re-plans) the endpoint's configuration for a
// workload profile and returns the chosen deployment template.
func (ep *Endpoint) selectConfig(profile plan.WorkloadProfile) (core.Config, error) {
	st := ep.slo
	var d *plan.Decision
	var err error
	if st.decision == nil {
		d, err = st.planner.Plan(profile)
	} else {
		d, err = st.planner.Replan(profile)
	}
	if err != nil {
		return core.Config{}, err
	}
	st.decision = d
	dcfg := d.Config
	if ep.mutate != nil {
		ep.mutate(&dcfg)
	}
	return dcfg, nil
}

// observeRun feeds one completed run's batch width to the SLO machinery.
// Two drifts trigger a re-plan: the batch-width EWMA moving from the
// probe assumption by ReselectFactor, and the observed arrival rate
// crossing the memory channel's break-even daily volume — the signal that
// flips the provisioned-versus-per-request economics. A re-plan feeds the
// scheduler's live WorkloadProfile into Planner.Replan, so the decision
// finally accounts for provisioned idle billing, and replaces replicas
// (lazily, as they go idle) when the configuration changes.
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
	var reason string
	if f := st.opts.ReselectFactor; f > 1 &&
		(st.ewmaBatch >= st.probeBatch*f || st.ewmaBatch*f <= st.probeBatch) {
		reason = fmt.Sprintf("batch width drifted to %.0f from the %.0f-sample probe",
			st.ewmaBatch, st.probeBatch)
	}
	observedQPD := ep.sched.queriesPerDay()
	if d := st.decision; reason == "" && d != nil && observedQPD > 0 {
		be := d.MemoryBreakEvenQueriesPerDay
		// The hysteresis band keeps workloads hovering at the break-even
		// from flapping: the observed volume must clear the far edge of
		// the +-BreakEvenHysteresis band before the trigger fires.
		if plan.CrossedBreakEven(d.Profile.QueriesPerDay, observedQPD, be, st.opts.BreakEvenHysteresis) {
			reason = fmt.Sprintf("arrival rate crossed the memory break-even (%d vs ~%d queries/day)",
				observedQPD, be)
		}
	}
	if reason == "" {
		return
	}
	probe := int(math.Round(st.ewmaBatch))
	if probe < 1 {
		probe = 1
	}
	ep.replanTo(probe, nil, reason)
}

// replanTo re-plans the endpoint under its live workload profile at the
// given representative batch width and swaps the deployment template when
// the winning configuration changed. Shared by the drift trigger
// (observeRun) and the alert-driven path (alertReplan); obj, when
// non-nil, overrides the planner's objective for this decision only.
func (ep *Endpoint) replanTo(probe int, obj plan.Objective, reason string) {
	st := ep.slo
	st.runs = 0
	profile := ep.sched.observedProfile(probe)
	var dcfg core.Config
	var err error
	if obj != nil {
		var d *plan.Decision
		d, err = st.planner.ReplanWith(profile, obj)
		if err == nil {
			st.decision = d
			dcfg = d.Config
			if ep.mutate != nil {
				ep.mutate(&dcfg)
			}
		}
	} else {
		dcfg, err = ep.selectConfig(profile)
	}
	if err != nil {
		return // keep the current configuration; retry after MinRuns more runs
	}
	st.probeBatch = float64(probe)
	ep.stats.Reselections++
	if dcfg.Channel == ep.dcfg.Channel && dcfg.Workers() == ep.dcfg.Workers() {
		return // same configuration still wins; no redeploy needed
	}
	now := ep.svc.Now()
	ep.stats.Replans = append(ep.stats.Replans, ReplanEvent{
		At:            now,
		From:          ep.dcfg.Channel,
		FromWorkers:   ep.dcfg.Workers(),
		To:            dcfg.Channel,
		ToWorkers:     dcfg.Workers(),
		QueriesPerDay: profile.QueriesPerDay,
		Reason:        reason,
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
// immediately — the drift gate (MinRuns) is bypassed and the decision is
// re-scored under a latency-biased objective, since a burning error
// budget is exactly the regime where shaving run latency beats shaving
// cost. A fixed endpoint has no planner, so it gets an emergency replica
// instead. Alert events are edge-triggered (one per firing transition),
// which bounds the blast radius: a sustained violation re-plans once per
// rule transition, not once per scrape.
func (ep *Endpoint) alertReplan(ev monitor.AlertEvent) {
	st := ep.slo
	if st == nil {
		ep.sched.alertBoost()
		return
	}
	probe := int(math.Round(st.ewmaBatch))
	if probe < 1 {
		probe = int(math.Round(st.probeBatch))
	}
	if probe < 1 {
		probe = 1
	}
	reason := fmt.Sprintf("slo alert %s (%s): burn %.1fx/%.1fx",
		ev.SLO, ev.Severity, ev.BurnShort, ev.BurnLong)
	ep.replanTo(probe, plan.LatencyObjective(), reason)
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

// Metrics returns the service's metrics registry, or nil when both
// tracing and monitoring are off. Snapshots may be taken mid-replay for
// time-series windows.
func (s *Service) Metrics() *obs.Registry { return s.metrics }

// Monitor returns the service's SLO monitor, or nil when monitoring is
// off (WithMonitor not applied). The nil monitor is safe to read —
// Series/Alerts/Endpoints return empty, the exporters write nothing —
// so callers may chain without a guard. After a laned replay it holds
// the merged time-series and alert log of every lane.
func (s *Service) Monitor() *monitor.Monitor { return s.mon }

// SubmitOptions carries per-request scheduling metadata.
type SubmitOptions struct {
	// Priority orders dispatch under PriorityAdmission (higher first;
	// default class 0).
	Priority int
	// Deadline is the completion budget relative to the request's arrival
	// time; 0 means none. Under DeadlineAdmission, requests that cannot
	// meet their deadline are shed (ErrShed) or rerouted.
	Deadline time.Duration
}

// Submit enqueues one asynchronous request: input arrives at the named
// endpoint at virtual time at (clamped to now if already past). The
// returned handle resolves once the simulation has been driven past the
// request's completion — via Run, Replay, or the handle's own Wait.
func (s *Service) Submit(name string, input *sparse.Dense, at time.Duration) *Handle {
	return s.SubmitWith(name, input, at, SubmitOptions{})
}

// SubmitWith is Submit with per-request scheduling metadata: a priority
// class and/or a completion deadline for the admission policy.
func (s *Service) SubmitWith(name string, input *sparse.Dense, at time.Duration, opts SubmitOptions) *Handle {
	idx := s.submitSeq
	s.submitSeq++
	return s.submit(name, input, at, opts, nil, idx)
}

// submit is the common submission path. notify, when non-nil, is installed
// on the handle before any validation can fail it, so a replay observes
// every resolution — including synchronous rejects — through one hook and
// never needs to retain the handle itself. idx is the
// request's sampling index: replay paths pass the query's position in
// the original trace (mode-stable), interactive Submits a service-local
// sequence.
func (s *Service) submit(name string, input *sparse.Dense, at time.Duration, opts SubmitOptions, notify func(*Handle), idx int) *Handle {
	h := &Handle{svc: s, endpoint: name, priority: opts.Priority, notify: notify}
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
			h:        h,
			input:    input,
			arrived:  now,
			priority: opts.Priority,
			samples:  input.Cols,
		}
		if opts.Deadline > 0 {
			r.deadline = now + opts.Deadline
		}
		if t := s.trace; t != nil && t.Sample(idx) {
			r.span = t.Start(ep.name, "request", obs.KindRequest, 0)
			r.span.SetAsync("q" + strconv.Itoa(idx))
			r.span.SetAttr("samples", strconv.Itoa(r.samples))
			if r.priority != 0 {
				r.span.SetAttr("priority", strconv.Itoa(r.priority))
			}
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

// mergeInputs concatenates the batch's activation matrices column-wise
// into one engine input, in admission order.
func mergeInputs(neurons int, b *batch) *sparse.Dense {
	if len(b.reqs) == 1 {
		return b.reqs[0].input
	}
	out := sparse.NewDense(neurons, b.samples)
	off := 0
	for _, r := range b.reqs {
		copyBlock(out.Data[off:], out.Cols, r.input.Data, r.input.Cols, neurons, r.input.Cols)
		off += r.input.Cols
	}
	return out
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
// first element. A coalesced batch is mostly narrow members — a query of one
// sample is one column — and a copy call per element of a column cost more
// than the move, so a loop moves the row. BenchmarkMergeSlice (N=64, 4096
// columns, one vCPU, ms to merge a batch from members of one width): copy per
// row 1.95 - 2.05 at width 1, 0.28 - 0.34 at 8, 0.06 - 0.07 at 64; the loop
// 0.87 - 0.89, 0.19 - 0.21 and 0.14 - 0.15. Slicing the batch apart is mostly
// its allocations: 1.41 - 1.49 to 1.07 - 1.09 at width 1, 0.39 - 0.44 against
// 0.45 - 0.46 at 8, 0.22 against 0.35 - 0.38 at 64. Merge and slice together
// the loop is ahead at the widths the benchmark's workloads send (1, 4 and 8
// samples; level at 8); at 64 it gives back 0.2 ms a batch next to the 2 ms of
// one Mul, which does not pay for a second form and a width to switch on.
func copyBlock(dst []float32, dstStride int, src []float32, srcStride, rows, cols int) {
	for r := 0; r < rows; r++ {
		d := dst[r*dstStride : r*dstStride+cols]
		for j, v := range src[r*srcStride : r*srcStride+cols] {
			d[j] = v
		}
	}
}

// Handle is the pending result of one Submit.
type Handle struct {
	svc      *Service
	endpoint string
	priority int
	done     bool
	resp     *Response
	err      error
	finished time.Duration
	// notify, when set, observes the handle's resolution (success or
	// failure) exactly once. Replays account and release handles through
	// it instead of holding them all until the run drains.
	notify func(*Handle)
}

// Response is one request's resolved result.
type Response struct {
	// Endpoint and RunID identify where and in which engine run the
	// request was served.
	Endpoint string
	RunID    string
	// Output is this request's slice of the activation output.
	Output *sparse.Dense
	// Latency is arrival to result availability, including coalescing
	// wait and admission queueing.
	Latency time.Duration
	// RunLatency is the underlying engine run's latency.
	RunLatency time.Duration
	// BatchSamples and BatchRequests describe the coalesced engine run
	// this request rode in.
	BatchSamples  int
	BatchRequests int
	// CostShare is the request's per-sample share of the run's
	// ledger-reconstructed cost.
	CostShare float64
}

// Done reports whether the request has resolved.
func (h *Handle) Done() bool { return h.done }

// Err returns the request's error, if resolved and failed.
func (h *Handle) Err() error { return h.err }

// Wait drives the simulation until the request resolves and returns its
// response. Any number of handles may be waited in any order; the first
// Wait drains every in-flight request in one simulated-time run.
func (h *Handle) Wait() (*Response, error) {
	if !h.done {
		if err := h.svc.Run(); err != nil && !h.done {
			return nil, err
		}
	}
	if !h.done {
		return nil, fmt.Errorf("serve: request to %q did not complete", h.endpoint)
	}
	return h.resp, h.err
}

func (h *Handle) complete(now time.Duration, resp *Response) {
	if h.done {
		return
	}
	h.done = true
	h.resp = resp
	h.finished = now
	delete(h.svc.pending, h)
	if h.notify != nil {
		h.notify(h)
	}
}

func (h *Handle) fail(now time.Duration, err error) {
	if h.done {
		return
	}
	h.done = true
	h.err = err
	h.finished = now
	delete(h.svc.pending, h)
	if h.notify != nil {
		h.notify(h)
	}
}
