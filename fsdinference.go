// Package fsdinference is a faithful reproduction of FSD-Inference (Oakley
// & Ferhatosmanoglu, ICDE 2024): fully serverless distributed DNN inference
// with scalable cloud communication, together with the complete simulated
// cloud substrate it runs on.
//
// The package exposes the library's public surface; implementations live in
// internal packages. A minimal session:
//
//	m, _ := fsdinference.GenerateModel(fsdinference.GraphChallengeSpec(1024, 120, 1))
//	plan, _ := fsdinference.BuildPlan(m, 20, fsdinference.HGPDNN, fsdinference.PartitionOptions{Seed: 1})
//	d, _ := fsdinference.Deploy(fsdinference.NewEnv(), fsdinference.Config{
//		Model: m, Plan: plan, Channel: fsdinference.Queue,
//	})
//	input := fsdinference.GenerateInputs(1024, 64, 0.2, 2)
//	res, _ := d.Infer(input)
//	fmt.Println(res.Latency, res.Cost.Total())
//
// Everything runs on a deterministic discrete-event simulation of AWS-like
// services (Lambda, SNS, SQS, S3, EC2): latencies are virtual, costs are
// metered from billed requests, and the sparse math executes for real so
// outputs can be checked against Reference.
package fsdinference

import (
	"time"

	"fsdinference/internal/baselines"
	"fsdinference/internal/cloud/env"
	"fsdinference/internal/collective"
	"fsdinference/internal/core"
	"fsdinference/internal/model"
	"fsdinference/internal/obs"
	"fsdinference/internal/obs/monitor"
	"fsdinference/internal/partition"
	"fsdinference/internal/plan"
	"fsdinference/internal/serve"
	"fsdinference/internal/sparse"
	"fsdinference/internal/workload"
)

// Model building blocks.
type (
	// Model is a sparse DNN (Graph Challenge-style).
	Model = model.Model
	// ModelSpec describes a synthetic sparse DNN.
	ModelSpec = model.Spec
	// Dense is a dense activation matrix (rows = neurons, cols = samples).
	Dense = sparse.Dense
	// CSR is a compressed sparse row weight matrix.
	CSR = sparse.CSR
)

// GraphChallengeSpec returns the paper's benchmark configuration for a
// neuron count and layer count.
func GraphChallengeSpec(neurons, layers int, seed int64) ModelSpec {
	return model.GraphChallengeSpec(neurons, layers, seed)
}

// GenerateModel builds a deterministic synthetic sparse DNN.
func GenerateModel(spec ModelSpec) (*Model, error) { return model.Generate(spec) }

// GenerateInputs builds a batch of thresholded sparse inputs.
func GenerateInputs(neurons, batch int, density float64, seed int64) *Dense {
	return model.GenerateInputs(neurons, batch, density, seed)
}

// Reference runs serial float64 inference as ground truth.
func Reference(m *Model, input *Dense) *Dense { return model.Reference(m, input) }

// OutputsClose compares activation matrices within a tolerance.
func OutputsClose(a, b *Dense, tol float64) bool { return model.OutputsClose(a, b, tol) }

// Partitioning.
type (
	// Plan is an offline model partitioning across P workers.
	Plan = partition.Plan
	// PartitionScheme selects Block, Random (RP) or HGPDNN.
	PartitionScheme = partition.Scheme
	// PartitionOptions controls plan construction.
	PartitionOptions = partition.Options
)

// Partitioning schemes (paper §III, Table III).
const (
	Block  = partition.Block
	Random = partition.Random
	HGPDNN = partition.HGPDNN
)

// BuildPlan partitions a model across the given worker count.
func BuildPlan(m *Model, workers int, scheme PartitionScheme, opts PartitionOptions) (*Plan, error) {
	return partition.BuildPlan(m, workers, scheme, opts)
}

// Env is one simulated cloud region (Lambda, SNS, SQS, S3, EC2).
type Env = env.Env

// NewEnv builds an environment with calibrated AWS-like defaults.
func NewEnv() *Env { return env.NewDefault() }

// The FSD-Inference engine.
type (
	// Config describes one FSD-Inference deployment.
	Config = core.Config
	// Deployment is a deployed FSD-Inference application.
	Deployment = core.Deployment
	// Result reports one inference request.
	Result = core.Result
	// WorkerMetrics reports one worker's activity.
	WorkerMetrics = core.WorkerMetrics
	// ChannelKind selects the communication variant.
	ChannelKind = core.ChannelKind
	// LaunchMode selects the worker-tree launch mechanism.
	LaunchMode = core.LaunchMode
)

// Communication variants (paper §III, plus the provisioned in-memory
// store of §II-D: memory-speed ops billed by node-hour, not per request,
// and the size-aware hybrid built on top of it).
const (
	Serial = core.Serial
	Queue  = core.Queue
	Object = core.Object
	Memory = core.Memory
	// Hybrid routes each value by size: control traffic at or below
	// Config.HybridThresholdBytes rides the in-memory store inline, bulk
	// tensors are chunked into object storage and announced by an inline
	// pointer, fetched through a pipelined chunk pool.
	Hybrid = core.Hybrid
)

// ParseChannelKind returns the variant whose command-line spelling is s
// (serial, queue, object, memory, hybrid).
func ParseChannelKind(s string) (ChannelKind, error) { return core.ParseChannelKind(s) }

// The collectives subsystem (internal/collective): the Barrier and the
// Gather or Allreduce that close every request, over the deployment's
// channel, under flat (the paper's root-funnelled pattern), binomial-tree
// or ring topologies, or the analytically cheapest of the three per call
// from the channel's latency/bandwidth traits. Config.Collective selects one,
// and Config.AllreduceOutput materialises the reduced inference output at
// every worker instead of only worker 0.
type CollectiveAlgorithm = collective.Algorithm

// Collective topologies (the two a caller of this package names; the rest
// are internal/collective's).
const (
	FlatCollective = collective.Flat
	TreeCollective = collective.Tree
)

// Launch mechanisms (paper §III and the launch ablation).
const (
	Hierarchical = core.Hierarchical
	Centralized  = core.Centralized
	TwoLevel     = core.TwoLevel
)

// Deploy validates a configuration, stages the model and creates all
// communication resources and functions. Deploy/Infer is the one-shot
// compatibility path: each Infer owns the kernel until its run drains.
// Long-lived, concurrent serving goes through NewService.
func Deploy(e *Env, cfg Config) (*Deployment, error) { return core.Deploy(e, cfg) }

// The serving layer: a long-lived multi-model endpoint with asynchronous
// Submit, per-endpoint admission queues under pluggable scheduling
// policies (FIFO, priority, deadline-aware with shedding/rerouting),
// request coalescing into batched engine runs (the upstream buffering the
// paper assumes in §V-B2), replica pools sized by pluggable scaling
// policies (fixed or autoscaling from queue depth and arrival rate, with
// metered cold starts and replica-hours), run multiplexing on every
// channel, and trace replay that turns the §VI-C daily-cost comparison
// from arithmetic into measurement:
//
//	svc, _ := fsdinference.NewService(env,
//		fsdinference.WithEndpoint("small", mSmall),
//		fsdinference.WithEndpoint("large", mLarge,
//			fsdinference.WithChannel(fsdinference.Queue), fsdinference.WithWorkers(20)),
//		fsdinference.WithCoalescing(64, 500*time.Millisecond),
//		fsdinference.WithScaling(fsdinference.Autoscaler(fsdinference.AutoscalerOptions{Min: 1, Max: 4})),
//		fsdinference.WithAdmission(fsdinference.DeadlineAdmission(true)),
//	)
//	h := svc.SubmitWith("small", input, at, fsdinference.SubmitOptions{Priority: 2})
//	resp, _ := h.Wait()                 // drives one shared simulated-time run
//	report, _ := svc.Replay(fsdinference.WorkloadDay(100*32, sizes, 32, 7), fsdinference.ReplayOptions{})
type (
	// Service is a long-lived multi-model serving endpoint.
	Service = serve.Service
	// ServiceOption configures a Service.
	ServiceOption = serve.Option
	// EndpointOption configures one Service endpoint.
	EndpointOption = serve.EndpointOption
	// Handle is the pending result of one Submit.
	Handle = serve.Handle
	// Response is one request's resolved result.
	Response = serve.Response
	// SubmitOptions carries per-request scheduling metadata (priority,
	// deadline).
	SubmitOptions = serve.SubmitOptions
	// ServiceReport is the measured outcome of a trace replay.
	ServiceReport = serve.Report
	// EndpointReport is one endpoint's share of a replay.
	EndpointReport = serve.EndpointReport
	// PriorityLatency is one priority class's latency distribution.
	PriorityLatency = serve.PriorityLatency
	// LatencyStats summarises a latency distribution (p50/p95/p99...).
	LatencyStats = serve.LatencyStats
	// ReplayOptions tunes a trace replay.
	ReplayOptions = serve.ReplayOptions

	// AdmissionPolicy orders an endpoint's admission queue and decides
	// shedding/rerouting at dispatch time.
	AdmissionPolicy = serve.AdmissionPolicy
	// ScalingPolicy sizes an endpoint's replica pool.
	ScalingPolicy = serve.ScalingPolicy
	// RequestInfo is a policy's view of one queued request.
	RequestInfo = serve.RequestInfo
	// PoolState is a scaling policy's view of one endpoint's scheduler.
	PoolState = serve.PoolState
	// AutoscalerOptions tunes the demand-driven scaling policy.
	AutoscalerOptions = serve.AutoscalerOptions
	// SLOOptions configures deploy-time planning and drift re-planning
	// for an endpoint.
	SLOOptions = serve.SLOOptions
)

// ErrShed marks a request rejected by a deadline admission policy; test
// with errors.Is.
var ErrShed = serve.ErrShed

// FIFO returns the default admission policy: strict arrival order.
func FIFO() AdmissionPolicy { return serve.FIFO() }

// PriorityAdmission dispatches higher-priority requests first.
func PriorityAdmission() AdmissionPolicy { return serve.PriorityAdmission() }

// DeadlineAdmission is earliest-deadline-first with shedding of requests
// that cannot meet their deadline; reroute offers shed requests to a
// sibling endpoint serving the same model size first.
func DeadlineAdmission(reroute bool) AdmissionPolicy { return serve.DeadlineAdmission(reroute) }

// FixedPool keeps a static replica pool of n (the WithReplicas behaviour).
func FixedPool(n int) ScalingPolicy { return serve.FixedPool(n) }

// Autoscaler grows and shrinks the pool from queue depth and arrival rate.
func Autoscaler(o AutoscalerOptions) ScalingPolicy { return serve.Autoscaler(o) }

// NewService builds a multi-model serving endpoint on the environment.
func NewService(e *Env, opts ...ServiceOption) (*Service, error) { return serve.NewService(e, opts...) }

// WithEndpoint registers a named model endpoint.
func WithEndpoint(name string, m *Model, opts ...EndpointOption) ServiceOption {
	return serve.WithEndpoint(name, m, opts...)
}

// WithCoalescing sets the service-wide request-coalescing policy: batches
// close at maxBatch buffered samples or after maxDelay from the first
// queued request.
func WithCoalescing(maxBatch int, maxDelay time.Duration) ServiceOption {
	return serve.WithCoalescing(maxBatch, maxDelay)
}

// WithReplicas sets the service-wide warm-pool size per endpoint
// (shorthand for WithScaling(FixedPool(n))).
func WithReplicas(n int) ServiceOption { return serve.WithReplicas(n) }

// WithAdmission sets the service-wide admission policy (default FIFO).
func WithAdmission(p AdmissionPolicy) ServiceOption { return serve.WithAdmission(p) }

// WithScaling sets the service-wide scaling policy (default FixedPool).
func WithScaling(p ScalingPolicy) ServiceOption { return serve.WithScaling(p) }

// WithRunConcurrency sets how many engine runs one replica may overlap
// (default 1); runs are isolated per run id on every channel.
func WithRunConcurrency(n int) ServiceOption { return serve.WithRunConcurrency(n) }

// WithChannel selects an endpoint's communication variant.
func WithChannel(k ChannelKind) EndpointOption { return serve.WithChannel(k) }

// WithWorkers sets an endpoint's FaaS worker parallelism (a partition
// plan is built automatically).
func WithWorkers(p int) EndpointOption { return serve.WithWorkers(p) }

// Observability (internal/obs): a span tracer and metrics registry over
// simulated time. WithTracing turns both on; the tracer exports Chrome
// trace-event JSON (loadable in Perfetto or chrome://tracing, one track
// per replica, worker and KV shard) and a plain-text flame summary, the
// registry snapshots counters, gauges and log-linear latency histograms
// mid-replay. Sampling is keyed on the request's trace index, so the
// same workload at the same rate exports byte-identical traces whether
// it replays on one kernel, sharded across lanes, or streamed. With
// tracing off (the default) every hook is a single pointer check:
//
//	svc, _ := fsdinference.NewService(env, ..., fsdinference.WithTracing(100))
//	rep, _ := svc.Replay(trace, fsdinference.ReplayOptions{Seed: 7})
//	f, _ := os.Create("trace.json")
//	svc.Tracer().WriteChrome(f)          // open in https://ui.perfetto.dev
//	svc.Tracer().WriteFlame(os.Stdout)   // where did simulated time go
//	svc.Metrics().WriteText(os.Stdout)   // counters, gauges, histograms
type (
	// Tracer records simulated-time spans; obtain one from
	// Service.Tracer after WithTracing.
	Tracer = obs.Tracer
	// TraceSpan is one finished interval of simulated time.
	TraceSpan = obs.Span
	// MetricsRegistry holds the service's counters, gauges and latency
	// histograms; obtain it from Service.Metrics.
	MetricsRegistry = obs.Registry
	// Metric is one snapshotted instrument.
	Metric = obs.Metric
	// LatencyHistogram is the bounded log-linear histogram behind both
	// the serving reports and the metrics registry.
	LatencyHistogram = obs.Histogram
)

// WithTracing enables the service's simulated-time tracer and metrics
// registry, sampling one in sampleEvery requests (<= 1 samples all).
func WithTracing(sampleEvery int) ServiceOption { return serve.WithTracing(sampleEvery) }

// Monitoring (internal/obs/monitor): a simulated-time SLO monitor over
// the metrics registry. WithMonitor schedules scrapes as kernel events on
// a fixed virtual-clock interval, folds each scrape into ring-buffered
// per-endpoint time-series (RPS, windowed p95/p99, queue depth, shed and
// reroute counts, KV failovers, pool size), evaluates multi-window
// burn-rate rules against the spec's SLOs, and — unless the spec is
// Passive — feeds firing pages back into the serving layer: an SLO
// endpoint re-plans immediately with a latency-biased objective and a
// fixed endpoint gets an emergency replica. Scrapes ride the kernel, so
// single, laned and streamed replays export byte-identical series and
// alert logs; with monitoring off every hook is one pointer check:
//
//	spec := fsdinference.MonitorSpec{
//		Interval: 30 * time.Second,
//		SLOs: []fsdinference.SLO{{
//			Name: "p99", Kind: fsdinference.LatencyQuantile,
//			Target: 250 * time.Millisecond, Window: 720 * time.Hour, Objective: 0.99,
//		}},
//	}
//	svc, _ := fsdinference.NewService(env, ..., fsdinference.WithMonitor(spec))
//	rep, _ := svc.Replay(trace, fsdinference.ReplayOptions{Seed: 7})
//	svc.Monitor().WriteProm(os.Stdout)   // Prometheus-style text
//	svc.Monitor().WriteCSV(os.Stdout)    // per-window time-series
//	svc.Monitor().WriteAlerts(os.Stdout) // burn-rate alert transitions
type (
	// ServiceMonitor is the simulated-time SLO monitor; obtain one from
	// Service.Monitor after WithMonitor.
	ServiceMonitor = monitor.Monitor
	// MonitorSpec configures the monitor: scrape interval, SLOs,
	// burn-rate rules and the passive switch.
	MonitorSpec = monitor.Spec
	// SLO is one service-level objective the monitor alerts on.
	SLO = monitor.SLO
	// SLOKind selects what an SLO counts as a bad event.
	SLOKind = monitor.ObjectiveKind
	// AlertEvent is one alert transition (a rule starting or stopping
	// to fire), stamped with its simulated window boundary.
	AlertEvent = monitor.AlertEvent
	// AlertSeverity ranks an alert: page or ticket.
	AlertSeverity = monitor.Severity
	// MonitorSample is one scraped window of an endpoint's time-series.
	MonitorSample = monitor.Sample
	// EndpointHealth is the monitor's per-endpoint health state.
	EndpointHealth = monitor.Health
)

// Re-exported monitor constants.
const (
	LatencyQuantile = monitor.LatencyQuantile
	Availability    = monitor.Availability
	PageAlert       = monitor.Page
	TicketAlert     = monitor.Ticket
)

// WithMonitor enables the simulated-time SLO monitor (and the metrics
// registry it scrapes) under the given spec.
func WithMonitor(spec MonitorSpec) ServiceOption { return serve.WithMonitor(spec) }

// ParseSLO parses the fsdserve -slo flag syntax, e.g.
// "latency:p99<=250ms@0.99,endpoint=large" or "availability@0.999".
func ParseSLO(s string) (SLO, error) { return monitor.ParseSLO(s) }

// WithSLO lets an endpoint pick its channel and worker parallelism at
// deploy time via the workload-aware Planner, given latency/cost
// priorities, and re-plan when the observed workload drifts — batch width
// or arrival rate across the memory break-even, with the scheduler's live
// WorkloadProfile fed into Replan.
func WithSLO(o SLOOptions) EndpointOption { return serve.WithSLO(o) }

// Sporadic workload traces (paper §VI-C, Fig. 4).
type (
	// Query is one sporadic inference request in a trace.
	Query = workload.Query
	// TraceStream yields a workload trace incrementally for streaming
	// replay (Service.ReplayStream): million-query days never
	// materialise as one slice. It is the same replay engine as
	// Service.Replay, so every ReplayOptions field applies, Verify
	// included; only the latency percentiles differ (histogram bucket
	// bounds instead of exact nearest-rank values).
	TraceStream = workload.TraceStream
)

// DiurnalDay streams a day of total queries with a diurnal arrival
// profile (afternoon peak, pre-dawn trough) spread round-robin over the
// model sizes, in batches of batch queries, without materialising the
// trace. Deterministic in seed.
func DiurnalDay(total int, sizes []int, samplesPerQuery int, seed int64, batch int) TraceStream {
	return workload.DiurnalDay(total, sizes, samplesPerQuery, seed, batch)
}

// WorkloadDay generates a deterministic sporadic day of queries:
// totalSamples split into batches of samplesPerQuery, spread evenly over
// the model sizes, with seeded uniform-random arrival times.
func WorkloadDay(totalSamples int, sizes []int, samplesPerQuery int, seed int64) []Query {
	return workload.Day(totalSamples, sizes, samplesPerQuery, seed)
}

// Workload-aware configuration planning (the extension the paper names in
// §VI-D1: runtime selection of the optimal configuration given latency and
// cost priorities, grown into one subsystem). A Planner enumerates
// candidates over the four channels, a worker grid and the provisioned
// store's node catalogue, prunes the grid with the §IV analytic cost model
// before simulated trials, and ranks the survivors under a pluggable
// objective. Plan scores an assumed workload; Replan re-scores an observed
// WorkloadProfile — the serving layer's scheduler emits one live, so under
// WithSLO the memory channel's idle billing is charged at the observed
// daily volume instead of one probe's share:
//
//	p, _ := fsdinference.NewPlanner(m, fsdinference.PlannerOptions{
//		Objective: fsdinference.CostObjective(),
//		Grid:      fsdinference.PlannerGrid{Workers: []int{8, 20}},
//	})
//	d, _ := p.Plan(fsdinference.WorkloadProfile{QueriesPerDay: 20})
//	fmt.Println(d.Best, d.Pruned, "of", d.Candidates, "pruned analytically")
//	d2, _ := p.Replan(fsdinference.WorkloadProfile{QueriesPerDay: 200000})
//	fmt.Println(d2.Changed, d2.Best) // sustained volume flips the channel
type (
	// Planner selects deployment configurations for one model.
	Planner = plan.Planner
	// PlannerOptions configures a Planner.
	PlannerOptions = plan.Options
	// PlannerGrid bounds the candidate enumeration (channels, worker
	// counts, provisioned-store node types).
	PlannerGrid = plan.Grid
	// PlanObjective ranks trialed candidates (lower score wins).
	PlanObjective = plan.Objective
	// PlanNorms carries the normalisation constants objectives score
	// against.
	PlanNorms = plan.Norms
	// WorkloadProfile describes an assumed or observed workload
	// (queries/day, batch width, arrival-rate EWMA, burstiness).
	WorkloadProfile = plan.WorkloadProfile
	// PlanDecision reports one Plan/Replan outcome: the pick, every
	// trial (pruned ones with reasons), the measured memory break-even
	// and whether the decision changed.
	PlanDecision = plan.Decision
	// PlanCandidate is one configuration the planner considers.
	PlanCandidate = plan.Candidate
	// PlanTrial is one candidate's analytic verdict or measured trial.
	PlanTrial = plan.Trial
	// ReplanEvent records one SLO-driven configuration change in a
	// ServiceReport.
	ReplanEvent = serve.ReplanEvent
)

// NewPlanner builds a workload-aware configuration planner for a model.
func NewPlanner(m *Model, opts PlannerOptions) (*Planner, error) { return plan.New(m, opts) }

// WeightedObjective blends normalised latency and cost at the given
// latency weight in [0,1] (the legacy AutoSelect objective).
func WeightedObjective(latencyWeight float64) PlanObjective {
	return plan.WeightedObjective(latencyWeight)
}

// LatencyObjective ranks candidates by probe latency alone.
func LatencyObjective() PlanObjective { return plan.LatencyObjective() }

// CostObjective ranks candidates by per-query cost alone, with the memory
// channel's node-hours amortised over the profile's daily volume.
func CostObjective() PlanObjective { return plan.CostObjective() }

// DeadlineObjective ranks deadline-feasible candidates by cost; the
// fastest candidate wins when none meets the deadline.
func DeadlineObjective(deadline time.Duration) PlanObjective {
	return plan.DeadlineObjective(deadline)
}

// BaselineResult reports one baseline query (paper §VI-A2, §VI-B).
type BaselineResult = baselines.Result

// RunJobScoped provisions a right-sized server per query.
func RunJobScoped(e *Env, m *Model, input *Dense) (*BaselineResult, error) {
	return baselines.RunJobScoped(e, m, input)
}
