package core

import (
	"encoding/json"
	"fmt"
	"time"

	"fsdinference/internal/cloud/env"
	"fsdinference/internal/cloud/faas"
	"fsdinference/internal/cloud/kvcluster"
	"fsdinference/internal/cloud/s3"
	"fsdinference/internal/cloud/sns"
	"fsdinference/internal/cloud/sqs"
	"fsdinference/internal/obs"
	"fsdinference/internal/sim"
	"fsdinference/internal/sparse"
)

// Deployment is a deployed FSD-Inference application: pre-created
// communication resources (topics, queues, buckets — free to keep, as the
// paper notes), a staged model store, and registered functions. A
// deployment serves any number of sequential inference requests through
// Infer, or asynchronous requests through Start, which lets many runs —
// across deployments sharing one environment — progress inside a single
// simulated-time Kernel.Run.
type Deployment struct {
	Env *env.Env
	Cfg Config

	prefix    string
	topics    []*sns.Topic
	buckets   []*s3.Bucket
	kvcluster *kvcluster.Cluster
	store     *s3.Bucket

	fnWorker      string
	fnCoordinator string
	fnSerial      string

	// staged caches this deployment shape's encoded/decoded model
	// artifacts (see stagedCache).
	staged *stagedModel

	runSeq int
	// runs holds every in-flight request keyed by run id; handlers look
	// their run up by the id carried in the invocation payload.
	runs map[string]*runState
}

// runState is the per-request bookkeeping shared (host-side) between the
// client, coordinator and workers of one run.
type runState struct {
	id    string
	batch int
	input *sparse.Dense

	// queues are this run's per-worker receive queues (Queue channel
	// only): queue m is subscribed to every topic with a service-side
	// filter on (target=m, run=id), so concurrent runs of one deployment
	// never consume each other's messages.
	queues []*sqs.Queue

	// sent is the Memory channel's host-side sender log: every framed
	// value pushed during the run, keyed by target worker. Workers hold
	// their layer outputs in memory anyway, so after a lossy store
	// failover a receiver can have its missing sources re-send from
	// these buffers instead of deadlocking on values no node holds.
	// baseLost is the cluster's loss counter when the run began: only
	// failovers after it concern this run, even for workers whose
	// instances launch after the kill.
	sent     map[int32][]sentValue
	baseLost int64

	// outputs collects every worker's reduced result under
	// AllreduceOutput (index = worker id; nil otherwise).
	outputs []*sparse.Dense
	// collectives counts this run's collective calls by "op/alg" key, the
	// per-run share of the environment meter's Collectives.
	collectives map[string]int64

	rootFut      *faas.Future
	metrics      []*WorkerMetrics
	lastStart    time.Duration
	coordRuntime time.Duration
	output       *sparse.Dense
	workerErrs   []error
	// start and end bound the run in virtual time (client invoke to
	// result availability); the per-run usage reconstruction uses them to
	// attribute provisioned-capacity hours.
	start, end time.Duration

	// scope is the run's tracing scope — the deployment's scope narrowed
	// to the serving-side run span this run nests under. Zero (one
	// pointer check per hook) unless the run was sampled.
	scope obs.Scope
}

// Deploy validates the configuration, stages the partitioned model into the
// object store and creates all communication resources and functions.
// Staging happens offline (host-side) and is not billed, matching the
// paper's a-priori partitioning and resource pre-creation.
//
// Deployment names are sequenced per environment (not process-globally), so
// independent environments — e.g. parallel replay lanes — name and number
// their deployments identically and stay deterministic.
func Deploy(e *env.Env, cfg Config) (*Deployment, error) {
	cfg = cfg.withDefaults()
	if err := cfg.validate(); err != nil {
		return nil, err
	}
	prefix := fmt.Sprintf("fsd%d", e.NextDeployID())
	d := &Deployment{
		Env:           e,
		Cfg:           cfg,
		prefix:        prefix,
		fnWorker:      prefix + "-worker",
		fnCoordinator: prefix + "-coordinator",
		fnSerial:      prefix + "-serial",
		runs:          make(map[string]*runState),
	}
	d.store = e.S3.CreateBucket(prefix + "-store")
	if cfg.StoreBandwidthScale > 0 && cfg.StoreBandwidthScale != 1 {
		d.store.GetBandwidth = e.S3.Config().GetBytesPerSec * cfg.StoreBandwidthScale
		d.store.PutBandwidth = e.S3.Config().PutBytesPerSec * cfg.StoreBandwidthScale
	}
	d.stageModel()

	if provision := transports[cfg.Channel].provision; provision != nil {
		if err := provision(d); err != nil {
			return nil, err
		}
	}

	if err := d.registerFunctions(); err != nil {
		// A refused deploy must not leave provisioned capacity billing.
		d.Decommission()
		return nil, err
	}
	return d, nil
}

// stageModel writes per-worker weight row blocks (or the whole model for
// serial) into the model store. The encode/slice work is memoised across
// deployments of the same (model, plan) shape — see stagedCache.
func (d *Deployment) stageModel() {
	d.staged = stagedFor(d.Cfg)
	for key, blob := range d.staged.blobs {
		d.putStore(key, blob)
	}
}

// putStore writes a staging object host-side (offline, unbilled, no
// virtual time). It is safe to call both between kernel runs and from
// kernel context while a simulation is in flight, which lets request
// inputs be staged for runs admitted mid-simulation. The store adopts data
// without copying it: what is staged here are stagedCache's blobs, shared by
// every deployment that stages them, and a run's own input frames; nothing
// writes to either.
func (d *Deployment) putStore(key string, data []byte) {
	d.store.Stage(key, data)
}

// coordinatorMemoryMB sizes the lightweight coordinator (§VI-A1: 128 MB).
const coordinatorMemoryMB = 128

func (d *Deployment) registerFunctions() error {
	cfg := d.Cfg
	if cfg.Channel == Serial {
		return d.Env.FaaS.Register(faas.FunctionConfig{
			Name:     d.fnSerial,
			MemoryMB: cfg.SerialMemoryMB,
			Timeout:  cfg.FunctionTimeout,
			Handler:  d.serialHandler,
		})
	}
	if err := d.Env.FaaS.Register(faas.FunctionConfig{
		Name:     d.fnCoordinator,
		MemoryMB: coordinatorMemoryMB,
		Timeout:  cfg.FunctionTimeout,
		Handler:  d.coordinatorHandler,
	}); err != nil {
		return err
	}
	return d.Env.FaaS.Register(faas.FunctionConfig{
		Name:     d.fnWorker,
		MemoryMB: cfg.WorkerMemoryMB,
		Timeout:  cfg.FunctionTimeout,
		Handler:  d.workerHandler,
	})
}

// workerPayload is the (JSON) invocation payload of every function: the
// run, and the rank a worker is launched as (zero for the coordinator and
// the serial function). launch and clientRun encode it; runOf decodes it.
type workerPayload struct {
	Run  string `json:"run"`
	Rank int    `json:"rank"`
}

// runOf decodes an invocation payload and looks up the run it belongs to;
// who names the invoked handler in errors.
func (d *Deployment) runOf(who string, payload []byte) (*runState, int, error) {
	var req workerPayload
	if err := json.Unmarshal(payload, &req); err != nil {
		return nil, 0, fmt.Errorf("core: %s payload: %w", who, err)
	}
	run := d.runs[req.Run]
	if run == nil {
		return nil, 0, fmt.Errorf("core: %s invoked for unknown run %q", who, req.Run)
	}
	return run, req.Rank, nil
}

// Start begins one asynchronous inference request and returns without
// driving the simulation: it stages the input, registers the run and
// spawns the client process on the shared kernel, so any number of runs —
// on this deployment or on other deployments sharing the environment — can
// be in flight inside a single Kernel.Run. done is invoked in simulation
// context when the run completes (successfully or not); the returned run
// id identifies the request in errors and result objects.
//
// A Result delivered through Start carries per-run Usage/Cost
// reconstructed from the run's own worker-side ledgers via the paper's
// cost model (Equations (1)-(7), the §VI-F predictor), because the shared
// environment meter cannot attribute concurrently metered usage to one
// run. The synchronous Infer path reports exact metered usage instead.
//
// Any number of runs may overlap on the same deployment, whatever its
// channel: object keys are run-scoped, and the Queue channel partitions
// consumption by run id — each run gets its own per-worker queues,
// subscribed to the shared topics with a service-side filter on
// (target, run), so concurrent runs never consume each other's messages.
func (d *Deployment) Start(input *sparse.Dense, done func(*Result, error)) (string, error) {
	return d.StartTraced(input, 0, done)
}

// StartTraced is Start for a run the serving layer's tracer sampled:
// parent is the serving-side run span the engine's spans — worker
// lifetimes, channel sends and receives, collective phases — nest
// under. A zero parent, or a deployment without a tracing scope, behaves
// exactly like Start.
func (d *Deployment) StartTraced(input *sparse.Dense, parent obs.SpanID, done func(*Result, error)) (string, error) {
	if input.Rows != d.Cfg.Model.Spec.Neurons {
		return "", fmt.Errorf("core: input has %d rows, model expects %d", input.Rows, d.Cfg.Model.Spec.Neurons)
	}
	d.runSeq++
	run := &runState{
		id:    fmt.Sprintf("r%d", d.runSeq),
		batch: input.Cols,
		input: input,
	}
	if d.Cfg.Trace.T != nil && parent != 0 {
		run.scope = obs.Scope{T: d.Cfg.Trace.T, Track: d.Cfg.Trace.Track, Parent: parent}
	}
	if d.Cfg.AllreduceOutput {
		run.outputs = make([]*sparse.Dense, d.Cfg.Workers())
	}
	if err := d.stageInput(run); err != nil {
		return "", err
	}
	d.runs[run.id] = run
	if bind := transports[d.Cfg.Channel].bind; bind != nil {
		bind(d, run)
	}

	d.Env.K.Go("client-"+run.id, func(p *sim.Proc) {
		res, err := d.clientRun(p, run)
		delete(d.runs, run.id)
		d.unstageRun(run)
		if unbind := transports[d.Cfg.Channel].unbind; unbind != nil {
			unbind(d, run)
		}
		done(res, err)
	})
	return run.id, nil
}

// KVCluster returns the Memory-channel deployment's provisioned store
// cluster (nil for other channels) — the handle fault-injection
// experiments use to kill or partition shards mid-run.
func (d *Deployment) KVCluster() *kvcluster.Cluster { return d.kvcluster }

// Decommission releases the deployment's provisioned resources that bill
// while idle — the Memory channel's cache nodes, which accrue node-hours
// until released. Topics, queues and buckets are free to keep, so only
// provisioned capacity needs this. Callers reclaiming a deployment (a
// replica pool scaling down or swapping configurations) must invoke it
// once in-flight runs have drained; the deployment must not start new
// runs afterwards.
func (d *Deployment) Decommission() {
	if d.kvcluster != nil {
		d.kvcluster.Release()
		d.kvcluster = nil
	}
}

// clientRun is the client-side body of one request: invoke the serial
// function or the coordinator, wait for the result and assemble the
// Result with ledger-reconstructed usage.
func (d *Deployment) clientRun(p *sim.Proc, run *runState) (*Result, error) {
	start := p.Now()
	wrap := func(err error) error { return fmt.Errorf("core: run %s: %w", run.id, err) }
	wait := func() error {
		fn := d.fnCoordinator
		if d.Cfg.Channel == Serial {
			fn = d.fnSerial
		}
		fut, err := d.Env.FaaS.Invoke(p, fn, mustJSON(workerPayload{Run: run.id}))
		if err != nil {
			return err
		}
		if _, err := fut.Wait(p); err != nil || d.Cfg.Channel == Serial {
			return err
		}
		// The coordinator returns once it has launched its children (rank 0
		// among them, or it failed); the result is ready when rank 0
		// finishes.
		_, err = run.rootFut.Wait(p)
		return err
	}
	err := wait()
	// A worker's own error is the cause: the wait may only have seen the
	// root time out on a rank that never came.
	if len(run.workerErrs) > 0 {
		return nil, fmt.Errorf("core: run %s: worker error: %w", run.id, run.workerErrs[0])
	}
	if err != nil {
		return nil, wrap(err)
	}
	end := p.Now()
	if run.output == nil {
		return nil, fmt.Errorf("core: run %s produced no output", run.id)
	}

	run.start, run.end = start, end
	// Accrue provisioned-capacity billing up to the run's end, so meter
	// snapshots taken right after the kernel drains include it.
	d.Env.KV.Settle()
	res := &Result{
		RunID:              run.id,
		Output:             run.output,
		AllOutputs:         run.outputs,
		Latency:            end - start,
		CoordinatorRuntime: run.coordRuntime,
		Batch:              run.batch,
		Workers:            run.metrics,
	}
	d.runUsage(run, &res.Usage)
	res.Cost = res.Usage.Cost(d.Env.Pricing)
	if run.lastStart > 0 {
		res.LaunchComplete = run.lastStart - start
	}
	return res, nil
}

// Infer runs one inference request over the deployment and returns its
// result. The input is an N x batch activation matrix. Requests run
// sequentially on the deployment's environment; latencies and costs are
// reported in virtual time and metered dollars. Infer is the synchronous
// compatibility path over Start: it owns the kernel until the run drains,
// and replaces the reconstructed usage with the exact metered window.
func (d *Deployment) Infer(input *sparse.Dense) (*Result, error) {
	snap := d.Env.Meter.Snapshot()
	var res *Result
	var runErr error
	id, err := d.Start(input, func(r *Result, e error) { res, runErr = r, e })
	if err != nil {
		return nil, err
	}
	if err := d.Env.K.Run(); err != nil {
		return nil, fmt.Errorf("core: run %s: %w", id, err)
	}
	if runErr != nil {
		return nil, runErr
	}
	used := d.Env.Meter.Sub(snap)
	res.Usage = used
	res.Cost = used.Cost(d.Env.Pricing)
	return res, nil
}

// stageInput writes the request's input rows into the model store: the full
// matrix for serial, per-worker row blocks otherwise. Requests are assumed
// buffered and batched upstream (paper §V-B2), so staging is unbilled. The
// store keys are run-scoped.
func (d *Deployment) stageInput(run *runState) error {
	blobs, err := d.encodedInput(run.input, run.batch)
	if err != nil {
		return err
	}
	if d.Cfg.Channel == Serial {
		d.putStore(serialInputKey(run.id), blobs[0])
		return nil
	}
	for worker, p := range blobs {
		d.putStore(workerInputKey(run.id, worker), p)
	}
	return nil
}

// unstageRun drops a finished run's objects from the model store — the
// input stageInput wrote and the result the root stored, which nothing
// reads (the client is handed run.output) — host-side, as they were staged.
// Every rank loads its input before it can contribute to the result the
// client waited for, so no read of a run that succeeds misses them; a rank
// still launching when its run has already failed finds no input and fails
// at load, as one launched after delete(d.runs) fails at its first line.
func (d *Deployment) unstageRun(run *runState) {
	d.store.Unstage(resultKey(run.id))
	if d.Cfg.Channel == Serial {
		d.store.Unstage(serialInputKey(run.id))
		return
	}
	for worker := 0; worker < d.Cfg.Workers(); worker++ {
		d.store.Unstage(workerInputKey(run.id, worker))
	}
}

// coordinatorHandler parses the request and launches the coordinator's
// children (lightweight, 128 MB, §VI-A1).
func (d *Deployment) coordinatorHandler(ctx *faas.Ctx, payload []byte) ([]byte, error) {
	run, _, err := d.runOf("coordinator", payload)
	if err != nil {
		return nil, err
	}
	if err := d.launch(ctx, run, -1); err != nil {
		return nil, err
	}
	run.coordRuntime = ctx.Elapsed()
	return []byte(`{"ok":true}`), nil
}

// launch invokes, in order, the workers that invoker r (-1: the
// coordinator) launches for run (worker_invoke_children, §II-B objective 2),
// keeping rank 0's future as the run's root.
func (d *Deployment) launch(ctx *faas.Ctx, run *runState, r int) error {
	first, end, step := d.Cfg.launchChildren(r)
	for child := first; child < end; child += step {
		fut, err := ctx.InvokeAsync(d.fnWorker, mustJSON(workerPayload{Run: run.id, Rank: child}))
		if err != nil {
			invoker := "coordinator"
			if r >= 0 {
				invoker = fmt.Sprintf("worker %d", r)
			}
			return fmt.Errorf("core: %s invoking worker %d: %w", invoker, child, err)
		}
		if child == 0 {
			run.rootFut = fut
		}
	}
	return nil
}

func mustJSON(v any) []byte {
	b, err := json.Marshal(v)
	if err != nil {
		panic(err)
	}
	return b
}
