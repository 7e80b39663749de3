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
	"fsdinference/internal/cloud/usage"
	"fsdinference/internal/obs"
	"fsdinference/internal/sim"
	"fsdinference/internal/sparse"
	"fsdinference/internal/wire"
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

	// staged caches this deployment shape's encoded/decoded model
	// artifacts (see stagedCache).
	staged *stagedModel

	// zspare is the one-rank worker's spare layer buffer (see runAlone).
	zspare sparse.Spare
	// bufs holds each rank's data-path buffers between its runs, one slot
	// per rank (see rankBufs).
	bufs []rankBufs

	// threadNames caches the names of the workers' communication threads
	// (see threadName).
	threadNames map[threadPool][]string

	runSeq int
	// runs holds every in-flight request keyed by run id; handlers look
	// their run up by the id carried in the invocation payload.
	runs map[string]*runState
	// frames holds the frame tables no run is using, emptied, so that a run
	// reuses an earlier run's table storage (see runState.frames).
	frames []*wire.Frames
}

// threadPool names one rank's communication thread pool.
type threadPool struct {
	rank int32
	name string
}

// threadName returns the name of thread t of rank's pool name,
// "w<rank>-<name>-t<t>", formatted once per deployment: the kernel reads a
// proc's name only to report a deadlock or a panic, and a run starts
// thousands of these threads.
func (d *Deployment) threadName(rank int32, name string, t int) string {
	key := threadPool{rank, name}
	names := d.threadNames[key]
	if t < len(names) {
		return names[t]
	}
	for len(names) <= t {
		names = append(names, fmt.Sprintf("w%d-%s-t%d", rank, name, len(names)))
	}
	if d.threadNames == nil {
		d.threadNames = make(map[threadPool][]string)
	}
	d.threadNames[key] = names
	return names[t]
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

	// store is the run's state on the store kinds (Memory, Hybrid), set by
	// bindStore; nil on the others.
	store *storeRun

	// outputs collects every worker's reduced result under
	// AllreduceOutput (index = worker id; nil otherwise).
	outputs []*sparse.Dense
	// usage is the run's own meter: each call a rank asks a service for is
	// charged here where it is made, as the service charges the
	// environment's meter, so runs that overlap keep separate bills.
	usage usage.Meter

	rootFut      *faas.Future
	metrics      []*WorkerMetrics
	lastStart    time.Duration
	coordRuntime time.Duration
	output       *sparse.Dense
	workerErrs   []error
	// start and end bound the run in virtual time (client invoke to
	// result availability); runUsage attributes provisioned-capacity
	// hours by them.
	start, end time.Duration

	// scope is the run's tracing scope — the deployment's scope narrowed
	// to the serving-side run span this run nests under. Zero (one
	// pointer check per hook) unless the run was sampled.
	scope obs.Scope

	// frames is the table the run's collective frames decode through
	// (decodePayload), so that every rank handed one frame shares the set
	// it decodes to. The run's first such decode takes it from the
	// deployment's spares (runFrames), and it goes back, emptied, once no
	// handler of the run is left: handlers counts the worker handlers
	// running, which are where every decode happens.
	frames   *wire.Frames
	handlers int
}

// runFrames returns run's frame table, taking a spare of the deployment's
// or making one if the run has none.
func (d *Deployment) runFrames(run *runState) *wire.Frames {
	if run.frames == nil {
		if n := len(d.frames); n > 0 {
			run.frames = d.frames[n-1]
			d.frames[n-1] = nil
			d.frames = d.frames[:n-1]
		} else {
			run.frames = new(wire.Frames)
		}
	}
	return run.frames
}

// leaveRun ends one worker handler of run. The last one to leave hands the
// run's frame table back to the deployment, emptied: a handler that starts
// later (a rank launched by a parent that has already failed) takes a table
// again.
func (d *Deployment) leaveRun(run *runState) {
	run.handlers--
	if run.handlers == 0 && run.frames != nil {
		run.frames.Reset()
		d.frames = append(d.frames, run.frames)
		run.frames = nil
	}
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
		runs:          make(map[string]*runState),
	}
	d.store = e.S3.CreateBucket(prefix + "-store")
	if cfg.StoreBandwidthScale > 0 && cfg.StoreBandwidthScale != 1 {
		d.store.GetBandwidth = e.S3.Config().GetBytesPerSec * cfg.StoreBandwidthScale
		d.store.PutBandwidth = e.S3.Config().PutBytesPerSec * cfg.StoreBandwidthScale
	}
	if cfg.Channel.Peerless() {
		// One rank on the largest instance the platform offers (§VI-A1).
		d.Cfg.WorkerMemoryMB = e.FaaS.Config().MaxMemoryMB
	}
	if err := d.stageModel(); err != nil {
		return nil, err
	}
	d.bufs = make([]rankBufs, d.Cfg.Workers())

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

// stageModel writes per-worker weight row blocks into the model store and
// takes the deployment's plan from the staged entry, which is the configured
// one except for Serial's one rank. The encode/slice work is memoised across
// deployments of the same (model, plan) shape — see stagedCache.
func (d *Deployment) stageModel() error {
	staged, err := stagedFor(d.Cfg)
	if err != nil {
		return err
	}
	d.staged, d.Cfg.Plan = staged, staged.plan
	for key, blob := range d.staged.blobs {
		d.putStore(key, blob)
	}
	return nil
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

// registerFunctions registers the worker function and, unless the client
// invokes rank 0 itself (peerless), the coordinator.
func (d *Deployment) registerFunctions() error {
	cfg := d.Cfg
	if !cfg.Channel.Peerless() {
		if err := d.Env.FaaS.Register(faas.FunctionConfig{
			Name:     d.fnCoordinator,
			MemoryMB: coordinatorMemoryMB,
			Timeout:  cfg.FunctionTimeout,
			Handler:  d.coordinatorHandler,
		}); err != nil {
			return err
		}
	}
	return d.Env.FaaS.Register(faas.FunctionConfig{
		Name:     d.fnWorker,
		MemoryMB: cfg.WorkerMemoryMB,
		Timeout:  cfg.FunctionTimeout,
		Handler:  d.workerHandler,
	})
}

// workerPayload is the (JSON) invocation payload of every function: the
// run, and the rank a worker is launched as (zero for the coordinator).
// launch and clientRun encode it; runOf decodes it.
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
// A Result delivered through Start carries per-run Usage/Cost: the run's
// own meter as the client receives the result, charged at each call its
// ranks made, plus Lambda from the ranks' runtimes and the run's share of
// the store's node-hours (runUsage), because the shared environment meter
// cannot attribute concurrently metered usage to one run. The synchronous
// Infer path reports the metered window instead.
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
	run.usage.SQSBillFanout = d.Env.Meter.SQSBillFanout
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

// clientRun is the client-side body of one request: invoke the coordinator,
// or rank 0 itself when it has no peers, wait for the result and assemble
// the Result with the run's usage.
func (d *Deployment) clientRun(p *sim.Proc, run *runState) (*Result, error) {
	start := p.Now()
	wrap := func(err error) error { return fmt.Errorf("core: run %s: %w", run.id, err) }
	wait := func() error {
		fn, direct := d.fnCoordinator, d.Cfg.Channel.Peerless()
		if direct {
			fn = d.fnWorker
		}
		payload, err := json.Marshal(workerPayload{Run: run.id})
		if err != nil {
			return err
		}
		fut, err := d.Env.FaaS.Invoke(p, fn, payload)
		if err != nil {
			return err
		}
		if _, err := fut.Wait(p); err != nil || direct {
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
// and replaces the run's usage with the environment's metered window.
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

// stageInput writes the request's input rows into the model store, one row
// block per worker. Requests are assumed buffered and batched upstream
// (paper §V-B2), so staging is unbilled. The store keys are run-scoped.
func (d *Deployment) stageInput(run *runState) error {
	blobs, err := d.encodedInput(run.input, run.batch)
	if err != nil {
		return err
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
		payload, err := json.Marshal(workerPayload{Run: run.id, Rank: child})
		if err != nil {
			return fmt.Errorf("core: worker %d payload: %w", child, err)
		}
		fut, err := ctx.InvokeAsync(d.fnWorker, payload)
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
