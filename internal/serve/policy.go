package serve

import (
	"fmt"
	"time"

	"fsdinference/internal/core"
)

// This file is the pluggable half of the scheduler subsystem: admission
// policies decide the order in which queued requests dispatch (and which
// ones to shed or reroute), scaling policies decide how many warm replicas
// an endpoint keeps. The mechanics — admission heap, coalescing windows,
// replica pools, metering — live in scheduler.go.

// RequestInfo is a policy's read-only view of one queued request.
type RequestInfo struct {
	// Seq is the admission sequence number (FIFO tie-break).
	Seq int
	// Arrived is the request's arrival virtual time.
	Arrived time.Duration
	// Deadline is the absolute virtual time by which the request must
	// complete (0 = none).
	Deadline time.Duration
	// Samples is the request's batch width (input columns).
	Samples int
}

// AdmissionPolicy orders an endpoint's admission queue and decides, at
// dispatch time, whether a request should be shed (or rerouted) instead of
// served. Implementations must be deterministic pure functions of their
// inputs; one policy instance may serve many endpoints.
type AdmissionPolicy interface {
	// Name identifies the policy in reports.
	Name() string
	// Less reports whether a dispatches before b.
	Less(a, b RequestInfo) bool
	// Shed reports whether to reject r at dispatch time, given the
	// current virtual time and the endpoint's estimated engine-run
	// latency (an EWMA of observed runs; 0 until the first completes).
	Shed(now, estRun time.Duration, r RequestInfo) bool
	// Reroute reports whether shed requests should first be offered to
	// another endpoint serving the same model size.
	Reroute() bool
}

// FIFO returns the default admission policy: strict arrival order, never
// sheds.
func FIFO() AdmissionPolicy { return fifoAdmission{} }

type fifoAdmission struct{}

func (fifoAdmission) Name() string                                { return "fifo" }
func (fifoAdmission) Less(a, b RequestInfo) bool                  { return a.Seq < b.Seq }
func (fifoAdmission) Shed(_, _ time.Duration, _ RequestInfo) bool { return false }
func (fifoAdmission) Reroute() bool                               { return false }

// DeadlineAdmission returns an earliest-deadline-first policy: requests
// with deadlines dispatch before those without, soonest deadline first. At
// dispatch time a request whose deadline has passed — or provably cannot
// be met given the endpoint's estimated run latency — is shed rather than
// run. With reroute true, a shed request is first offered once to another
// endpoint serving the same model size (Service routing by neuron count);
// only if none exists, or the reroute also fails, does its handle fail
// with ErrShed.
func DeadlineAdmission(reroute bool) AdmissionPolicy {
	return deadlineAdmission{reroute: reroute}
}

type deadlineAdmission struct{ reroute bool }

func (deadlineAdmission) Name() string { return "deadline" }
func (deadlineAdmission) Less(a, b RequestInfo) bool {
	ad, bd := a.Deadline, b.Deadline
	switch {
	case ad == 0 && bd == 0:
		return a.Seq < b.Seq
	case ad == 0:
		return false
	case bd == 0:
		return true
	case ad != bd:
		return ad < bd
	}
	return a.Seq < b.Seq
}
func (deadlineAdmission) Shed(now, estRun time.Duration, r RequestInfo) bool {
	if r.Deadline == 0 {
		return false
	}
	if now > r.Deadline {
		return true
	}
	return estRun > 0 && now+estRun > r.Deadline
}
func (d deadlineAdmission) Reroute() bool { return d.reroute }

// ErrShed marks a request rejected by an admission policy because its
// deadline could not be met. Test with errors.Is.
var ErrShed = fmt.Errorf("request shed: deadline cannot be met")

// PoolState is a scaling policy's view of one endpoint's scheduler at a
// decision point.
type PoolState struct {
	// BusyRuns is the engine runs in flight across the warm pool;
	// RunCapacity the concurrent runs one replica sustains
	// (WithRunConcurrency).
	BusyRuns    int
	RunCapacity int
	// QueuedRequests counts the admission queue: requests whose
	// coalescing window has closed but which have not dispatched.
	QueuedRequests int
	// ArrivalRate is the endpoint's recent request arrival rate in
	// requests per second (EWMA over inter-arrival times).
	ArrivalRate float64
	// EstRunLatency is the EWMA of observed engine-run latency (0 until
	// the first run completes).
	EstRunLatency time.Duration
}

// ScalingPolicy sizes an endpoint's replica pool. Target is consulted
// whenever demand changes: on every coalescing-window flush (requests
// still inside an open window are not yet queued), on run completion, and
// on idle-grace expiry. Growth is applied immediately, shrinkage only
// reclaims replicas that have been idle for at least IdleGrace.
type ScalingPolicy interface {
	// Name identifies the policy in reports.
	Name() string
	// Target returns the desired pool size for the observed state. The
	// scheduler clamps it to at least 1.
	Target(st PoolState) int
	// IdleGrace is how long a replica must sit idle before scale-down may
	// reclaim it (cold-start hysteresis).
	IdleGrace() time.Duration
}

// FixedPool returns the static scaling policy: always n replicas — the
// behaviour of WithReplicas.
func FixedPool(n int) ScalingPolicy { return fixedPool{n: n} }

type fixedPool struct{ n int }

func (f fixedPool) Name() string             { return fmt.Sprintf("fixed(%d)", f.n) }
func (f fixedPool) Target(PoolState) int     { return f.n }
func (f fixedPool) IdleGrace() time.Duration { return 0 }

// AutoscalerOptions tunes the demand-driven scaling policy.
type AutoscalerOptions struct {
	// Min and Max bound the pool, 1 <= Min <= Max.
	Min, Max int
	// IdleGrace is how long a replica must be idle before scale-down
	// reclaims it (default 2 minutes — long enough to ride out coalescing
	// gaps, short against the sporadic-day scale).
	IdleGrace time.Duration
}

func (o AutoscalerOptions) withDefaults() AutoscalerOptions {
	if o.IdleGrace <= 0 {
		o.IdleGrace = 2 * time.Minute
	}
	return o
}

// Autoscaler returns a scaling policy that grows the pool to cover the
// observed demand — runs in flight plus the queued backlog, with headroom
// for the work expected to arrive during one run (arrival rate x estimated
// run latency) — and shrinks back once replicas sit idle past the grace
// period. Replica-hours follow the workload instead of its peak.
func Autoscaler(o AutoscalerOptions) ScalingPolicy {
	return autoscaler{o: o.withDefaults()}
}

type autoscaler struct{ o AutoscalerOptions }

func (a autoscaler) Name() string {
	return fmt.Sprintf("autoscale(%d..%d)", a.o.Min, a.o.Max)
}

func (a autoscaler) Target(st PoolState) int {
	cap := st.RunCapacity
	// Demand in runs: in-flight plus queued requests (coalescing can only
	// merge queued requests, so this is an upper bound that decays as the
	// queue drains), plus the arrivals expected during one run.
	demand := st.BusyRuns + st.QueuedRequests
	if st.ArrivalRate > 0 && st.EstRunLatency > 0 {
		demand += int(st.ArrivalRate * st.EstRunLatency.Seconds())
	}
	target := (demand + cap - 1) / cap
	if target < a.o.Min {
		target = a.o.Min
	}
	if target > a.o.Max {
		target = a.o.Max
	}
	return target
}

func (a autoscaler) IdleGrace() time.Duration { return a.o.IdleGrace }

// SLOOptions asks an endpoint to pick its own deployment configuration —
// channel and worker parallelism — at deploy time via the workload-aware
// Planner (the §VI-D1 extension), given latency/cost priorities, and to
// re-plan when the observed arrival rate crosses the memory channel's
// break-even daily volume. Re-plans feed the scheduler's live
// WorkloadProfile into the planner, so provisioned idle billing is
// charged at the observed volume instead of one probe's share.
type SLOOptions struct {
	// LatencyWeight in [0,1]: 1 optimises latency only, 0 cost only.
	LatencyWeight float64
	// Channels restricts the candidate channels (default: serial when
	// the model fits one instance, plus queue, object and memory).
	Channels []core.ChannelKind
	// Workers lists candidate parallelism levels (the paper's grid is
	// 8, 20, 42, 62).
	Workers []int
	// ProbeBatch is the assumed request batch width used for the initial
	// planning trials, and for an alert-driven re-plan before any run
	// has completed.
	ProbeBatch int
	// MinRuns is how many runs must be observed between re-plans.
	MinRuns int
	// Seed drives probe generation (default 1).
	Seed int64
}

// breakEvenHysteresis widens the arrival-rate trigger into a band around
// the memory break-even: the observed volume must clear the break-even by
// this fraction (+-20 %) before a re-plan fires, so workloads hovering at
// the break-even do not flap between configurations.
const breakEvenHysteresis = 0.2

func (o SLOOptions) withDefaults() SLOOptions {
	if o.Seed == 0 {
		o.Seed = 1
	}
	return o
}
