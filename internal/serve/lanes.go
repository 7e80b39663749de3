package serve

import (
	"fmt"
	"sync"
	"time"

	"fsdinference/internal/cloud/env"
	"fsdinference/internal/workload"
)

// ReplayLanes shards a trace replay across independent replay lanes, each
// advancing its own discrete-event kernel on its own virtual clock, and
// merges the per-lane results into one Report at the end.
//
// The receiver acts as the routing registry only: queries are routed (by
// opts.Route or the model-size default) against its endpoints, then every
// lane rebuilds its share of the service — the same options the receiver
// was built with, filtered to the lane's endpoints — on a fresh clone of
// the receiver's environment configuration and replays its sub-trace
// there. The receiver's own endpoints, meters and clock are untouched.
//
// Lane assignment keeps interacting endpoints together: endpoints are
// grouped by model size (reroute siblings share a size, so a lane always
// contains every endpoint a rerouted request could land on) and size
// groups are dealt round-robin over the lanes in registration order.
// Cross-lane interactions cannot arise — disjoint endpoint sets touch
// disjoint buckets, functions, stores and limiters — which is exactly why
// the merged report equals the single-lane replay of the same trace:
// each query's timeline depends only on its own lane's endpoints, and the
// merge recomputes the cross-lane latency distribution from the raw
// per-request samples. Chaos traces are the exception (an unnamed chaos
// event targets "the first live cluster", a service-wide notion), so they
// replay on one lane.
//
// The lanes' metered windows merge into one with usage.Meter.Add, and the
// lanes' priced costs are summed. Float-accumulated metering (costs,
// GB-seconds, GB-hours, node-hours) can differ from the single-lane run's
// by floating-point rounding in the last bits, since per-lane meters
// accumulate in a different order than one shared meter. Everything
// counted in integers or nanoseconds — queries, runs, starts, latencies,
// horizons, meter counters — merges exactly. Per-shard node-hour
// breakdowns are keyed by lane-local deployment names and are summed on
// collision.
func (s *Service) ReplayLanes(lanes int, trace []workload.Query, opts ReplayOptions) (*Report, error) {
	if lanes < 1 {
		return nil, fmt.Errorf("serve: lanes must be positive, got %d", lanes)
	}
	opts = opts.withDefaults()
	items, err := s.routeTrace(trace, opts)
	if err != nil {
		return nil, err
	}

	// Size groups in registration order of their first endpoint.
	var sizes []int
	seen := make(map[int]bool)
	for _, ep := range s.eps {
		if n := ep.m.Spec.Neurons; !seen[n] {
			seen[n] = true
			sizes = append(sizes, n)
		}
	}
	if lanes > len(sizes) {
		lanes = len(sizes)
	}
	if len(opts.Chaos) > 0 {
		// A chaos trace needs the whole service on one kernel.
		lanes = 1
	}

	laneOfSize := make(map[int]int, len(sizes))
	for i, n := range sizes {
		laneOfSize[n] = i % lanes
	}
	laneEps := make([]map[string]bool, lanes)
	for _, ep := range s.eps {
		l := laneOfSize[ep.m.Spec.Neurons]
		if laneEps[l] == nil {
			laneEps[l] = make(map[string]bool)
		}
		laneEps[l][ep.name] = true
	}
	laneItems := make([][]routedQuery, lanes)
	for _, it := range items {
		l := laneOfSize[s.byName[it.name].m.Spec.Neurons]
		laneItems[l] = append(laneItems[l], it)
	}

	// Phase 1, concurrent: every lane rebuilds its share of the service on
	// a fresh environment and drives its sub-trace to completion on its
	// own kernel. Lanes share no mutable state (separate kernels, meters,
	// stores, functions), so this is safe under the race detector.
	svcs := make([]*Service, lanes)
	runs := make([]*replayRun, lanes)
	errs := make([]error, lanes)
	var wg sync.WaitGroup
	for l := 0; l < lanes; l++ {
		l := l
		wg.Add(1)
		//simlint:allow kernelgo — host-side lane fan-out: each goroutine owns one sealed lane service with its own kernel, RNGs and tracer; lanes share nothing until the deterministic merge after Wait
		go func() {
			defer wg.Done()
			keep := laneEps[l]
			svc, err := s.cloneService(func(name string) bool { return keep[name] })
			if err != nil {
				errs[l] = err
				return
			}
			svcs[l] = svc
			runs[l], errs[l] = svc.replayStart(oneBatch(laneItems[l]), true, opts)
		}()
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			return nil, err
		}
	}

	// Phase 2, sequential: close every lane's window at the same global
	// end — the latest virtual time any lane reached — so provisioned
	// capacity accrues exactly as it would on one shared kernel, idle
	// tails included. Per-lane virtual clocks merge deterministically:
	// lane order is fixed by the size-group assignment.
	var endAt time.Duration
	for _, svc := range svcs {
		if now := svc.Now(); now > endAt {
			endAt = now
		}
	}
	reps := make([]*Report, lanes)
	for l := 0; l < lanes; l++ {
		var err error
		if reps[l], err = svcs[l].replayFinish(runs[l], endAt); err != nil {
			return nil, err
		}
	}
	s.absorbObs(svcs)
	out := s.mergeLaneReports(reps, runs)
	return out, out.Check()
}

// absorbObs folds the lanes' tracers, metric registries and SLO monitors
// into the receiver's, so a laned replay exposes the same observability
// surface as a shared-kernel one. Spans are appended in lane order; the
// Chrome exporter's canonical (time, rendered-event) ordering makes the
// final output independent of which lane recorded a span, which is what
// the byte-identical-trace contract rests on. Monitor series merge by
// (endpoint, window index) — lanes own disjoint endpoint sets — and the
// alert logs concatenate; the monitor's canonical alert ordering does the
// rest.
func (s *Service) absorbObs(lanes []*Service) {
	for _, lane := range lanes {
		if lane == nil {
			continue
		}
		if s.trace != nil {
			s.trace.Merge(lane.trace)
		}
		if s.metrics != nil {
			s.metrics.Merge(lane.metrics)
		}
		if s.mon != nil {
			s.mon.Absorb(lane.mon)
		}
	}
}

// cloneService rebuilds this service (optionally filtered to a subset of
// endpoints) on a fresh environment cloned from the receiver's config.
func (s *Service) cloneService(keep func(name string) bool) (*Service, error) {
	return newService(env.New(s.env.Cfg), keep, s.opts...)
}

// mergeLaneReports folds per-lane reports into one, deterministically:
// lane order is fixed by the lane assignment, endpoint order follows the
// receiver's registration order, and the cross-lane latency distribution
// is recomputed from the lanes' concatenated raw samples.
func (s *Service) mergeLaneReports(reps []*Report, runs []*replayRun) *Report {
	out := &Report{}
	byName := make(map[string]EndpointReport)
	var all []time.Duration
	for l, rep := range reps {
		out.Queries += rep.Queries
		out.Failed += rep.Failed
		out.Samples += rep.Samples
		if rep.Horizon > out.Horizon {
			out.Horizon = rep.Horizon
		}
		all = append(all, runs[l].lat.samples...)
		for _, er := range rep.Endpoints {
			byName[er.Name] = er
		}
		// The meters merge; the prices stay as each lane priced its own
		// meter, summed.
		out.Usage.Add(rep.Usage)
		out.TotalCost.Add(rep.TotalCost)
		for shard, c := range rep.KVShardCost {
			if out.KVShardCost == nil {
				out.KVShardCost = make(map[string]float64)
			}
			out.KVShardCost[shard] += c
		}
		out.ColdStarts += rep.ColdStarts
		out.WarmStarts += rep.WarmStarts
		out.ChaosKills += rep.ChaosKills
		out.ChaosPartitions += rep.ChaosPartitions
		out.ChaosSkipped += rep.ChaosSkipped
	}
	out.Latency = latencyStats(all)
	for _, ep := range s.eps {
		if er, ok := byName[ep.name]; ok {
			out.Endpoints = append(out.Endpoints, er)
		}
	}
	return out
}
