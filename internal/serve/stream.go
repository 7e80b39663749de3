package serve

import (
	"fmt"
	"sort"
	"time"

	"fsdinference/internal/model"
	"fsdinference/internal/obs"
	"fsdinference/internal/workload"
)

// epStreamAcc is one endpoint's incremental accounting in a streaming
// replay: what the batch replay reconstructs from retained handles, folded
// on the fly instead.
type epStreamAcc struct {
	queries, failed, samples int
	lat                      obs.Histogram
	perPrio                  map[int]*obs.Histogram
}

// ReplayStream drives a TraceStream through the service inside one
// simulated-time run, submitting just-in-time as virtual time reaches each
// batch and folding results incrementally, so a million-query day runs in
// bounded memory: neither the trace, nor the handles, nor the latency
// samples are ever all live at once. The feeder pulls the next batch from
// inside the kernel when the clock reaches the current batch's last
// arrival, so at most one batch of unarrived requests is in flight ahead
// of the clock.
//
// The report matches Replay's except that latency percentiles are folded
// through a log-linear histogram (bucket upper bounds within ~6%, see
// obs.Histogram) rather than recomputed from retained samples — count,
// mean, min and max stay exact — and per-request outputs are released as
// queries resolve, so opts.Verify is not supported.
func (s *Service) ReplayStream(stream workload.TraceStream, opts ReplayOptions) (*Report, error) {
	opts = opts.withDefaults()
	if opts.Verify {
		return nil, fmt.Errorf("serve: Verify is not supported in streaming replay (outputs are released as queries resolve)")
	}
	route := opts.Route
	if route == nil {
		route = func(q workload.Query) (string, bool) {
			eps := s.byNeuronsAll[q.Neurons]
			if len(eps) == 0 {
				return "", false
			}
			return eps[0].name, true
		}
	}

	// Drain any requests already in flight first, so the metered window
	// below measures this stream and nothing else.
	if err := s.Run(); err != nil {
		return nil, err
	}
	base := s.Now()
	win := s.openWindow(base)

	rep := &Report{}
	var all obs.Histogram
	perEp := make(map[*Endpoint]*epStreamAcc, len(s.eps))
	acc := func(ep *Endpoint) *epStreamAcc {
		a := perEp[ep]
		if a == nil {
			a = &epStreamAcc{}
			perEp[ep] = a
		}
		return a
	}
	submitted, resolved := 0, 0
	var feedErr error

	// notify fires once per resolved handle — completions and rejects
	// alike — folding the result and releasing it.
	notify := func(h *Handle) {
		resolved++
		ep := s.byName[h.endpoint]
		if h.err != nil {
			rep.Failed++
			if ep != nil {
				acc(ep).failed++
			}
			return
		}
		a := acc(ep)
		resp := h.resp
		rep.Samples += resp.Output.Cols
		a.samples += resp.Output.Cols
		all.Observe(resp.Latency)
		a.lat.Observe(resp.Latency)
		if h.priority != 0 || a.perPrio != nil {
			if a.perPrio == nil {
				a.perPrio = make(map[int]*obs.Histogram)
				// Reclassify nothing: earlier class-0 requests are in
				// a.lat only; the per-priority breakdown describes the
				// classes submitted from here on. Priority traces set
				// opts.Submit from the first query, so in practice every
				// request is classified.
			}
			ph := a.perPrio[h.priority]
			if ph == nil {
				ph = &obs.Histogram{}
				a.perPrio[h.priority] = ph
			}
			ph.Observe(resp.Latency)
		}
		if h.finished-base > rep.Horizon {
			rep.Horizon = h.finished - base
		}
	}

	var feed func()
	feed = func() {
		qs := stream.Next()
		if len(qs) == 0 {
			return
		}
		var prev time.Duration
		for _, q := range qs {
			if q.At < prev {
				feedErr = fmt.Errorf("serve: stream arrivals out of order (%v after %v)", q.At, prev)
				return
			}
			prev = q.At
			name, ok := route(q)
			if !ok {
				feedErr = fmt.Errorf("serve: no endpoint for query %d (N=%d)", submitted, q.Neurons)
				return
			}
			ep := s.byName[name]
			if ep == nil {
				feedErr = fmt.Errorf("serve: route returned unknown endpoint %q", name)
				return
			}
			in := model.GenerateInputsCached(q.Neurons, q.Samples, opts.Density, opts.Seed+int64(submitted))
			var so SubmitOptions
			if opts.Submit != nil {
				so = opts.Submit(submitted, q)
			}
			rep.Queries++
			acc(ep).queries++
			s.submit(name, in, base+q.At, so, notify, submitted)
			submitted++
		}
		// Pull the next batch when the clock reaches this batch's last
		// arrival; stream order guarantees the next batch arrives at or
		// after it.
		s.env.K.At(base+prev-s.Now(), feed)
	}
	feed()
	if feedErr != nil {
		return nil, feedErr
	}

	chaos, err := s.scheduleChaos(base, opts.Chaos)
	if err != nil {
		return nil, err
	}

	if err := s.Run(); err != nil {
		return nil, err
	}
	if feedErr != nil {
		return nil, feedErr
	}
	if resolved != submitted {
		return nil, fmt.Errorf("serve: %d of %d streamed queries did not resolve", submitted-resolved, submitted)
	}
	s.closeWindow(win)

	rep.Latency = histStats(&all)
	for _, ep := range s.eps {
		a := acc(ep)
		var perPrio []PriorityLatency
		if len(a.perPrio) > 1 {
			prios := make([]int, 0, len(a.perPrio))
			for p := range a.perPrio {
				prios = append(prios, p)
			}
			sort.Sort(sort.Reverse(sort.IntSlice(prios)))
			for _, p := range prios {
				perPrio = append(perPrio, PriorityLatency{Priority: p, Latency: histStats(a.perPrio[p])})
			}
		}
		rep.Endpoints = append(rep.Endpoints, s.endpointReport(ep, win,
			a.queries, a.failed, a.samples, histStats(&a.lat), perPrio))
	}
	s.meterReport(rep, win)
	rep.ChaosKills = chaos.kills
	rep.ChaosPartitions = chaos.partitions
	rep.ChaosSkipped = chaos.skipped
	return rep, nil
}
