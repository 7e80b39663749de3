package serve

import (
	"time"

	"fsdinference/internal/cloud/usage"
)

// replayWindow captures the metering state at a replay's start so the
// report charges exactly the replay's own window: the meter snapshot and
// platform start counters to subtract. Endpoint stats restart at zero at
// the window edge and keep the endpoint's registry counts to subtract.
type replayWindow struct {
	base         time.Duration
	meterSnap    usage.Meter
	cold0, warm0 int
}

// openWindow closes the provisioned-capacity accruals at the window edge,
// snapshots the environment-wide and endpoint registry counters the report
// will subtract and restarts every endpoint's stats, so the report
// measures this replay and nothing else. The scheduler's arrival-rate
// EWMA, which a WithSLO endpoint re-plans on, carries across windows.
func (s *Service) openWindow(base time.Duration) *replayWindow {
	// Close the provisioned-capacity accrual at the window edge, so the
	// subtraction below charges exactly this replay's node-hours
	// (including the hours its memory stores sit idle between queries).
	s.env.KV.Settle()
	win := &replayWindow{
		base:      base,
		meterSnap: s.env.Meter.Snapshot(),
		cold0:     s.env.FaaS.ColdStarts,
		warm0:     s.env.FaaS.WarmStarts,
	}
	for _, ep := range s.eps {
		// Close the replica-seconds accrual at the window edge and start the
		// stats over from the registry's counts.
		ep.sched.accrue(base)
		ep.stats = endpointStats{PeakReplicas: len(ep.sched.pool), opened: ep.met.counts()}
	}
	if s.mon != nil {
		// Restart the scrape series at the window edge and arm the first
		// scrape event, so monitor windows are trace-relative like the
		// report.
		s.mon.Start(base)
	}
	return win
}

// closeWindow settles the accruals at the window's far edge.
func (s *Service) closeWindow(win *replayWindow) {
	end := s.Now()
	for _, ep := range s.eps {
		ep.sched.accrue(end)
	}
	s.env.KV.Settle()
	if s.mon != nil {
		// Safety net: in the replay flows every closed window was already
		// finalized by scrape events, so this is normally a no-op.
		s.mon.Flush(end)
	}
}

// report assembles the endpoint's share of a replay window that opened at
// base from its stats, which started at zero there, its registry counts
// less those the window opened with, and the request-level accounting the
// replay folded.
func (ep *Endpoint) report(base time.Duration, a *endpointAcc) EndpointReport {
	st := &ep.stats
	c, o := ep.met.counts(), st.opened
	// Re-plan events are reported trace-relative, like Horizon.
	replans := make([]ReplanEvent, len(st.Replans))
	for j, ev := range st.Replans {
		ev.At -= base
		replans[j] = ev
	}
	er := EndpointReport{
		Name:              ep.name,
		Neurons:           ep.m.Spec.Neurons,
		Channel:           ep.cfg.Channel,
		Workers:           ep.cfg.Workers(),
		Replicas:          len(ep.sched.pool),
		PeakReplicas:      st.PeakReplicas,
		Admission:         ep.sched.admission.Name(),
		Scaling:           ep.sched.scaling.Name(),
		ReplicaSeconds:    st.ReplicaSeconds,
		ScaleUps:          st.ScaleUps,
		ScaleDowns:        st.ScaleDowns,
		DeployFailures:    int(c.deployFailures - o.deployFailures),
		Shed:              int(c.shed - o.shed),
		Rerouted:          int(c.rerouted - o.rerouted),
		DeadlineMissed:    st.DeadlineMissed,
		Reselections:      st.Reselections,
		Replans:           replans,
		MaxConcurrentRuns: st.MaxConcurrent,
		Queries:           a.queries,
		Failed:            a.failed,
		Samples:           a.samples,
		Runs:              st.Runs,
		MaxRunSamples:     st.MaxSamples,
		ColdStarts:        int(c.cold - o.cold),
		WarmStarts:        int(c.warm - o.warm),
		Latency:           a.lat.stats(),
		Cost:              st.Cost,
	}
	if st.Runs > 0 {
		er.AvgRunSamples = float64(st.RunSamples) / float64(st.Runs)
		er.AvgRunRequests = float64(st.RunRequests) / float64(st.Runs)
	}
	return er
}

// meterReport fills the report's environment-wide metering from the
// window: the meter delta, its price and the platform's instance starts.
func (s *Service) meterReport(rep *Report, win *replayWindow) {
	rep.Usage = s.env.Meter.Sub(win.meterSnap)
	rep.TotalCost = rep.Usage.Cost(s.env.Pricing)
	rep.KVShardCost = rep.Usage.KVShardCost(s.env.Pricing)
	rep.ColdStarts = s.env.FaaS.ColdStarts - win.cold0
	rep.WarmStarts = s.env.FaaS.WarmStarts - win.warm0
}
