package serve

import (
	"time"

	"fsdinference/internal/cloud/usage"
)

// replayWindow captures the metering state at a replay's start so the
// report charges exactly the replay's own window: the meter snapshot and
// platform start counters to subtract, and per-endpoint stat snapshots
// with the high-water marks restarted.
type replayWindow struct {
	base         time.Duration
	meterSnap    usage.Meter
	cold0, warm0 int
	statSnaps    []endpointStats
}

// openWindow closes the provisioned-capacity accruals at the window edge
// and snapshots every counter the report will subtract, so the report
// measures this replay and nothing else.
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
		statSnaps: make([]endpointStats, len(s.eps)),
	}
	for i, ep := range s.eps {
		// Close the replica-seconds accrual at the window edge so the
		// subtraction below charges exactly this replay's pool time, and
		// restart the workload observation window so the reported
		// Observed profile describes this trace only.
		ep.sched.accrue(base)
		ep.sched.resetObservationWindow()
		win.statSnaps[i] = ep.stats
		// The high-water fields are marks, not counters: restart them so
		// the report describes this replay's window.
		ep.stats.MaxSamples = 0
		ep.stats.MaxConcurrent = 0
		ep.stats.PeakReplicas = len(ep.sched.pool)
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

// endpointReport assembles the report of the i-th registered endpoint over
// the window from its stat delta and the request-level accounting the
// replay folded.
func (s *Service) endpointReport(i int, win *replayWindow, a *endpointAcc) EndpointReport {
	ep := s.eps[i]
	st := ep.stats.sub(win.statSnaps[i])
	// Re-plan events are reported trace-relative, like Horizon.
	replans := make([]ReplanEvent, len(st.Replans))
	for j, ev := range st.Replans {
		ev.At -= win.base
		replans[j] = ev
	}
	batch := 0
	if st.Runs > 0 {
		batch = st.RunSamples / st.Runs
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
		Shed:              st.Shed,
		Rerouted:          st.Rerouted,
		DeadlineMissed:    st.DeadlineMissed,
		Reselections:      st.Reselections,
		Replans:           replans,
		Observed:          ep.sched.observedProfile(batch),
		MaxConcurrentRuns: st.MaxConcurrent,
		Queries:           a.queries,
		Failed:            a.failed,
		Samples:           a.samples,
		Runs:              st.Runs,
		FailedRuns:        st.FailedRuns,
		MaxRunSamples:     st.MaxSamples,
		ColdStarts:        st.ColdStarts,
		WarmStarts:        st.WarmStarts,
		Latency:           a.lat.stats(),
		Cost:              st.Cost,
		PerPriority:       prioLatencies(a.perPrio),
	}
	if st.Runs > 0 {
		er.AvgRunSamples = float64(st.RunSamples) / float64(st.Runs)
		er.AvgRunRequests = float64(st.RunRequests) / float64(st.Runs)
	}
	return er
}

// meterReport fills the report's environment-wide metering fields from the
// window delta.
func (s *Service) meterReport(rep *Report, win *replayWindow) {
	used := s.env.Meter.Sub(win.meterSnap)
	rep.TotalCost = used.Cost(s.env.Pricing)
	rep.KVGBHours = used.KVGBHours
	rep.KVOps = used.KVOps
	usage.FoldSorted(used.KVReplicaHours, func(_ string, h float64) {
		rep.KVReplicaHours += h
	})
	for shard, h := range used.KVShardHours {
		if h <= 0 {
			continue
		}
		if rep.KVShardHours == nil {
			rep.KVShardHours = make(map[string]float64)
		}
		rep.KVShardHours[shard] = h
	}
	rep.KVShardCost = used.KVShardCost(s.env.Pricing)
	rep.KVFailovers = used.KVFailovers
	rep.KVLostValues = used.KVLostValues
	rep.KVResends = used.KVResends
	rep.KVMoved = used.KVMoved
	rep.ColdStarts = s.env.FaaS.ColdStarts - win.cold0
	rep.WarmStarts = s.env.FaaS.WarmStarts - win.warm0
	if len(used.Collectives) > 0 {
		rep.Collectives = used.Collectives
	}
	rep.HybridSmallValues = used.HybridSmallValues
	rep.HybridBulkValues = used.HybridBulkValues
	rep.HybridBulkBytes = used.HybridBulkBytes
	rep.HybridChunks = used.HybridChunks
}
