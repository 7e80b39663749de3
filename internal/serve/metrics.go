package serve

import (
	"fsdinference/internal/core"
	"fsdinference/internal/obs"
	"fsdinference/internal/obs/monitor"
)

// epMetrics caches one endpoint's registry instruments at build time so
// hot-path updates are pointer increments, never registry map lookups.
// Every service builds them: they are the one count of the endpoint's
// sheds, reroutes, failed runs, starts and deploy failures, read by the
// replay report, the SLO monitor and /metrics alike. The embedded Target
// is exactly what the monitor scrapes.
type epMetrics struct {
	monitor.Target
	reg *obs.Registry

	failedRuns *obs.Counter
	// deployFailures is registered at the first refused deploy, so a
	// service that never sees one exports no such line; until then it is
	// nil and reads as zero.
	deployFailures *obs.Counter

	// runsByChannel labels run counts with the channel the run actually
	// executed on — an SLO re-plan can change it mid-replay, hence the
	// lazy per-kind resolution.
	runsByChannel map[core.ChannelKind]*obs.Counter
}

func newEpMetrics(reg *obs.Registry, name string) *epMetrics {
	return &epMetrics{
		Target: monitor.Target{
			Endpoint:     name,
			Requests:     reg.Counter("requests_total", "endpoint", name),
			Failures:     reg.Counter("request_failures_total", "endpoint", name),
			Shed:         reg.Counter("requests_shed_total", "endpoint", name),
			Rerouted:     reg.Counter("requests_rerouted_total", "endpoint", name),
			ColdStarts:   reg.Counter("cold_starts_total", "endpoint", name),
			WarmStarts:   reg.Counter("warm_starts_total", "endpoint", name),
			KVFailovers:  reg.Counter("kv_failovers_total", "endpoint", name),
			KVLostValues: reg.Counter("kv_lost_values_total", "endpoint", name),
			Latency:      reg.Histogram("request_latency_ns", "endpoint", name),
			QueueDepth:   reg.Gauge("queue_depth", "endpoint", name),
			Replicas:     reg.Gauge("replica_pool_size", "endpoint", name),
		},
		reg:           reg,
		failedRuns:    reg.Counter("run_failures_total", "endpoint", name),
		runsByChannel: make(map[core.ChannelKind]*obs.Counter),
	}
}

// deployFailed counts a refused replica deploy.
func (m *epMetrics) deployFailed() {
	m.deployFailures = m.reg.Counter("deploy_failures_total", "endpoint", m.Endpoint)
	m.deployFailures.Inc()
}

func (m *epMetrics) runFor(ch core.ChannelKind) *obs.Counter {
	c := m.runsByChannel[ch]
	if c == nil {
		c = m.reg.Counter("runs_total", "endpoint", m.Endpoint, "channel", ch.String())
		m.runsByChannel[ch] = c
	}
	return c
}

// windowCounts is the part of an endpoint's report the registry keeps: its
// counters at one instant. The counters are cumulative, because the
// monitor and /metrics read them that way; a report subtracts the counts
// its window opened with.
type windowCounts struct {
	shed, rerouted, cold, warm, deployFailures int64
}

func (m *epMetrics) counts() windowCounts {
	return windowCounts{m.Shed.Value(), m.Rerouted.Value(),
		m.ColdStarts.Value(), m.WarmStarts.Value(), m.deployFailures.Value()}
}
