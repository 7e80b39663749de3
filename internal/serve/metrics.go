package serve

import (
	"fsdinference/internal/core"
	"fsdinference/internal/obs"
	"fsdinference/internal/obs/monitor"
)

// epMetrics caches one endpoint's registry instruments at build time so
// hot-path updates are pointer increments, never registry map lookups.
// It exists only when the service was built WithTracing; every use site
// guards on the nil.
type epMetrics struct {
	reg  *obs.Registry
	name string

	requests     *obs.Counter // resolved requests, completed + failed + shed
	failures     *obs.Counter // requests resolved with an error (incl. shed)
	shed         *obs.Counter
	rerouted     *obs.Counter // requests handed to a least-loaded sibling
	coldStarts   *obs.Counter
	warmStarts   *obs.Counter
	failedRuns   *obs.Counter
	kvFailovers  *obs.Counter // shard failovers of this endpoint's KV clusters
	kvLostValues *obs.Counter
	queueDepth   *obs.Gauge
	poolSize     *obs.Gauge // live replica-pool size
	latency      *obs.Histogram

	// runsByChannel labels run counts with the channel the run actually
	// executed on — an SLO re-plan can change it mid-replay, hence the
	// lazy per-kind resolution.
	runsByChannel map[core.ChannelKind]*obs.Counter
}

func newEpMetrics(reg *obs.Registry, name string) *epMetrics {
	return &epMetrics{
		reg:           reg,
		name:          name,
		requests:      reg.Counter("requests_total", "endpoint", name),
		failures:      reg.Counter("request_failures_total", "endpoint", name),
		shed:          reg.Counter("requests_shed_total", "endpoint", name),
		rerouted:      reg.Counter("requests_rerouted_total", "endpoint", name),
		coldStarts:    reg.Counter("cold_starts_total", "endpoint", name),
		warmStarts:    reg.Counter("warm_starts_total", "endpoint", name),
		failedRuns:    reg.Counter("run_failures_total", "endpoint", name),
		kvFailovers:   reg.Counter("kv_failovers_total", "endpoint", name),
		kvLostValues:  reg.Counter("kv_lost_values_total", "endpoint", name),
		queueDepth:    reg.Gauge("queue_depth", "endpoint", name),
		poolSize:      reg.Gauge("replica_pool_size", "endpoint", name),
		latency:       reg.Histogram("request_latency_ns", "endpoint", name),
		runsByChannel: make(map[core.ChannelKind]*obs.Counter),
	}
}

// setPoolSize is the nil-safe pool-size gauge update on scale events.
func (m *epMetrics) setPoolSize(n int) {
	if m != nil {
		m.poolSize.Set(float64(n))
	}
}

// deployFailed is the nil-safe count of a refused replica deploy. The
// counter is registered at the first failure, so a service that never
// sees one exports no such line.
func (m *epMetrics) deployFailed() {
	if m != nil {
		m.reg.Counter("deploy_failures_total", "endpoint", m.name).Inc()
	}
}

// target wires the endpoint's instruments into the SLO monitor.
func (m *epMetrics) target() monitor.Target {
	return monitor.Target{
		Endpoint:     m.name,
		Requests:     m.requests,
		Failures:     m.failures,
		Shed:         m.shed,
		Rerouted:     m.rerouted,
		ColdStarts:   m.coldStarts,
		WarmStarts:   m.warmStarts,
		KVFailovers:  m.kvFailovers,
		KVLostValues: m.kvLostValues,
		Latency:      m.latency,
		QueueDepth:   m.queueDepth,
		Replicas:     m.poolSize,
	}
}

// setQueueDepth is the nil-safe gauge update on the dispatch hot path:
// metrics off costs exactly the nil comparison.
func (m *epMetrics) setQueueDepth(n int) {
	if m != nil {
		m.queueDepth.Set(float64(n))
	}
}

func (m *epMetrics) runFor(ch core.ChannelKind) *obs.Counter {
	c := m.runsByChannel[ch]
	if c == nil {
		c = m.reg.Counter("runs_total", "endpoint", m.name, "channel", ch.String())
		m.runsByChannel[ch] = c
	}
	return c
}
