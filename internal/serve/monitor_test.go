package serve

import (
	"bytes"
	"strings"
	"testing"
	"time"

	"fsdinference/internal/cloud/env"
	"fsdinference/internal/core"
	"fsdinference/internal/obs/monitor"
	"fsdinference/internal/workload"
)

// monitorTestSpec exercises both objective kinds over the two-size test
// service: a latency quantile on the sharded memory endpoint and a
// service-wide availability objective.
func monitorTestSpec() monitor.Spec {
	return monitor.Spec{
		Interval: time.Minute,
		SLOs: []monitor.SLO{
			{Name: "lat", Endpoint: "mem128", Kind: monitor.LatencyQuantile,
				Target: 500 * time.Millisecond, Window: 24 * time.Hour, Objective: 0.99},
			{Name: "avail", Kind: monitor.Availability,
				Window: 24 * time.Hour, Objective: 0.999},
		},
	}
}

// monitoredTestService is tracedTestService's monitor twin: the same
// two-size service with the SLO monitor on (and tracing off, so the
// metrics registry's monitor-only enablement is covered too).
func monitoredTestService(t *testing.T, spec monitor.Spec) *Service {
	t.Helper()
	svc, err := NewService(env.NewDefault(),
		WithEndpoint("s64", testModel(t, 64, 3)),
		WithEndpoint("mem128", testModel(t, 128, 3),
			WithChannel(core.Memory), WithWorkers(3),
			WithDeployOverride(func(c *core.Config) {
				c.KVNodes = 2
				c.KVReplicas = 1
			})),
		WithCoalescing(32, 150*time.Millisecond),
		WithReplicas(2),
		WithMonitor(spec),
	)
	if err != nil {
		t.Fatal(err)
	}
	return svc
}

// monitorExports renders every monitor surface whose byte-identity the
// determinism contract promises: the time-series CSV, the Prometheus
// text exposition, the alert log and the metrics registry text.
func monitorExports(t *testing.T, svc *Service) (csv, prom, alerts, met []byte) {
	t.Helper()
	var c, p, a, m bytes.Buffer
	if err := svc.Monitor().WriteCSV(&c); err != nil {
		t.Fatal(err)
	}
	if err := svc.Monitor().WriteProm(&p); err != nil {
		t.Fatal(err)
	}
	if err := svc.Monitor().WriteAlerts(&a); err != nil {
		t.Fatal(err)
	}
	if err := svc.Metrics().WriteText(&m); err != nil {
		t.Fatal(err)
	}
	return c.Bytes(), p.Bytes(), a.Bytes(), m.Bytes()
}

// TestMonitorByteIdenticalAcrossReplayModes is the monitor's determinism
// contract: the same trace at the same seed and scrape interval exports
// byte-identical time-series and alert logs whether it replays on one
// shared kernel, sharded across lanes, or streamed just-in-time. Lane
// merge is a per-endpoint series union plus an alert-log concatenation,
// so any divergence here means a scrape fired at a different simulated
// instant in one of the modes.
func TestMonitorByteIdenticalAcrossReplayModes(t *testing.T) {
	trace := workload.Day(40*6, []int{64, 128}, 6, 9)
	opts := ReplayOptions{Seed: 17}

	export := func(name string, run func(*Service) (*Report, error)) (csv, prom, alerts, met []byte) {
		t.Helper()
		svc := monitoredTestService(t, monitorTestSpec())
		rep, err := run(svc)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if rep.Failed != 0 {
			t.Fatalf("%s: %d failed queries", name, rep.Failed)
		}
		return monitorExports(t, svc)
	}

	sCSV, sProm, sAlerts, sMet := export("single", func(s *Service) (*Report, error) {
		return s.Replay(trace, opts)
	})
	lCSV, lProm, lAlerts, lMet := export("lanes", func(s *Service) (*Report, error) {
		return s.ReplayLanes(2, trace, opts)
	})
	mCSV, mProm, mAlerts, mMet := export("stream", func(s *Service) (*Report, error) {
		return s.ReplayStream(workload.Stream(trace, 7), opts)
	})

	for _, cmp := range []struct {
		mode        string
		csv, prom   []byte
		alerts, met []byte
	}{
		{"lanes", lCSV, lProm, lAlerts, lMet},
		{"stream", mCSV, mProm, mAlerts, mMet},
	} {
		if !bytes.Equal(sCSV, cmp.csv) {
			t.Errorf("%s time-series CSV diverges from single-kernel:\n%s", cmp.mode, firstDiff(sCSV, cmp.csv))
		}
		if !bytes.Equal(sProm, cmp.prom) {
			t.Errorf("%s prom exposition diverges:\n%s", cmp.mode, firstDiff(sProm, cmp.prom))
		}
		if !bytes.Equal(sAlerts, cmp.alerts) {
			t.Errorf("%s alert log diverges:\n--- single ---\n%s--- %s ---\n%s", cmp.mode, sAlerts, cmp.mode, cmp.alerts)
		}
		if !bytes.Equal(sMet, cmp.met) {
			t.Errorf("%s metrics text diverges:\n%s", cmp.mode, firstDiff(sMet, cmp.met))
		}
	}

	// Sanity on the single-kernel series itself: both endpoints scraped,
	// the same number of windows each (targets advance in lockstep to the
	// global end), and traffic landed in the series.
	svc := monitoredTestService(t, monitorTestSpec())
	if _, err := svc.Replay(trace, opts); err != nil {
		t.Fatal(err)
	}
	s64, mem := svc.Monitor().Series("s64"), svc.Monitor().Series("mem128")
	if len(s64) == 0 || len(s64) != len(mem) {
		t.Fatalf("series lengths: s64=%d mem128=%d, want equal and nonzero", len(s64), len(mem))
	}
	var reqs int64
	for _, smp := range mem {
		reqs += smp.Requests
	}
	if reqs == 0 {
		t.Fatal("mem128 series recorded no requests")
	}
}

// TestMonitorChaosSingleLaneFallback extends the chaos-trace metrics
// equality to monitor time-series: a chaos trace forces ReplayLanes into
// its single-lane fallback, which must still export the same series,
// alerts and metrics text as Replay and ReplayStream — and the killed
// shard's failover must surface as a KV-failover window with an
// unhealthy health state.
func TestMonitorChaosSingleLaneFallback(t *testing.T) {
	trace := workload.Day(40*6, []int{64, 128}, 6, 9)
	opts := ReplayOptions{
		Seed:  17,
		Chaos: []ChaosEvent{{At: time.Hour, Kind: KillNode, Endpoint: "mem128", Shard: 0}},
	}

	single := monitoredTestService(t, monitorTestSpec())
	rep, err := single.Replay(trace, opts)
	if err != nil {
		t.Fatal(err)
	}
	if rep.Usage.KVFailovers != 1 {
		t.Fatalf("expected one failover, got %d", rep.Usage.KVFailovers)
	}
	sCSV, _, sAlerts, sMet := monitorExports(t, single)

	laned := monitoredTestService(t, monitorTestSpec())
	if _, err := laned.ReplayLanes(2, trace, opts); err != nil {
		t.Fatal(err)
	}
	lCSV, _, lAlerts, lMet := monitorExports(t, laned)

	streamed := monitoredTestService(t, monitorTestSpec())
	if _, err := streamed.ReplayStream(workload.Stream(trace, 7), opts); err != nil {
		t.Fatal(err)
	}
	mCSV, _, mAlerts, mMet := monitorExports(t, streamed)

	if !bytes.Equal(sCSV, lCSV) {
		t.Errorf("chaos fallback CSV diverges:\n%s", firstDiff(sCSV, lCSV))
	}
	if !bytes.Equal(sCSV, mCSV) {
		t.Errorf("streamed chaos CSV diverges:\n%s", firstDiff(sCSV, mCSV))
	}
	if !bytes.Equal(sAlerts, lAlerts) || !bytes.Equal(sAlerts, mAlerts) {
		t.Errorf("chaos alert logs diverge:\n--- single ---\n%s--- lanes ---\n%s--- stream ---\n%s",
			sAlerts, lAlerts, mAlerts)
	}
	if !bytes.Equal(sMet, lMet) {
		t.Errorf("chaos fallback metrics text diverges:\n%s", firstDiff(sMet, lMet))
	}
	if !bytes.Equal(sMet, mMet) {
		t.Errorf("streamed chaos metrics text diverges:\n%s", firstDiff(sMet, mMet))
	}

	// The kill at t=1h lands in window 60 (1m interval): exactly one
	// window carries the failover delta, and that window is unhealthy.
	var failWindows int
	for _, smp := range single.Monitor().Series("mem128") {
		if smp.KVFailovers > 0 {
			failWindows++
			if smp.Health != monitor.Unhealthy {
				t.Errorf("failover window %d health = %v, want unhealthy", smp.Window, smp.Health)
			}
			if got := time.Duration(smp.Window) * time.Minute; got > time.Hour || smp.End < time.Hour {
				t.Errorf("failover landed in window %d (%v..%v), want the one covering t=1h",
					smp.Window, smp.Start, smp.End)
			}
		}
	}
	if failWindows != 1 {
		t.Errorf("failover windows = %d, want 1", failWindows)
	}
}

// TestAlertDrivenReplanFires closes the loop end to end: an SLO endpoint
// under a latency objective it cannot meet must page within the first
// scrape windows, and the page must trigger an immediate alert-driven
// re-plan — bypassing the MinRuns drift gate, which is configured far
// too high to ever fire here.
func TestAlertDrivenReplanFires(t *testing.T) {
	if testing.Short() {
		t.Skip("replay with planner trials is a long simulation")
	}
	m := testModel(t, 256, 6)
	svc, err := NewService(env.NewDefault(),
		WithEndpoint("slo", m, WithSLO(SLOOptions{
			LatencyWeight: 0, // cost pick first; the alert biases toward latency
			Channels:      []core.ChannelKind{core.Queue, core.Memory},
			Workers:       []int{2},
			ProbeBatch:    4,
			MinRuns:       1 << 20, // drift trigger effectively off
		})),
		WithCoalescing(4, 0),
		WithMonitor(monitor.Spec{
			Interval: time.Minute,
			SLOs: []monitor.SLO{{
				Name: "lat", Endpoint: "slo", Kind: monitor.LatencyQuantile,
				Target: time.Millisecond, // unmeetable: every request burns budget
				Window: 24 * time.Hour, Objective: 0.99,
			}},
		}),
	)
	if err != nil {
		t.Fatal(err)
	}
	ep := svc.byName["slo"]
	if ep.cfg.Channel != core.Queue {
		t.Fatalf("initial pick %v, want queue (cost scoring)", ep.cfg.Channel)
	}

	// Steady traffic, one query every 2s for 10 minutes: every window has
	// requests and every request misses the 1ms target, so the page rule
	// fires at the first finalized window.
	var trace []workload.Query
	for i := 0; i < 300; i++ {
		trace = append(trace, workload.Query{At: time.Duration(i) * 2 * time.Second, Neurons: 256, Samples: 4})
	}
	rep, err := svc.Replay(trace, ReplayOptions{Seed: 11})
	if err != nil {
		t.Fatal(err)
	}
	if rep.Failed != 0 {
		t.Fatalf("%d failed queries", rep.Failed)
	}

	alerts := svc.Monitor().Alerts()
	var page *monitor.AlertEvent
	for i := range alerts {
		if alerts[i].Severity == monitor.Page && alerts[i].Firing {
			page = &alerts[i]
			break
		}
	}
	if page == nil {
		t.Fatalf("no page fired; alerts: %+v", alerts)
	}
	if page.At > 2*time.Minute {
		t.Errorf("page fired at %v, want within the first windows", page.At)
	}

	er := rep.Endpoints[0]
	if er.Reselections == 0 {
		t.Fatal("page fired but no alert-driven re-selection ran")
	}
	if len(er.Replans) == 0 {
		t.Fatalf("no re-plan recorded:\n%s", rep)
	}
	first := er.Replans[0]
	if !strings.Contains(first.Reason, "slo alert lat") {
		t.Errorf("first replan reason %q, want an slo-alert reason", first.Reason)
	}
	if first.At > page.At {
		t.Errorf("replan at %v after the page at %v; the sink runs inside the scrape event", first.At, page.At)
	}
	if first.To != core.Memory {
		t.Errorf("latency-biased replan chose %v, want memory", first.To)
	}
	if svc.Monitor().TimeInViolation("slo", "lat") == 0 {
		t.Error("violation windows recorded no time-in-violation")
	}
}

// TestAlertBoostAddsEmergencyReplica: on a fixed endpoint (no planner)
// the alert-driven action is an emergency replica, metered as a
// scale-up, beyond what the fixed scaling policy would ever request.
func TestAlertBoostAddsEmergencyReplica(t *testing.T) {
	svc, err := NewService(env.NewDefault(),
		WithEndpoint("s64", testModel(t, 64, 3)),
		WithCoalescing(8, 50*time.Millisecond),
		WithReplicas(1),
		WithMonitor(monitor.Spec{
			Interval: time.Minute,
			SLOs: []monitor.SLO{{
				Name: "lat", Endpoint: "s64", Kind: monitor.LatencyQuantile,
				Target: time.Millisecond, Window: 24 * time.Hour, Objective: 0.99,
			}},
		}),
	)
	if err != nil {
		t.Fatal(err)
	}
	var trace []workload.Query
	for i := 0; i < 120; i++ {
		trace = append(trace, workload.Query{At: time.Duration(i) * 2 * time.Second, Neurons: 64, Samples: 4})
	}
	rep, err := svc.Replay(trace, ReplayOptions{Seed: 5})
	if err != nil {
		t.Fatal(err)
	}
	er := rep.Endpoints[0]
	if er.ScaleUps == 0 {
		t.Fatalf("no emergency scale-up despite a firing page:\n%s", rep)
	}
	if er.PeakReplicas < 2 {
		t.Errorf("peak replicas = %d, want >= 2 (fixed pool of 1 plus the boost)", er.PeakReplicas)
	}
}

// TestMonitorPassiveReplayUnchanged: a Passive monitor observes without
// acting, so the replay's request-level outcome matches an unmonitored
// run exactly — scrapes read instruments, never perturb scheduling. (The
// report's time-integrated fields — replica-seconds, node-hours — may
// differ by up to one scrape interval, because a monitored replay's
// kernel runs to the trailing scrape boundary.)
func TestMonitorPassiveReplayUnchanged(t *testing.T) {
	trace := workload.Day(20*6, []int{64, 128}, 6, 5)
	opts := ReplayOptions{Seed: 3}

	off, err := NewService(env.NewDefault(),
		WithEndpoint("s64", testModel(t, 64, 3)),
		WithEndpoint("mem128", testModel(t, 128, 3),
			WithChannel(core.Memory), WithWorkers(3),
			WithDeployOverride(func(c *core.Config) {
				c.KVNodes = 2
				c.KVReplicas = 1
			})),
		WithCoalescing(32, 150*time.Millisecond),
		WithReplicas(2),
	)
	if err != nil {
		t.Fatal(err)
	}
	if off.Monitor() != nil || off.Metrics() != nil {
		t.Fatal("monitor-off service exposes monitoring handles")
	}
	repOff, err := off.Replay(trace, opts)
	if err != nil {
		t.Fatal(err)
	}

	spec := monitorTestSpec()
	spec.Passive = true
	on := monitoredTestService(t, spec)
	repOn, err := on.Replay(trace, opts)
	if err != nil {
		t.Fatal(err)
	}

	if repOff.Queries != repOn.Queries || repOff.Failed != repOn.Failed ||
		repOff.Samples != repOn.Samples || repOff.Horizon != repOn.Horizon {
		t.Errorf("monitoring changed the replay outcome: off %d/%d/%d/%v on %d/%d/%d/%v",
			repOff.Queries, repOff.Failed, repOff.Samples, repOff.Horizon,
			repOn.Queries, repOn.Failed, repOn.Samples, repOn.Horizon)
	}
	if repOff.Latency != repOn.Latency {
		t.Errorf("monitoring changed the latency distribution:\noff %+v\non  %+v", repOff.Latency, repOn.Latency)
	}
	for i := range repOff.Endpoints {
		a, b := repOff.Endpoints[i], repOn.Endpoints[i]
		if a.Runs != b.Runs || a.Shed != b.Shed || a.ColdStarts != b.ColdStarts {
			t.Errorf("endpoint %s: runs/shed/cold %d/%d/%d vs %d/%d/%d",
				a.Name, a.Runs, a.Shed, a.ColdStarts, b.Runs, b.Shed, b.ColdStarts)
		}
	}
	if len(on.Monitor().Series("mem128")) == 0 {
		t.Error("passive monitor recorded no series")
	}
}

// TestMonitorNilReceiverSafe: Service.Monitor() is nil on a monitor-off
// service, and the nil monitor's read API is safe to chain — Series,
// Alerts, Endpoints and TimeInViolation return empty, the exporters
// write without panicking. Mirrors the obs.Tracer nil-safety contract.
func TestMonitorNilReceiverSafe(t *testing.T) {
	var m *monitor.Monitor
	if s := m.Series("ep"); s != nil {
		t.Errorf("nil Series = %v, want nil", s)
	}
	if a := m.Alerts(); a != nil {
		t.Errorf("nil Alerts = %v, want nil", a)
	}
	if eps := m.Endpoints(); eps != nil {
		t.Errorf("nil Endpoints = %v, want nil", eps)
	}
	if v := m.TimeInViolation("ep", "slo"); v != 0 {
		t.Errorf("nil TimeInViolation = %v, want 0", v)
	}
	var buf bytes.Buffer
	if err := m.WriteAlerts(&buf); err != nil {
		t.Errorf("nil WriteAlerts: %v", err)
	}
	if !strings.Contains(buf.String(), "no alerts") {
		t.Errorf("nil WriteAlerts wrote %q", buf.String())
	}
	buf.Reset()
	if err := m.WriteProm(&buf); err != nil {
		t.Errorf("nil WriteProm: %v", err)
	}
	if buf.Len() != 0 {
		t.Errorf("nil WriteProm wrote %q", buf.String())
	}
	buf.Reset()
	if err := m.WriteCSV(&buf); err != nil {
		t.Errorf("nil WriteCSV: %v", err)
	}

	svc, err := NewService(env.NewDefault(),
		WithEndpoint("ep", testModel(t, 64, 3)))
	if err != nil {
		t.Fatal(err)
	}
	if got := svc.Monitor().Series("ep"); got != nil {
		t.Errorf("monitor-off Series = %v, want nil", got)
	}
}
