package monitor

import (
	"bytes"
	"math"
	"strings"
	"testing"
	"time"

	"fsdinference/internal/obs"
	"fsdinference/internal/sim"
)

// harness binds a monitor to a bare kernel with synthetic instruments,
// standing in for the serving layer.
type harness struct {
	k        *sim.Kernel
	mon      *Monitor
	requests *obs.Counter
	failures *obs.Counter
	latency  *obs.Histogram
	queue    *obs.Gauge
	replicas *obs.Gauge
	busy     bool
}

func newHarness(t *testing.T, spec Spec) *harness {
	t.Helper()
	h := &harness{
		k:        sim.New(),
		requests: &obs.Counter{},
		failures: &obs.Counter{},
		latency:  &obs.Histogram{},
		queue:    &obs.Gauge{},
		replicas: &obs.Gauge{},
		busy:     true,
	}
	mon, err := New(spec, h.k.Clock(),
		func(d time.Duration, fn func()) { h.k.At(d, fn) },
		func() bool { return h.busy })
	if err != nil {
		t.Fatal(err)
	}
	mon.Register(Target{
		Endpoint: "ep",
		Requests: h.requests, Failures: h.failures,
		Latency: h.latency, QueueDepth: h.queue, Replicas: h.replicas,
	})
	h.mon = mon
	return h
}

// at schedules an event that records n requests with the given latency
// and failure split at simulated time d.
func (h *harness) at(d time.Duration, n int, lat time.Duration, failed int) {
	h.k.At(d, func() {
		for i := 0; i < n; i++ {
			h.requests.Inc()
			h.latency.Observe(lat)
		}
		h.failures.Add(int64(failed))
	})
}

func TestScrapeWindowsAndDeltas(t *testing.T) {
	h := newHarness(t, Spec{Interval: time.Minute})
	// Window 0: 10 fast requests. Window 2: 5 slow ones. Window 1 idle.
	h.at(10*time.Second, 10, 20*time.Millisecond, 0)
	h.at(2*time.Minute+30*time.Second, 5, 800*time.Millisecond, 1)
	// Keep the chain alive into window 3, then let it drain.
	h.k.At(3*time.Minute+10*time.Second, func() { h.busy = false })
	h.mon.Start(0)
	if err := h.k.Run(); err != nil {
		t.Fatal(err)
	}
	series := h.mon.Series("ep")
	if len(series) != 4 {
		t.Fatalf("got %d windows, want 4 (chain stops at the first boundary after work drains)", len(series))
	}
	w0, w1, w2 := series[0], series[1], series[2]
	if w0.Requests != 10 || w0.LatencyCount != 10 || w0.Failures != 0 {
		t.Errorf("window 0 = %+v, want 10 requests", w0)
	}
	if w0.P95 < 20*time.Millisecond || w0.P95 > 22*time.Millisecond {
		t.Errorf("window 0 p95 = %v, want ~20ms", w0.P95)
	}
	if w1.Requests != 0 || w1.LatencyCount != 0 {
		t.Errorf("idle window 1 = %+v, want zero deltas", w1)
	}
	if w2.Requests != 5 || w2.Failures != 1 {
		t.Errorf("window 2 = %+v, want 5 requests 1 failure", w2)
	}
	if w2.P99 < 800*time.Millisecond || w2.P99 > 900*time.Millisecond {
		t.Errorf("window 2 p99 = %v, want ~800ms", w2.P99)
	}
	if got := w0.RPS(); got != 10.0/60 {
		t.Errorf("window 0 RPS = %v", got)
	}
	// Scrapes are kernel events: the kernel clock advanced to the last
	// scrape boundary.
	if h.k.Now() != 4*time.Minute {
		t.Errorf("kernel drained at %v, want the window-3 boundary", h.k.Now())
	}
}

func TestBurnRateAlertLifecycle(t *testing.T) {
	spec := Spec{
		Interval: time.Minute,
		SLOs: []SLO{{
			Name: "p95", Kind: LatencyQuantile,
			Target: 100 * time.Millisecond, Objective: 0.95,
		}},
	}
	h := newHarness(t, spec)
	var sunk []AlertEvent
	h.mon.Subscribe(func(ev AlertEvent) { sunk = append(sunk, ev) })

	// 10 healthy minutes, then an hour of hard violation, then quiet.
	for m := 0; m < 10; m++ {
		h.at(time.Duration(m)*time.Minute+5*time.Second, 20, 10*time.Millisecond, 0)
	}
	for m := 10; m < 70; m++ {
		h.at(time.Duration(m)*time.Minute+5*time.Second, 20, 2*time.Second, 0)
	}
	h.k.At(130*time.Minute, func() { h.busy = false })
	h.mon.Start(0)
	if err := h.k.Run(); err != nil {
		t.Fatal(err)
	}

	alerts := h.mon.Alerts()
	if len(alerts) == 0 {
		t.Fatal("no alerts fired")
	}
	var pageFire, pageResolve, ticketFire *AlertEvent
	for i := range alerts {
		ev := &alerts[i]
		switch {
		case ev.Severity == Page && ev.Firing && pageFire == nil:
			pageFire = ev
		case ev.Severity == Page && !ev.Firing && pageFire != nil && pageResolve == nil:
			pageResolve = ev
		case ev.Severity == Ticket && ev.Firing && ticketFire == nil:
			ticketFire = ev
		}
	}
	if pageFire == nil {
		t.Fatal("page never fired")
	}
	// The 5m burn hits 1/0.05 = 20x immediately; the page waits for the
	// 1h lookback to cross 14.4x (0.72 bad fraction), which the 10
	// healthy windows delay until ~26 violating windows have passed.
	if pageFire.At < 11*time.Minute || pageFire.At > 45*time.Minute {
		t.Errorf("page fired at %v, want during the violation hour", pageFire.At)
	}
	if pageFire.BurnShort < 14.4 || pageFire.BurnLong < 14.4 {
		t.Errorf("page burn rates %v/%v below threshold", pageFire.BurnShort, pageFire.BurnLong)
	}
	// The slow-burn ticket needs only a 6x burn, so a hard violation
	// trips it too (earlier than the page here — its long lookback
	// dilutes less).
	if ticketFire == nil {
		t.Error("ticket never fired")
	}
	if pageResolve == nil {
		t.Error("page never resolved after traffic quieted")
	}
	if len(sunk) != len(alerts) {
		t.Errorf("sink saw %d events, log has %d", len(sunk), len(alerts))
	}

	// Health tracks the firing rules: unhealthy during the violation.
	series := h.mon.Series("ep")
	sawUnhealthy := false
	for _, s := range series {
		if s.Window >= 40 && s.Window < 65 && s.Health == Unhealthy {
			sawUnhealthy = true
		}
	}
	if !sawUnhealthy {
		t.Error("no unhealthy window during the violation")
	}
	if v := h.mon.TimeInViolation("ep", "p95"); v != 60*time.Minute {
		t.Errorf("time in violation = %v, want the 60 violating windows", v)
	}
}

func TestRunToCatchesUpDormantChain(t *testing.T) {
	h := newHarness(t, Spec{Interval: time.Minute})
	h.at(30*time.Second, 4, 10*time.Millisecond, 0)
	h.k.At(90*time.Second, func() { h.busy = false })
	h.mon.Start(0)
	if err := h.k.Run(); err != nil {
		t.Fatal(err)
	}
	if got := len(h.mon.Series("ep")); got != 2 {
		t.Fatalf("before RunTo: %d windows, want 2", got)
	}
	// Another lane ran to 10m; this lane must finalize the same windows
	// as kernel events.
	h.mon.RunTo(10 * time.Minute)
	if err := h.k.Run(); err != nil {
		t.Fatal(err)
	}
	if got := len(h.mon.Series("ep")); got != 10 {
		t.Fatalf("after RunTo(10m): %d windows, want 10", got)
	}
	if h.k.Now() != 10*time.Minute {
		t.Errorf("kernel at %v after RunTo, want 10m", h.k.Now())
	}
	for _, s := range h.mon.Series("ep")[2:] {
		if s.Requests != 0 || s.LatencyCount != 0 {
			t.Errorf("catch-up window %d not idle: %+v", s.Window, s)
		}
	}
}

func TestExportsDeterministic(t *testing.T) {
	run := func() (string, string, string) {
		spec := Spec{
			Interval: time.Minute,
			SLOs:     []SLO{{Name: "avail", Kind: Availability, Objective: 0.9}},
		}
		h := newHarness(t, spec)
		h.at(10*time.Second, 10, 30*time.Millisecond, 0)
		h.at(70*time.Second, 10, 40*time.Millisecond, 8)
		h.k.At(3*time.Minute+1*time.Second, func() { h.busy = false })
		h.mon.Start(0)
		if err := h.k.Run(); err != nil {
			t.Fatal(err)
		}
		var csv, prom, alerts bytes.Buffer
		if err := h.mon.WriteCSV(&csv); err != nil {
			t.Fatal(err)
		}
		if err := h.mon.WriteProm(&prom); err != nil {
			t.Fatal(err)
		}
		if err := h.mon.WriteAlerts(&alerts); err != nil {
			t.Fatal(err)
		}
		return csv.String(), prom.String(), alerts.String()
	}
	c1, p1, a1 := run()
	c2, p2, a2 := run()
	if c1 != c2 || p1 != p2 || a1 != a2 {
		t.Error("exports differ between identical runs")
	}
	if !strings.Contains(c1, "ep,0,") || !strings.Contains(c1, ",healthy") {
		t.Errorf("CSV missing expected rows:\n%s", c1)
	}
	if !strings.Contains(p1, `fsd_requests_total{endpoint="ep"} 20`) {
		t.Errorf("prom text missing cumulative counter:\n%s", p1)
	}
	if !strings.Contains(p1, "fsd_slo_burn_rate") {
		t.Errorf("prom text missing burn rates:\n%s", p1)
	}
}

func TestParseSLO(t *testing.T) {
	slo, err := ParseSLO("latency:p99<=250ms@0.99,endpoint=large,name=big,window=720h")
	if err != nil {
		t.Fatal(err)
	}
	want := SLO{Name: "big", Endpoint: "large", Kind: LatencyQuantile,
		Target: 250 * time.Millisecond, Window: 720 * time.Hour, Objective: 0.99}
	if slo != want {
		t.Errorf("parsed %+v, want %+v", slo, want)
	}
	// The quantile defaults the objective.
	slo, err = ParseSLO("latency:p95<=1s")
	if err != nil {
		t.Fatal(err)
	}
	if slo.Objective != 0.95 || slo.Name != "latency-p95" {
		t.Errorf("default objective wrong: %+v", slo)
	}
	if _, err := ParseSLO("availability@0.999,endpoint=small"); err != nil {
		t.Errorf("availability parse failed: %v", err)
	}
	for _, bad := range []string{"", "latency:p99", "availability", "latency:p0<=1s@0.5", "latency:p99<=1s,bogus=1"} {
		if _, err := ParseSLO(bad); err == nil {
			t.Errorf("ParseSLO(%q) did not fail", bad)
		}
	}
}

// FuzzParseSLO holds the -slo parser to the monitor's own checks: it never
// panics, every SLO it accepts has an objective strictly inside (0, 1),
// and New accepts it.
func FuzzParseSLO(f *testing.F) {
	for _, seed := range []string{
		"latency:p99<=250ms@0.99,endpoint=large,window=720h,name=large-p99",
		"availability@0.999,endpoint=small",
		"latency:p95<=1s",
		"availability@NaN",
		"latency:p99<=250ms@nan",
		"latency:p99<=0s",
	} {
		f.Add(seed)
	}
	clock := func() time.Duration { return 0 }
	sched := func(time.Duration, func()) {}
	f.Fuzz(func(t *testing.T, s string) {
		slo, err := ParseSLO(s)
		if err != nil {
			return
		}
		if !(slo.Objective > 0 && slo.Objective < 1) {
			t.Fatalf("ParseSLO(%q) accepted objective %v", s, slo.Objective)
		}
		if _, err := New(Spec{Interval: 30 * time.Second, SLOs: []SLO{slo}}, clock, sched, nil); err != nil {
			t.Fatalf("ParseSLO(%q) = %+v, which New rejects: %v", s, slo, err)
		}
	})
}

func TestSpecValidation(t *testing.T) {
	clock := func() time.Duration { return 0 }
	sched := func(time.Duration, func()) {}
	for _, spec := range []Spec{
		{Interval: -time.Second},
		{SLOs: []SLO{{Name: "x", Objective: 1.5}}},
		{SLOs: []SLO{{Name: "x", Kind: Availability, Objective: math.NaN()}}},
		{SLOs: []SLO{{Objective: 0.9}}},
		{SLOs: []SLO{{Name: "lat", Kind: LatencyQuantile, Objective: 0.9}}},
		{Rules: []BurnRule{{Short: time.Hour, Long: time.Minute, Burn: 2}}},
		{Rules: []BurnRule{{Short: time.Minute, Long: time.Hour, Burn: 0}}},
	} {
		if _, err := New(spec, clock, sched, nil); err == nil {
			t.Errorf("spec %+v validated", spec)
		}
	}
	if _, err := New(Spec{}, nil, nil, nil); err == nil {
		t.Error("nil clock validated")
	}
	m, err := New(Spec{}, clock, sched, nil)
	if err != nil {
		t.Fatal(err)
	}
	if m.Spec().Interval != time.Minute || len(m.Spec().Rules) != 2 {
		t.Errorf("defaults not applied: %+v", m.Spec())
	}
}
