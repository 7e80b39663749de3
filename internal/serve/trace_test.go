package serve

import (
	"bytes"
	"encoding/json"
	"strconv"
	"strings"
	"testing"
	"time"

	"fsdinference/internal/cloud/env"
	"fsdinference/internal/core"
	"fsdinference/internal/obs"
	"fsdinference/internal/workload"
)

// tracedTestService builds a two-size service — a serial endpoint and a
// sharded Memory-channel endpoint with multiple workers, so traces cover
// request, phase, run, worker, op and KV tracks — with tracing on.
func tracedTestService(t *testing.T, sampleEvery int) *Service {
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
		WithTracing(sampleEvery),
	)
	if err != nil {
		t.Fatal(err)
	}
	return svc
}

// TestTraceByteIdenticalAcrossReplayModes is the determinism contract of
// the observability layer: the same trace at the same seed and sampling
// rate exports byte-identical Chrome JSON whether it replays on one
// shared kernel, sharded across lanes, or streamed just-in-time.
func TestTraceByteIdenticalAcrossReplayModes(t *testing.T) {
	trace := workload.Day(40*6, []int{64, 128}, 6, 9)
	opts := ReplayOptions{Seed: 17}

	export := func(name string, run func(*Service) (*Report, error)) ([]byte, []byte) {
		t.Helper()
		svc := tracedTestService(t, 3)
		rep, err := run(svc)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if rep.Failed != 0 {
			t.Fatalf("%s: %d failed queries", name, rep.Failed)
		}
		var tr, met bytes.Buffer
		if err := svc.Tracer().WriteChrome(&tr); err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if err := svc.Metrics().WriteText(&met); err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		return tr.Bytes(), met.Bytes()
	}

	single, singleMet := export("single", func(s *Service) (*Report, error) {
		return s.Replay(trace, opts)
	})
	laned, lanedMet := export("lanes", func(s *Service) (*Report, error) {
		return s.ReplayLanes(2, trace, opts)
	})
	streamed, streamedMet := export("stream", func(s *Service) (*Report, error) {
		return s.ReplayStream(workload.Stream(trace, 7), opts)
	})

	if !bytes.Equal(single, laned) {
		t.Errorf("laned trace diverges from single-kernel (%d vs %d bytes):\n%s",
			len(laned), len(single), firstDiff(single, laned))
	}
	if !bytes.Equal(single, streamed) {
		t.Errorf("streamed trace diverges from single-kernel (%d vs %d bytes):\n%s",
			len(streamed), len(single), firstDiff(single, streamed))
	}
	if !bytes.Equal(singleMet, lanedMet) {
		t.Errorf("laned metrics diverge:\n--- single ---\n%s--- lanes ---\n%s", singleMet, lanedMet)
	}
	if !bytes.Equal(singleMet, streamedMet) {
		t.Errorf("streamed metrics diverge:\n--- single ---\n%s--- stream ---\n%s", singleMet, streamedMet)
	}

	validateChromeSchema(t, single)
}

func firstDiff(a, b []byte) string {
	la, lb := bytes.Split(a, []byte("\n")), bytes.Split(b, []byte("\n"))
	for i := 0; i < len(la) && i < len(lb); i++ {
		if !bytes.Equal(la[i], lb[i]) {
			return "line " + strconv.Itoa(i+1) + ":\n  a: " + string(la[i]) + "\n  b: " + string(lb[i])
		}
	}
	return "one trace is a prefix of the other"
}

// validateChromeSchema checks a serving-layer export against the Chrome
// trace-event schema and the coverage the instrumentation promises:
// request/run async pairs balance, every expected track family appears,
// and no event carries an allocation-order span id.
func validateChromeSchema(t *testing.T, data []byte) {
	t.Helper()
	var doc struct {
		DisplayTimeUnit string `json:"displayTimeUnit"`
		TraceEvents     []struct {
			Name string          `json:"name"`
			Cat  string          `json:"cat"`
			Ph   string          `json:"ph"`
			TS   json.Number     `json:"ts"`
			PID  int             `json:"pid"`
			TID  int             `json:"tid"`
			ID   string          `json:"id"`
			Args json.RawMessage `json:"args"`
		} `json:"traceEvents"`
	}
	if err := json.Unmarshal(data, &doc); err != nil {
		t.Fatalf("export is not valid JSON: %v", err)
	}
	if doc.DisplayTimeUnit != "ms" {
		t.Errorf("displayTimeUnit = %q", doc.DisplayTimeUnit)
	}
	async := map[string]int{}
	cats := map[string]bool{}
	names := map[string]bool{}
	tracks := map[string]bool{}
	for i, ev := range doc.TraceEvents {
		switch ev.Ph {
		case "M":
			if ev.Name == "thread_name" {
				var args struct {
					Name string `json:"name"`
				}
				if err := json.Unmarshal(ev.Args, &args); err != nil {
					t.Fatalf("event %d bad thread_name args: %v", i, err)
				}
				tracks[args.Name] = true
			}
			continue
		case "X", "i":
		case "b":
			async[ev.ID]++
		case "e":
			async[ev.ID]--
		default:
			t.Fatalf("event %d unknown phase %q", i, ev.Ph)
		}
		cats[ev.Cat] = true
		names[ev.Name] = true
		if ev.PID != 1 || ev.TID < 1 {
			t.Errorf("event %d (%s) pid/tid = %d/%d", i, ev.Name, ev.PID, ev.TID)
		}
		if _, err := strconv.ParseFloat(ev.TS.String(), 64); err != nil {
			t.Errorf("event %d (%s) bad ts %q", i, ev.Name, ev.TS)
		}
		if ev.Ph == "b" && ev.Cat == "req" && !strings.HasPrefix(ev.ID, "q") {
			t.Errorf("request async id %q is not a trace-index id", ev.ID)
		}
	}
	for id, n := range async {
		if n != 0 {
			t.Errorf("unbalanced async pair %q: %+d begins", id, n)
		}
	}
	// Request phases render inside the request's async envelope (cat
	// "req"), so coverage is checked by span name there.
	for _, cat := range []string{"req", "run", "worker", "op"} {
		if !cats[cat] {
			t.Errorf("export has no %q events", cat)
		}
	}
	for _, name := range []string{"request", "coalesce", "queue", "run", "worker", "layer", "send", "recv", "load"} {
		if !names[name] {
			t.Errorf("export has no %q spans", name)
		}
	}
	wantTracks := map[string]bool{"replica": false, "worker": false}
	for tr := range tracks {
		switch {
		case strings.Contains(tr, "/w"):
			wantTracks["worker"] = true
		case strings.Contains(tr, "/r"):
			wantTracks["replica"] = true
		}
	}
	for fam, seen := range wantTracks {
		if !seen {
			t.Errorf("no %s track in export (tracks: %v)", fam, tracks)
		}
	}
}

// TestTraceKVFailoverSpans: an injected node kill surfaces as a fault
// span on the shard's KV track, covering the failover window from kill
// to replica promotion.
func TestTraceKVFailoverSpans(t *testing.T) {
	trace := workload.Day(40*6, []int{64, 128}, 6, 9)
	svc := tracedTestService(t, 1)
	rep, err := svc.Replay(trace, ReplayOptions{
		Seed:  17,
		Chaos: []ChaosEvent{{At: time.Hour, Kind: KillNode, Endpoint: "mem128", Shard: 0}},
	})
	if err != nil {
		t.Fatal(err)
	}
	if rep.Usage.KVFailovers != 1 {
		t.Fatalf("expected one failover, got report:\n%s", rep)
	}
	var fault *obs.Span
	for i, sp := range svc.Tracer().Spans() {
		if sp.Kind == obs.KindFault && sp.Name == "failover" {
			fault = &svc.Tracer().Spans()[i]
		}
	}
	if fault == nil {
		t.Fatal("no failover fault span recorded")
	}
	if !strings.Contains(fault.Track, "/kv/s0") {
		t.Errorf("fault span on track %q, want a .../kv/s0 track", fault.Track)
	}
	if fault.End <= fault.Start {
		t.Errorf("failover window empty: %v..%v", fault.Start, fault.End)
	}
}

// TestTracingOffReplayUnchanged: without WithTracing the service exposes
// nil observability handles, the nil tracer still exports an empty valid
// document, and the replay result matches a traced run's report — proof
// instrumentation doesn't perturb the simulation.
func TestTracingOffReplayUnchanged(t *testing.T) {
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
	if off.Tracer() != nil || off.Metrics() != nil {
		t.Fatal("tracing-off service exposes observability handles")
	}
	repOff, err := off.Replay(trace, opts)
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := off.Tracer().WriteChrome(&buf); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(buf.String(), `"traceEvents":[]`) {
		t.Errorf("nil tracer export: %q", buf.String())
	}

	repOn, err := tracedTestService(t, 1).Replay(trace, opts)
	if err != nil {
		t.Fatal(err)
	}
	if repOff.String() != repOn.String() {
		t.Errorf("tracing changed the replay outcome:\n--- off ---\n%s\n--- on ---\n%s", repOff, repOn)
	}
}
