package serve

import (
	"bytes"
	"fmt"
	"strconv"
	"strings"
	"testing"
	"time"

	"fsdinference/internal/cloud/env"
	"fsdinference/internal/core"
	"fsdinference/internal/golden"
	"fsdinference/internal/workload"
)

// reportText is a replay's report as its golden file holds it:
// Report.String(), then what the rendered text rounds away, exactly — every
// LatencyStats (total and per endpoint) in nanoseconds, the horizon and the
// total metered cost.
func reportText(rep *Report) string {
	var b strings.Builder
	b.WriteString(rep.String())
	lat := func(name string, ls LatencyStats) {
		fmt.Fprintf(&b, "latency %s: count=%d mean=%d p50=%d p95=%d p99=%d min=%d max=%d\n",
			name, ls.Count, ls.Mean, ls.P50, ls.P95, ls.P99, ls.Min, ls.Max)
	}
	lat("total", rep.Latency)
	for _, er := range rep.Endpoints {
		lat(er.Name, er.Latency)
	}
	fmt.Fprintf(&b, "horizon=%d total_cost=%v\n", rep.Horizon, rep.TotalCost.Total())
	return b.String()
}

// burstTrace squeezes a sporadic day into span, so arrivals contend for
// replicas and the admission policy has something to decide.
func burstTrace(totalSamples int, sizes []int, seed int64, span time.Duration) []workload.Query {
	trace := workload.Day(totalSamples, sizes, 6, seed)
	for i := range trace {
		trace[i].At = time.Duration(float64(trace[i].At) * float64(span) / float64(24*time.Hour))
	}
	return trace
}

// goldenSerialService is three Serial endpoints, one replica each, under
// FIFO admission: three size groups, so ReplayLanes(2) really splits.
func goldenSerialService(t *testing.T) *Service {
	t.Helper()
	var opts []Option
	for _, n := range []int{64, 128, 256} {
		opts = append(opts, WithEndpoint("s"+strconv.Itoa(n), testModel(t, n, 3)))
	}
	opts = append(opts, WithCoalescing(12, 20*time.Millisecond))
	svc, err := NewService(env.NewDefault(), opts...)
	if err != nil {
		t.Fatal(err)
	}
	return svc
}

// goldenSheddingService is a Queue P=2 and a Memory P=2 endpoint under
// DeadlineAdmission without reroute; the Memory endpoint's store is a
// two-shard cluster with one replica, so a chaos kill fails over. extra
// options follow the shape's own.
func goldenSheddingService(t *testing.T, extra ...Option) *Service {
	t.Helper()
	opts := []Option{
		WithEndpoint("q128", testModel(t, 128, 3), WithChannel(core.Queue), WithWorkers(2)),
		WithEndpoint("m256", testModel(t, 256, 3), WithChannel(core.Memory), WithWorkers(2),
			WithDeployOverride(func(c *core.Config) {
				c.KVNodes = 2
				c.KVReplicas = 1
				c.KVFailoverWindow = 2 * time.Second
				c.KVReplicationLag = 300 * time.Millisecond
			})),
		WithCoalescing(6, 0),
		WithAdmission(DeadlineAdmission(false)),
	}
	svc, err := NewService(env.NewDefault(), append(opts, extra...)...)
	if err != nil {
		t.Fatal(err)
	}
	return svc
}

// goldenSheddingReplay is the shedding shape's trace and replay options:
// deadlines tight enough to shed, and a chaos kill on the Memory store.
func goldenSheddingReplay() ([]workload.Query, ReplayOptions) {
	return burstTrace(36*6, []int{128, 256}, 4, 40*time.Second), ReplayOptions{Seed: 5,
		Submit: func(i int, _ workload.Query) SubmitOptions {
			return SubmitOptions{Deadline: time.Duration(1+i%3) * 1500 * time.Millisecond}
		},
		Chaos: []ChaosEvent{{At: 13300 * time.Millisecond, Kind: KillNode, Endpoint: "m256", Shard: 0}},
	}
}

// TestGoldenReplayReports pins what each replay entry point reports, with
// values captured at the commit before the three entries were put on one
// engine. The rest of the suite compares the modes with each other; once
// they share an engine they can all move together, and only a pinned value
// sees that.
func TestGoldenReplayReports(t *testing.T) {
	if testing.Short() {
		t.Skip("six replays, two of them distributed")
	}
	shedTrace, shedOpts := goldenSheddingReplay()
	shapes := []struct {
		name    string
		service func(*testing.T) *Service
		trace   []workload.Query
		opts    ReplayOptions
		// shed is whether the shape is meant to fail queries.
		shed bool
	}{
		{
			// The shape keeps its name from when its queries came in two
			// priority classes; it now submits none and admits FIFO, and
			// its reports were re-captured so before the classes went.
			name:    "priority",
			service: goldenSerialService,
			trace:   burstTrace(90*6, []int{64, 128, 256}, 9, 20*time.Second),
			opts:    ReplayOptions{Seed: 17},
		},
		{
			name:    "shedding",
			service: func(t *testing.T) *Service { return goldenSheddingService(t) },
			trace:   shedTrace,
			opts:    shedOpts,
			shed:    true,
		},
	}
	modes := []struct {
		name string
		run  func(*Service, []workload.Query, ReplayOptions) (*Report, error)
	}{
		{"replay", func(s *Service, tr []workload.Query, o ReplayOptions) (*Report, error) { return s.Replay(tr, o) }},
		{"lanes2", func(s *Service, tr []workload.Query, o ReplayOptions) (*Report, error) {
			return s.ReplayLanes(2, tr, o)
		}},
		{"stream", func(s *Service, tr []workload.Query, o ReplayOptions) (*Report, error) {
			return s.ReplayStream(workload.Stream(tr, 7), o)
		}},
	}
	for _, shape := range shapes {
		for _, mode := range modes {
			shape, mode := shape, mode
			t.Run(shape.name+"/"+mode.name, func(t *testing.T) {
				rep, err := mode.run(shape.service(t), shape.trace, shape.opts)
				if err != nil {
					t.Fatal(err)
				}
				if rep.Queries != len(shape.trace) {
					t.Fatalf("replayed %d of %d queries", rep.Queries, len(shape.trace))
				}
				if (rep.Failed > 0) != shape.shed {
					t.Fatalf("%d failed queries, shape sheds: %v\n%s", rep.Failed, shape.shed, rep)
				}
				if shape.shed && rep.ChaosKills != 1 {
					t.Fatalf("chaos kill not applied:\n%s", rep)
				}
				golden.Check(t, reportText(rep))
			})
		}
	}
}

// TestGoldenRegistryExports pins the shedding shape's metrics surfaces,
// traced and monitored: the registry text (Metrics().WriteText) and the
// monitor's Prometheus exposition (Monitor().WriteProm), one file per mode.
// The identity tests compare these only between replay modes, so a change
// that moved every mode alike would pass them; this text does not move.
func TestGoldenRegistryExports(t *testing.T) {
	// Captured before the replay report read its counts from the registry;
	// a chaos trace replays on one lane, so both modes export the same text.
	trace, opts := goldenSheddingReplay()
	for _, mode := range []string{"replay", "lanes2"} {
		mode := mode
		t.Run(mode, func(t *testing.T) {
			svc := goldenSheddingService(t, WithTracing(1), WithMonitor(monitorTestSpec()))
			var err error
			if mode == "replay" {
				_, err = svc.Replay(trace, opts)
			} else {
				_, err = svc.ReplayLanes(2, trace, opts)
			}
			if err != nil {
				t.Fatal(err)
			}
			var text bytes.Buffer
			if err := svc.Metrics().WriteText(&text); err != nil {
				t.Fatal(err)
			}
			if err := svc.Monitor().WriteProm(&text); err != nil {
				t.Fatal(err)
			}
			golden.Check(t, text.String())
		})
	}
}

// goldenSLOTrace is TestReplanFlipsChannelAcrossBreakEven's day: a sporadic
// morning of one query a minute (~1 440/day, far below the memory
// break-even), a burst of ten a second from 4 min (the arrival-rate EWMA
// projects far above it), then six queries gap apart from 10 min (a
// five-minute gap drops the projection back below) and, when tail is
// positive, a second burst of tail queries.
func goldenSLOTrace(gap time.Duration, tail int) []workload.Query {
	var trace []workload.Query
	add := func(at time.Duration) {
		trace = append(trace, workload.Query{At: at, Neurons: 256, Samples: 4})
	}
	for i := 0; i < 4; i++ {
		add(time.Duration(i) * time.Minute)
	}
	for i := 0; i < 30; i++ {
		add(4*time.Minute + time.Duration(i)*100*time.Millisecond)
	}
	for i := 0; i < 6; i++ {
		add(10*time.Minute + time.Duration(i)*gap)
	}
	for i := 0; i < tail; i++ {
		add(10*time.Minute + 6*gap + time.Duration(i)*100*time.Millisecond)
	}
	return trace
}

// TestGoldenSLOReplayReports pins what a WithSLO endpoint reports over two
// days that cross the memory break-even: "flip" goes queue -> memory ->
// queue, "trough" idles three hours between queries before a second burst,
// so its re-plans run far below the break-even. The report prints every
// re-plan's time, configuration, volume and reason and the metered ledger,
// so a change to the control loop's signals or decisions moves its lines.
func TestGoldenSLOReplayReports(t *testing.T) {
	if testing.Short() {
		t.Skip("replays with planner trials are long simulations")
	}
	m := testModel(t, 256, 6)
	for _, tc := range []struct {
		name  string
		trace []workload.Query
	}{
		{"flip", goldenSLOTrace(5*time.Minute, 0)},
		{"trough", goldenSLOTrace(3*time.Hour, 60)},
	} {
		tc := tc
		t.Run(tc.name, func(t *testing.T) {
			svc, err := NewService(env.NewDefault(),
				WithEndpoint("slo", m, WithSLO(SLOOptions{
					LatencyWeight: 0,
					Channels:      []core.ChannelKind{core.Queue, core.Memory},
					Workers:       []int{2},
					ProbeBatch:    4,
					MinRuns:       2,
				})),
				WithCoalescing(4, 0),
			)
			if err != nil {
				t.Fatal(err)
			}
			rep, err := svc.Replay(tc.trace, ReplayOptions{Seed: 11})
			if err != nil {
				t.Fatal(err)
			}
			golden.Check(t, rep.String())
		})
	}
}
