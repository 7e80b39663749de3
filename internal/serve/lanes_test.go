package serve

import (
	"math"
	"reflect"
	"testing"
	"time"

	"fsdinference/internal/cloud/env"
	"fsdinference/internal/cloud/usage"
	"fsdinference/internal/model"
	"fsdinference/internal/workload"
)

func lanesTestService(t testing.TB, extra ...Option) *Service {
	t.Helper()
	sizes := []int{64, 128, 256}
	var opts []Option
	names := []string{"s64", "s128", "s256"}
	for i, n := range sizes {
		m, err := model.Generate(model.GraphChallengeSpec(n, 3, 1))
		if err != nil {
			t.Fatal(err)
		}
		opts = append(opts, WithEndpoint(names[i], m))
	}
	opts = append(opts, WithCoalescing(32, 150*time.Millisecond), WithReplicas(2))
	svc, err := NewService(env.NewDefault(), append(opts, extra...)...)
	if err != nil {
		t.Fatal(err)
	}
	return svc
}

// BenchmarkReplay replays a sporadic day over lanesTestService's three
// Serial endpoints, untraced (off) and tracing every request (traced). Only
// the replay is timed; the service is built with the timer stopped. It
// reports host ns per query next to allocs/op.
func BenchmarkReplay(b *testing.B) {
	trace := workload.Day(60*6, []int{64, 128, 256}, 6, 9)
	for _, leg := range []struct {
		name string
		opts []Option
	}{
		{"off", nil},
		{"traced", []Option{WithTracing(1)}},
	} {
		b.Run(leg.name, func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				b.StopTimer()
				svc := lanesTestService(b, leg.opts...)
				b.StartTimer()
				if _, err := svc.Replay(trace, ReplayOptions{Seed: 17}); err != nil {
					b.Fatal(err)
				}
			}
			b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*len(trace)), "ns/query")
		})
	}
}

// TestReplayLanesMatchesSingleLane is the lane-determinism contract: the
// sharded replay's merged report must equal the single-lane replay of the
// same trace — exactly for everything counted in integers or nanoseconds,
// and within float rounding for the cross-lane-summed metered totals.
// Run under -race this also exercises the per-lane kernels concurrently.
func TestReplayLanesMatchesSingleLane(t *testing.T) {
	trace := workload.Day(60*6, []int{64, 128, 256}, 6, 9)
	opts := ReplayOptions{Seed: 17}

	single, err := lanesTestService(t).Replay(trace, opts)
	if err != nil {
		t.Fatal(err)
	}
	sharded, err := lanesTestService(t).ReplayLanes(2, trace, opts)
	if err != nil {
		t.Fatal(err)
	}

	if single.Failed != 0 || sharded.Failed != 0 {
		t.Fatalf("failed queries: single %d, sharded %d", single.Failed, sharded.Failed)
	}

	// Exact equality on everything except the float-accumulated metered
	// totals, which lanes sum in a different order than one shared meter:
	// the priced cost, the GB-seconds and GB-hours and the hour maps are
	// compared within rounding below, the rest of Usage exactly.
	a, b := *single, *sharded
	for _, r := range []*Report{&a, &b} {
		r.TotalCost = usage.Breakdown{}
		u := &r.Usage
		u.LambdaGBSeconds, u.KVGBHours = 0, 0
		u.EC2Hours, u.KVNodeHours, u.KVReplicaHours, u.KVShardHours = nil, nil, nil, nil
	}
	if !reflect.DeepEqual(a, b) {
		t.Errorf("sharded report diverges from single-lane:\n--- single ---\n%s\n--- sharded ---\n%s",
			single, sharded)
	}
	su, hu := &single.Usage, &sharded.Usage
	for _, f := range []struct {
		what string
		a, b float64
	}{
		{"total cost", single.TotalCost.Total(), sharded.TotalCost.Total()},
		{"Lambda GB-seconds", su.LambdaGBSeconds, hu.LambdaGBSeconds},
		{"KV GB-hours", su.KVGBHours, hu.KVGBHours},
	} {
		if !closeFloat(f.a, f.b) {
			t.Errorf("%s: single %v, sharded %v", f.what, f.a, f.b)
		}
	}
	for _, m := range []struct {
		what string
		a, b map[string]float64
	}{
		{"EC2 hours", su.EC2Hours, hu.EC2Hours},
		{"KV node-hours", su.KVNodeHours, hu.KVNodeHours},
		{"KV replica hours", su.KVReplicaHours, hu.KVReplicaHours},
		{"KV shard hours", su.KVShardHours, hu.KVShardHours},
	} {
		if len(m.a) != len(m.b) {
			t.Errorf("%s: single %v, sharded %v", m.what, m.a, m.b)
		}
		for k, v := range m.a {
			if w, ok := m.b[k]; !ok || !closeFloat(v, w) {
				t.Errorf("%s[%s]: single %v, sharded %v", m.what, k, v, w)
			}
		}
	}
}

// TestReplayLanesMoreLanesThanSizes clamps the lane count to the number of
// size groups and still matches the single-lane result.
func TestReplayLanesMoreLanesThanSizes(t *testing.T) {
	trace := workload.Day(30*6, []int{64, 128, 256}, 6, 3)
	opts := ReplayOptions{Seed: 5}
	single, err := lanesTestService(t).Replay(trace, opts)
	if err != nil {
		t.Fatal(err)
	}
	sharded, err := lanesTestService(t).ReplayLanes(8, trace, opts)
	if err != nil {
		t.Fatal(err)
	}
	if sharded.Queries != single.Queries || sharded.Samples != single.Samples ||
		sharded.Latency != single.Latency || sharded.Horizon != single.Horizon {
		t.Fatalf("clamped lanes diverge:\n--- single ---\n%s\n--- sharded ---\n%s", single, sharded)
	}
}

// TestReplayLanesChaosFallsBack verifies a chaos trace replays on a single
// lane (a fresh clone) and still reports the injections.
func TestReplayLanesChaosFallsBack(t *testing.T) {
	trace := workload.Day(10*6, []int{64, 128}, 6, 3)
	svc := lanesTestService(t)
	rep, err := svc.ReplayLanes(2, trace, ReplayOptions{
		Seed:  5,
		Chaos: []ChaosEvent{{At: time.Hour, Kind: KillNode, Endpoint: "s64", Shard: 0}},
	})
	if err != nil {
		t.Fatal(err)
	}
	// Serial endpoints have no provisioned cluster, so the event is
	// counted as skipped — the point is that it was processed at all.
	if rep.ChaosKills+rep.ChaosSkipped != 1 {
		t.Fatalf("chaos event not processed: %+v", rep)
	}
	if rep.Failed != 0 {
		t.Fatalf("%d failed queries", rep.Failed)
	}
}

// closeFloat reports whether two float-accumulated totals agree to within
// rounding: a relative 1e-9, absolute below 1.
func closeFloat(a, b float64) bool {
	if a == b {
		return true
	}
	diff := math.Abs(a - b)
	scale := math.Max(math.Abs(a), math.Abs(b))
	return diff <= 1e-9*math.Max(scale, 1)
}
