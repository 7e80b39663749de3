package serve

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"math"
	"strconv"
	"testing"
	"time"

	"fsdinference/internal/cloud/env"
	"fsdinference/internal/core"
	"fsdinference/internal/workload"
)

// reportDigest is the SHA-256 of everything a replay reports that the
// rendered text rounds away or leaves out: Report.String(), then the raw
// bits of every LatencyStats (total, per endpoint, per priority class), the
// horizon and the total metered cost.
func reportDigest(rep *Report) string {
	h := sha256.New()
	h.Write([]byte(rep.String()))
	word := func(v uint64) {
		var b [8]byte
		binary.LittleEndian.PutUint64(b[:], v)
		h.Write(b[:])
	}
	lat := func(ls LatencyStats) {
		for _, v := range []time.Duration{time.Duration(ls.Count), ls.Mean, ls.P50, ls.P95, ls.P99, ls.Min, ls.Max} {
			word(uint64(v))
		}
	}
	lat(rep.Latency)
	for _, er := range rep.Endpoints {
		lat(er.Latency)
		for _, pl := range er.PerPriority {
			word(uint64(pl.Priority))
			lat(pl.Latency)
		}
	}
	word(uint64(rep.Horizon))
	word(math.Float64bits(rep.TotalCost.Total()))
	return hex.EncodeToString(h.Sum(nil))
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

// goldenPriorityService is three Serial endpoints, one replica each, under
// PriorityAdmission: three size groups, so ReplayLanes(2) really splits.
func goldenPriorityService(t *testing.T) *Service {
	t.Helper()
	var opts []Option
	for _, n := range []int{64, 128, 256} {
		opts = append(opts, WithEndpoint("s"+strconv.Itoa(n), testModel(t, n, 3)))
	}
	opts = append(opts, WithCoalescing(12, 20*time.Millisecond), WithAdmission(PriorityAdmission()))
	svc, err := NewService(env.NewDefault(), opts...)
	if err != nil {
		t.Fatal(err)
	}
	return svc
}

// goldenSheddingService is a Queue P=2 and a Memory P=2 endpoint under
// DeadlineAdmission without reroute; the Memory endpoint's store is a
// two-shard cluster with one replica, so a chaos kill fails over.
func goldenSheddingService(t *testing.T) *Service {
	t.Helper()
	svc, err := NewService(env.NewDefault(),
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
	)
	if err != nil {
		t.Fatal(err)
	}
	return svc
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
	shapes := []struct {
		name    string
		service func(*testing.T) *Service
		trace   []workload.Query
		opts    ReplayOptions
		// shed is whether the shape is meant to fail queries.
		shed bool
		want map[string]string
	}{
		{
			name:    "priority",
			service: goldenPriorityService,
			trace:   burstTrace(90*6, []int{64, 128, 256}, 9, 20*time.Second),
			opts: ReplayOptions{Seed: 17, Submit: func(i int, _ workload.Query) SubmitOptions {
				return SubmitOptions{Priority: 1 + i%2}
			}},
			want: map[string]string{
				"replay": "eaedd6ac87980be5d31dc232577e58b808fd1d3347c9775c8addf9f3a169cc4e",
				"lanes2": "d3f74cff1e8ebaa75932b34a8d92bae00c50dc6f447e8901a6e253c71c682657",
				"stream": "4d08f66cd0ef91ea7ddde43998c26e35600d3c13a29186765f7d952f1b507f7e",
			},
		},
		{
			name:    "shedding",
			service: goldenSheddingService,
			trace:   burstTrace(36*6, []int{128, 256}, 4, 40*time.Second),
			opts: ReplayOptions{Seed: 5,
				Submit: func(i int, _ workload.Query) SubmitOptions {
					return SubmitOptions{Deadline: time.Duration(1+i%3) * 1500 * time.Millisecond}
				},
				Chaos: []ChaosEvent{{At: 13300 * time.Millisecond, Kind: KillNode, Endpoint: "m256", Shard: 0}},
			},
			shed: true,
			want: map[string]string{
				"replay": "f094b1c8475e5a5736fe23831f32323f1fb2b0ccce7a645c78e33bb577124266",
				"lanes2": "f094b1c8475e5a5736fe23831f32323f1fb2b0ccce7a645c78e33bb577124266",
				"stream": "1836f90cb88b5cf811acfb1a37a607efc09af02f274b176f3bd3394cb86e4472",
			},
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
				if got := reportDigest(rep); got != shape.want[mode.name] {
					t.Errorf("report digest %s, want %s\n%s", got, shape.want[mode.name], rep)
				}
			})
		}
	}
}
