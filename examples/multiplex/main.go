// Run multiplexing (the Fig. 4-style cost curve over WithRunConcurrency):
// replay the same burst through identical autoscaled services that differ
// only in how many engine runs one replica may overlap. Core isolates
// concurrent runs per run id on every channel, so a single deployment
// absorbs more of the burst as concurrency grows: the autoscaler
// provisions a much smaller pool (fewer replica-hours and scale events)
// while per-request tail latency drifts up as the tighter pool leaves
// less slack — provisioned capacity traded against the tail.
package main

import (
	"fmt"
	"log"
	"time"

	"fsdinference/internal/cloud/env"
	"fsdinference/internal/model"
	"fsdinference/internal/serve"
	"fsdinference/internal/workload"
)

const (
	neurons = 256
	layers  = 12
	batch   = 16
)

// trace is one clustered burst: queries arriving faster than a single
// engine run completes, so serving them needs either a wide pool or
// multiplexed runs.
func trace() []workload.Query {
	var qs []workload.Query
	for i := 0; i < 80; i++ {
		qs = append(qs, workload.Query{
			At:      time.Duration(i) * 120 * time.Millisecond,
			Neurons: neurons,
			Samples: batch,
		})
	}
	return qs
}

func main() {
	m, err := model.Generate(model.GraphChallengeSpec(neurons, layers, 1))
	if err != nil {
		log.Fatal(err)
	}

	fmt.Printf("%8s  %14s  %13s  %11s  %10s  %10s  %12s\n",
		"runs/rep", "replica-hours", "peak replicas", "scale up/dn", "p50", "p95", "metered $")
	type point struct {
		rc    int
		hours float64
		p95   time.Duration
	}
	var pts []point
	for rc := 1; rc <= 4; rc++ {
		svc, err := serve.NewService(env.NewDefault(),
			serve.WithEndpoint("ep", m),
			serve.WithCoalescing(batch, 50*time.Millisecond),
			serve.WithScaling(serve.Autoscaler(serve.AutoscalerOptions{
				Min: 1, Max: 12, IdleGrace: 30 * time.Second,
			})),
			serve.WithRunConcurrency(rc),
		)
		if err != nil {
			log.Fatal(err)
		}
		rep, err := svc.Replay(trace(), serve.ReplayOptions{Seed: 11})
		if err != nil {
			log.Fatal(err)
		}
		if rep.Failed > 0 {
			log.Fatalf("run concurrency %d: %d failed queries", rc, rep.Failed)
		}
		ep := rep.Endpoints[0]
		fmt.Printf("%8d  %14.4f  %13d  %8d/%-2d  %10v  %10v  %12.4f\n",
			rc, ep.ReplicaSeconds/3600, ep.PeakReplicas, ep.ScaleUps, ep.ScaleDowns,
			rep.Latency.P50.Round(time.Millisecond), rep.Latency.P95.Round(time.Millisecond),
			rep.TotalCost.Total())
		pts = append(pts, point{rc, ep.ReplicaSeconds / 3600, rep.Latency.P95})
	}

	first, last := pts[0], pts[len(pts)-1]
	fmt.Printf("\nrun concurrency %d held %.1fx fewer replica-hours than %d (%.4f vs %.4f) at p95 %v vs %v\n",
		last.rc, first.hours/last.hours, first.rc, last.hours, first.hours,
		last.p95.Round(time.Millisecond), first.p95.Round(time.Millisecond))
	fmt.Println("multiplexed runs share warm replicas: provisioned capacity falls while the burst's tail stretches")
}
