// Sporadic workloads (paper §VI-C): compare the daily cost of serving an
// irregular query stream on FSD-Inference versus keeping servers running.
// Queries arrive at random times over 24 hours and each carries a buffered
// batch of samples; FSD pays per query, the always-on fleet pays around
// the clock.
//
// Unlike the paper's arithmetic (per-query cost x query count), the FSD
// side here is measured: a multi-model Service replays the whole day in
// one simulated-time run — with request coalescing, admission queueing
// and metered cold starts — and reports real latency percentiles and the
// real metered bill.
package main

import (
	"fmt"
	"log"

	"fsdinference/internal/baselines"
	"fsdinference/internal/cloud/env"
	"fsdinference/internal/model"
	"fsdinference/internal/serve"
	"fsdinference/internal/workload"
)

func main() {
	const batch = 32
	sizes := []int{256, 512}

	models := map[int]*model.Model{}
	for _, n := range sizes {
		m, err := model.Generate(model.GraphChallengeSpec(n, 12, 1))
		if err != nil {
			log.Fatal(err)
		}
		models[n] = m
	}

	// Job-scoped per-query cost, measured once per size (that baseline
	// provisions a fresh right-sized server per query by definition).
	jsPer := map[int]float64{}
	for _, n := range sizes {
		js, err := baselines.RunJobScoped(env.NewDefault(),
			models[n], model.GenerateInputs(n, batch, 0.2, 2))
		if err != nil {
			log.Fatal(err)
		}
		jsPer[n] = js.Cost.Total()
	}

	// Two always-on c5.12xlarge around the clock (paper §VI-C2).
	aoDaily := 2.0 * 24 * 2.04

	fmt.Printf("%12s  %12s  %12s  %12s  %10s  %10s\n",
		"queries/day", "FSD $ (meas)", "always-on $", "job-scoped $", "p50", "p99")
	volumes := []int{10, 100, 1000}
	var lastReport *serve.Report
	for _, q := range volumes {
		day := workload.Day(q*batch, sizes, batch, 7)

		// A fresh service per volume: one endpoint per model size, a
		// small warm pool, coalescing for bursts.
		svc, err := serve.NewService(env.NewDefault(),
			serve.WithEndpoint("n256", models[256]),
			serve.WithEndpoint("n512", models[512]),
			serve.WithCoalescing(4*batch, 0),
			serve.WithReplicas(2),
		)
		if err != nil {
			log.Fatal(err)
		}
		rep, err := svc.Replay(day, serve.ReplayOptions{Seed: 11})
		if err != nil {
			log.Fatal(err)
		}

		jsDaily := 0.0
		for _, qq := range day {
			jsDaily += jsPer[qq.Neurons]
		}
		fmt.Printf("%12d  %12.4f  %12.2f  %12.4f  %10v  %10v\n",
			len(day), rep.TotalCost.Total(), aoDaily, jsDaily,
			rep.Latency.P50, rep.Latency.P99)
		lastReport = rep
	}

	// Detail for the largest volume.
	fmt.Println()
	fmt.Print(lastReport)
	fmt.Println("\nFSD scales to zero with the workload; the always-on fleet bills regardless (Fig. 4)")
}
