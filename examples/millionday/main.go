// Million-query day: replay a one-million-query diurnal trace end-to-end
// through a Service in bounded memory. The trace is generated as a stream
// (DiurnalDay), submitted just-in-time as virtual time reaches each batch
// (ReplayStream), and folded into the report incrementally — the full day
// never exists as a slice of queries, handles or latency samples. The
// program prints the sustained replay throughput in queries per second of
// wall-clock time alongside the simulated day's own stats.
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

// replayMillion streams a diurnal day of total queries through a fresh
// single-endpoint service and returns the report with the wall-clock the
// replay took. Split out so the example's test can hold it to a budget and
// its benchmark can time it.
func replayMillion(total int) (*serve.Report, time.Duration, error) {
	m, err := model.Generate(model.GraphChallengeSpec(64, 2, 1))
	if err != nil {
		return nil, 0, err
	}
	svc, err := serve.NewService(env.NewDefault(),
		serve.WithEndpoint("m64", m),
		serve.WithCoalescing(4096, 5*time.Minute),
	)
	if err != nil {
		return nil, 0, err
	}
	//simlint:allow walltime — measures how long the host took to run the replay (the example's headline number); the simulated day itself is kernel time
	start := time.Now()
	rep, err := svc.ReplayStream(
		workload.DiurnalDay(total, []int{64}, 1, 7, 8192),
		serve.ReplayOptions{Seed: 11})
	if err != nil {
		return nil, 0, err
	}
	//simlint:allow walltime — host-side wall duration of the replay, reported alongside the simulated results
	return rep, time.Since(start), nil
}

func main() {
	const total = 1_000_000
	rep, wall, err := replayMillion(total)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("replayed %d queries (%d failed) in %v wall-clock: %.0f queries/sec\n",
		rep.Queries, rep.Failed, wall.Round(time.Millisecond),
		float64(rep.Queries)/wall.Seconds())
	fmt.Printf("simulated day: horizon %v, p50 %v, p99 %v, metered $%.2f\n",
		rep.Horizon.Round(time.Second), rep.Latency.P50.Round(time.Millisecond),
		rep.Latency.P99.Round(time.Millisecond), rep.TotalCost.Total())
}
