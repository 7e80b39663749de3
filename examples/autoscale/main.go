// Autoscaling versus a fixed replica pool: replay the same sporadic day —
// mostly idle, with one clustered evening burst — through two identically
// configured services that differ only in scaling policy, and measure
// what the elasticity claim actually buys: provisioned replica-hours drop
// with the workload while tail latency holds, because the pool grows for
// the burst and shrinks back through the idle hours.
//
// The deadline-aware admission policy rides along: the burst is also
// replayed with per-query deadlines, showing how work that cannot meet
// its deadline is shed instead of dragging the tail.
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

// trace is a sporadic day with an evening burst of closely spaced queries.
func trace() []workload.Query {
	day := workload.Day(60*batch, []int{neurons}, batch, 7)
	for i := 0; i < 100; i++ {
		day = append(day, workload.Query{
			At:      19*time.Hour + time.Duration(i)*20*time.Millisecond,
			Neurons: neurons,
			Samples: batch,
		})
	}
	return day
}

func replay(m *model.Model, scaling serve.ScalingPolicy,
	admission serve.AdmissionPolicy, submit func(int, workload.Query) serve.SubmitOptions,
) *serve.Report {
	svc, err := serve.NewService(env.NewDefault(),
		serve.WithEndpoint("ep", m),
		serve.WithCoalescing(4*batch, 100*time.Millisecond),
		serve.WithScaling(scaling),
		serve.WithAdmission(admission),
	)
	if err != nil {
		log.Fatal(err)
	}
	rep, err := svc.Replay(trace(), serve.ReplayOptions{Seed: 11, Submit: submit})
	if err != nil {
		log.Fatal(err)
	}
	return rep
}

func main() {
	m, err := model.Generate(model.GraphChallengeSpec(neurons, layers, 1))
	if err != nil {
		log.Fatal(err)
	}

	fixed := replay(m, serve.FixedPool(3), serve.FIFO(), nil)
	auto := replay(m, serve.Autoscaler(serve.AutoscalerOptions{Min: 1, Max: 3}),
		serve.FIFO(), nil)

	fmt.Printf("%-22s  %14s  %12s  %10s  %10s  %12s\n",
		"scaling", "replica-hours", "metered $", "p50", "p95", "scale up/dn")
	row := func(name string, r *serve.Report) {
		ep := r.Endpoints[0]
		fmt.Printf("%-22s  %14.2f  %12.4f  %10v  %10v  %7d/%d\n",
			name, ep.ReplicaSeconds/3600, r.TotalCost.Total(),
			r.Latency.P50.Round(time.Millisecond), r.Latency.P95.Round(time.Millisecond),
			ep.ScaleUps, ep.ScaleDowns)
	}
	row("fixed(3)", fixed)
	row("autoscale(1..3)", auto)
	fe, ae := fixed.Endpoints[0], auto.Endpoints[0]
	fmt.Printf("\nautoscaling provisioned %.1fx fewer replica-hours (%.2f vs %.2f) at p95 %v vs %v\n",
		fe.ReplicaSeconds/ae.ReplicaSeconds, ae.ReplicaSeconds/3600, fe.ReplicaSeconds/3600,
		auto.Latency.P95.Round(time.Millisecond), fixed.Latency.P95.Round(time.Millisecond))

	// Deadline-aware admission: every query carries a 2 s completion
	// budget. On a starved fixed pool of one replica the evening burst
	// queues up and the policy sheds (ErrShed) the work that can no
	// longer meet its deadline instead of serving uselessly late answers;
	// the autoscaler grows through the burst and serves everything.
	deadline := func(int, workload.Query) serve.SubmitOptions {
		return serve.SubmitOptions{Deadline: 2 * time.Second}
	}
	starved := replay(m, serve.FixedPool(1), serve.DeadlineAdmission(false), deadline)
	elastic := replay(m, serve.Autoscaler(serve.AutoscalerOptions{Min: 1, Max: 3}),
		serve.DeadlineAdmission(false), deadline)
	fmt.Printf("\nwith 2s deadlines: fixed(1) served %d and shed %d; autoscale served %d and shed %d\n",
		starved.Queries-starved.Failed, starved.Endpoints[0].Shed,
		elastic.Queries-elastic.Failed, elastic.Endpoints[0].Shed)

	fmt.Println()
	fmt.Print(auto)
}
