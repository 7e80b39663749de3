package experiments

import (
	"fmt"
	"time"

	"fsdinference/internal/cloud/env"
	"fsdinference/internal/serve"
	"fsdinference/internal/workload"
)

// servingSeed is the replay seed of every serving arm.
const servingSeed = 11

// Serving measures the serving layer's elasticity claims (§VI-C: a
// serverless deployment follows sporadic traffic down to its idle floor)
// on one N=256 endpoint with 16-sample queries:
//
//   - a sporadic day with one clustered evening burst under a fixed pool of
//     three replicas and under an autoscaler between one and three: the
//     autoscaler provisions far fewer replica-hours at the same tail and
//     metered cost;
//   - the same day with a 2 s deadline on every query under
//     DeadlineAdmission: a starved fixed pool of one sheds the burst it
//     cannot finish in time, the autoscaler grows through it;
//   - a single burst faster than one engine run under the autoscaler, one
//     to four runs multiplexed per replica (WithRunConcurrency): the pool,
//     and with it replica-hours, shrinks as each replica absorbs more.
func Serving(l *Lab) (*Table, error) {
	const neurons, batch = 256, 16
	m, err := l.Model(neurons)
	if err != nil {
		return nil, err
	}
	query := func(at time.Duration) workload.Query {
		return workload.Query{At: at, Neurons: neurons, Samples: batch}
	}
	day := workload.Day(60*batch, []int{neurons}, batch, 7)
	for i := 0; i < 100; i++ {
		day = append(day, query(19*time.Hour+time.Duration(i)*20*time.Millisecond))
	}
	var burst []workload.Query
	for i := 0; i < 80; i++ {
		burst = append(burst, query(time.Duration(i)*120*time.Millisecond))
	}

	replay := func(name string, trace []workload.Query, deadline time.Duration, opts ...serve.Option) (*serve.Report, error) {
		svc, err := serve.NewService(env.NewDefault(), append([]serve.Option{serve.WithEndpoint("ep", m)}, opts...)...)
		if err != nil {
			return nil, fmt.Errorf("serving %s: %w", name, err)
		}
		ro := serve.ReplayOptions{Seed: servingSeed}
		if deadline > 0 {
			ro.Submit = func(int, workload.Query) serve.SubmitOptions {
				return serve.SubmitOptions{Deadline: deadline}
			}
		}
		rep, err := svc.Replay(trace, ro)
		if err != nil {
			return nil, fmt.Errorf("serving %s: %w", name, err)
		}
		return rep, nil
	}

	t := &Table{
		ID:    "serving",
		Title: "Autoscaling vs a fixed pool, deadline shedding and run multiplexing",
		Columns: []string{
			"arm", "replica-hours", "peak replicas", "scale up/dn",
			"p50 (ms)", "p95 (ms)", "metered $", "served", "shed", "failed",
		},
	}
	// prec is the replica-hour precision: a day's pool holds tens of
	// replica-hours, a ten-second burst's a tenth of one.
	add := func(arm string, prec int, r *serve.Report) {
		ep := r.Endpoints[0]
		t.Rows = append(t.Rows, []string{
			arm, fmt.Sprintf("%.*f", prec, ep.ReplicaSeconds/3600),
			fmt.Sprintf("%d", ep.PeakReplicas), fmt.Sprintf("%d/%d", ep.ScaleUps, ep.ScaleDowns),
			fmt.Sprintf("%d", r.Latency.P50.Round(time.Millisecond).Milliseconds()),
			fmt.Sprintf("%d", r.Latency.P95.Round(time.Millisecond).Milliseconds()),
			dollars(r.TotalCost.Total()),
			fmt.Sprintf("%d", r.Queries-r.Failed), fmt.Sprintf("%d", ep.Shed),
			fmt.Sprintf("%d", r.Failed-ep.Shed),
		})
	}

	autoscaler := serve.Autoscaler(serve.AutoscalerOptions{Min: 1, Max: 3})
	dayArms := []struct {
		arm       string
		scaling   serve.ScalingPolicy
		admission serve.AdmissionPolicy
		deadline  time.Duration
	}{
		{"fixed(3)", serve.FixedPool(3), serve.FIFO(), 0},
		{"autoscale(1..3)", autoscaler, serve.FIFO(), 0},
		{"fixed(1) 2s deadline", serve.FixedPool(1), serve.DeadlineAdmission(false), 2 * time.Second},
		{"autoscale(1..3) 2s deadline", autoscaler, serve.DeadlineAdmission(false), 2 * time.Second},
	}
	var dayReps, burstReps []*serve.Report
	for _, a := range dayArms {
		rep, err := replay(a.arm, day, a.deadline,
			serve.WithCoalescing(4*batch, 100*time.Millisecond),
			serve.WithScaling(a.scaling), serve.WithAdmission(a.admission))
		if err != nil {
			return nil, err
		}
		add(a.arm, 2, rep)
		dayReps = append(dayReps, rep)
	}
	for rc := 1; rc <= 4; rc++ {
		rep, err := replay(fmt.Sprintf("run concurrency %d", rc), burst, 0,
			serve.WithCoalescing(batch, 50*time.Millisecond),
			serve.WithScaling(serve.Autoscaler(serve.AutoscalerOptions{Min: 1, Max: 12, IdleGrace: 30 * time.Second})),
			serve.WithRunConcurrency(rc))
		if err != nil {
			return nil, err
		}
		add(fmt.Sprintf("burst runs/replica=%d", rc), 4, rep)
		burstReps = append(burstReps, rep)
	}

	replicaSeconds := func(r *serve.Report) float64 { return r.Endpoints[0].ReplicaSeconds }
	starved := dayReps[2]
	t.Notes = append(t.Notes,
		fmt.Sprintf("day: %d sporadic queries of %d samples plus a 100-query burst at 19:00, 20 ms apart; replay seed %d", len(day)-100, batch, servingSeed),
		fmt.Sprintf("autoscale(1..3) provisions %.1fx fewer replica-hours than fixed(3)", replicaSeconds(dayReps[0])/replicaSeconds(dayReps[1])),
		fmt.Sprintf("2s deadlines: fixed(1) sheds %d of %d queries; failed counts requests lost other than by shedding", starved.Endpoints[0].Shed, starved.Queries),
		fmt.Sprintf("burst: %d queries 120 ms apart under autoscale(1..12), idle grace 30s; 4 runs/replica provision %.1fx fewer replica-hours than 1",
			len(burst), replicaSeconds(burstReps[0])/replicaSeconds(burstReps[3])))
	return t, nil
}
