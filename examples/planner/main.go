// The workload-aware Planner (§VI-D1 grown into a subsystem): one model,
// three objectives, and the decision loop that the one-shot AutoSelect
// could not close. The walk has three parts:
//
//  1. Objective choice — the same candidate grid ranked under latency,
//     cost and deadline-feasible objectives picks different channels.
//  2. Pre-filter pruning — under a cost objective with a sporadic
//     profile, the §IV analytic model prunes clear-cut losers (the
//     idle-billing memory node, object storage at sub-chunk volumes)
//     before any simulated trial runs.
//  3. A live re-plan — a serving endpoint under WithSLO starts on the
//     queue channel, a sustained burst pushes the observed arrival rate
//     over the memory break-even and flips it to the provisioned store,
//     and the cool-down flips it back; the serve.Report records both
//     re-plan events.
package main

import (
	"fmt"
	"log"
	"time"

	"fsdinference/internal/cloud/env"
	"fsdinference/internal/core"
	"fsdinference/internal/model"
	"fsdinference/internal/plan"
	"fsdinference/internal/serve"
	"fsdinference/internal/workload"
)

const (
	neurons = 512
	layers  = 12
	workers = 42
	batch   = 32
)

func grid() plan.Grid {
	return plan.Grid{
		Channels: []core.ChannelKind{
			core.Queue, core.Object, core.Memory,
		},
		Workers: []int{workers},
	}
}

func main() {
	m, err := model.Generate(model.GraphChallengeSpec(neurons, layers, 1))
	if err != nil {
		log.Fatal(err)
	}

	// 1. Objective choice: the pluggable ranking decides the channel.
	fmt.Println("== objective choice (sporadic 20 queries/day) ==")
	sporadic := plan.WorkloadProfile{QueriesPerDay: 20, BatchSamples: batch}
	for _, obj := range []plan.Objective{
		plan.LatencyObjective(),
		plan.CostObjective(),
		plan.DeadlineObjective(6 * time.Second),
	} {
		p, err := plan.New(m, plan.Options{
			Objective: obj, Grid: grid(), DisablePrefilter: true,
		})
		if err != nil {
			log.Fatal(err)
		}
		d, err := p.Plan(sporadic)
		if err != nil {
			log.Fatal(err)
		}
		fmt.Printf("%-22s -> %s  ($%.4f/day at 20 queries)\n", d.Objective, d.Best, pickDaily(d, 20))
	}

	// 2. Pre-filter pruning: the analytic §IV model prunes the grid
	// before paying for simulated trials.
	fmt.Println("\n== analytic pre-filter (cost objective, sporadic profile) ==")
	p, err := plan.New(m, plan.Options{
		Objective: plan.CostObjective(), Grid: grid(),
	})
	if err != nil {
		log.Fatal(err)
	}
	d, err := p.Plan(sporadic)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("%d candidates, %d pruned analytically, %d trialed -> %s\n",
		d.Candidates, d.Pruned, d.Trialed, d.Best)
	for _, t := range d.Trials {
		if t.Pruned {
			fmt.Printf("  pruned %-22s %s\n", t.Candidate, t.PruneReason)
		}
	}

	// A re-plan under a sustained profile flips the channel: the flat
	// node rate now amortises below the per-request spend.
	d2, err := p.Replan(plan.WorkloadProfile{QueriesPerDay: 200_000, BatchSamples: batch})
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("replan at 200k queries/day: %s -> %s (changed=%v, break-even ~%d/day)\n",
		d.Best, d2.Best, d2.Changed, d2.MemoryBreakEvenQueriesPerDay)

	// 3. A live re-plan in the serving layer: the scheduler's observed
	// WorkloadProfile feeds Replan when the arrival rate crosses the
	// measured break-even.
	fmt.Println("\n== live re-plan under WithSLO ==")
	small, err := model.Generate(model.GraphChallengeSpec(256, 6, 1))
	if err != nil {
		log.Fatal(err)
	}
	svc, err := serve.NewService(env.NewDefault(),
		serve.WithEndpoint("slo", small, serve.WithSLO(serve.SLOOptions{
			LatencyWeight: 0, // cost objective: the break-even decides
			Channels:      []core.ChannelKind{core.Queue, core.Memory},
			Workers:       []int{2},
			ProbeBatch:    4,
			MinRuns:       2,
		})),
		serve.WithCoalescing(4, 0),
	)
	if err != nil {
		log.Fatal(err)
	}
	var trace []workload.Query
	add := func(at time.Duration) {
		trace = append(trace, workload.Query{At: at, Neurons: 256, Samples: 4})
	}
	for i := 0; i < 4; i++ { // sporadic morning: one query a minute
		add(time.Duration(i) * time.Minute)
	}
	for i := 0; i < 30; i++ { // sustained burst: ten a second
		add(4*time.Minute + time.Duration(i)*100*time.Millisecond)
	}
	for i := 0; i < 6; i++ { // cool-down: five-minute gaps
		add(10*time.Minute + time.Duration(i)*5*time.Minute)
	}
	rep, err := svc.Replay(trace, serve.ReplayOptions{Seed: 11})
	if err != nil {
		log.Fatal(err)
	}
	ep := rep.Endpoints[0]
	fmt.Printf("%d queries served, %d re-plan(s), observed ~%d queries/day (burstiness %.0fx):\n",
		rep.Queries-rep.Failed, len(ep.Replans), ep.Observed.QueriesPerDay, ep.Observed.Burstiness)
	for _, ev := range ep.Replans {
		fmt.Printf("  @%-8v %v x%d -> %v x%d  (%s)\n",
			ev.At.Round(time.Second), ev.From, ev.FromWorkers, ev.To, ev.ToWorkers, ev.Reason)
	}
}

// pickDaily projects the decision's own pick to a daily cost at a volume.
func pickDaily(d *plan.Decision, queriesPerDay int64) float64 {
	for _, t := range d.Trials {
		if t.Candidate == d.Best {
			return t.DailyCost(queriesPerDay)
		}
	}
	return 0
}
