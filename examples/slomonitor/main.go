// SLO monitoring: close the loop from burn-rate alerts to control. A
// flash-crowd trace — a quiet morning, then a sustained crowd that
// saturates the cost-picked queue channel — replays twice under the same
// simulated-time monitor. The passive arm only observes: its re-plan
// waits for the scheduler's break-even drift trigger, gated on MinRuns
// completed runs. The active arm subscribes the planner to the alert
// sink, so the first firing page re-plans immediately with a
// latency-biased objective and flips the endpoint to the provisioned
// memory channel while the backlog is still shallow.
//
// The example renders the firing timeline: one row per scrape window
// showing requests, p95, queue depth, per-window health and the alert /
// re-plan marks, followed by the alert logs and the headline number —
// simulated time in SLO violation for each arm.
//
// Scrapes are kernel events, so the series and alert log are
// byte-identical across runs and replay modes at the same seed.
package main

import (
	"fmt"
	"log"
	"os"
	"time"

	"fsdinference/internal/cloud/env"
	"fsdinference/internal/core"
	"fsdinference/internal/model"
	"fsdinference/internal/obs/monitor"
	"fsdinference/internal/serve"
	"fsdinference/internal/workload"
)

func main() {
	m, err := model.Generate(model.GraphChallengeSpec(256, 12, 1))
	if err != nil {
		log.Fatal(err)
	}

	// Flash crowd: 10 quiet minutes at one query per 30s, then four
	// minutes at 1.25 queries/s — beyond the queue channel's ~0.8 req/s
	// but within the memory channel's reach — and a tail for the drain.
	var trace []workload.Query
	add := func(at time.Duration) {
		trace = append(trace, workload.Query{At: at, Neurons: 256, Samples: 4})
	}
	for i := 0; i < 20; i++ {
		add(time.Duration(i) * 30 * time.Second)
	}
	crowd := 10 * time.Minute
	for i := 0; i < 300; i++ {
		add(crowd + time.Duration(i)*800*time.Millisecond)
	}
	for i := 0; i < 12; i++ {
		add(14*time.Minute + 30*time.Second + time.Duration(i)*30*time.Second)
	}

	run := func(passive bool) *monitor.Monitor {
		svc, err := serve.NewService(env.NewDefault(),
			serve.WithEndpoint("slo", m, serve.WithSLO(serve.SLOOptions{
				LatencyWeight: 0, // cost pick: the quiet morning chooses queue
				Channels:      []core.ChannelKind{core.Queue, core.Memory},
				Workers:       []int{2},
				ProbeBatch:    4,
				MinRuns:       64, // the drift trigger's anti-flap gate
			})),
			serve.WithCoalescing(4, 0),
			serve.WithMonitor(monitor.Spec{
				Interval: 15 * time.Second,
				SLOs: []monitor.SLO{{
					Name: "lat-p95", Endpoint: "slo", Kind: monitor.LatencyQuantile,
					Target: 4 * time.Second, Window: 24 * time.Hour, Objective: 0.99,
				}},
				Passive: passive,
			}),
		)
		if err != nil {
			log.Fatal(err)
		}
		rep, err := svc.Replay(trace, serve.ReplayOptions{Seed: 1})
		if err != nil {
			log.Fatal(err)
		}

		arm := "alert-driven"
		if passive {
			arm = "drift-only (passive monitor)"
		}
		fmt.Printf("=== %s ===\n", arm)
		mon := svc.Monitor()
		type replanMark struct {
			at  time.Duration
			txt string
		}
		var replans []replanMark
		for _, ev := range rep.Endpoints[0].Replans {
			replans = append(replans, replanMark{ev.At,
				fmt.Sprintf("replan %v->%v (%s)", ev.From, ev.To, ev.Reason)})
			fmt.Printf("replan at %7v: %v->%v — %s\n", ev.At, ev.From, ev.To, ev.Reason)
		}
		alerts := map[int][]string{}
		for _, ev := range mon.Alerts() {
			verb := "resolve"
			if ev.Firing {
				verb = "FIRE"
			}
			alerts[int(ev.At/(15*time.Second))] = append(alerts[int(ev.At/(15*time.Second))],
				fmt.Sprintf("%s %s %s", verb, ev.Severity, ev.SLO))
		}

		fmt.Println("\nwindow    span       req   p95        depth  health     events")
		for _, s := range mon.Series("slo") {
			marks := ""
			for _, a := range alerts[s.Window] {
				marks += " [" + a + "]"
			}
			// A re-plan lands between scrape boundaries; attach it to the
			// window that contains it.
			for _, r := range replans {
				if r.at > s.Start && r.at <= s.End {
					marks += " [" + r.txt + "]"
				}
			}
			if s.Requests == 0 && marks == "" {
				continue // quiet window, nothing to show
			}
			fmt.Printf("w%03d  %5v-%5v  %4d  %-9v  %5.0f  %-9v %s\n",
				s.Window, s.Start, s.End, s.Requests,
				s.P95.Round(time.Millisecond), s.QueueDepth, s.Health, marks)
		}

		fmt.Println("\nalert log:")
		if err := mon.WriteAlerts(os.Stdout); err != nil {
			log.Fatal(err)
		}
		fmt.Printf("\ntime in SLO violation: %v\n\n", mon.TimeInViolation("slo", "lat-p95"))
		return mon
	}

	passive := run(true)
	active := run(false)
	fmt.Printf("alert-driven control cut time-in-violation from %v to %v\n",
		passive.TimeInViolation("slo", "lat-p95"),
		active.TimeInViolation("slo", "lat-p95"))
}
