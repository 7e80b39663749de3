// Command fsdbench regenerates the paper's tables and figures (§VI) on the
// simulated cloud.
//
// Usage:
//
//	fsdbench [-exp id|all] [-scale quick|default] [-list]
//
// Experiment ids follow the paper: fig4, fig5, fig6, table2, table3 and
// costval (§VI-F, reconstructed against metered cost for every transport);
// the later experiments channels (three-way channel comparison), cluster
// (sharded store: throughput scaling and failover), planner (workload-aware
// planning vs static one-shot selection), slomonitor (alert-driven
// re-planning on a flash crowd) and collectives (topologies vs P, hybrid
// routing); and the ablations polling, launch, compression and quota.
// -list prints them with a one-line description each.
package main

import (
	"flag"
	"fmt"
	"os"
	"time"

	"fsdinference/internal/experiments"
)

func main() {
	exp := flag.String("exp", "all", "experiment id to run, or \"all\"")
	scale := flag.String("scale", "quick", "evaluation grid: quick or default")
	list := flag.Bool("list", false, "list experiments and exit")
	flag.Parse()

	if *list {
		for _, r := range experiments.Registry() {
			fmt.Printf("%-12s %s\n", r.ID, r.Desc)
		}
		return
	}

	var s experiments.Scale
	switch *scale {
	case "quick":
		s = experiments.QuickScale()
	case "default":
		s = experiments.DefaultScale()
	default:
		fmt.Fprintf(os.Stderr, "fsdbench: unknown scale %q (want quick or default)\n", *scale)
		os.Exit(2)
	}
	lab := experiments.NewLab(s)

	run := func(r experiments.Runner) {
		//simlint:allow walltime — host-side timing of how long the experiment itself took to regenerate; never feeds a simulated outcome
		t0 := time.Now()
		tab, err := r.Run(lab)
		if err != nil {
			fmt.Fprintf(os.Stderr, "fsdbench: %s: %v\n", r.ID, err)
			os.Exit(1)
		}
		fmt.Println(tab)
		//simlint:allow walltime — host-side timing of the regeneration, printed for the operator; not simulated state
		fmt.Printf("(%s regenerated in %v)\n\n", r.ID, time.Since(t0).Round(time.Millisecond))
	}

	if *exp == "all" {
		for _, r := range experiments.Registry() {
			run(r)
		}
		return
	}
	r, ok := experiments.Find(*exp)
	if !ok {
		fmt.Fprintf(os.Stderr, "fsdbench: unknown experiment %q (use -list)\n", *exp)
		os.Exit(2)
	}
	run(r)
}
