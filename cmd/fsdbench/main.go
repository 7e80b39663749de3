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
	"io"
	"os"
	"time"

	"fsdinference/internal/experiments"
)

func main() {
	switch err := run(os.Args[1:], os.Stdout, os.Stderr); {
	case err == flag.ErrHelp:
	case err != nil:
		fmt.Fprintf(os.Stderr, "fsdbench: %v\n", err)
		os.Exit(2)
	}
}

// run parses args and prints the experiment list, or each chosen
// experiment's table, to stdout; flag usage goes to stderr. An unknown
// experiment or scale prints nothing.
func run(args []string, stdout, stderr io.Writer) error {
	fs := flag.NewFlagSet("fsdbench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	exp := fs.String("exp", "all", "experiment id to run, or \"all\"")
	scale := fs.String("scale", "quick", "evaluation grid: quick or default")
	list := fs.Bool("list", false, "list experiments and exit")
	if err := fs.Parse(args); err != nil {
		return err
	}
	if *list {
		for _, r := range experiments.Registry() {
			fmt.Fprintf(stdout, "%-12s %s\n", r.ID, r.Desc)
		}
		return nil
	}

	var s experiments.Scale
	switch *scale {
	case "quick":
		s = experiments.QuickScale()
	case "default":
		s = experiments.DefaultScale()
	default:
		return fmt.Errorf("unknown scale %q (want quick or default)", *scale)
	}
	runners := experiments.Registry()
	if *exp != "all" {
		r, ok := experiments.Find(*exp)
		if !ok {
			return fmt.Errorf("unknown experiment %q (use -list)", *exp)
		}
		runners = []experiments.Runner{r}
	}
	lab := experiments.NewLab(s)
	for _, r := range runners {
		//simlint:allow walltime — host-side timing of how long the experiment itself took to regenerate; never feeds a simulated outcome
		t0 := time.Now()
		tab, err := r.Run(lab)
		if err != nil {
			return fmt.Errorf("%s: %w", r.ID, err)
		}
		fmt.Fprintln(stdout, tab)
		//simlint:allow walltime — host-side timing of the regeneration, printed for the operator; not simulated state
		fmt.Fprintf(stdout, "(%s regenerated in %v)\n\n", r.ID, time.Since(t0).Round(time.Millisecond))
	}
	return nil
}
