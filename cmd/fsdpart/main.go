// Command fsdpart partitions a synthetic sparse DNN offline and compares
// the communication statistics of the available schemes — the paper's
// offline PaToH post-processing step (§III) and the Table III comparison.
//
// Usage:
//
//	fsdpart [-neurons N] [-layers L] [-workers P] [-seed S]
package main

import (
	"flag"
	"fmt"
	"io"
	"os"

	"fsdinference/internal/model"
	"fsdinference/internal/partition"
)

func main() {
	switch err := run(os.Args[1:], os.Stdout, os.Stderr); {
	case err == flag.ErrHelp:
	case err != nil:
		fmt.Fprintf(os.Stderr, "fsdpart: %v\n", err)
		os.Exit(2)
	}
}

// run parses args and prints the schemes' partition statistics to stdout;
// flag usage goes to stderr. A flag or dimension error prints no table.
func run(args []string, stdout, stderr io.Writer) error {
	fs := flag.NewFlagSet("fsdpart", flag.ContinueOnError)
	fs.SetOutput(stderr)
	neurons := fs.Int("neurons", 1024, "neurons per layer")
	layers := fs.Int("layers", 24, "layer count")
	workers := fs.Int("workers", 42, "worker parallelism")
	seed := fs.Int64("seed", 1, "generation seed")
	if err := fs.Parse(args); err != nil {
		return err
	}
	for _, f := range []struct {
		name string
		v    int
	}{{"-neurons", *neurons}, {"-layers", *layers}, {"-workers", *workers}} {
		if f.v < 1 {
			return fmt.Errorf("%s must be at least 1, got %d", f.name, f.v)
		}
	}

	m, err := model.Generate(model.GraphChallengeSpec(*neurons, *layers, *seed))
	if err != nil {
		return err
	}
	// Every plan is built before the table prints, so a failure prints none.
	schemes := []partition.Scheme{partition.Block, partition.Random, partition.HGPDNN}
	stats := make([]partition.Stats, len(schemes))
	for i, scheme := range schemes {
		plan, err := partition.BuildPlan(m, *workers, scheme, partition.Options{Seed: *seed})
		if err != nil {
			return fmt.Errorf("%v: %w", scheme, err)
		}
		stats[i] = plan.Stats(m)
	}
	fmt.Fprintf(stdout, "model: N=%d L=%d nnz=%d (%d KB raw), P=%d\n\n",
		*neurons, *layers, m.NNZ(), m.WeightBytes()/1024, *workers)
	fmt.Fprintf(stdout, "%-8s  %12s  %8s  %10s  %8s  %8s\n",
		"scheme", "rowTransfers", "pairs", "rows/pair", "maxRows", "nnzImbal")
	for i, st := range stats {
		fmt.Fprintf(stdout, "%-8s  %12d  %8d  %10.1f  %8d  %7.1f%%\n",
			schemes[i], st.RowTransfers, st.Pairs, st.RowsPerPair, st.MaxRows, st.NNZImbalance*100)
	}
	fmt.Fprintln(stdout, "\nrowTransfers is the connectivity-1 objective: activation rows shipped per request")
	return nil
}
