// Command fsdpart partitions a synthetic sparse DNN offline and compares
// the communication statistics of the available schemes — the paper's
// offline PaToH post-processing step (§III) and the Table III comparison.
//
// Usage:
//
//	fsdpart [-neurons N] [-layers L] [-workers P]
package main

import (
	"flag"
	"fmt"
	"os"

	"fsdinference/internal/model"
	"fsdinference/internal/partition"
)

func main() {
	neurons := flag.Int("neurons", 1024, "neurons per layer")
	layers := flag.Int("layers", 24, "layer count")
	workers := flag.Int("workers", 42, "worker parallelism")
	seed := flag.Int64("seed", 1, "generation seed")
	flag.Parse()

	m, err := model.Generate(model.GraphChallengeSpec(*neurons, *layers, *seed))
	if err != nil {
		fmt.Fprintf(os.Stderr, "fsdpart: %v\n", err)
		os.Exit(1)
	}
	fmt.Printf("model: N=%d L=%d nnz=%d (%d KB raw), P=%d\n\n",
		*neurons, *layers, m.NNZ(), m.WeightBytes()/1024, *workers)
	fmt.Printf("%-8s  %12s  %8s  %10s  %8s  %8s\n",
		"scheme", "rowTransfers", "pairs", "rows/pair", "maxRows", "nnzImbal")
	for _, scheme := range []partition.Scheme{partition.Block, partition.Random, partition.HGPDNN} {
		plan, err := partition.BuildPlan(m, *workers, scheme, partition.Options{Seed: *seed})
		if err != nil {
			fmt.Fprintf(os.Stderr, "fsdpart: %v: %v\n", scheme, err)
			os.Exit(1)
		}
		st := plan.Stats(m)
		fmt.Printf("%-8s  %12d  %8d  %10.1f  %8d  %7.1f%%\n",
			scheme, st.RowTransfers, st.Pairs, st.RowsPerPair, st.MaxRows, st.NNZImbalance*100)
	}
	fmt.Println("\nrowTransfers is the connectivity-1 objective: activation rows shipped per request")
}
