// Command fsdcost explores the FSD-Inference cost model (§IV): it evaluates
// the channel recommendation for a workload, prints the API-cost
// comparison behind the paper's design guidance, and previews which
// channels the planner's analytic pre-filter would prune before paying
// for simulated trials.
//
// Usage:
//
//	fsdcost [-neurons N] [-layers L] [-workers P] [-batch B] [-queries Q]
package main

import (
	"flag"
	"fmt"
	"os"

	"fsdinference/internal/cloud/pricing"
	"fsdinference/internal/cost"
	"fsdinference/internal/plan"
)

// workloadFor estimates the a-priori workload description of a Graph
// Challenge-style model (32 nonzeros per neuron per layer) served by workers
// instances, and rejects dimensions no deployment can have.
func workloadFor(neurons, layers, workers, batch int, queries int64) (cost.Workload, error) {
	for _, f := range []struct {
		name   string
		v, min int64
	}{
		{"-neurons", int64(neurons), 1}, {"-layers", int64(layers), 1}, {"-workers", int64(workers), 1},
		{"-batch", int64(batch), 1}, {"-queries", queries, 0},
	} {
		if f.v < f.min {
			return cost.Workload{}, fmt.Errorf("%s must be at least %d, got %d", f.name, f.min, f.v)
		}
	}
	nnz := int64(neurons) * 32 * int64(layers)
	modelBytes := nnz*8 + int64(neurons+1)*4*int64(layers)
	// Rough per-pair volume: cut fraction ~10% of a worker's rows, 4 B
	// per value, batch columns.
	rowsPerWorker := neurons / workers
	bytesPerPair := int64(float64(rowsPerWorker) * 0.1 * float64(batch) * 4 * 0.6)
	return cost.Workload{
		ModelBytes:           modelBytes,
		MemOverhead:          5.5,
		InstanceCapMB:        10240,
		Workers:              workers,
		BytesPerPairPerLayer: bytesPerPair,
		PairsPerLayer:        int64(workers) * 6,
		Layers:               layers,
		QueriesPerDay:        queries,
	}, nil
}

func main() {
	neurons := flag.Int("neurons", 16384, "neurons per layer (paper scale)")
	layers := flag.Int("layers", 120, "layer count")
	workers := flag.Int("workers", 42, "worker parallelism")
	batch := flag.Int("batch", 10000, "samples per request")
	queries := flag.Int64("queries", 0, "expected queries per day (0 = unknown/sporadic)")
	flag.Parse()

	w, err := workloadFor(*neurons, *layers, *workers, *batch, *queries)
	if err != nil {
		fmt.Fprintf(os.Stderr, "fsdcost: %v\n", err)
		os.Exit(2)
	}
	adv := cost.Recommend(w)
	fmt.Printf("workload: N=%d L=%d P=%d batch=%d (model %d MB raw)\n",
		*neurons, *layers, *workers, *batch, w.ModelBytes>>20)
	fmt.Printf("recommendation: %s\n", adv.Channel)
	for _, r := range adv.Reasons {
		fmt.Printf("  - %s\n", r)
	}

	cat := pricing.Default()
	fmt.Printf("\nAPI request cost per layer (pairs=%d):\n", w.PairsPerLayer)
	fmt.Printf("%12s  %12s  %12s  %8s\n", "bytes/pair", "queue $", "object $", "ratio")
	for _, bytes := range []int64{16 << 10, 64 << 10, 256 << 10, 1 << 20, 16 << 20, 256 << 20} {
		q, o := cost.APICost(cat, w.PairsPerLayer, bytes)
		fmt.Printf("%12d  %12.6f  %12.6f  %8.3f\n", bytes, q, o, q/o)
	}
	fmt.Println("\nqueue API requests are ~1 OOM cheaper until volumes saturate publish capacity (§IV-C)")

	be := cost.MemoryBreakEvenQueriesPerDay(cat, w)
	fmt.Printf("\nprovisioned memory store: $%.2f/day flat (no per-request charge), break-even ~%d queries/day\n",
		cost.MemoryDailyCost(cat, w), be)
	fmt.Println("below the break-even the node bills while idle — the sporadic-workload killer (§II-D)")

	fmt.Println("\nplanner pre-filter preview (cost objective): channels pruned before simulated trials")
	for _, v := range plan.PrefilterChannels(w) {
		verdict := "trial"
		if v.Pruned {
			verdict = "prune: " + v.Reason
		}
		fmt.Printf("  %-16v %s\n", v.Channel, verdict)
	}
}
