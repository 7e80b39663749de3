// Command fsdcost explores the FSD-Inference cost model (§IV): it prints the
// API-cost comparison and the provisioned store's break-even behind the
// paper's design guidance (§IV-C), each priced from the channel's transport
// row, then the planner's analytic pre-filter verdict for every channel —
// trial, or prune and why — which is the one channel advice the repository
// gives without simulated trials.
//
// Usage:
//
//	fsdcost [-neurons N] [-layers L] [-workers P] [-batch B] [-queries Q]
package main

import (
	"flag"
	"fmt"
	"io"
	"os"

	"fsdinference/internal/cloud/env"
	"fsdinference/internal/cloud/pricing"
	"fsdinference/internal/core"
	"fsdinference/internal/plan"
	"fsdinference/internal/wire"
)

// workloadFor estimates the a-priori workload description of a Graph
// Challenge-style model (32 nonzeros per neuron per layer) served by workers
// instances, and rejects dimensions no deployment can have.
func workloadFor(neurons, layers, workers, batch int, queries int64) (core.Workload, error) {
	for _, f := range []struct {
		name   string
		v, min int64
	}{
		{"-neurons", int64(neurons), 1}, {"-layers", int64(layers), 1}, {"-workers", int64(workers), 1},
		{"-batch", int64(batch), 1}, {"-queries", queries, 0},
	} {
		if f.v < f.min {
			return core.Workload{}, fmt.Errorf("%s must be at least %d, got %d", f.name, f.min, f.v)
		}
	}
	if workers > neurons {
		// As the planner skips such a worker count: some worker would own
		// no rows, and the per-pair volume would price at 0 B.
		return core.Workload{}, fmt.Errorf("-workers must be at most -neurons (%d), got %d", neurons, workers)
	}
	nnz := int64(neurons) * 32 * int64(layers)
	modelBytes := nnz*8 + int64(neurons+1)*4*int64(layers)
	// Rough per-pair frame: a tenth of a worker's rows (the cut fraction,
	// rounded), dense, batch columns, raw as the planner's candidates
	// deploy it (Compress off).
	faas := env.DefaultConfig().FaaS
	frame := wire.Frame{Rows: (int64(neurons/workers) + 5) / 10, Batch: batch}
	// Each worker sends to about six others, and never to more than the
	// P-1 there are.
	pairs := min(int64(workers)*6, int64(workers)*int64(workers-1))
	return core.Workload{
		ModelBytes:    modelBytes,
		MemOverhead:   faas.Perf.MemOverheadWeights,
		InstanceCapMB: faas.MaxMemoryMB,
		Workers:       workers,
		Frame:         frame,
		PairsPerLayer: pairs,
		Layers:        layers,
		QueriesPerDay: queries,
	}, nil
}

func main() {
	switch err := run(os.Args[1:], os.Stdout, os.Stderr); {
	case err == flag.ErrHelp:
	case err != nil:
		fmt.Fprintf(os.Stderr, "fsdcost: %v\n", err)
		os.Exit(2)
	}
}

// run parses args and prints the workload's cost-model report to stdout;
// flag usage goes to stderr.
func run(args []string, stdout, stderr io.Writer) error {
	fs := flag.NewFlagSet("fsdcost", flag.ContinueOnError)
	fs.SetOutput(stderr)
	neurons := fs.Int("neurons", 16384, "neurons per layer (paper scale)")
	layers := fs.Int("layers", 120, "layer count")
	workers := fs.Int("workers", 42, "worker parallelism")
	batch := fs.Int("batch", 10000, "samples per request")
	queries := fs.Int64("queries", 0, "expected queries per day (0 = unknown/sporadic)")
	if err := fs.Parse(args); err != nil {
		return err
	}

	w, err := workloadFor(*neurons, *layers, *workers, *batch, *queries)
	if err != nil {
		return err
	}
	fmt.Fprintf(stdout, "workload: N=%d L=%d P=%d batch=%d (model %d MB raw)\n",
		*neurons, *layers, *workers, *batch, w.ModelBytes>>20)

	fmt.Fprintf(stdout, "\nAPI request cost per layer of batch-1 frames (pairs=%d):\n", w.PairsPerLayer)
	fmt.Fprintf(stdout, "%10s  %12s  %12s  %12s  %8s\n", "rows/pair", "bytes/pair", "queue $", "object $", "ratio")
	// The whole row counts nearest 16 KiB, 64 KiB, 256 KiB, 1 MiB, 16 MiB
	// and 256 MiB frames of one value a row.
	for _, rows := range []int64{2047, 8191, 32767, 131071, 2097151, 33554431} {
		layer := core.Workload{Workers: w.Workers, PairsPerLayer: w.PairsPerLayer, Frame: wire.Frame{Rows: rows, Batch: 1}, Layers: 1}
		q, err := plan.RequestCost(layer, core.Queue)
		if err != nil {
			return err
		}
		o, err := plan.RequestCost(layer, core.Object)
		if err != nil {
			return err
		}
		ratio := "-" // one worker: no pairs, nothing to compare
		if o > 0 {
			ratio = fmt.Sprintf("%.3f", q/o)
		}
		fmt.Fprintf(stdout, "%10d  %12d  %12.6f  %12.6f  %8s\n", rows, layer.Frame.Bytes(), q, o, ratio)
	}
	fmt.Fprintln(stdout, "\nqueue API requests are ~1 OOM cheaper until volumes saturate publish capacity (§IV-C)")

	store := core.Config{Channel: core.Memory}
	breakEven := "no break-even: one worker makes no channel requests"
	if be := plan.StoreBreakEven(w, store); be > 0 {
		breakEven = fmt.Sprintf("break-even ~%d queries/day", be)
	}
	fmt.Fprintf(stdout, "\nprovisioned memory store: $%.2f/day flat (no per-request charge), %s\n",
		core.StoreDailyCost(store, pricing.Default()), breakEven)
	fmt.Fprintln(stdout, "below the break-even the node bills while idle — the sporadic-workload killer (§II-D)")

	fmt.Fprintln(stdout, "\nchannel verdicts (planner pre-filter, cost objective): trial, or prune before simulated trials")
	for _, v := range plan.PrefilterChannels(w) {
		verdict := "trial"
		if v.Pruned {
			verdict = "prune: " + v.Reason
		}
		fmt.Fprintf(stdout, "  %-16v %s\n", v.Channel, verdict)
	}
	return nil
}
