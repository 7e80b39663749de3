// Command fsdinfer runs a single FSD-Inference request on the simulated
// cloud and reports latency, cost and per-worker activity.
//
// Usage:
//
//	fsdinfer [-neurons N] [-layers L] [-workers P] [-batch B]
//	         [-channel serial|queue|object|memory|hybrid] [-scheme block|random|hgp]
//	         [-verify]
package main

import (
	"flag"
	"fmt"
	"os"

	"fsdinference/internal/cloud/env"
	"fsdinference/internal/core"
	"fsdinference/internal/model"
	"fsdinference/internal/partition"
)

func main() {
	neurons := flag.Int("neurons", 1024, "neurons per layer")
	layers := flag.Int("layers", 24, "layer count")
	workers := flag.Int("workers", 8, "FaaS worker parallelism")
	batch := flag.Int("batch", 64, "samples per request")
	channel := flag.String("channel", "queue", "communication channel: serial, queue, object, memory or hybrid")
	scheme := flag.String("scheme", "hgp", "partitioning: block, random or hgp")
	seed := flag.Int64("seed", 1, "generation seed")
	verify := flag.Bool("verify", true, "check the output against reference inference")
	flag.Parse()

	kind, err := core.ParseChannelKind(*channel)
	if err != nil {
		fatal("%v", err)
	}
	var sch partition.Scheme
	switch *scheme {
	case "block":
		sch = partition.Block
	case "random":
		sch = partition.Random
	case "hgp":
		sch = partition.HGPDNN
	default:
		fatal("unknown scheme %q", *scheme)
	}

	fmt.Printf("generating %d-neuron, %d-layer sparse DNN...\n", *neurons, *layers)
	m, err := model.Generate(model.GraphChallengeSpec(*neurons, *layers, *seed))
	if err != nil {
		fatal("%v", err)
	}
	cfg := core.Config{Model: m, Channel: kind}
	if kind != core.Serial {
		fmt.Printf("partitioning across %d workers (%s)...\n", *workers, *scheme)
		plan, err := partition.BuildPlan(m, *workers, sch, partition.Options{Seed: *seed})
		if err != nil {
			fatal("%v", err)
		}
		cfg.Plan = plan
	}
	d, err := core.Deploy(env.NewDefault(), cfg)
	if err != nil {
		fatal("%v", err)
	}
	input := model.GenerateInputs(*neurons, *batch, 0.2, *seed+1)
	res, err := d.Infer(input)
	if err != nil {
		fatal("%v", err)
	}

	fmt.Printf("\n%s, P=%d, batch=%d\n", kind, cfg.Workers(), *batch)
	fmt.Printf("  query latency:   %v (virtual)\n", res.Latency)
	fmt.Printf("  per-sample:      %v\n", res.PerSample())
	fmt.Printf("  launch complete: %v\n", res.LaunchComplete)
	fmt.Printf("  cost:            %s\n", res.Cost)
	fmt.Printf("  bytes shipped:   %d across %d workers\n", res.TotalBytesSent(), len(res.Workers))
	if *verify {
		want := model.Reference(m, input)
		if model.OutputsClose(res.Output, want, 1e-2) {
			fmt.Println("  output verified against reference inference")
		} else {
			fatal("output DIVERGES from reference inference")
		}
	}
}

func fatal(format string, args ...any) {
	fmt.Fprintf(os.Stderr, "fsdinfer: "+format+"\n", args...)
	os.Exit(1)
}
