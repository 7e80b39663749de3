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
	"io"
	"os"

	"fsdinference/internal/cloud/env"
	"fsdinference/internal/core"
	"fsdinference/internal/model"
	"fsdinference/internal/partition"
)

func main() {
	switch err := run(os.Args[1:], os.Stdout, os.Stderr); {
	case err == flag.ErrHelp:
	case err != nil:
		fmt.Fprintf(os.Stderr, "fsdinfer: %v\n", err)
		os.Exit(2)
	}
}

// schemes are the -scheme spellings.
var schemes = map[string]partition.Scheme{
	"block":  partition.Block,
	"random": partition.Random,
	"hgp":    partition.HGPDNN,
}

// run parses args, serves one request and prints its latency, cost and
// activity to stdout; flag usage goes to stderr. A flag error prints
// nothing, and an output that diverges from reference inference is an
// error.
func run(args []string, stdout, stderr io.Writer) error {
	fs := flag.NewFlagSet("fsdinfer", flag.ContinueOnError)
	fs.SetOutput(stderr)
	neurons := fs.Int("neurons", 1024, "neurons per layer")
	layers := fs.Int("layers", 24, "layer count")
	workers := fs.Int("workers", 8, "FaaS worker parallelism")
	batch := fs.Int("batch", 64, "samples per request")
	channel := fs.String("channel", "queue", "communication channel: serial, queue, object, memory or hybrid")
	scheme := fs.String("scheme", "hgp", "partitioning: block, random or hgp")
	seed := fs.Int64("seed", 1, "generation seed")
	verify := fs.Bool("verify", true, "check the output against reference inference")
	if err := fs.Parse(args); err != nil {
		return err
	}
	kind, err := core.ParseChannelKind(*channel)
	if err != nil {
		return err
	}
	sch, ok := schemes[*scheme]
	if !ok {
		return fmt.Errorf("unknown scheme %q", *scheme)
	}

	fmt.Fprintf(stdout, "generating %d-neuron, %d-layer sparse DNN...\n", *neurons, *layers)
	m, err := model.Generate(model.GraphChallengeSpec(*neurons, *layers, *seed))
	if err != nil {
		return err
	}
	cfg := core.Config{Model: m, Channel: kind}
	if kind != core.Serial {
		fmt.Fprintf(stdout, "partitioning across %d workers (%s)...\n", *workers, *scheme)
		plan, err := partition.BuildPlan(m, *workers, sch, partition.Options{Seed: *seed})
		if err != nil {
			return err
		}
		cfg.Plan = plan
	}
	d, err := core.Deploy(env.NewDefault(), cfg)
	if err != nil {
		return err
	}
	input := model.GenerateInputs(*neurons, *batch, 0.2, *seed+1)
	res, err := d.Infer(input)
	if err != nil {
		return err
	}

	fmt.Fprintf(stdout, "\n%s, P=%d, batch=%d\n", kind, cfg.Workers(), *batch)
	fmt.Fprintf(stdout, "  query latency:   %v (virtual)\n", res.Latency)
	fmt.Fprintf(stdout, "  per-sample:      %v\n", res.PerSample())
	fmt.Fprintf(stdout, "  launch complete: %v\n", res.LaunchComplete)
	fmt.Fprintf(stdout, "  cost:            %s\n", res.Cost)
	fmt.Fprintf(stdout, "  bytes shipped:   %d across %d workers\n", res.TotalBytesSent(), len(res.Workers))
	if *verify {
		if !model.OutputsClose(res.Output, model.Reference(m, input), 1e-2) {
			return fmt.Errorf("output DIVERGES from reference inference")
		}
		fmt.Fprintln(stdout, "  output verified against reference inference")
	}
	return nil
}
