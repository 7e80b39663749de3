// Quickstart: generate a sparse DNN, deploy FSD-Inference on the simulated
// cloud, run one request on each variant and verify the outputs against
// reference inference.
package main

import (
	"fmt"
	"log"

	"fsdinference/internal/cloud/env"
	"fsdinference/internal/core"
	"fsdinference/internal/model"
	"fsdinference/internal/partition"
)

func main() {
	const (
		neurons = 512
		layers  = 12
		workers = 8
		batch   = 32
	)
	fmt.Printf("generating a %d-neuron, %d-layer Graph Challenge-style sparse DNN\n", neurons, layers)
	m, err := model.Generate(model.GraphChallengeSpec(neurons, layers, 1))
	if err != nil {
		log.Fatal(err)
	}
	input := model.GenerateInputs(neurons, batch, 0.2, 2)
	want := model.Reference(m, input)

	plan, err := partition.BuildPlan(m, workers, partition.HGPDNN, partition.Options{Seed: 1})
	if err != nil {
		log.Fatal(err)
	}

	for _, kind := range []core.ChannelKind{
		core.Serial, core.Queue, core.Object,
	} {
		cfg := core.Config{Model: m, Channel: kind}
		if kind != core.Serial {
			cfg.Plan = plan
		}
		d, err := core.Deploy(env.NewDefault(), cfg)
		if err != nil {
			log.Fatal(err)
		}
		res, err := d.Infer(input)
		if err != nil {
			log.Fatal(err)
		}
		ok := model.OutputsClose(res.Output, want, 1e-2)
		fmt.Printf("\n%-16s P=%-2d latency=%-14v per-sample=%-12v cost=$%.6f verified=%v\n",
			kind, cfg.Workers(), res.Latency, res.PerSample(), res.Cost.Total(), ok)
		fmt.Printf("  %s\n", res.Cost)
		if !ok {
			log.Fatal("output mismatch")
		}
	}
	fmt.Println("\nall three variants agree with reference inference")
}
