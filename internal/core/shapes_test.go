package core

import (
	"fmt"
	"testing"
	"time"

	"fsdinference/internal/cloud/env"
	"fsdinference/internal/model"
	"fsdinference/internal/partition"
)

// TestGoldenCollectiveShapes pins what the other golden cells leave open
// about the collective topologies: they reach tree and ring only through
// AllreduceOutput at P=8 and P=32, so the root-only Gather under a non-flat
// topology (what Collective: Tree runs by default) and the binomial tree's
// missing children at a worker count that is no power of two were unpinned.
// N=256x6, Block P=12, batch 16, compressed, on one polled and one pushed
// channel. Captured while each topology still carried its own reduce and
// broadcast.
func TestGoldenCollectiveShapes(t *testing.T) {
	if testing.Short() {
		t.Skip("12 P=12 runs")
	}
	golden := map[string]goldenCell{
		"FSD-Inf-Queue/flat/gather":     {3655112809, "0.0005101986225454864", "dd78c77fed905926"},
		"FSD-Inf-Queue/flat/allreduce":  {3667780290, "0.0005459459484978063", "467b9bb29280653f"},
		"FSD-Inf-Queue/tree/gather":     {3931220539, "0.0005699358316979397", "889de8e7d3b718ae"},
		"FSD-Inf-Queue/tree/allreduce":  {3972205503, "0.08947044085066472", "5af5af5e1a595c8d"},
		"FSD-Inf-Queue/ring/gather":     {5014969698, "0.000758478211982993", "56725242f84ad2e9"},
		"FSD-Inf-Queue/ring/allreduce":  {4763346905, "0.07487850318822005", "4d0048df35be7b86"},
		"FSD-Inf-Memory/flat/gather":    {3188571511, "0.002638613714813952", "312b75729a5c7ead"},
		"FSD-Inf-Memory/flat/allreduce": {3191750587, "0.0026398006225425807", "6d89d8b04920d176"},
		"FSD-Inf-Memory/tree/gather":    {3189023683, "0.002638984224490517", "7cf2e1270d46ed7e"},
		"FSD-Inf-Memory/tree/allreduce": {3191071371, "0.002639750639418526", "2855e9248598e694"},
		"FSD-Inf-Memory/ring/gather":    {3203557925, "0.0026413247659717205", "a5820c548fc1738a"},
		"FSD-Inf-Memory/ring/allreduce": {3202231291, "0.0026418387653721134", "d20eac5d794ff2bc"},
	}

	m, err := model.Generate(model.GraphChallengeSpec(256, 6, 1))
	if err != nil {
		t.Fatal(err)
	}
	plan, err := partition.BuildPlan(m, 12, partition.Block, partition.Options{Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	input := model.GenerateInputs(256, 16, 0.2, 2)
	want := model.Reference(m, input)

	for _, kind := range []ChannelKind{Queue, Memory} {
		for _, alg := range topologies {
			for _, all := range []bool{false, true} {
				name := fmt.Sprintf("%v/%v/gather", kind, alg)
				if all {
					name = fmt.Sprintf("%v/%v/allreduce", kind, alg)
				}
				t.Run(name, func(t *testing.T) {
					d, err := Deploy(env.NewDefault(), Config{
						Model: m, Plan: plan, Channel: kind, Collective: alg,
						AllreduceOutput: all, Compress: true, PollWait: 2 * time.Second,
					})
					if err != nil {
						t.Fatal(err)
					}
					res, err := d.Infer(input)
					if err != nil {
						t.Fatal(err)
					}
					if !model.OutputsClose(res.Output, want, 1e-2) {
						t.Fatal("output diverges from reference inference")
					}
					// Queue under tree and ring tears the run down before every
					// rank has its copy (see TestGoldenResultP32); the dump pins
					// how many exist, and each that does must be right.
					for id, out := range res.AllOutputs {
						if out != nil && !model.OutputsClose(out, want, 1e-2) {
							t.Fatalf("worker %d's copy diverges from reference inference", id)
						}
					}
					checkGolden(t, name, res, golden[name])
				})
			}
		}
	}
}
