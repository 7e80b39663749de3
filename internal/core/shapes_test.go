package core

import (
	"fmt"
	"testing"
	"time"

	"fsdinference/internal/cloud/env"
	"fsdinference/internal/collective"
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
		"FSD-Inf-Queue/flat/gather":     {3655112809, "0.0005101986225454864", "4a9a87e24fe573ac"},
		"FSD-Inf-Queue/flat/allreduce":  {3667780290, "0.0005459459484978063", "95dd6a07ba6422c5"},
		"FSD-Inf-Queue/tree/gather":     {3931220539, "0.0005699358316979397", "5ca6c337d579443c"},
		"FSD-Inf-Queue/tree/allreduce":  {3972205503, "0.08947044085066472", "7828a22e4446724f"},
		"FSD-Inf-Queue/ring/gather":     {5014969698, "0.000758478211982993", "bdd0c915d3cbbe85"},
		"FSD-Inf-Queue/ring/allreduce":  {4763346905, "0.07487850318822005", "39f930f5eb788e55"},
		"FSD-Inf-Memory/flat/gather":    {3188571511, "0.002638613714813952", "42a2a19f915f883d"},
		"FSD-Inf-Memory/flat/allreduce": {3191750587, "0.0026398006225425807", "d0cb70d612a63a54"},
		"FSD-Inf-Memory/tree/gather":    {3189023683, "0.002638984224490517", "2544187f9c466477"},
		"FSD-Inf-Memory/tree/allreduce": {3191071371, "0.002639750639418526", "e1d87e0b73a4cd8f"},
		"FSD-Inf-Memory/ring/gather":    {3203557925, "0.0026413247659717205", "4adb05cec2320094"},
		"FSD-Inf-Memory/ring/allreduce": {3202231291, "0.0026418387653721134", "5a02899b00304b24"},
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
		for _, alg := range collective.Algorithms() {
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
