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
		"FSD-Inf-Queue/flat/gather":     {3655143141, "0.0005099191180457187", "8df6671212669632"},
		"FSD-Inf-Queue/flat/allreduce":  {3667810622, "0.0005456663927284048", "d60e5f7afab473c0"},
		"FSD-Inf-Queue/tree/gather":     {3931250922, "0.0005696562875822073", "8ac36600319e5f82"},
		"FSD-Inf-Queue/tree/allreduce":  {3972235886, "0.08947015833776048", "54b4a5a32f0931a9"},
		"FSD-Inf-Queue/ring/gather":     {5015004119, "0.0007581994548480013", "4fc3b77286449777"},
		"FSD-Inf-Queue/ring/allreduce":  {4763381326, "0.07487822162989133", "98a0dc65887c1af4"},
		"FSD-Inf-Memory/flat/gather":    {3188602624, "0.0026386197925604826", "d7a3f305a9b45175"},
		"FSD-Inf-Memory/flat/allreduce": {3191781700, "0.0026398066993125464", "50d41f3cf763e54d"},
		"FSD-Inf-Memory/tree/gather":    {3189045975, "0.002638988566556493", "d5c830d03876f146"},
		"FSD-Inf-Memory/tree/allreduce": {3191093663, "0.002639754993333484", "e3bead41bd37d5f7"},
		"FSD-Inf-Memory/ring/gather":    {3203588890, "0.0026413308138353788", "e48cd88081200e4e"},
		"FSD-Inf-Memory/ring/allreduce": {3202262256, "0.0026418448132357717", "9f294118cfbd527f"},
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
