package core

import (
	"fmt"
	"testing"
	"time"

	"fsdinference/internal/cloud/env"
	"fsdinference/internal/golden"
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
					golden.Check(t, resultDump(res))
				})
			}
		}
	}
}
