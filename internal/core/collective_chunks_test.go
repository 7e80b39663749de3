package core

import (
	"fmt"
	"strings"
	"testing"
	"time"

	"fsdinference/internal/cloud/env"
	"fsdinference/internal/collective"
	"fsdinference/internal/model"
	"fsdinference/internal/partition"
)

// topologies are the concrete collective algorithms AutoAlgo resolves to.
var topologies = []collective.Algorithm{collective.Flat, collective.Tree, collective.Ring}

// TestCollectivesFoldEveryChunk: a channel delivers a value once per byte
// string, so a collective value split over several — a Queue payload over
// the publish cap, a Hybrid bulk value over HybridChunkBytes — must be
// folded or joined piece by piece. While each topology carried its own
// receive and kept the last delivery, 9 of these 12 cells were wrong: the
// root under tree and ring, and the broadcast copies under flat too.
func TestCollectivesFoldEveryChunk(t *testing.T) {
	m, err := model.Generate(model.GraphChallengeSpec(256, 6, 1))
	if err != nil {
		t.Fatal(err)
	}
	plan, err := partition.BuildPlan(m, 8, partition.Block, partition.Options{Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	input := model.GenerateInputs(256, 8, 0.2, 2)
	want := model.Reference(m, input)

	// Pieces of at most 512 bytes on Queue and 1 KiB on Hybrid. The reduced
	// result frames to several times either, so the broadcast value and the
	// partial unions near the root cannot travel in one piece.
	channels := []struct {
		env func(*env.Config)
		cfg Config
	}{
		{env: func(c *env.Config) { c.SNS.MaxPayloadBytes = 512 }, cfg: Config{Channel: Queue}},
		{cfg: Config{Channel: Hybrid, HybridThresholdBytes: 256, HybridChunkBytes: 1 << 10}},
	}
	if enc, err := resultFrame(want, true); err != nil || len(enc) < 4<<10 {
		t.Fatalf("the reduced result frames to %d bytes (%v), too few to be split", len(enc), err)
	}
	for _, ch := range channels {
		for _, alg := range topologies {
			for _, all := range []bool{false, true} {
				t.Run(fmt.Sprintf("%v/%v/allreduce=%v", ch.cfg.Channel, alg, all), func(t *testing.T) {
					ecfg := env.DefaultConfig()
					if ch.env != nil {
						ch.env(&ecfg)
					}
					cfg := ch.cfg
					cfg.Model, cfg.Plan, cfg.Collective, cfg.AllreduceOutput = m, plan, alg, all
					cfg.Compress, cfg.PollWait = true, 2*time.Second
					d, err := Deploy(env.New(ecfg), cfg)
					if err != nil {
						t.Fatal(err)
					}
					res, err := d.Infer(input)
					if err != nil {
						t.Fatal(err)
					}
					if !model.OutputsClose(res.Output, want, 1e-2) {
						t.Error("root output diverges from reference inference")
					}
					// Not every rank materialises a copy on the Queue channel
					// under tree and ring (see TestGoldenResultP32); each that
					// does must hold the whole result.
					for id, out := range res.AllOutputs {
						if out != nil && !model.OutputsClose(out, want, 1e-2) {
							t.Errorf("worker %d's copy diverges from reference inference", id)
						}
					}
				})
			}
		}
	}
}

// TestDeployRejectsUnknownCollective: a topology outside the enum used to
// validate, run flat and be metered as "barrier/Algorithm(9)".
func TestDeployRejectsUnknownCollective(t *testing.T) {
	m, err := model.Generate(model.GraphChallengeSpec(64, 2, 1))
	if err != nil {
		t.Fatal(err)
	}
	plan, err := partition.BuildPlan(m, 2, partition.Block, partition.Options{Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	for _, alg := range []collective.Algorithm{9, -1, collective.AutoAlgo + 1} {
		d, err := Deploy(env.NewDefault(), Config{Model: m, Plan: plan, Channel: Memory, Collective: alg})
		if err == nil || d != nil || !strings.Contains(err.Error(), alg.String()) {
			t.Errorf("Deploy with %v returned (deployment: %v, %v), want an error naming the topology", alg, d != nil, err)
		}
	}
	for _, alg := range append(topologies, collective.AutoAlgo) {
		if _, err := Deploy(env.NewDefault(), Config{Model: m, Plan: plan, Channel: Memory, Collective: alg}); err != nil {
			t.Errorf("Deploy with %v: %v", alg, err)
		}
	}
}

// TestDeployRejectsUnknownLaunchMode: a launch mode outside the enum used to
// deploy, and every run then failed 650 ms in because the coordinator
// launched nobody.
func TestDeployRejectsUnknownLaunchMode(t *testing.T) {
	m, err := model.Generate(model.GraphChallengeSpec(64, 2, 1))
	if err != nil {
		t.Fatal(err)
	}
	plan, err := partition.BuildPlan(m, 2, partition.Block, partition.Options{Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	for _, mode := range []LaunchMode{7, -1, TwoLevel + 1} {
		d, err := Deploy(env.NewDefault(), Config{Model: m, Plan: plan, Channel: Memory, Launch: mode})
		if err == nil || d != nil || !strings.Contains(err.Error(), mode.String()) {
			t.Errorf("Deploy with %v returned (deployment: %v, %v), want an error naming the mode", mode, d != nil, err)
		}
	}
}
