package core

import (
	"math/rand"
	"testing"
	"testing/quick"
	"time"

	"fsdinference/internal/cloud/env"
	"fsdinference/internal/model"
	"fsdinference/internal/partition"
)

// TestEngineMatchesReferenceProperty is the end-to-end invariant: for any
// small random configuration (model size, depth, batch, parallelism,
// channel, partitioning scheme, compression, polling mode), distributed
// inference must reproduce reference inference. This is the paper's
// ground-truth check quantified over the configuration space.
func TestEngineMatchesReferenceProperty(t *testing.T) {
	if testing.Short() {
		t.Skip("property test is heavy")
	}
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		neurons := 64 * (1 + rng.Intn(3)) // 64..192
		layers := 2 + rng.Intn(5)
		batch := 1 + rng.Intn(12)
		workers := 2 + rng.Intn(5)
		kinds := ChannelKinds()
		kind := kinds[rng.Intn(len(kinds))]
		scheme := []partition.Scheme{partition.Block, partition.Random, partition.HGPDNN}[rng.Intn(3)]
		spec := model.GraphChallengeSpec(neurons, layers, seed)
		spec.FanIn = 8 + rng.Intn(16)
		m, err := model.Generate(spec)
		if err != nil {
			t.Logf("seed %d: generate: %v", seed, err)
			return false
		}
		cfg := Config{
			Model:    m,
			Channel:  kind,
			Compress: rng.Intn(2) == 0,
			PollWait: time.Duration(rng.Intn(3)) * time.Second, // includes short polling
			Threads:  1 + rng.Intn(4),
			// Small enough that Hybrid routes both ways and chunks its bulk.
			HybridThresholdBytes: 64 << rng.Intn(6),
			HybridChunkBytes:     256 << rng.Intn(4),
		}
		if kind != Serial {
			plan, err := partition.BuildPlan(m, workers, scheme, partition.Options{Seed: seed})
			if err != nil {
				t.Logf("seed %d: plan: %v", seed, err)
				return false
			}
			cfg.Plan = plan
		}
		d, err := Deploy(env.NewDefault(), cfg)
		if err != nil {
			t.Logf("seed %d: deploy: %v", seed, err)
			return false
		}
		input := model.GenerateInputs(neurons, batch, 0.1+rng.Float64()*0.3, seed+1)
		res, err := d.Infer(input)
		if err != nil {
			t.Logf("seed %d (%v, %v, P=%d): infer: %v", seed, kind, scheme, workers, err)
			return false
		}
		want := model.Reference(m, input)
		if !model.OutputsClose(res.Output, want, 1e-2) {
			t.Logf("seed %d (%v, %v, P=%d): output mismatch", seed, kind, scheme, workers)
			return false
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 25}); err != nil {
		t.Fatal(err)
	}
}
