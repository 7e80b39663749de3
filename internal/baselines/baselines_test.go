package baselines

import (
	"strings"
	"testing"
	"time"

	"fsdinference/internal/cloud/env"
	"fsdinference/internal/model"
	"fsdinference/internal/partition"
	"fsdinference/internal/sparse"
)

func testModelInput(t *testing.T, n, layers, batch int) (*model.Model, *sparse.Dense) {
	t.Helper()
	m, err := model.Generate(model.GraphChallengeSpec(n, layers, 1))
	if err != nil {
		t.Fatal(err)
	}
	return m, model.GenerateInputs(n, batch, 0.2, 2)
}

func TestAlwaysOnCorrectAndLoadSourcesOrdered(t *testing.T) {
	m, input := testModelInput(t, 256, 6, 8)
	want := model.Reference(m, input)
	var lat [3]time.Duration
	for i, load := range []LoadSource{FromMemory, FromEBS, FromS3} {
		res, err := RunAlwaysOn(env.NewDefault(), m, input, load)
		if err != nil {
			t.Fatal(err)
		}
		if !model.OutputsClose(res.Output, want, 1e-2) {
			t.Fatalf("load=%d output wrong", load)
		}
		lat[i] = res.Latency
	}
	if !(lat[0] < lat[1] && lat[1] < lat[2]) {
		t.Fatalf("latencies not ordered memory < EBS < S3: %v", lat)
	}
}

func TestJobScopedPaysProvisioningAndBills(t *testing.T) {
	m, input := testModelInput(t, 256, 4, 8)
	e := env.NewDefault()
	res, err := RunJobScoped(e, m, input)
	if err != nil {
		t.Fatal(err)
	}
	if res.Latency < e.EC2.Config().ProvisionDelay {
		t.Fatalf("latency %v below provisioning delay", res.Latency)
	}
	if res.Cost.EC2 <= 0 {
		t.Fatalf("job-scoped run billed nothing: %+v", res.Cost)
	}
	want := model.Reference(m, input)
	if !model.OutputsClose(res.Output, want, 1e-2) {
		t.Fatal("output wrong")
	}
}

func TestJobScopedInstanceSizing(t *testing.T) {
	cases := map[int]string{
		1024:  "c5.2xlarge",
		4096:  "c5.2xlarge",
		16384: "c5.9xlarge",
		65536: "c5.12xlarge",
	}
	for n, want := range cases {
		if got := JobScopedInstanceType(n); got != want {
			t.Errorf("JobScopedInstanceType(%d) = %s, want %s", n, got, want)
		}
	}
}

func TestHSpFFCorrectAndFast(t *testing.T) {
	// Enough work that compute dominates the per-layer barrier overhead,
	// as at the paper's scales.
	m, input := testModelInput(t, 1024, 24, 128)
	plan, err := partition.BuildPlan(m, 8, partition.Block, partition.Options{Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	e := env.NewDefault()
	res, err := RunHSpFF(e, m, plan, input, DefaultHSpFFConfig(8))
	if err != nil {
		t.Fatal(err)
	}
	want := model.Reference(m, input)
	if !model.OutputsClose(res.Output, want, 1e-2) {
		t.Fatal("H-SpFF output wrong")
	}
	// HPC with 8x16 cores must beat a single always-on server.
	ao, err := RunAlwaysOn(env.NewDefault(), m, input, FromMemory)
	if err != nil {
		t.Fatal(err)
	}
	if res.Latency >= ao.Latency {
		t.Fatalf("H-SpFF %v not faster than always-on %v", res.Latency, ao.Latency)
	}
}

func TestHSpFFPlanMismatch(t *testing.T) {
	m, input := testModelInput(t, 128, 2, 4)
	plan, _ := partition.BuildPlan(m, 4, partition.Block, partition.Options{})
	if _, err := RunHSpFF(env.NewDefault(), m, plan, input, DefaultHSpFFConfig(8)); err == nil {
		t.Fatal("node/plan mismatch accepted")
	}
}

func TestSageProcessesSmallWorkloadFully(t *testing.T) {
	m, input := testModelInput(t, 256, 4, 16)
	res, err := RunSageSL(env.NewDefault(), m, input, DefaultSageConfig())
	if err != nil {
		t.Fatal(err)
	}
	if res.SamplesProcessed != 16 {
		t.Fatalf("processed %d of 16", res.SamplesProcessed)
	}
	want := model.Reference(m, input)
	if !model.OutputsClose(res.Output, want, 1e-2) {
		t.Fatal("sage output wrong")
	}
	if res.Cost.Lambda <= 0 {
		t.Fatal("no serverless cost billed")
	}
}

func TestSagePayloadLimitCapsSamples(t *testing.T) {
	// The 6 MB request payload bounds the batch a single endpoint request
	// can carry — the paper's 8,000/2,500/1,000 sample limits.
	m, input := testModelInput(t, 256, 2, 50)
	cfg := DefaultSageConfig()
	cfg.BytesPerSample = func(n int) int { return n }
	cfg.PayloadLimit = 256 * 10 // 10 samples fit
	res, err := RunSageSL(env.NewDefault(), m, input, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if res.SamplesProcessed != 10 {
		t.Fatalf("processed %d, want payload-capped 10", res.SamplesProcessed)
	}
	// The processed prefix must still be correct.
	want := model.Reference(m, input)
	for r := 0; r < 256; r++ {
		for c := 0; c < 10; c++ {
			diff := float64(res.Output.At(r, c) - want.At(r, c))
			if diff > 1e-2 || diff < -1e-2 {
				t.Fatalf("output[%d,%d] wrong", r, c)
			}
		}
	}
}

func TestSageRuntimeCapHalvesWorkload(t *testing.T) {
	// A request over the runtime cap fails; the paper's procedure halves
	// the sample count until a request fits.
	m, input := testModelInput(t, 512, 40, 64)
	cfg := DefaultSageConfig()
	// Cold model load (~5.2 MB at 180 MB/s ≈ 29 ms) plus 64-sample
	// compute exceeds the cap; fewer samples on a warm instance fit.
	cfg.Timeout = 40 * time.Millisecond
	res, err := RunSageSL(env.NewDefault(), m, input, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if res.SamplesProcessed >= input.Cols {
		t.Fatalf("expected truncation, processed %d of %d", res.SamplesProcessed, input.Cols)
	}
	if res.SamplesProcessed == 0 {
		t.Fatal("nothing processed")
	}
}

func TestSageRejectsOversizedModel(t *testing.T) {
	m, input := testModelInput(t, 2048, 60, 4)
	_, err := RunSageSL(env.NewDefault(), m, input, SageConfig{
		MemoryMB:       128,
		Timeout:        time.Minute,
		PayloadLimit:   6 << 20,
		BytesPerSample: func(n int) int { return n },
	})
	if err == nil || !strings.Contains(err.Error(), "exceeds") {
		t.Fatalf("err = %v, want memory cap rejection", err)
	}
}

func TestAlwaysOnRejectsOversizedModel(t *testing.T) {
	// c5.12xlarge has 96 GB; fake an overhead making the model too big.
	m, input := testModelInput(t, 256, 2, 4)
	e := env.NewDefault()
	cfg := env.DefaultConfig()
	cfg.FaaS.Perf.MemOverheadWeights = 1e9 // absurd footprint
	e = env.New(cfg)
	if _, err := RunAlwaysOn(e, m, input, FromMemory); err == nil {
		t.Fatal("oversized model accepted")
	}
}
