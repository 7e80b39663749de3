package core_test

import (
	"testing"

	"fsdinference/internal/cloud/env"
	"fsdinference/internal/core"
	"fsdinference/internal/model"
)

// Deploy and Infer through core's exported API only, the way cmd/fsdinfer
// and examples/quickstart call it: the output matches reference inference
// and the run is metered.
func TestDeployInferCompatibilityPath(t *testing.T) {
	m, err := model.Generate(model.GraphChallengeSpec(128, 6, 1))
	if err != nil {
		t.Fatal(err)
	}
	d, err := core.Deploy(env.NewDefault(), core.Config{
		Model: m, Channel: core.Serial,
	})
	if err != nil {
		t.Fatal(err)
	}
	input := model.GenerateInputs(128, 8, 0.2, 2)
	res, err := d.Infer(input)
	if err != nil {
		t.Fatal(err)
	}
	if !model.OutputsClose(res.Output, model.Reference(m, input), 1e-2) {
		t.Fatal("compat path output diverges from reference")
	}
	if res.Cost.Total() <= 0 || res.Latency <= 0 {
		t.Fatal("compat path lost metering")
	}
}
