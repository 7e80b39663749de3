package plan

import (
	"fmt"
	"strings"
	"testing"

	"fsdinference/internal/cloud/env"
	"fsdinference/internal/core"
	"fsdinference/internal/golden"
	"fsdinference/internal/model"
)

func testModel(t *testing.T, neurons, layers int) *model.Model {
	t.Helper()
	m, err := model.Generate(model.GraphChallengeSpec(neurons, layers, 1))
	if err != nil {
		t.Fatal(err)
	}
	return m
}

// oneShot plans the way serve's WithSLO path does before it has seen any
// traffic, and the way the pre-Planner AutoSelect did: the weighted
// objective over a worker grid, every candidate trialled (no analytic
// pre-filter), and no workload profile beyond the probe batch — one
// probe's metered cost scored as-is.
func oneShot(t *testing.T, m *model.Model, latencyWeight float64, workers []int, probeBatch int, seed int64) *Decision {
	t.Helper()
	p, err := New(m, Options{
		Objective:        WeightedObjective(latencyWeight),
		Grid:             Grid{Workers: workers},
		DisablePrefilter: true,
		Seed:             seed,
	})
	if err != nil {
		t.Fatal(err)
	}
	d, err := p.Plan(WorkloadProfile{BatchSamples: probeBatch})
	if err != nil {
		t.Fatalf("w=%.2f workers=%v: %v", latencyWeight, workers, err)
	}
	return d
}

func TestOneShotPicksSerialForSmallLatencyFocusedModels(t *testing.T) {
	m := testModel(t, 256, 6)
	sel := oneShot(t, m, 1.0, []int{4, 8}, 8, 1)
	// A 256-neuron model fits one instance; with comm latencies on the
	// query path, serial is fastest (paper §IV-C recommendation).
	if sel.Best.Channel != core.Serial {
		t.Fatalf("selected %v P=%d, want serial", sel.Best.Channel, sel.Best.Workers)
	}
	if len(sel.Trials) != 1+3*2 {
		t.Fatalf("trials = %d, want serial + 3 channels x 2 P", len(sel.Trials))
	}
	memTrials := 0
	for _, tr := range sel.Trials {
		if tr.Candidate.Channel == core.Memory {
			memTrials++
		}
		if tr.Pruned {
			t.Fatalf("pruned %v with the pre-filter disabled", tr.Candidate)
		}
	}
	if memTrials != 2 {
		t.Fatalf("memory-channel trials = %d, want one per worker count", memTrials)
	}
	// The returned config must deploy and run.
	d, err := core.Deploy(env.NewDefault(), sel.Config)
	if err != nil {
		t.Fatal(err)
	}
	input := model.GenerateInputs(256, 8, 0.2, 2)
	res, err := d.Infer(input)
	if err != nil {
		t.Fatal(err)
	}
	if !model.OutputsClose(res.Output, model.Reference(m, input), 1e-2) {
		t.Fatal("selected config produced wrong output")
	}
}

func TestOneShotCostPriorityAvoidsObject(t *testing.T) {
	m := testModel(t, 256, 6)
	sel := oneShot(t, m, 0.0 /* cost only */, []int{8}, 8, 1)
	// Object storage is the most expensive candidate at this scale
	// (per-request pricing, §VI-D1); a pure cost objective must not pick
	// it.
	if sel.Best.Channel == core.Object {
		t.Fatalf("cost-prioritised selection picked the object channel")
	}
	// Trials carry comparable scores.
	for _, tr := range sel.Trials {
		if tr.Err == nil && tr.Score <= 0 {
			t.Fatalf("trial %+v has no score", tr.Candidate)
		}
	}
}

func TestOneShotSkipsInfeasibleWorkerCounts(t *testing.T) {
	m := testModel(t, 256, 6)
	// Both worker counts are infeasible as parallel candidates.
	sel := oneShot(t, m, 0, []int{1, 300}, 4, 0)
	if sel.Best.Channel != core.Serial {
		t.Fatalf("only serial was feasible, picked %v", sel.Best.Channel)
	}
}

// TestGoldenSelectionMatchesLegacyAutoSelect pins the one-shot
// configuration to the pre-Planner core.AutoSelect: the picks in its golden
// file were recorded from that implementation over the existing trial grid
// (N x latency weight, the same probe, seed and worker grid) immediately
// before the redesign. The Planner must reproduce every one — both the
// overall winner and the best distributed candidate, which exercises the
// channel ordering the weighted objective induces. Serial always wins for
// models that fit comfortably; among distributed candidates the queue
// channel wins every cost-leaning weight and the memory channel takes over
// only under the pure-latency objective.
func TestGoldenSelectionMatchesLegacyAutoSelect(t *testing.T) {
	if testing.Short() {
		t.Skip("the golden grid is many trial simulations")
	}
	var b strings.Builder
	for _, n := range []int{256, 512} {
		m := testModel(t, n, 6)
		for _, weight := range []float64{0, 0.25, 0.5, 0.75, 1} {
			sel := oneShot(t, m, weight, []int{2, 4}, 8, 1)
			bestDist := -1
			for i, tr := range sel.Trials {
				if tr.Candidate.Channel == core.Serial || tr.Err != nil {
					continue
				}
				if bestDist < 0 || tr.Score < sel.Trials[bestDist].Score {
					bestDist = i
				}
			}
			if bestDist < 0 {
				t.Fatalf("N=%d w=%.2f: no distributed trials", n, weight)
			}
			dist := sel.Trials[bestDist].Candidate
			fmt.Fprintf(&b, "N=%d w=%.2f: pick %v x%d, best distributed %v x%d\n", n, weight,
				sel.Best.Channel, sel.Best.Workers, dist.Channel, dist.Workers)
			// Scores must follow the legacy formula exactly:
			// w·lat/minLat + (1-w)·cost/minCost over successful trials.
			var minLat, minCost float64
			for _, tr := range sel.Trials {
				if tr.Err != nil {
					continue
				}
				if minLat == 0 || float64(tr.Latency) < minLat {
					minLat = float64(tr.Latency)
				}
				if minCost == 0 || tr.Cost < minCost {
					minCost = tr.Cost
				}
			}
			for _, tr := range sel.Trials {
				if tr.Err != nil {
					continue
				}
				want := weight*float64(tr.Latency)/minLat + (1-weight)*tr.Cost/minCost
				if diff := tr.Score - want; diff > 1e-12 || diff < -1e-12 {
					t.Fatalf("N=%d w=%.2f %v: score %v, legacy formula %v",
						n, weight, tr.Candidate, tr.Score, want)
				}
			}
		}
	}
	golden.Check(t, b.String())
}

// TestLegacyTrialCostIsOneProbeShare pins the undercount the Planner
// fixes: without a workload profile the memory channel is scored at
// one probe's metered share (the provisioned store's one-shot billing
// floor), not its true sporadic daily cost — identical to the
// pre-redesign behaviour the golden grid was recorded against.
func TestLegacyTrialCostIsOneProbeShare(t *testing.T) {
	m := testModel(t, 256, 6)
	sel := oneShot(t, m, 0, []int{2}, 8, 1)
	for _, tr := range sel.Trials {
		if tr.Candidate.Channel != core.Memory || tr.Err != nil {
			continue
		}
		if tr.Cost != tr.ProbeCost {
			t.Fatalf("profile-less memory trial scored %v, probe cost %v: nothing to amortise over",
				tr.Cost, tr.ProbeCost)
		}
		if tr.Cost >= 0.01 {
			t.Fatalf("memory probe share $%.4f unexpectedly large", tr.Cost)
		}
	}
}
