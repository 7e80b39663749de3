package plan

import (
	"testing"

	"fsdinference/internal/cloud/env"
	"fsdinference/internal/cloud/usage"
	"fsdinference/internal/core"
	"fsdinference/internal/model"
)

// TestRowsHoldToTheMeterProperty holds every transport row's predicted
// request counts to what one run meters. Over one-run probes at N in {256,
// 1024} (4 layers), P in {4, 8, 16} and batch in {8, 256, 2048}, each kind
// is deployed as the planner deploys its candidate and priced from the
// planner's own workload (analyticWorkload); the run's metered window, less
// the model store's reads and writes, which no row prices, is the meter.
// The band is predicted over metered, per kind and field, as measured over
// this grid and rounded out:
//   - Queue's billed publishes 0.66 - 1.03, receives and deletes 0.26 -
//     0.49: the row counts no barrier, reduce or empty long poll;
//   - Object's PUTs 0.84 - 0.94, GETs 0.94 - 1.00, LISTs 0.25 - 0.44: the
//     row amortises a LIST to a quarter of a pair;
//   - Memory's and Hybrid's store operations 0.96 - 0.98;
//   - Hybrid's PUTs and GETs 0 - 2.82: the row routes every pair by the
//     mean frame, so near the routing threshold it parks all of them or
//     none while the run parks some.
//
// A field outside a kind's band list is zero in both, and a field both
// count zero agrees. Serial bills no channel call.
func TestRowsHoldToTheMeterProperty(t *testing.T) {
	if testing.Short() {
		t.Skip("54 one-run probes")
	}
	type band struct{ lo, hi float64 }
	fields := []struct {
		name string
		get  func(*usage.Meter) int64
	}{
		{"SNS billed publishes", func(m *usage.Meter) int64 { return m.SNSBilledPublishes }},
		{"SQS receives", func(m *usage.Meter) int64 { return m.SQSReceiveCalls }},
		{"SQS deletes", func(m *usage.Meter) int64 { return m.SQSDeleteCalls }},
		{"S3 PUTs", func(m *usage.Meter) int64 { return m.S3PutCalls }},
		{"S3 GETs", func(m *usage.Meter) int64 { return m.S3GetCalls }},
		{"S3 LISTs", func(m *usage.Meter) int64 { return m.S3ListCalls }},
		{"KV ops", func(m *usage.Meter) int64 { return m.KVOps }},
	}
	bands := map[core.ChannelKind]map[string]band{
		core.Queue: {
			"SNS billed publishes": {0.65, 1.05},
			"SQS receives":         {0.25, 0.5},
			"SQS deletes":          {0.25, 0.5},
		},
		core.Object: {"S3 PUTs": {0.8, 0.95}, "S3 GETs": {0.9, 1}, "S3 LISTs": {0.25, 0.45}},
		core.Memory: {"KV ops": {0.95, 1}},
		core.Hybrid: {"KV ops": {0.95, 1}, "S3 PUTs": {0, 2.9}, "S3 GETs": {0, 2.9}},
	}
	probes := 0
	for _, n := range []int{256, 1024} {
		m := testModel(t, n, 4)
		p, err := New(m, Options{})
		if err != nil {
			t.Fatal(err)
		}
		for _, workers := range []int{4, 8, 16} {
			for _, batch := range []int{8, 256, 2048} {
				for _, k := range core.ChannelKinds() {
					c := Candidate{Channel: k, Workers: workers, KVNodeType: core.DefaultKVNodeType, KVNodes: 1}
					w, err := p.analyticWorkload(c, WorkloadProfile{BatchSamples: batch})
					if err != nil {
						t.Fatal(err)
					}
					pred, err := core.PredictQuery(w, c.deployment())
					if err != nil {
						t.Fatal(err)
					}
					cfg, err := p.config(c)
					if err != nil {
						t.Fatal(err)
					}
					d, err := core.Deploy(env.NewDefault(), cfg)
					if err != nil {
						t.Fatal(err)
					}
					res, err := d.Infer(model.GenerateInputs(n, batch, 0.2, 1))
					if err != nil {
						t.Fatal(err)
					}
					probes++
					// Less the model store: each rank reads its layers and
					// its input, and the root writes the result.
					got := res.Usage
					got.S3PutCalls--
					got.S3GetCalls -= int64(len(res.Workers) * (len(m.Layers) + 1))
					for _, f := range fields {
						pv, mv := f.get(&pred), f.get(&got)
						b, ok := bands[k][f.name]
						switch {
						case pv == 0 && mv == 0:
						case !ok:
							t.Errorf("%v N=%d P=%d batch %d: %s predicted %d, metered %d; want none", k, n, workers, batch, f.name, pv, mv)
						case ok && (mv == 0 || float64(pv) < b.lo*float64(mv) || float64(pv) > b.hi*float64(mv)):
							t.Errorf("%v N=%d P=%d batch %d: %s predicted %d, metered %d; band %v-%v",
								k, n, workers, batch, f.name, pv, mv, b.lo, b.hi)
						}
					}
				}
			}
		}
	}
	if probes != 2*3*3*len(core.ChannelKinds()) {
		t.Fatalf("%d probes ran", probes)
	}
}
