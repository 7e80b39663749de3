package main

import (
	"bytes"
	"compress/gzip"
	"encoding/json"
	"flag"
	"math"
	"os"
	"reflect"
	"strings"
	"testing"
)

var update = flag.Bool("update", false, "rewrite ../BENCHMARK.json from the tables in this package")

// tinyScale drives every workload and probe in seconds, in-process.
var tinyScale = scale{
	StreamQueries: 4000, StreamVerify: 200, StreamWarm: 200,
	SporadicQueries: 12, SporadicLargeN: 256, SporadicLargeL: 4, SporadicWarm: 2,
	SweepN: 128, SweepL: 2, SweepWorkers: 2, SweepBatch: 8, SweepInfers: 1,
	CollWorkers: 8, CollInfers: 1, CollWarm: 1,
	CrowdQuiet: 4, CrowdBurst: 40, CrowdTail: 3, CrowdWarm: 4,
	ProbeIters: 2, ProbeLargeN: 256, ProbeQueries: 4, LadderSeconds: 6,
}

// TestSmoke drives every workload at tiny scale in-process: two untraced
// rounds must agree on sim_digest, every end-to-end and per-layer metric
// must be emitted, and host_share.* must sum to 1.
func TestSmoke(t *testing.T) {
	probes, err := runProbes(tinyScale, 7)
	if err != nil {
		t.Fatal(err)
	}
	for _, def := range workloads {
		def := def
		t.Run(def.name, func(t *testing.T) {
			w := newWorkloadResult(def, tinyScale)
			for i := 0; i < 2; i++ {
				r, err := runRound(def, tinyScale, 7, false)
				if err != nil {
					t.Fatal(err)
				}
				w.Rounds = append(w.Rounds, r)
			}
			w.summarise()
			tr, err := runRound(def, tinyScale, 7, true)
			if err != nil {
				t.Fatal(err)
			}
			traced, err := poolTraced([]*roundResult{tr})
			if err != nil {
				t.Fatal(err)
			}
			w.addTraced(traced, probes)
			if !w.Correct {
				t.Fatalf("not correct: %v", w.Problems)
			}
			for _, m := range endToEnd {
				s, ok := w.Summary[m.Name]
				if !ok || s.Value == 0 || math.IsNaN(s.Value) {
					t.Errorf("end-to-end metric %s missing or zero: %+v", m.Name, s)
				}
			}
			var shares float64
			for _, m := range perLayer {
				v, ok := w.Layer[m.Name]
				if !ok || math.IsNaN(v) || math.IsInf(v, 0) {
					t.Errorf("per-layer metric %s missing or not a number: %v", m.Name, v)
				}
				if m.Unit == "" {
					t.Errorf("per-layer metric %s has no unit", m.Name)
				}
				if strings.HasPrefix(m.Name, "host_share.") {
					shares += v
				}
				if strings.HasPrefix(m.Name, "host_under.") && (v < 0 || v > 1) {
					t.Errorf("%s = %v, want a share", m.Name, v)
				}
			}
			if math.Abs(shares-1) > 0.01 {
				t.Errorf("host_share.* sums to %v, want 1", shares)
			}
			if len(traced.Spans.List) == 0 {
				t.Error("traced round recorded no harness spans")
			}
			if _, err := contractLine(w, perLayer, w.Layer); err != nil {
				t.Error(err)
			}
		})
	}
}

func TestSeedChangesInputs(t *testing.T) {
	def := findWorkload("collective_p32")
	a, err := runRound(def, tinyScale, 1, false)
	if err != nil {
		t.Fatal(err)
	}
	b, err := runRound(def, tinyScale, 2, false)
	if err != nil {
		t.Fatal(err)
	}
	if a.Digest == b.Digest {
		t.Error("two seeds produced the same sim_digest")
	}
}

// --- pprof decoder ------------------------------------------------------------

type pbuf struct{ bytes.Buffer }

func (b *pbuf) varint(v uint64) {
	for v >= 0x80 {
		b.WriteByte(byte(v) | 0x80)
		v >>= 7
	}
	b.WriteByte(byte(v))
}
func (b *pbuf) uintField(num int, v uint64) { b.varint(uint64(num)<<3 | 0); b.varint(v) }
func (b *pbuf) bytesField(num int, p []byte) {
	b.varint(uint64(num)<<3 | 2)
	b.varint(uint64(len(p)))
	b.Write(p)
}
func (b *pbuf) packed(num int, vs ...uint64) {
	var inner pbuf
	for _, v := range vs {
		inner.varint(v)
	}
	b.bytesField(num, inner.Bytes())
}

// syntheticProfile encodes a two-sample profile the way runtime/pprof
// lays it out: packed location ids and values, one inlined location.
func syntheticProfile(t *testing.T) []byte {
	strs := []string{"", "samples", "count",
		"compress/flate.(*compressor).deflate",              // 3
		"fsdinference/internal/wire.Encode",                 // 4
		"fsdinference/internal/core.(*worker).run",          // 5
		"runtime.gcBgMarkWorker",                            // 6
		"fsdinference/internal/cloud/usage.(*Meter).Sub",    // 7
		"fsdinference/internal/serve.(*Service).openWindow", // 8
	}
	var p pbuf
	for id, name := range map[uint64]uint64{1: 3, 2: 4, 3: 5, 4: 6, 5: 7, 6: 8} {
		var f pbuf
		f.uintField(1, id)
		f.uintField(2, name)
		p.bytesField(5, f.Bytes())
	}
	loc := func(id uint64, fns ...uint64) {
		var l pbuf
		l.uintField(1, id)
		for _, fn := range fns {
			var line pbuf
			line.uintField(1, fn)
			line.uintField(2, 42)
			l.bytesField(4, line.Bytes())
		}
		p.bytesField(4, l.Bytes())
	}
	loc(1, 1)    // deflate
	loc(2, 2, 3) // wire.Encode inlined into core.(*worker).run
	loc(3, 4)    // gcBgMarkWorker
	loc(4, 5)    // usage.Sub
	loc(5, 6)    // serve.openWindow
	sample := func(count uint64, locs ...uint64) {
		var s pbuf
		s.packed(1, locs...)
		s.packed(2, count, count*10_000_000)
		p.bytesField(2, s.Bytes())
	}
	sample(3, 1, 2)
	sample(1, 3)
	sample(2, 4, 5)
	for _, s := range strs {
		p.bytesField(6, []byte(s))
	}
	var z bytes.Buffer
	zw := gzip.NewWriter(&z)
	if _, err := zw.Write(p.Bytes()); err != nil {
		t.Fatal(err)
	}
	if err := zw.Close(); err != nil {
		t.Fatal(err)
	}
	return z.Bytes()
}

func TestDecodeProfile(t *testing.T) {
	samples, err := decodeProfile(syntheticProfile(t))
	if err != nil {
		t.Fatal(err)
	}
	want := []stackSample{
		{funcs: []string{"compress/flate.(*compressor).deflate", "fsdinference/internal/wire.Encode", "fsdinference/internal/core.(*worker).run"}, count: 3},
		{funcs: []string{"runtime.gcBgMarkWorker"}, count: 1},
		{funcs: []string{"fsdinference/internal/cloud/usage.(*Meter).Sub", "fsdinference/internal/serve.(*Service).openWindow"}, count: 2},
	}
	if !reflect.DeepEqual(samples, want) {
		t.Fatalf("decoded %+v\nwant %+v", samples, want)
	}
	fold := foldProfile(samples)
	fold.add(foldProfile(samples)) // pooling two equal profiles changes no share
	got := map[string]float64{}
	fold.metrics(got)
	if fold.Total != 12 || got["host_share.wire"] != 0.5 || got["host_share.runtime_gc"] != 1.0/6 || got["host_share.serve"] != 2.0/6 ||
		got["host_under.core"] != 0.5 || got["host_under.serve"] != 2.0/6 || got["host_under.plan"] != 0 || got["bench.profile_samples"] != 12 {
		t.Errorf("fold: %+v metrics %v", fold, got)
	}
	if _, err := decodeProfile([]byte("not a profile")); err == nil {
		t.Error("garbage decoded without error")
	}
}

func TestLayerOfStack(t *testing.T) {
	in := "fsdinference/internal/"
	for _, tc := range []struct {
		stack []string
		want  string
	}{
		{[]string{"compress/flate.(*huffmanEncoder).bitCounts", "compress/zlib.(*Writer).Write", in + "wire.Encode", in + "core.(*worker).send"}, "wire"},
		{[]string{in + "hypergraph.(*fm).refine", in + "partition.BuildPlan", in + "plan.(*Planner).partitionPlan"}, "partition"},
		{[]string{in + "cloud/kvcluster.(*Cluster).RPush", in + "core.(*memoryChannel).send"}, "cloud.kv"},
		{[]string{in + "cloud/kvstore.(*Node).BLPop"}, "cloud.kv"},
		{[]string{in + "obs/monitor.(*Monitor).tick", in + "sim.(*Kernel).Run"}, "obs"},
		{[]string{in + "obs.(*Histogram).Observe", in + "serve.(*Service).ReplayStream.func1"}, "obs"},
		{[]string{"runtime.chanrecv", in + "sim.(*Proc).pause", in + "cloud/sqs.(*Queue).Receive"}, "sim"},
		{[]string{in + "cloud/sqs.(*Queue).Receive", in + "core.(*queueChannel).receive"}, "cloud.sqs"},
		{[]string{in + "cloud/sns.(*Topic).PublishBatch"}, "cloud.sns"},
		{[]string{in + "cloud/s3.(*Bucket).Get"}, "cloud.s3"},
		{[]string{in + "cloud/faas.(*Platform).runInstance"}, "cloud.faas"},
		{[]string{in + "cloud/usage.(*Meter).Snapshot", in + "serve.(*Service).openWindow"}, "serve"},
		{[]string{in + "cost.MemoryBreakEvenQueriesPerDay", in + "plan.(*Planner).decide"}, "plan"},
		{[]string{in + "sparse.MulGatherInto[...]", in + "core.(*worker).run"}, "sparse"},
		{[]string{"runtime.mallocgc", in + "model.GenerateInputs", in + "serve.(*Service).ReplayStream.func2"}, "model"},
		{[]string{in + "collective.tree.Allreduce", in + "core.(*worker).reduce"}, "collective"},
		{[]string{in + "workload.(*DiurnalStream).fillWindow"}, "workload"},
		{[]string{"runtime.scanobject", "runtime.gcDrain", "runtime.gcBgMarkWorker.func2", "runtime.systemstack"}, "runtime_gc"},
		{[]string{"runtime.futex", "runtime.notesleep", "runtime.stopm", "runtime.findRunnable", "runtime.schedule"}, "runtime_other"},
		{[]string{"main.runRound", "main.main", "runtime.main"}, "runtime_other"},
		{nil, "runtime_other"},
	} {
		if got := layerOfStack(tc.stack); got != tc.want {
			t.Errorf("layerOfStack(%v) = %q, want %q", tc.stack, got, tc.want)
		}
	}
	// A planner trial bottoms out in sparse: the deepest fold gives it to
	// sparse, the inclusive one to every orchestrating layer on the stack.
	trial := foldProfile([]stackSample{{funcs: []string{in + "sparse.MulGatherInto[...]", in + "core.(*worker).run", in + "plan.(*Planner).probe", in + "serve.(*endpoint).replan"}, count: 4}})
	if trial.Deepest["sparse"] != 4 || trial.Deepest["plan"] != 0 || trial.Under["plan"] != 4 || trial.Under["core"] != 4 || trial.Under["serve"] != 4 || trial.Under["collective"] != 0 {
		t.Errorf("planner trial folded to %+v", trial)
	}
	for _, l := range pkgLayer {
		found := false
		for _, h := range hostLayers {
			found = found || h == l
		}
		if !found {
			t.Errorf("pkgLayer maps to %q, which host_share does not report", l)
		}
	}
}

// TestQuartiles pins the exclusive method of Python's
// statistics.quantiles(values, n=4).
func TestQuartiles(t *testing.T) {
	for _, tc := range []struct {
		in        []float64
		q1, m, q3 float64
	}{
		{[]float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}, 2.75, 5.5, 8.25},
		{[]float64{3, 1, 2}, 1, 2, 3},
		{[]float64{10, 20}, 7.5, 15, 22.5},
		{[]float64{5, 1, 4, 2, 3}, 1.5, 3, 4.5},
	} {
		q1, m, q3 := quartiles(tc.in)
		if q1 != tc.q1 || m != tc.m || q3 != tc.q3 {
			t.Errorf("quartiles(%v) = %v %v %v, want %v %v %v", tc.in, q1, m, q3, tc.q1, tc.m, tc.q3)
		}
	}
}

// TestSummariseBestRound: host-time metrics report the best round, the
// others the median.
func TestSummariseBestRound(t *testing.T) {
	w := &workloadResult{}
	for _, v := range [][3]float64{{90, 0.5, 12}, {100, 0.6, 10}, {80, 0.4, 11}} {
		w.Rounds = append(w.Rounds, &roundResult{Queries: 1, Digest: "d",
			Metrics: map[string]float64{"wall_qps": v[0], "setup_s": v[1], "alloc_kb_per_query": v[2]}})
	}
	w.summarise()
	if got := w.Summary["wall_qps"]; got.Value != 100 || got.Median != 90 {
		t.Errorf("wall_qps %+v, want value 100 (highest) median 90", got)
	}
	if got := w.Summary["setup_s"]; got.Value != 0.4 || got.Median != 0.5 {
		t.Errorf("setup_s %+v, want value 0.4 (lowest) median 0.5", got)
	}
	if got := w.Summary["alloc_kb_per_query"]; got.Value != 11 {
		t.Errorf("alloc_kb_per_query %+v, want the median 11", got)
	}
}

// --- compare ------------------------------------------------------------------

func fakeResult(wallQPS, spread float64, p50 float64, digest string) *resultFile {
	sum := map[string]stat{}
	for _, m := range endToEnd {
		sum[m.Name] = stat{Value: 1, Median: 1, Q1: 1, Q3: 1, N: 7}
	}
	// A best-round metric: the value is the best round, spread is how far
	// below it the good-side quartile lies.
	sum["wall_qps"] = stat{Value: wallQPS, Median: wallQPS * (1 - 1.5*spread), Q1: wallQPS * (1 - 2*spread), Q3: wallQPS * (1 - spread), N: 7}
	sum["sim_p50_ms"] = stat{Value: p50, Median: p50, Q1: p50, Q3: p50, N: 7}
	return &resultFile{
		Env:       envHeader{Seed: 7},
		Workloads: []*workloadResult{{Name: "stream_day", Summary: sum, Digest: digest, Correct: true}},
	}
}

func TestCompare(t *testing.T) {
	d1, d2 := strings.Repeat("a", 64), strings.Repeat("b", 64)
	var bound float64
	for _, m := range endToEnd {
		if m.Name == "wall_qps" {
			bound = m.Bound
		}
	}
	null, err := os.OpenFile(os.DevNull, os.O_WRONLY, 0)
	if err != nil {
		t.Fatal(err)
	}
	defer null.Close()
	for _, tc := range []struct {
		name                    string
		a, b                    *resultFile
		regressions, unresolved int
	}{
		{"same", fakeResult(1000, 0.01, 5, d1), fakeResult(1000, 0.01, 5, d1), 0, 0},
		{"faster", fakeResult(1000, 0.01, 5, d1), fakeResult(1500, 0.01, 5, d1), 0, 0},
		{"within bound", fakeResult(1000, 0.01, 5, d1), fakeResult(1000*(1-bound/2), 0.01, 5, d1), 0, 0},
		{"slower", fakeResult(1000, 0.01, 5, d1), fakeResult(1000*(1-1.5*bound), 0.01, 5, d1), 1, 0},
		{"noisy", fakeResult(1000, 1.5*bound, 5, d1), fakeResult(990, 0.01, 5, d1), 0, 1},
		{"slow rounds far off, best round has company", fakeResult(1000, 0.45*bound, 5, d1), fakeResult(990, 0.01, 5, d1), 0, 0},
		{"model change", fakeResult(1000, 0.01, 5, d1), fakeResult(1000, 0.01, 5.000001, d2), 2, 0},
		{"digest only", fakeResult(1000, 0.01, 5, d1), fakeResult(1000, 0.01, 5, d2), 1, 0},
	} {
		reg, unres := compareResults(null, tc.a, tc.b)
		if reg != tc.regressions || unres != tc.unresolved {
			t.Errorf("%s: %d regressions %d unresolved, want %d %d", tc.name, reg, unres, tc.regressions, tc.unresolved)
		}
	}
}

// --- the contract file ----------------------------------------------------------

type contractWorkload struct {
	Name string `json:"name"`
	Why  string `json:"why"`
}

type contractMetric struct {
	Name   string   `json:"name"`
	Unit   string   `json:"unit"`
	Better string   `json:"better"`
	Bound  *float64 `json:"bound,omitempty"`
}

type contract struct {
	Command    []string           `json:"command"`
	Paths      []string           `json:"paths"`
	RunSeconds int                `json:"run_seconds"`
	Workloads  []contractWorkload `json:"workloads"`
	EndToEnd   []contractMetric   `json:"end_to_end"`
	PerLayer   []contractMetric   `json:"per_layer"`
}

func wantContract() contract {
	c := contract{
		Command:    []string{"bash", "bench/run.sh"},
		Paths:      []string{"bench"},
		RunSeconds: 20,
	}
	for _, w := range workloads {
		c.Workloads = append(c.Workloads, contractWorkload{w.name, w.why})
	}
	for _, m := range endToEnd {
		b := m.Bound
		c.EndToEnd = append(c.EndToEnd, contractMetric{m.Name, m.Unit, m.Better, &b})
	}
	for _, m := range perLayer {
		c.PerLayer = append(c.PerLayer, contractMetric{m.Name, m.Unit, m.Better, nil})
	}
	return c
}

// TestBenchmarkJSON keeps BENCHMARK.json and the tables in this package in
// step, and checks the limits the contract sets on the file.
func TestBenchmarkJSON(t *testing.T) {
	const path = "../BENCHMARK.json"
	want := wantContract()
	if *update {
		b, err := json.MarshalIndent(want, "", "  ")
		if err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, append(b, '\n'), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	b, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if len(b) > 64<<10 {
		t.Errorf("BENCHMARK.json is %d bytes, limit 64 KiB", len(b))
	}
	var got contract
	dec := json.NewDecoder(bytes.NewReader(b))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&got); err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, want) {
		t.Error("BENCHMARK.json differs from the tables in bench/; run `go test -run TestBenchmarkJSON -update` in bench/")
	}
	if n := len(want.PerLayer); n < 1 || n > 128 {
		t.Errorf("%d per-layer metrics, contract allows 1..128", n)
	}
	seen := map[string]bool{}
	for _, m := range append(append([]contractMetric{}, want.EndToEnd...), want.PerLayer...) {
		if seen[m.Name] || len(m.Name) > 64 || len(m.Unit) > 16 {
			t.Errorf("metric %q (unit %q): duplicate or over the name/unit limits", m.Name, m.Unit)
		}
		seen[m.Name] = true
		if m.Bound != nil && *m.Bound > 0.25 {
			t.Errorf("metric %s: bound %v over 0.25", m.Name, *m.Bound)
		}
	}
	for _, w := range want.Workloads {
		if len(w.Why) > 200 || strings.Contains(w.Why, "\n") {
			t.Errorf("workload %s: why is %d chars", w.Name, len(w.Why))
		}
	}
}
