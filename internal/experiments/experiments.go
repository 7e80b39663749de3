// Package experiments regenerates every table and figure of the paper's
// evaluation (§VI) on the simulated cloud, plus the ablations the paper
// mentions but does not show. Each experiment returns a Table that
// cmd/fsdbench renders and experiments_test.go asserts on.
//
// Scaling: the paper evaluates N ∈ {1024, 4096, 16384, 65536} neurons over
// L=120 layers with 10,000-sample batches on real AWS. Offline, each paper
// size is mapped to a scaled stand-in model that executes for real inside
// the simulator; paper-scale *feasibility* (does the model fit a 10 GB
// Lambda? a 6 GB endpoint? how many samples fit a 6 MB payload?) is
// evaluated analytically at the true paper dimensions, so qualitative
// outcomes (the serial OOM at N=65536, the Sage sample truncation) appear
// exactly where the paper reports them. README.md ("Experiments") describes
// the mapping and the projection to paper scale; testdata/quick.golden holds
// every experiment's table at QuickScale, and experiments_test.go asserts
// the paper's qualitative claims on them.
package experiments

import (
	"fmt"
	"strings"
	"time"

	"fsdinference/internal/cloud/env"
	"fsdinference/internal/core"
	"fsdinference/internal/model"
	"fsdinference/internal/partition"
	"fsdinference/internal/sparse"
)

// SizeMap pairs a scaled stand-in neuron count with the paper size it
// represents and the batch its runs use.
type SizeMap struct {
	Scaled int
	Paper  int
	// Batch is the scaled batch size for this size's runs (the paper
	// processes 10,000 samples per request).
	Batch int
}

// Scale configures the evaluation grid.
type Scale struct {
	// Sizes maps scaled stand-ins to paper sizes, smallest first.
	Sizes []SizeMap
	// Layers is the scaled layer count (paper: 120).
	Layers int
	// Batch is the default scaled batch size for ablations.
	Batch int
	// Workers is the parallelism grid (paper: 8, 20, 42, 62).
	Workers []int
	// PaperLayers and PaperBatch are the true evaluation dimensions,
	// used for analytic paper-scale feasibility and time-dilation
	// projections.
	PaperLayers int
	PaperBatch  int
	// Seed drives all generation.
	Seed int64
}

// DefaultScale is the standard scaled grid: four stand-in sizes, the
// paper's worker grid, 24 layers.
func DefaultScale() Scale {
	return Scale{
		Sizes: []SizeMap{
			{Scaled: 512, Paper: 1024, Batch: 64},
			{Scaled: 1024, Paper: 4096, Batch: 64},
			{Scaled: 2048, Paper: 16384, Batch: 64},
			{Scaled: 4096, Paper: 65536, Batch: 64},
		},
		Layers:      24,
		Batch:       64,
		Workers:     []int{8, 20, 42, 62},
		PaperLayers: 120,
		PaperBatch:  10000,
		Seed:        1,
	}
}

// QuickScale is a reduced grid for fast benchmark runs.
func QuickScale() Scale {
	return Scale{
		Sizes: []SizeMap{
			{Scaled: 256, Paper: 1024, Batch: 32},
			{Scaled: 512, Paper: 4096, Batch: 32},
			{Scaled: 1024, Paper: 16384, Batch: 32},
			{Scaled: 2048, Paper: 65536, Batch: 32},
		},
		Layers:      12,
		Batch:       32,
		Workers:     []int{8, 20, 42},
		PaperLayers: 120,
		PaperBatch:  10000,
		Seed:        1,
	}
}

// Table is a rendered experiment result.
type Table struct {
	ID      string
	Title   string
	Columns []string
	Rows    [][]string
	Notes   []string
}

// String renders the table with aligned columns.
func (t *Table) String() string {
	var sb strings.Builder
	fmt.Fprintf(&sb, "== %s: %s ==\n", t.ID, t.Title)
	widths := make([]int, len(t.Columns))
	for i, c := range t.Columns {
		widths[i] = len(c)
	}
	for _, row := range t.Rows {
		for i, cell := range row {
			if i < len(widths) && len(cell) > widths[i] {
				widths[i] = len(cell)
			}
		}
	}
	line := func(cells []string) {
		for i, c := range cells {
			if i > 0 {
				sb.WriteString("  ")
			}
			fmt.Fprintf(&sb, "%-*s", widths[i], c)
		}
		sb.WriteByte('\n')
	}
	line(t.Columns)
	for _, row := range t.Rows {
		line(row)
	}
	for _, n := range t.Notes {
		fmt.Fprintf(&sb, "note: %s\n", n)
	}
	return sb.String()
}

// Cell finds the row whose first column equals key and returns the cell in
// the named column, for assertions in tests and benches.
func (t *Table) Cell(key, column string) (string, bool) {
	ci := -1
	for i, c := range t.Columns {
		if c == column {
			ci = i
			break
		}
	}
	if ci < 0 {
		return "", false
	}
	for _, row := range t.Rows {
		if len(row) > ci && row[0] == key {
			return row[ci], true
		}
	}
	return "", false
}

// Runner is one registered experiment.
type Runner struct {
	ID   string
	Desc string
	Run  func(lab *Lab) (*Table, error)
}

// Registry lists every experiment in paper order.
func Registry() []Runner {
	return []Runner{
		{"fig4", "Daily cost vs query volume (Fig. 4)", Fig4DailyCost},
		{"fig5", "Query latency by platform (Fig. 5)", Fig5QueryLatency},
		{"fig6", "Per-sample runtime and cost vs parallelism (Fig. 6)", Fig6Scaling},
		{"channels", "Three-way channel comparison incl. provisioned memory store", ChannelComparison},
		{"cluster", "Sharded, replicated memory-store cluster: throughput scaling and failover", ClusterScaling},
		{"planner", "Workload-aware planner vs static one-shot selection (Sec. VI-D1)", PlannerSelection},
		{"slomonitor", "Burn-rate alert-driven re-planning vs break-even drift on a flash crowd", SLOMonitorControl},
		{"collectives", "Collective topologies vs P, and hybrid channel selection", CollectivesExperiment},
		{"table2", "Per-sample runtime of serverless variants (Table II)", Table2PerSample},
		{"table3", "HGP-DNN vs random partitioning (Table III)", Table3Partitioning},
		{"costval", "Cost model validation (Sec. VI-F)", CostValidation},
		{"polling", "Ablation: long vs short polling (Sec. III-C1)", AblationPolling},
		{"launch", "Ablation: launch-tree mechanisms (Sec. III)", AblationLaunch},
		{"compression", "Ablation: zlib payload compression (Sec. IV-B)", AblationCompression},
		{"quota", "Ablation: channel API cost vs volume (Sec. IV-C)", AblationQuota},
	}
}

// Find returns the runner with the given id.
func Find(id string) (Runner, bool) {
	for _, r := range Registry() {
		if r.ID == id {
			return r, true
		}
	}
	return Runner{}, false
}

// Lab caches generated models, partition plans and inputs across
// experiments so the full suite does not regenerate shared artifacts.
type Lab struct {
	Scale  Scale
	models map[int]*model.Model
	plans  map[string]*partition.Plan
	inputs map[string]*sparse.Dense
	cuts   map[string]float64
}

// NewLab returns an empty lab for the given scale.
func NewLab(s Scale) *Lab {
	return &Lab{
		Scale:  s,
		models: make(map[int]*model.Model),
		plans:  make(map[string]*partition.Plan),
		inputs: make(map[string]*sparse.Dense),
		cuts:   make(map[string]float64),
	}
}

// Model returns (generating once) the scaled model for neurons.
func (l *Lab) Model(neurons int) (*model.Model, error) {
	if m, ok := l.models[neurons]; ok {
		return m, nil
	}
	m, err := model.Generate(model.GraphChallengeSpec(neurons, l.Scale.Layers, l.Scale.Seed))
	if err != nil {
		return nil, err
	}
	l.models[neurons] = m
	return m, nil
}

// Plan returns (building once) a partition plan.
func (l *Lab) Plan(neurons, workers int, scheme partition.Scheme) (*partition.Plan, error) {
	key := fmt.Sprintf("%d/%d/%v", neurons, workers, scheme)
	if p, ok := l.plans[key]; ok {
		return p, nil
	}
	m, err := l.Model(neurons)
	if err != nil {
		return nil, err
	}
	p, err := partition.BuildPlan(m, workers, scheme, partition.Options{Seed: l.Scale.Seed})
	if err != nil {
		return nil, err
	}
	l.plans[key] = p
	return p, nil
}

// Input returns (generating once) a batch of inputs for neurons.
func (l *Lab) Input(neurons, batch int) *sparse.Dense {
	key := fmt.Sprintf("%d/%d", neurons, batch)
	if x, ok := l.inputs[key]; ok {
		return x
	}
	x := model.GenerateInputs(neurons, batch, 0.2, l.Scale.Seed+100)
	l.inputs[key] = x
	return x
}

// RunFSD deploys and runs one FSD-Inference request on a fresh default
// environment. mutate may adjust the config before deployment.
func (l *Lab) RunFSD(neurons, workers, batch int, kind core.ChannelKind, scheme partition.Scheme, mutate func(*core.Config)) (*core.Result, error) {
	return l.run(env.NewDefault(), neurons, workers, batch, kind, scheme, 2*time.Second, mutate)
}

func (l *Lab) run(e *env.Env, neurons, workers, batch int, kind core.ChannelKind, scheme partition.Scheme, pollWait time.Duration, mutate func(*core.Config)) (*core.Result, error) {
	d, err := l.deploy(e, neurons, workers, kind, scheme, pollWait, mutate)
	if err != nil {
		return nil, err
	}
	return d.Infer(l.Input(neurons, batch))
}

// deploy deploys the lab's model for neurons on e, under the lab's plan for
// (workers, scheme) unless kind is Serial.
func (l *Lab) deploy(e *env.Env, neurons, workers int, kind core.ChannelKind, scheme partition.Scheme, pollWait time.Duration, mutate func(*core.Config)) (*core.Deployment, error) {
	m, err := l.Model(neurons)
	if err != nil {
		return nil, err
	}
	cfg := core.Config{Model: m, Channel: kind, PollWait: pollWait}
	if kind != core.Serial {
		plan, err := l.Plan(neurons, workers, scheme)
		if err != nil {
			return nil, err
		}
		cfg.Plan = plan
	}
	if mutate != nil {
		mutate(&cfg)
	}
	return core.Deploy(e, cfg)
}

// Dilation returns the time-dilation factor λ for a size: the ratio of
// paper-scale per-query compute to the scaled stand-in's. Multiplying a
// dilated run's latency by λ projects it to paper scale. Costs are
// count-based and unaffected by dilation.
func (l *Lab) Dilation(size SizeMap) float64 {
	return l.macRatio(size) * float64(l.Scale.PaperBatch) / float64(size.Batch)
}

// layerDilation is the per-layer compute ratio: communication latencies are
// paid once per layer, so per-layer (not per-query) parity is what
// preserves the paper's compute-to-communication balance. It equals
// Dilation × Layers/PaperLayers.
func (l *Lab) layerDilation(size SizeMap) float64 {
	return l.Dilation(size) * float64(l.Scale.Layers) / float64(l.Scale.PaperLayers)
}

// dilatedEnv builds an environment for a scaled run that projects cleanly
// to paper scale by a single λ factor:
//
//   - per-query platform latencies (cold/warm starts, invokes) divide by λ,
//   - per-layer communication latencies (publish, delivery, poll, delete,
//     PUT/GET/LIST) divide by λ·L/120, since the scaled model pays them
//     over L layers where the paper pays them over 120,
//   - bandwidth terms are untouched — transferred volumes already shrink
//     with the workload,
//   - protocol windows (visibility timeout, max poll wait) are untouched.
func dilatedEnv(lambda, layerLambda float64) *env.Env {
	cfg := env.DefaultConfig()
	dq := func(t time.Duration) time.Duration { return time.Duration(float64(t) / lambda) }
	dl := func(t time.Duration) time.Duration { return time.Duration(float64(t) / layerLambda) }
	cfg.FaaS.ColdStart = dq(cfg.FaaS.ColdStart)
	cfg.FaaS.WarmStart = dq(cfg.FaaS.WarmStart)
	cfg.FaaS.InvokeAPILatency = dq(cfg.FaaS.InvokeAPILatency)
	cfg.FaaS.InvokeCPUSeconds /= lambda
	cfg.SNS.PublishLatency = dl(cfg.SNS.PublishLatency)
	cfg.SNS.DeliveryLatency = dl(cfg.SNS.DeliveryLatency)
	cfg.SQS.SendLatency = dl(cfg.SQS.SendLatency)
	cfg.SQS.ReceiveLatency = dl(cfg.SQS.ReceiveLatency)
	cfg.SQS.DeleteLatency = dl(cfg.SQS.DeleteLatency)
	cfg.S3.PutLatency = dl(cfg.S3.PutLatency)
	cfg.S3.GetLatency = dl(cfg.S3.GetLatency)
	cfg.S3.ListLatency = dl(cfg.S3.ListLatency)
	cfg.S3.DeleteLatency = dl(cfg.S3.DeleteLatency)
	return env.New(cfg)
}

// RunDilated runs one request for a size under time dilation, with worker
// memory set to the paper's sizing for the represented paper size. The
// returned result's latencies are in dilated (scaled) time; multiply by
// Dilation(size) to project to paper scale.
func (l *Lab) RunDilated(size SizeMap, workers int, kind core.ChannelKind, scheme partition.Scheme, mutate func(*core.Config)) (*core.Result, error) {
	lambda := l.Dilation(size)
	layerLambda := l.layerDilation(size)
	batchRatio := float64(l.Scale.PaperBatch) / float64(size.Batch)
	return l.run(dilatedEnv(lambda, layerLambda), size.Scaled, workers, size.Batch, kind, scheme,
		time.Duration(float64(2*time.Second)/layerLambda),
		func(c *core.Config) {
			c.WorkerMemoryMB = core.DefaultWorkerMemoryMB(size.Paper)
			// Model loads move weightBytes_paper/macRatio bytes but
			// should cost paper_load/λ: boost store bandwidth by the
			// remaining batch ratio.
			c.StoreBandwidthScale = batchRatio
			if mutate != nil {
				mutate(c)
			}
		})
}

// ProjectPerSampleMS converts a dilated run's latency into a paper-scale
// per-sample estimate in milliseconds.
func (l *Lab) ProjectPerSampleMS(size SizeMap, r *core.Result) float64 {
	paperLatency := float64(r.Latency) * l.Dilation(size)
	return paperLatency / float64(l.Scale.PaperBatch) / float64(time.Millisecond)
}

// ProjectQuerySeconds converts a dilated run's latency into a paper-scale
// query-latency estimate in seconds.
func (l *Lab) ProjectQuerySeconds(size SizeMap, r *core.Result) float64 {
	return float64(r.Latency) * l.Dilation(size) / float64(time.Second)
}

// Paper-scale feasibility gates (analytic, true dimensions).

// PaperWeightBytes returns the raw CSR bytes of the paper-scale model.
func (l *Lab) PaperWeightBytes(paperN int) int64 {
	nnz := int64(paperN) * 32 * int64(l.Scale.PaperLayers)
	return nnz*8 + int64(paperN+1)*4*int64(l.Scale.PaperLayers)
}

// SerialFeasiblePaper reports whether the paper-scale model fits the
// 10,240 MB serial instance under the modelled runtime footprint.
func (l *Lab) SerialFeasiblePaper(paperN int) bool {
	return float64(l.PaperWeightBytes(paperN))*5.5 <= 10240*float64(1<<20)
}

// SageFeasiblePaper reports whether the paper-scale model fits the 6 GB
// endpoint cap.
func (l *Lab) SageFeasiblePaper(paperN int) bool {
	return float64(l.PaperWeightBytes(paperN))*5.5 <= 6144*float64(1<<20)
}

// SageSamplesPaper returns how many samples fit the endpoint's 6 MB
// payload at the paper scale (~0.75 B per neuron per thresholded sample).
func (l *Lab) SageSamplesPaper(paperN int) int {
	return 6 * 1024 * 1024 / (paperN * 3 / 4)
}

// Formatting helpers shared by the runners.

func ms(d time.Duration) string {
	return fmt.Sprintf("%.2f", float64(d.Microseconds())/1000)
}

func msPerSample(d time.Duration, samples int) string {
	if samples == 0 {
		return "-"
	}
	return fmt.Sprintf("%.2f", float64(d.Microseconds())/1000/float64(samples))
}

func dollars(v float64) string { return fmt.Sprintf("%.4f", v) }
