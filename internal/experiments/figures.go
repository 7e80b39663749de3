package experiments

import (
	"fmt"
	"time"

	"fsdinference/internal/baselines"
	"fsdinference/internal/cloud/ec2"
	"fsdinference/internal/cloud/env"
	"fsdinference/internal/core"
	"fsdinference/internal/model"
	"fsdinference/internal/partition"
	"fsdinference/internal/workload"
)

// projectPerSampleCost converts a dilated run's cost into a paper-scale
// per-sample estimate: compute cost is time-based and scales back by λ;
// communication costs are count-based and scale with the layer ratio (the
// per-layer pair structure is preserved by the stand-in).
func (l *Lab) projectPerSampleCost(size SizeMap, r *core.Result) float64 {
	lambda := l.Dilation(size)
	layerRatio := float64(l.Scale.PaperLayers) / float64(l.Scale.Layers)
	paperCost := r.Cost.Lambda*lambda + r.Cost.Comms()*layerRatio
	return paperCost / float64(l.Scale.PaperBatch)
}

// Fig6Scaling regenerates Fig. 6: per-sample runtime and per-sample cost of
// FSD-Inf-Queue and FSD-Inf-Object across the worker grid, one block per
// model size. Values are paper-scale projections from time-dilated runs;
// costs print in the paper's 10^-4 dollar units.
func Fig6Scaling(l *Lab) (*Table, error) {
	t := &Table{
		ID:    "fig6",
		Title: "Per-sample runtime (ms) and cost (1e-4 $) vs Lambda workers (paper-scale projection)",
		Columns: []string{
			"N(paper)", "P",
			"queue ms/sample", "queue cost", "object ms/sample", "object cost",
		},
	}
	type best struct {
		p  int
		ms float64
	}
	for _, size := range l.Scale.Sizes {
		var bq, bo *best
		for _, p := range l.Scale.Workers {
			rq, err := l.RunDilated(size, p, core.Queue, partition.Block)
			if err != nil {
				return nil, fmt.Errorf("fig6 queue N=%d P=%d: %w", size.Scaled, p, err)
			}
			ro, err := l.RunDilated(size, p, core.Object, partition.Block)
			if err != nil {
				return nil, fmt.Errorf("fig6 object N=%d P=%d: %w", size.Scaled, p, err)
			}
			qms := l.ProjectPerSampleMS(size, rq)
			oms := l.ProjectPerSampleMS(size, ro)
			if bq == nil || qms < bq.ms {
				bq = &best{p, qms}
			}
			if bo == nil || oms < bo.ms {
				bo = &best{p, oms}
			}
			t.Rows = append(t.Rows, []string{
				fmt.Sprintf("%d", size.Paper),
				fmt.Sprintf("%d", p),
				fmt.Sprintf("%.2f", qms),
				fmt.Sprintf("%.3f", l.projectPerSampleCost(size, rq)*1e4),
				fmt.Sprintf("%.2f", oms),
				fmt.Sprintf("%.3f", l.projectPerSampleCost(size, ro)*1e4),
			})
		}
		t.Rows = append(t.Rows, []string{"", "", "", "", "", ""})
		t.Notes = append(t.Notes, fmt.Sprintf(
			"N=%d: best queue P=%d (%.2f ms), best object P=%d (%.2f ms)",
			size.Paper, bq.p, bq.ms, bo.p, bo.ms))
	}
	t.Notes = append(t.Notes,
		"paper shape: few workers win for small N; parallelism pays off as N grows;",
		"object per-sample cost grows ~linearly with P; queue cost grows much more slowly (Sec. VI-D1)")
	return t, nil
}

// fsdBest runs the FSD variants for one size under dilation and returns the
// fastest with its name (the Fig. 5 "FSD-Inf" bar is the best configuration
// per size).
func (l *Lab) fsdBest(sizeIdx int) (*core.Result, string, error) {
	size := l.Scale.Sizes[sizeIdx]
	wi := sizeIdx
	if wi >= len(l.Scale.Workers) {
		wi = len(l.Scale.Workers) - 1
	}
	p := l.Scale.Workers[wi]

	var best *core.Result
	var name string
	consider := func(r *core.Result, n string, err error) error {
		if err != nil {
			return err
		}
		if best == nil || r.Latency < best.Latency {
			best, name = r, n
		}
		return nil
	}
	if l.SerialFeasiblePaper(size.Paper) {
		r, err := l.RunDilated(size, 1, core.Serial, partition.Block)
		if err := consider(r, "serial", err); err != nil {
			return nil, "", err
		}
	}
	r, err := l.RunDilated(size, p, core.Queue, partition.Block)
	if err := consider(r, fmt.Sprintf("queue P=%d", p), err); err != nil {
		return nil, "", err
	}
	r, err = l.RunDilated(size, p, core.Object, partition.Block)
	if err := consider(r, fmt.Sprintf("object P=%d", p), err); err != nil {
		return nil, "", err
	}
	return best, name, nil
}

// Fig5QueryLatency regenerates Fig. 5: end-to-end query latency of
// FSD-Inference against the server baselines and H-SpFF, one row per model
// size, projected to paper scale (10,000-sample queries).
func Fig5QueryLatency(l *Lab) (*Table, error) {
	t := &Table{
		ID:    "fig5",
		Title: "Query latency (s) by platform (paper-scale projection)",
		Columns: []string{
			"N(paper)", "FSD-Inf", "AO-Cold", "AO-Hot", "JS", "H-SpFF",
		},
	}
	ecfg := ec2.DefaultConfig()
	for i, size := range l.Scale.Sizes {
		lambda := l.Dilation(size)

		fsd, variant, err := l.fsdBest(i)
		if err != nil {
			return nil, fmt.Errorf("fig5 fsd N=%d: %w", size.Scaled, err)
		}
		m, err := l.Model(size.Scaled)
		if err != nil {
			return nil, err
		}
		input := l.Input(size.Scaled, size.Batch)

		// Server baselines: measure pure compute on the always-on
		// instance, then compose paper-scale latencies analytically
		// from projected compute and paper-scale model load times.
		aoMem, err := baselines.RunAlwaysOn(env.NewDefault(), m, input, baselines.FromMemory)
		if err != nil {
			return nil, fmt.Errorf("fig5 ao-mem: %w", err)
		}
		computeP := time.Duration(float64(aoMem.Latency) * lambda)
		paperBytes := l.PaperWeightBytes(size.Paper)
		ebsLoad := time.Duration(float64(paperBytes) / ecfg.EBSReadBytesPerSec * float64(time.Second))
		s3Load := time.Duration(float64(paperBytes) / ecfg.S3ReadBytesPerSec * float64(time.Second))
		aoHot := computeP + ebsLoad/2 // half the requests find the model resident
		aoCold := computeP + s3Load

		jsType := ec2.Catalog[baselines.JobScopedInstanceType(size.Paper)]
		aoType := ec2.Catalog[baselines.AlwaysOnInstanceType]
		jsCompute := time.Duration(float64(computeP) * float64(aoType.VCPUs) / float64(jsType.VCPUs))
		js := ecfg.ProvisionDelay + s3Load + jsCompute

		wi := i
		if wi >= len(l.Scale.Workers) {
			wi = len(l.Scale.Workers) - 1
		}
		nodes := l.Scale.Workers[wi]
		plan, err := l.Plan(size.Scaled, nodes, partition.Block)
		if err != nil {
			return nil, err
		}
		hspff, err := baselines.RunHSpFF(env.NewDefault(), m, plan, input, baselines.DefaultHSpFFConfig(nodes))
		if err != nil {
			return nil, fmt.Errorf("fig5 hspff: %w", err)
		}

		secs := func(d time.Duration) string { return fmt.Sprintf("%.2f", d.Seconds()) }
		t.Rows = append(t.Rows, []string{
			fmt.Sprintf("%d", size.Paper),
			fmt.Sprintf("%.2f", l.ProjectQuerySeconds(size, fsd)),
			secs(aoCold), secs(aoHot), secs(js),
			secs(time.Duration(float64(hspff.Latency) * lambda)),
		})
		t.Notes = append(t.Notes, fmt.Sprintf("N=%d: FSD variant = %s", size.Paper, variant))
	}
	t.Notes = append(t.Notes,
		"paper shape: JS pays provisioning on every query; FSD overtakes AO-Hot as N grows;",
		"H-SpFF (optimized HPC) stays fastest, with FSD within a small factor at the largest size")
	return t, nil
}

// macRatio is the per-sample multiply-accumulate ratio between the paper
// model and the scaled stand-in.
func (l *Lab) macRatio(size SizeMap) float64 {
	return float64(size.Paper) / float64(size.Scaled) *
		float64(l.Scale.PaperLayers) / float64(l.Scale.Layers)
}

// commRatio estimates the per-sample communication-volume ratio between
// paper and scaled models: cut-row counts are measured on a single
// generated layer at each dimension under a block partition.
func (l *Lab) commRatio(size SizeMap, workers int) (float64, error) {
	scaledCut, err := l.cutPerLayer(size.Scaled, workers)
	if err != nil {
		return 0, err
	}
	paperCut, err := l.cutPerLayer(size.Paper, workers)
	if err != nil {
		return 0, err
	}
	return paperCut * float64(l.Scale.PaperLayers) / (scaledCut * float64(l.Scale.Layers)), nil
}

// cutPerLayer measures activation-row transfers per layer for a one-layer
// model at the given dimension (cached).
func (l *Lab) cutPerLayer(neurons, workers int) (float64, error) {
	key := fmt.Sprintf("%d/%d", neurons, workers)
	if v, ok := l.cuts[key]; ok {
		return v, nil
	}
	m, err := model.Generate(model.GraphChallengeSpec(neurons, 1, l.Scale.Seed))
	if err != nil {
		return 0, err
	}
	plan, err := partition.BuildPlan(m, workers, partition.Block, partition.Options{Seed: l.Scale.Seed})
	if err != nil {
		return 0, err
	}
	v := float64(plan.Stats(m).RowTransfers)
	l.cuts[key] = v
	return v, nil
}

// Fig4DailyCost regenerates Fig. 4: daily cost of FSD-Inference versus
// Server-Always-On (two c5.12xlarge provisioned around the clock) and
// Server-Job-Scoped across sporadic query volumes, queries evenly spread
// over the model sizes at 10,000 samples per query.
func Fig4DailyCost(l *Lab) (*Table, error) {
	cat := env.DefaultConfig().Pricing
	fsdPer := make(map[int]float64)
	jsPer := make(map[int]float64)

	for i, size := range l.Scale.Sizes {
		// Best-variant choice per the paper's recommendations: serial
		// for models that fit one instance, queue for moderate sizes,
		// object for the largest.
		var kind core.ChannelKind
		workers := 1
		switch {
		case l.SerialFeasiblePaper(size.Paper) && i < 2:
			kind = core.Serial
		case i == len(l.Scale.Sizes)-1:
			kind = core.Object
			workers = l.Scale.Workers[len(l.Scale.Workers)-1]
		default:
			kind = core.Queue
			workers = l.Scale.Workers[len(l.Scale.Workers)/2]
		}
		b1 := size.Batch
		b2 := size.Batch * 3
		r1, err := l.RunFSD(size.Scaled, workers, b1, kind, partition.Block, nil)
		if err != nil {
			return nil, fmt.Errorf("fig4 N=%d b1: %w", size.Scaled, err)
		}
		r2, err := l.RunFSD(size.Scaled, workers, b2, kind, partition.Block, nil)
		if err != nil {
			return nil, fmt.Errorf("fig4 N=%d b2: %w", size.Scaled, err)
		}
		// Two-point fit, split into compute and comms marginals.
		mCompute := (r2.Cost.Lambda - r1.Cost.Lambda) / float64(b2-b1)
		mComms := (r2.Cost.Comms() - r1.Cost.Comms()) / float64(b2-b1)
		fixed := r1.Cost.Total() - (mCompute+mComms)*float64(b1)
		cr := 1.0
		if kind != core.Serial {
			var err error
			cr, err = l.commRatio(size, workers)
			if err != nil {
				return nil, err
			}
		}
		perQuery := fixed +
			(mCompute*l.macRatio(size)+mComms*cr)*float64(l.Scale.PaperBatch)
		fsdPer[size.Paper] = perQuery

		// Job-scoped projection: provision + paper-scale load + scaled
		// compute time projected by MAC ratio and instance speed.
		e := env.NewDefault()
		m, err := l.Model(size.Scaled)
		if err != nil {
			return nil, err
		}
		js, err := baselines.RunJobScoped(e, m, l.Input(size.Scaled, b1))
		if err != nil {
			return nil, err
		}
		ecfg := e.EC2.Config()
		scaledLoad := time.Duration(float64(m.WeightBytes()) / ecfg.S3ReadBytesPerSec * float64(time.Second))
		computeScaled := js.Latency - ecfg.ProvisionDelay - scaledLoad
		scaledType := ec2.Catalog[baselines.JobScopedInstanceType(size.Scaled)]
		paperType := ec2.Catalog[baselines.JobScopedInstanceType(size.Paper)]
		computePaper := time.Duration(float64(computeScaled) * l.macRatio(size) *
			float64(l.Scale.PaperBatch) / float64(b1) *
			float64(scaledType.VCPUs) / float64(paperType.VCPUs))
		loadPaper := time.Duration(float64(l.PaperWeightBytes(size.Paper)) / ecfg.S3ReadBytesPerSec * float64(time.Second))
		runtime := ecfg.ProvisionDelay + loadPaper + computePaper
		if runtime < ecfg.MinBilledDuration {
			runtime = ecfg.MinBilledDuration
		}
		jsPer[size.Paper] = runtime.Hours() * cat.EC2Hourly[paperType.Name]
	}

	aoDaily := 2 * 24 * cat.EC2Hourly[baselines.AlwaysOnInstanceType]
	var volumes []int
	for v := 10_000; v <= 5_120_000; v *= 2 {
		volumes = append(volumes, v)
	}
	var sizes []int
	for _, s := range l.Scale.Sizes {
		sizes = append(sizes, s.Paper)
	}
	rows, err := workload.Series(volumes, sizes, l.Scale.PaperBatch, workload.PlatformCosts{
		FSDPerQuery: fsdPer,
		JSPerQuery:  jsPer,
		AODaily:     aoDaily,
	}, l.Scale.Seed)
	if err != nil {
		return nil, err
	}

	t := &Table{
		ID:      "fig4",
		Title:   "Daily cost ($) vs query volume (samples per 24h)",
		Columns: []string{"samples/day", "FSD-Inference", "Server-Always-On", "Server-Job-Scoped"},
	}
	for _, r := range rows {
		t.Rows = append(t.Rows, []string{
			fmt.Sprintf("%dk", r.SamplesPerDay/1000),
			dollars(r.FSD), dollars(r.AlwaysOn), dollars(r.JobScoped),
		})
	}
	if cross := workload.Crossover(rows); cross > 0 {
		t.Notes = append(t.Notes, fmt.Sprintf("FSD crosses the always-on flat cost at ~%dk samples/day (paper: ~4M)", cross/1000))
	} else {
		t.Notes = append(t.Notes, "FSD stays below the always-on flat cost across the plotted volumes")
	}
	t.Notes = append(t.Notes,
		"per-query costs projected to paper scale (10,000-sample queries) from two-point scaled measurements;",
		"see README.md (Experiments) for the projection method")
	return t, nil
}
