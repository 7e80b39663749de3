package experiments

import (
	"fmt"
	"math"
	"time"

	"fsdinference/internal/baselines"
	"fsdinference/internal/cloud/env"
	"fsdinference/internal/cloud/usage"
	"fsdinference/internal/core"
	"fsdinference/internal/partition"
)

// Table2PerSample regenerates Table II: end-to-end per-sample runtime of
// the best parallel FSD variant, FSD-Inf-Serial and Sage-SL-Inf per model
// size. Paper-scale feasibility gates mark the configurations the paper
// reports as failing (serial and the endpoint at N=65536).
func Table2PerSample(l *Lab) (*Table, error) {
	t := &Table{
		ID:      "table2",
		Title:   "End-to-end per-sample runtime (ms)",
		Columns: []string{"N(paper)", "FSD-Inf-Parallel", "FSD-Inf-Serial", "Sage-SL-Inf", "Sage samples"},
	}
	for _, size := range l.Scale.Sizes {
		// Best parallel config across the worker grid and both channels,
		// projected to paper scale from time-dilated runs.
		bestMS := -1.0
		for _, p := range l.Scale.Workers {
			for _, kind := range []core.ChannelKind{core.Queue, core.Object} {
				r, err := l.RunDilated(size, p, kind, partition.Block)
				if err != nil {
					return nil, fmt.Errorf("table2 N=%d P=%d %v: %w", size.Scaled, p, kind, err)
				}
				msv := l.ProjectPerSampleMS(size, r)
				if bestMS < 0 || msv < bestMS {
					bestMS = msv
				}
			}
		}

		serialCell := "-"
		if l.SerialFeasiblePaper(size.Paper) {
			r, err := l.RunDilated(size, 1, core.Serial, partition.Block)
			if err != nil {
				return nil, fmt.Errorf("table2 serial N=%d: %w", size.Scaled, err)
			}
			serialCell = fmt.Sprintf("%.2f", l.ProjectPerSampleMS(size, r))
		}

		sageCell, sageSamples := "-", "-"
		if l.SageFeasiblePaper(size.Paper) {
			m, err := l.Model(size.Scaled)
			if err != nil {
				return nil, err
			}
			r, err := baselines.RunSageSL(env.NewDefault(), m, l.Input(size.Scaled, size.Batch), baselines.DefaultSageConfig())
			if err != nil {
				return nil, fmt.Errorf("table2 sage N=%d: %w", size.Scaled, err)
			}
			// Project the per-processed-sample time by the compute
			// ratio between paper and stand-in models.
			perSample := float64(r.Latency) / float64(r.SamplesProcessed) * l.macRatio(size)
			sageCell = fmt.Sprintf("%.2f*", perSample/float64(time.Millisecond))
			// The samples column reports the paper-scale payload cap
			// (the 8,000/2,500/1,000 observation).
			sageSamples = fmt.Sprintf("%d of %d", l.SageSamplesPaper(size.Paper), l.Scale.PaperBatch)
		}

		t.Rows = append(t.Rows, []string{
			fmt.Sprintf("%d", size.Paper),
			fmt.Sprintf("%.2f", bestMS),
			serialCell,
			sageCell,
			sageSamples,
		})
	}
	t.Notes = append(t.Notes,
		"\"-\" marks configurations infeasible at paper scale: the N=65536 model exceeds the",
		"10,240 MB serial instance and the 6 GB endpoint cap, as the paper reports;",
		"* per processed sample; the endpoint's 6 MB payload truncates the batch (paper: 8000/2500/1000)",
		"paper shape: serial wins for small N, parallel overtakes from N=16384")
	return t, nil
}

// Table3Partitioning regenerates Table III: FSD-Inf-Object communication
// volumes and runtime under HGP-DNN versus random partitioning (RP), at the
// scaled stand-in for N=16384, P=42.
func Table3Partitioning(l *Lab) (*Table, error) {
	size := l.Scale.Sizes[2] // stand-in for N=16384
	workers := l.Scale.Workers[2]

	t := &Table{
		ID:    "table3",
		Title: fmt.Sprintf("FSD-Inf-Object communication under HGP-DNN vs RP (N(paper)=%d, P=%d)", size.Paper, workers),
		Columns: []string{
			"scheme", "data volume sent (B)", "rows sent per target", "per-sample runtime (ms)",
		},
	}
	var volumes [2]int64
	for i, scheme := range []partition.Scheme{partition.HGPDNN, partition.Random} {
		r, err := l.RunFSD(size.Scaled, workers, size.Batch, core.Object, scheme, nil)
		if err != nil {
			return nil, fmt.Errorf("table3 %v: %w", scheme, err)
		}
		var pairs int64
		for _, w := range r.Workers {
			pairs += w.MessagesSent
		}
		rowsPerTarget := float64(r.TotalRowsSent()) / float64(max(pairs, 1))
		volumes[i] = r.TotalBytesSent()
		t.Rows = append(t.Rows, []string{
			scheme.String(),
			fmt.Sprintf("%d", r.TotalBytesSent()),
			fmt.Sprintf("%.0f", rowsPerTarget),
			msPerSample(r.Latency, r.Batch),
		})
	}
	if volumes[1] > 0 {
		t.Notes = append(t.Notes, fmt.Sprintf(
			"HGP-DNN ships %.1fx less data than RP (paper: 9.3x at full scale)",
			float64(volumes[1])/float64(max(volumes[0], 1))))
	}
	return t, nil
}

// CostValidation regenerates the §VI-F check for every row of core's
// transport table: the cost of a run's own meter, which its ranks charge at
// each call they make, against what the simulated services billed for it,
// at the stand-in for N=16384, P=20. Both sides are priced by usage.Meter.Cost,
// the module's one statement of Equations (1)-(7); what is compared is the
// counting. Runs with AllreduceOutput are not validated: their reconstruction
// is wrong until a run ends when its last rank does (ROADMAP direction 1).
func CostValidation(l *Lab) (*Table, error) {
	size := l.Scale.Sizes[2]
	workers := l.Scale.Workers[1]

	t := &Table{
		ID:    "costval",
		Title: fmt.Sprintf("Cost model validation (N(paper)=%d, P=%d)", size.Paper, workers),
		Columns: []string{
			"variant", "pred comp", "act comp", "pred comms", "act comms", "pred total", "act total", "agree<1%",
		},
	}
	for _, kind := range core.ChannelKinds() {
		v, err := l.validateRun(size.Scaled, workers, kind)
		if err != nil {
			return nil, fmt.Errorf("costval %v: %w", kind, err)
		}
		ok := v.computeAgrees(0.01) && v.commsAgree(0.01) && v.totalAgrees(0.01)
		t.Rows = append(t.Rows, []string{
			kind.String(),
			dollars(v.predicted.Lambda), dollars(v.actual.Lambda),
			dollars(v.predicted.Comms()), dollars(v.actual.Comms()),
			dollars(v.predicted.Total()), dollars(v.actual.Total()),
			fmt.Sprintf("%v", ok),
		})
	}
	t.Notes = append(t.Notes,
		"pred is the run's own meter, charged at each call a rank makes (runtimes, billed-publish counts, byte counts,",
		"poll/delete/PUT/GET/LIST counts, store node-hours for the run's wall time); act is the window",
		"of the metered billing records around the run, mirroring the paper's Cost & Usage report",
		fmt.Sprintf("comparison; the size-routed variant splits at %d B so that both of its routes bill", validationHybridThreshold))
	return t, nil
}

// validationHybridThreshold is the routing split the validation runs under.
// At the 128 KiB default nothing at these scales goes bulk and the Hybrid row
// would be the Memory row again; at 2 KiB roughly a sixth of its values do.
// Kinds that do not route by size ignore it.
const validationHybridThreshold = 2048

// validateRun builds the §VI-F validation for one run of kind on a fresh
// environment: predicted is the cost Start reports from the run's own meter
// (core's runUsage), actual the environment meter's window around the run.
func (l *Lab) validateRun(neurons, workers int, kind core.ChannelKind) (validation, error) {
	d, err := l.deploy(env.NewDefault(), neurons, workers, kind, partition.Block, 2*time.Second,
		func(c *core.Config) { c.HybridThresholdBytes = validationHybridThreshold })
	if err != nil {
		return validation{}, err
	}
	snap := d.Env.Meter.Snapshot()
	var res *core.Result
	var runErr error
	if _, err := d.Start(l.Input(neurons, l.Scale.Batch), func(r *core.Result, err error) { res, runErr = r, err }); err != nil {
		return validation{}, err
	}
	if err := d.Env.K.Run(); err != nil {
		return validation{}, err
	}
	if runErr != nil {
		return validation{}, runErr
	}
	used := d.Env.Meter.Sub(snap)
	if (used.HybridSmallValues == 0) != (used.HybridBulkValues == 0) {
		return validation{}, fmt.Errorf("size routing sent %d values inline and %d bulk: one route's billing is not validated",
			used.HybridSmallValues, used.HybridBulkValues)
	}
	return validation{predicted: res.Cost, actual: used.Cost(d.Env.Pricing)}, nil
}

// validation compares the cost a run reports of itself against the billed
// actuals from the environment's meter (§VI-F). The paper reports
// compute/comms/total agreement to the cent.
type validation struct {
	predicted usage.Breakdown
	actual    usage.Breakdown
}

// computeAgrees reports whether predicted and actual compute costs agree
// within tol (relative).
func (v validation) computeAgrees(tol float64) bool {
	return relClose(v.predicted.Lambda+v.predicted.EC2, v.actual.Lambda+v.actual.EC2, tol)
}

// commsAgree reports whether predicted and actual communication costs
// agree within tol (relative).
func (v validation) commsAgree(tol float64) bool {
	return relClose(v.predicted.Comms(), v.actual.Comms(), tol)
}

// totalAgrees reports whether totals agree within tol (relative).
func (v validation) totalAgrees(tol float64) bool {
	return relClose(v.predicted.Total(), v.actual.Total(), tol)
}

func relClose(a, b, tol float64) bool {
	diff, scale := math.Abs(a-b), math.Abs(b)
	if scale < 1e-12 {
		return diff < 1e-12
	}
	return diff/scale <= tol
}
