package experiments

import (
	"fmt"

	"fsdinference/internal/cloud/env"
	"fsdinference/internal/core"
	"fsdinference/internal/partition"
)

// Daily-volume regimes for the provisioned-versus-per-request comparison:
// the paper's sporadic traces sit far below the break-even, a
// production-serving stream sits far above it.
const (
	sporadicQueriesPerDay  = 20
	sustainedQueriesPerDay = 200_000
)

// ChannelComparison extends Fig. 6 with the memory-based store the paper
// weighs against its channels (§II-D) but could not measure: per-sample
// latency and per-run communication cost of Queue, Object and Memory
// across the worker grid, then the daily cost of each channel under a
// sporadic and a sustained volume. The memory store wins latency at every
// P (sub-millisecond ops versus 5-30 ms API hops) and its flat node-hour
// bill makes it cheapest under sustained load — while on the sporadic
// trace the same idle-billing node is the most expensive option, which is
// exactly why the paper ruled it out on cost.
func ChannelComparison(l *Lab) (*Table, error) {
	t := &Table{
		ID:    "channels",
		Title: "Three-way channel comparison: per-sample latency, per-run comms cost, and daily cost by volume regime",
		Columns: []string{
			"P / regime",
			"queue ms", "queue $", "object ms", "object $", "memory ms", "memory $",
		},
	}
	size := l.Scale.Sizes[1]
	var perRun map[core.ChannelKind]float64
	for _, p := range l.Scale.Workers {
		ms := make(map[core.ChannelKind]float64)
		comms := make(map[core.ChannelKind]float64)
		for _, kind := range []core.ChannelKind{core.Queue, core.Object, core.Memory} {
			r, err := l.RunFSD(size.Scaled, p, size.Batch, kind, partition.Block, nil)
			if err != nil {
				return nil, fmt.Errorf("channels %v P=%d: %w", kind, p, err)
			}
			ms[kind] = float64(r.PerSample().Microseconds()) / 1000
			comms[kind] = r.Cost.Comms()
		}
		perRun = comms
		t.Rows = append(t.Rows, []string{
			fmt.Sprintf("%d", p),
			fmt.Sprintf("%.2f", ms[core.Queue]), fmt.Sprintf("%.6f", comms[core.Queue]),
			fmt.Sprintf("%.2f", ms[core.Object]), fmt.Sprintf("%.6f", comms[core.Object]),
			fmt.Sprintf("%.2f", ms[core.Memory]), fmt.Sprintf("%.6f", comms[core.Memory]),
		})
	}

	// Daily-cost regimes from the largest-P marginals: queue and object
	// bill per request, so their daily spend scales with volume; the
	// memory node bills 24 provisioned hours whether it serves 20 queries
	// or 200,000. The memory store's metered per-run share (which carries
	// the one-shot billing floor) is replaced by the flat daily rate —
	// under load the node is shared by every query of the day.
	memDaily := core.StoreDailyCost(core.Config{Channel: core.Memory}, env.DefaultConfig().Pricing)
	for _, regime := range []struct {
		name    string
		queries float64
	}{
		{"sporadic(20/day)", sporadicQueriesPerDay},
		{"sustained(200k/day)", sustainedQueriesPerDay},
	} {
		t.Rows = append(t.Rows, []string{
			regime.name,
			"-", fmt.Sprintf("%.4f", perRun[core.Queue]*regime.queries),
			"-", fmt.Sprintf("%.4f", perRun[core.Object]*regime.queries),
			"-", fmt.Sprintf("%.4f", memDaily),
		})
	}
	t.Notes = append(t.Notes,
		"memory ops are sub-millisecond and carry no per-request price; the bill is provisioned node-hours",
		"per-run memory $ includes the one-shot billing floor; the daily rows amortise the node across the day's queries",
		"sporadic: the idle-billing node is the most expensive channel (the paper's reason to rule it out);",
		"sustained: the flat node rate undercuts per-request queue/object charges (FMI-style memory channel)")
	return t, nil
}
