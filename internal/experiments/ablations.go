package experiments

import (
	"fmt"
	"time"

	"fsdinference/internal/core"
	"fsdinference/internal/partition"
	"fsdinference/internal/plan"
	"fsdinference/internal/wire"
)

// AblationPolling regenerates the paper's polling analysis (§III-C1,
// "analysis not shown"): long polling returns more messages per poll,
// issues far fewer queueing API requests and therefore costs less than
// short polling, at comparable or better latency.
func AblationPolling(l *Lab) (*Table, error) {
	size := l.Scale.Sizes[min(1, len(l.Scale.Sizes)-1)]
	workers := l.Scale.Workers[min(1, len(l.Scale.Workers)-1)]
	t := &Table{
		ID:    "polling",
		Title: fmt.Sprintf("Long vs short queue polling (N(paper)=%d, P=%d)", size.Paper, workers),
		Columns: []string{
			"polling", "per-sample ms", "SQS requests", "msgs/poll", "comms $",
		},
	}
	for _, tc := range []struct {
		name string
		wait time.Duration
	}{
		{"long (W=2s)", 2 * time.Second},
		{"short (W=0)", 0},
	} {
		r, err := l.RunFSD(size.Scaled, workers, l.Scale.Batch, core.Queue, partition.Block,
			func(c *core.Config) { c.PollWait = tc.wait })
		if err != nil {
			return nil, fmt.Errorf("polling %s: %w", tc.name, err)
		}
		var fetches int64
		for _, w := range r.Workers {
			fetches += w.Fetches
		}
		perPoll := 0.0
		if polls := r.Usage.SQSReceiveCalls; polls > 0 {
			perPoll = float64(fetches) / float64(polls)
		}
		t.Rows = append(t.Rows, []string{
			tc.name,
			msPerSample(r.Latency, r.Batch),
			fmt.Sprintf("%d", r.Usage.SQSRequests()),
			fmt.Sprintf("%.2f", perPoll),
			dollars(r.Cost.Comms()),
		})
	}
	t.Notes = append(t.Notes,
		"short polls sample a subset of queue shards and may return empty even when messages",
		"exist; long polling visits every shard and waits for arrivals, reducing request counts")
	return t, nil
}

// AblationLaunch regenerates the launch-mechanism comparison (§III,
// "experiments not shown"): the hierarchical worker_invoke_children tree
// versus a centralised single loop and a Lambada-style two-level loop.
func AblationLaunch(l *Lab) (*Table, error) {
	size := l.Scale.Sizes[min(1, len(l.Scale.Sizes)-1)]
	workers := l.Scale.Workers[len(l.Scale.Workers)-1]
	t := &Table{
		ID:      "launch",
		Title:   fmt.Sprintf("Worker-tree launch mechanisms (P=%d)", workers),
		Columns: []string{"mechanism", "tree populated (s)", "query latency (s)"},
	}
	for _, mode := range []core.LaunchMode{core.Hierarchical, core.Centralized, core.TwoLevel} {
		r, err := l.RunFSD(size.Scaled, workers, l.Scale.Batch, core.Queue, partition.Block,
			func(c *core.Config) { c.Launch = mode })
		if err != nil {
			return nil, fmt.Errorf("launch %v: %w", mode, err)
		}
		t.Rows = append(t.Rows, []string{
			mode.String(),
			fmt.Sprintf("%.3f", r.LaunchComplete.Seconds()),
			fmt.Sprintf("%.3f", r.Latency.Seconds()),
		})
	}
	t.Notes = append(t.Notes,
		"the centralised loop serialises every invoke on the CPU-starved 128 MB coordinator;",
		"the hierarchical tree spreads invocation work across full-size workers (paper §II-B)")
	return t, nil
}

// AblationCompression regenerates the §IV-B compression discussion: zlib
// shrinks communication volume, reducing billed publishes, transfer bytes
// and end-to-end cost for the queue channel. The zlib row deflates the
// frames wire's size rule lets it; the off row deflates none.
func AblationCompression(l *Lab) (*Table, error) {
	size := l.Scale.Sizes[min(1, len(l.Scale.Sizes)-1)]
	workers := l.Scale.Workers[min(1, len(l.Scale.Workers)-1)]
	t := &Table{
		ID:    "compression",
		Title: fmt.Sprintf("ZLIB payload compression (N(paper)=%d, P=%d, queue)", size.Paper, workers),
		Columns: []string{
			"compression", "bytes sent", "billed publishes", "per-sample ms", "total $",
		},
	}
	for _, tc := range []struct {
		name     string
		compress bool
	}{
		{"zlib", true},
		{"off", false},
	} {
		r, err := l.RunFSD(size.Scaled, workers, l.Scale.Batch, core.Queue, partition.Block,
			func(c *core.Config) { c.Compress = tc.compress })
		if err != nil {
			return nil, fmt.Errorf("compression %s: %w", tc.name, err)
		}
		t.Rows = append(t.Rows, []string{
			tc.name,
			fmt.Sprintf("%d", r.TotalBytesSent()),
			fmt.Sprintf("%d", r.Usage.SNSBilledPublishes),
			msPerSample(r.Latency, r.Batch),
			dollars(r.Cost.Total()),
		})
	}
	t.Notes = append(t.Notes,
		"compression reduces S, Z and Q directly and shortens runtimes under the lower IPC load (§IV-B)",
		"zlib deflates frames of 768 B and more; shorter ones ship raw under either setting (the wire package's per-message rule)")
	return t, nil
}

// AblationQuota regenerates the §IV-C API-cost analysis: per-layer
// communication request cost of the two channels as per-pair volume grows,
// locating the crossover where object storage becomes cheaper.
func AblationQuota(l *Lab) (*Table, error) {
	t := &Table{
		ID:      "quota",
		Title:   "Channel API request cost per layer vs per-pair volume (100 pairs, batch-1 frames)",
		Columns: []string{"rows/pair", "bytes/pair", "queue API $", "object API $", "queue/object"},
	}
	crossed := ""
	// The whole row counts nearest 1 KiB to 256 MiB frames of one value a
	// row.
	for _, rows := range []int64{127, 2047, 8191, 32767, 131071, 2097151, 8388607, 33554431} {
		layer := core.Workload{PairsPerLayer: 100, Frame: wire.Frame{Rows: rows, Batch: 1}, Layers: 1}
		bytes := layer.Frame.Bytes()
		q, err := plan.RequestCost(layer, core.Queue)
		if err != nil {
			return nil, err
		}
		o, err := plan.RequestCost(layer, core.Object)
		if err != nil {
			return nil, err
		}
		ratio := q / o
		if crossed == "" && q > o {
			crossed = fmt.Sprintf("%d", bytes)
		}
		t.Rows = append(t.Rows, []string{
			fmt.Sprintf("%d", rows),
			fmt.Sprintf("%d", bytes),
			fmt.Sprintf("%.6f", q),
			fmt.Sprintf("%.6f", o),
			fmt.Sprintf("%.3f", ratio),
		})
	}
	if crossed != "" {
		t.Notes = append(t.Notes, "object storage becomes cheaper per request from "+crossed+" bytes/pair")
	}
	t.Notes = append(t.Notes,
		"paper §IV-C: queue API requests are ~1 OOM cheaper (up to 2 OOM with best-case packing)",
		"until volumes saturate publish capacity, then object storage's size-independent pricing wins")
	return t, nil
}
