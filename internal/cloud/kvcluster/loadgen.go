package kvcluster

import (
	"fmt"
	"time"

	"fsdinference/internal/cloud/kvstore"
	"fsdinference/internal/cloud/usage"
	"fsdinference/internal/sim"
)

// MeasureThroughput saturates a fresh cluster of the given shard count
// and node type with an offered RPUSH load well above one node's
// request-rate ceiling and returns the steady-state aggregate throughput
// in operations per second. The first half of the window warms the
// per-node token buckets through their burst allowance; only the second
// half is measured, so the figure is the sustained rate the per-node
// limiters actually enforce. It is the measurement behind the cluster
// experiment's headline: one node pins at its ceiling, N shards serve
// ~N times it.
func MeasureThroughput(shards int, nodeType string) (float64, error) {
	k := sim.New()
	kv := kvstore.New(k, usage.NewMeter(), kvstore.DefaultConfig())
	c, err := New(kv, Config{Name: "loadgen", Shards: shards, NodeType: nodeType})
	if err != nil {
		return 0, fmt.Errorf("kvcluster: loadgen cluster: %w", err)
	}

	const window = time.Second
	warm := window / 2
	// Offered load: each pusher issues one op per OpLatency, so 48
	// pushers offer ~160k ops/s against the 40-120k ceilings in the
	// catalogue — enough to drain any burst inside the warmup.
	pushers := 48 * shards
	ops := 0
	for w := 0; w < pushers; w++ {
		key := fmt.Sprintf("load/%d", w)
		k.Go(fmt.Sprintf("pusher-%d", w), func(p *sim.Proc) {
			for p.Now() < window {
				if err := c.RPush(p, nil, key, []byte{1}, time.Minute); err != nil {
					return
				}
				if p.Now() >= warm {
					ops++
				}
			}
		})
	}
	if err := k.Run(); err != nil {
		return 0, fmt.Errorf("kvcluster: loadgen run: %w", err)
	}
	c.Release()
	return float64(ops) / (window - warm).Seconds(), nil
}
