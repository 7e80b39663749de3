package plan

import "time"

// Norms carries the normalisation constants an Objective scores against:
// the minima over every successfully trialed candidate, so scores are
// dimensionless ratios comparable across grids.
type Norms struct {
	MinLatency time.Duration
	MinCost    float64
}

// Objective ranks trialed candidates: the candidate with the lowest Score
// wins (ties break toward the earlier candidate in enumeration order).
// Trial.Cost is the per-query cost under the planning profile — for the
// memory channel that means node-hours amortised over the profile's daily
// query volume when one is known, which is what makes a cost-sensitive
// objective workload-aware.
type Objective interface {
	// Score returns the candidate's objective value; lower is better.
	Score(t Trial, n Norms) float64
}

// costWeighter is implemented by the built-in objectives to tell the
// analytic pre-filter how much weight they place on cost; dominance
// prunes (dropping a channel that is analytically more expensive in every
// regime) only apply to purely cost-driven objectives. Custom objectives
// that do not implement it never get dominance-pruned candidates.
type costWeighter interface {
	costWeight() float64
}

// WeightedObjective returns the legacy AutoSelect objective:
//
//	latencyWeight·(latency/minLatency) + (1-latencyWeight)·(cost/minCost)
//
// with latencyWeight clamped to [0,1]: 1 optimises latency only, 0 cost
// only.
func WeightedObjective(latencyWeight float64) Objective {
	if latencyWeight < 0 {
		latencyWeight = 0
	}
	if latencyWeight > 1 {
		latencyWeight = 1
	}
	return weighted{w: latencyWeight}
}

// LatencyObjective ranks candidates by probe latency alone.
func LatencyObjective() Objective { return weighted{w: 1} }

// CostObjective ranks candidates by per-query cost alone — under a
// profile with a known daily volume this is where the provisioned memory
// store's idle billing bites or pays off.
func CostObjective() Objective { return weighted{w: 0} }

type weighted struct{ w float64 }

func (o weighted) costWeight() float64 { return 1 - o.w }

func (o weighted) Score(t Trial, n Norms) float64 {
	var s float64
	if n.MinLatency > 0 {
		s += o.w * float64(t.Latency) / float64(n.MinLatency)
	}
	if n.MinCost > 0 {
		s += (1 - o.w) * t.Cost / n.MinCost
	}
	return s
}
