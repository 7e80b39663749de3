package collective

import "time"

// Op identifies a collective operation for the analytic model.
type Op int

const (
	OpBarrier Op = iota
	OpAllreduce
	OpGather
)

// String names the operation.
func (o Op) String() string {
	switch o {
	case OpBarrier:
		return "barrier"
	case OpAllreduce:
		return "allreduce"
	case OpGather:
		return "gather"
	default:
		return "op?"
	}
}

// Traits summarises a channel's communication characteristics for the
// analytic model — the alpha/beta terms of the classic collective cost
// formulas, in the channel's own units.
type Traits struct {
	// PerMsg is the end-to-end per-message latency (the alpha term):
	// push+pop round trips for the memory store, publish+delivery+receive
	// for pub-sub, put+list+get for object storage.
	PerMsg time.Duration
	// BytesPerSec is the effective per-transfer bandwidth (1/beta).
	BytesPerSec float64
	// Fan is the sender-side transfer concurrency (the worker's thread
	// pool, or the hybrid bulk fanout): a root pushing P-1 messages pays
	// ceil((P-1)/Fan) serialized rounds.
	Fan int
	// CostPerMsg is the billed dollars per message (0 for provisioned
	// stores, whose cost is node-hours independent of traffic).
	CostPerMsg float64
}

// Estimate is the analytic prediction for one collective call.
type Estimate struct {
	// Rounds is the number of serialized communication steps on the
	// critical path.
	Rounds int
	// Messages is the total message count across all ranks.
	Messages int64
	// Bytes is the total payload volume across all ranks.
	Bytes int64
	// Latency is the critical-path latency.
	Latency time.Duration
	// Cost is Messages priced at the channel's per-message rate.
	Cost float64
}

func ceilDiv(a, b int) int {
	if b <= 0 {
		b = 1
	}
	return (a + b - 1) / b
}

// xfer returns the transfer time of n bytes at the traits' bandwidth.
func (tr Traits) xfer(n int64) time.Duration {
	if tr.BytesPerSec <= 0 || n <= 0 {
		return 0
	}
	return time.Duration(float64(n) / tr.BytesPerSec * float64(time.Second))
}

// EstimateOp predicts latency, message count and bytes for one collective
// call: operation op over p ranks, each contributing msgBytes, on a
// channel with the given traits. The formulas mirror the implementations
// in this package: the flat root drains P-1 inbox values sequentially and
// fans out over its thread pool; the tree runs ceil(log2 P) rounds with
// subtree payloads doubling toward the root; the ring runs P-1 concurrent
// neighbour rounds (allreduce) or an accumulating chain (rooted ops).
func EstimateOp(op Op, alg Algorithm, p int, msgBytes int64, tr Traits) Estimate {
	if p <= 1 {
		return Estimate{}
	}
	if alg == AutoAlgo {
		alg = Pick(op, p, msgBytes, tr)
	}
	alpha := tr.PerMsg
	m := msgBytes
	n := int64(p)
	full := n * m // the combined result an allreduce broadcasts
	var e Estimate
	switch alg {
	case Tree:
		r := log2ceil(p)
		up := Estimate{
			Rounds:   r,
			Messages: n - 1,
			// Sum of subtree payloads over all non-root senders.
			Bytes:   m * n * int64(r) / 2,
			Latency: time.Duration(r)*alpha + tr.xfer(m*(n-1)),
		}
		down := func(payload int64) Estimate {
			return Estimate{
				Rounds:   r,
				Messages: n - 1,
				Bytes:    payload * (n - 1),
				Latency:  time.Duration(r) * (alpha + tr.xfer(payload)),
			}
		}
		switch op {
		case OpBarrier:
			e = addEst(Estimate{Rounds: up.Rounds, Messages: up.Messages, Latency: time.Duration(r) * alpha}, down(0))
		case OpGather:
			e = up
		case OpAllreduce:
			e = addEst(up, down(full))
		}
	case Ring:
		switch op {
		case OpBarrier:
			e = Estimate{
				Rounds:   2 * (p - 1),
				Messages: 2 * (n - 1),
				Latency:  time.Duration(2*(p-1)) * alpha,
			}
		case OpGather:
			// The chain payload grows toward the root: hop k carries
			// k contributions.
			e = Estimate{
				Rounds:   p - 1,
				Messages: n - 1,
				Bytes:    m * n * (n - 1) / 2,
				Latency:  time.Duration(p-1)*alpha + tr.xfer(m*n*(n-1)/2),
			}
		case OpAllreduce:
			// Pass-around: every rank sends one contribution per round,
			// all ranks concurrently.
			e = Estimate{
				Rounds:   p - 1,
				Messages: n * (n - 1),
				Bytes:    m * n * (n - 1),
				Latency:  time.Duration(p-1) * (alpha + tr.xfer(m)),
			}
		}
	default: // Flat
		fan := maxInt(tr.Fan, 1)
		// Root-side sequential inbox drain (gather) and thread-pooled
		// fan-out (broadcast).
		gatherLat := time.Duration(p-1) * (alpha + tr.xfer(m))
		fanLat := func(payload int64) time.Duration {
			return time.Duration(ceilDiv(p-1, fan)) * (alpha + tr.xfer(payload))
		}
		switch op {
		case OpBarrier:
			e = Estimate{
				Rounds:   2,
				Messages: 2 * (n - 1),
				Latency:  time.Duration(p-1)*alpha + time.Duration(ceilDiv(p-1, fan))*alpha,
			}
		case OpGather:
			e = Estimate{Rounds: 1, Messages: n - 1, Bytes: m * (n - 1), Latency: gatherLat}
		case OpAllreduce:
			e = Estimate{
				Rounds:   2,
				Messages: 2 * (n - 1),
				Bytes:    m*(n-1) + full*(n-1),
				Latency:  gatherLat + fanLat(full),
			}
		}
	}
	e.Cost = float64(e.Messages) * tr.CostPerMsg
	return e
}

func addEst(a, b Estimate) Estimate {
	return Estimate{
		Rounds:   a.Rounds + b.Rounds,
		Messages: a.Messages + b.Messages,
		Bytes:    a.Bytes + b.Bytes,
		Latency:  a.Latency + b.Latency,
		Cost:     a.Cost + b.Cost,
	}
}

func maxInt(a, b int) int {
	if a > b {
		return a
	}
	return b
}

// Pick resolves AutoAlgo: the analytically fastest concrete topology for
// the call, with Flat winning ties so small deployments keep the paper's
// original pattern.
func Pick(op Op, p int, msgBytes int64, tr Traits) Algorithm {
	// At P<=2 every topology degenerates to the same neighbour exchange;
	// keep the flat path rather than chase formula noise.
	if p <= 2 {
		return Flat
	}
	best := Flat
	bestLat := EstimateOp(op, Flat, p, msgBytes, tr).Latency
	for _, alg := range []Algorithm{Tree, Ring} {
		if lat := EstimateOp(op, alg, p, msgBytes, tr).Latency; lat < bestLat {
			best, bestLat = alg, lat
		}
	}
	return best
}
