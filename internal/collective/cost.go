package collective

import "time"

// Op identifies a collective operation for the analytic model.
type Op int

const (
	OpBarrier Op = iota
	OpAllreduce
	OpGather
)

// opNames are the operations' names, indexed by Op.
var opNames = [...]string{OpBarrier: "barrier", OpAllreduce: "allreduce", OpGather: "gather"}

// String names the operation.
func (o Op) String() string { return opNames[o] }

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
	// pool, or the hybrid bulk fanout): a rank feeding k peers in one hop
	// pays ceil(k/Fan) serialized rounds.
	Fan int
}

// Estimate is the analytic prediction for one collective call.
type Estimate struct {
	// Messages is the total message count across all ranks.
	Messages int64
	// Latency is the critical-path latency.
	Latency time.Duration
}

// xfer returns the transfer time of n bytes at the traits' bandwidth.
func (tr Traits) xfer(n int64) time.Duration {
	if tr.BytesPerSec <= 0 || n <= 0 {
		return 0
	}
	return time.Duration(float64(n) / tr.BytesPerSec * float64(time.Second))
}

// EstimateOp predicts latency and message count for one collective call:
// operation op over p ranks, each contributing msgBytes, on a channel with
// the given traits. It walks the shape the phases run, one message per edge
// per pass. The reduce pass goes from the highest virtual rank down, since
// a child's virtual rank is above its parent's: a rank drains its children
// one at a time in shape's order, each once it is ready, paying a message
// and the child's subtree payload. The broadcast pass goes from the root up, feeding
// each rank's hops in reverse: a hop of k peers costs ceil(k/Fan) sends of
// the root's combined payload, the flat root's thread-pooled fan-out.
// Gather is the reduce pass, Barrier both passes with no bytes, Allreduce
// both — except under ring, whose pass-around is P-1 concurrent rounds of
// one contribution each. alg is a concrete topology (Pick resolves
// AutoAlgo) over p >= 2 ranks.
func EstimateOp(op Op, alg Algorithm, p int, msgBytes int64, tr Traits) Estimate {
	alpha := tr.PerMsg
	if op == OpAllreduce && alg == Ring {
		return Estimate{
			Messages: int64(p) * int64(p-1),
			Latency:  time.Duration(p-1) * (alpha + tr.xfer(msgBytes)),
		}
	}
	m := msgBytes
	if op == OpBarrier {
		m = 0
	}
	// node[vr] is the rank's subtree size in contributions and the time its
	// partial is ready, then, in the broadcast pass, the time the result
	// reaches it.
	node := make([]struct {
		size int64
		t    time.Duration
	}, p)
	var buf [64]hop // a tree rank has fewer than 64 child hops for any int p
	var e Estimate
	for vr := p - 1; vr >= 0; vr-- {
		_, children := shape(alg, vr, p, buf[:0])
		size, t := int64(1), time.Duration(0)
		for _, h := range children {
			for c := h.lo; c < h.hi; c++ {
				t = max(t, node[c].t) + alpha + tr.xfer(node[c].size*m)
				size += node[c].size
				e.Messages++
			}
		}
		node[vr].size, node[vr].t = size, t
	}
	e.Latency = node[0].t
	if op == OpGather {
		return e
	}
	send := alpha + tr.xfer(node[0].size*m)
	fan := max(tr.Fan, 1)
	node[0].t = 0
	var down time.Duration
	for vr := 0; vr < p; vr++ {
		_, children := shape(alg, vr, p, buf[:0])
		t := node[vr].t
		for i := len(children) - 1; i >= 0; i-- {
			h := children[i]
			t += time.Duration((h.hi-h.lo+fan-1)/fan) * send
			for c := h.lo; c < h.hi; c++ {
				node[c].t = t
				e.Messages++
			}
		}
		down = max(down, t)
	}
	e.Latency += down
	return e
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
