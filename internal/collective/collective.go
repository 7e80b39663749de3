// Package collective implements the communication collectives FSD workers
// close every request with over their serverless channels: Barrier, Gather
// and Allreduce (§III-C3; Algorithm 1 lines 19-22, Algorithm 2 lines 25-28).
//
// A topology is a shape — for each rank, a parent and some children:
//
//   - flat: every rank exchanges directly with the root, the paper's
//     original pattern. O(P) messages funnel through the root's inbox,
//     which is the raw-speed ceiling at high worker counts.
//   - tree: a binomial tree, ceil(log2 P) rounds. The latency winner for
//     small payloads, since no single inbox drains more than log P values.
//   - ring: a chain, P-1 hops, for the rooted operations.
//
// Two phases are written once over the shape: reduce (drain the children,
// combine, hand the partial to the parent) and broadcast (take from the
// parent, feed the children). The three operations compose them: Barrier
// is an empty reduce and an empty broadcast, Gather a reduce under Union,
// Allreduce a reduce and a broadcast — except under ring, where it is the
// classic pass-around, P-1 concurrent rounds of neighbour exchanges. That
// one is the bandwidth winner: no rank ever sends more than one
// contribution per round.
//
// Phases address peers through a Link — the tagged point-to-point
// transport a channel lends them — so every channel (queue, object,
// memory, hybrid) runs every topology unchanged. An analytic cost model
// (cost.go) walks the same shapes to predict latency and message count per
// (operation, topology, P, payload, channel traits), so AutoAlgo can pick
// the topology per call.
package collective

import (
	"fmt"

	"fsdinference/internal/wire"
)

// Algorithm selects a collective topology. The zero value is Flat, the
// paper's original root-funnelled pattern, so existing deployments keep
// their behaviour unless they opt in.
type Algorithm int

const (
	// Flat exchanges directly with the root (O(P) at the root's inbox).
	Flat Algorithm = iota
	// Tree uses binomial trees (ceil(log2 P) rounds).
	Tree
	// Ring uses chains and the pass-around allreduce (P-1 rounds of
	// neighbour exchanges).
	Ring
	// AutoAlgo resolves to the analytically cheapest topology per call
	// via Pick; unresolved it runs flat.
	AutoAlgo
)

// String names the algorithm.
func (a Algorithm) String() string {
	switch a {
	case Flat:
		return "flat"
	case Tree:
		return "tree"
	case Ring:
		return "ring"
	case AutoAlgo:
		return "auto"
	default:
		return fmt.Sprintf("Algorithm(%d)", int(a))
	}
}

// Algorithms lists the concrete topologies (AutoAlgo resolves to one of
// these).
func Algorithms() []Algorithm { return []Algorithm{Flat, Tree, Ring} }

// Link is the tagged point-to-point transport a channel lends to the
// collective phases. Send ships one row set to a peer under an (op, round)
// tag; Gather blocks until every listed source's value under the tag has
// arrived completely. deliver runs once per byte string, not once per
// value: a channel that splits a large value over several messages or
// objects delivers it in as many pieces, so a receiver folds or joins every
// delivery and never keeps just the last. A transport may skip deliver for
// empty row sets — completion is tracked independently of delivery, so a
// missing delivery is an empty contribution.
type Link interface {
	Rank() int
	Size() int
	Send(op string, round int, target int, rs *wire.RowSet) error
	// SendAll ships one row set per target under a single (op, round) tag.
	// Transports fan the batch out with whatever concurrency they have
	// (thread pools, publish batches), so a flat root's P-1 sends do not
	// serialize.
	SendAll(op string, round int, targets []int, sets []*wire.RowSet) error
	Gather(op string, round int, sources []int, deliver func(src int, rs *wire.RowSet)) error
}

// Combiner folds one received contribution into the accumulator and
// returns the (possibly newly allocated) accumulator. dst may be nil.
type Combiner func(dst, src *wire.RowSet) *wire.RowSet

// Union appends src's rows to dst — the combiner for FSD's final reduce,
// where workers hold disjoint row ranges.
func Union(dst, src *wire.RowSet) *wire.RowSet {
	if src == nil || src.Len() == 0 {
		return dst
	}
	if dst == nil {
		dst = wire.NewRowSet(src.Batch)
	}
	dst.Append(src)
	return dst
}

// Operation tags. Each operation owns distinct tags so composites
// (allreduce = reduce + broadcast) and back-to-back operations in one run
// phase never collide on the transport's (op, round) keying. Tags and
// rounds are bytes on the wire — queue message attributes, object and store
// keys — and so part of what a run is billed for.
const (
	opBarrierUp   = "bar"
	opBarrierDown = "bgo"
	opAllreduceUp = "ar"
	opAllreduceBc = "ab"
	opGather      = "gt"
)

// orEmpty substitutes an empty row set for nil, so transports always get
// a payload to frame.
func orEmpty(rs *wire.RowSet) *wire.RowSet {
	if rs == nil {
		return wire.NewRowSet(0)
	}
	return rs
}

// vrank maps a rank into root-relative virtual rank space, where the root
// is virtual rank 0.
func vrank(rank, root, p int) int { return (rank - root + p) % p }

// rankOf inverts vrank.
func rankOf(vr, root, p int) int { return (vr + root) % p }

// log2ceil returns ceil(log2 p) (0 for p <= 1).
func log2ceil(p int) int {
	r := 0
	for 1<<r < p {
		r++
	}
	return r
}

// hop is one step of a topology as one rank sees it: the peers it
// exchanges with in that step — the virtual ranks [lo, hi), addressed by
// one Gather or one SendAll — and the round its messages are tagged with
// going up (reduce) and going down (broadcast). Both ends of an edge
// compute the same rounds, or the exchange deadlocks.
type hop struct {
	lo, hi   int
	up, down int
}

// ranks lists the hop's peers as real ranks, in virtual-rank order.
func (h hop) ranks(root, p int) []int {
	out := make([]int, 0, h.hi-h.lo)
	for v := h.lo; v < h.hi; v++ {
		out = append(out, rankOf(v, root, p))
	}
	return out
}

// shape lays a topology out as a spanning tree over the virtual ranks
// 0..p-1 rooted at 0, from the point of view of virtual rank vr: the hop to
// its parent (meaningless at the root) and the hops to its children, in the
// order a reduce drains them; a broadcast feeds them in reverse.
//
//   - flat: every rank is the root's child, all in one hop under round 0.
//   - tree: binomial. The parent clears vr's lowest set bit; the children
//     are vr + 2^b for every b below that bit, lowest first. The edge over
//     bit b is round b going up and, the broadcast being the reduce run
//     backwards, log2ceil(p)-1-b going down.
//   - ring: the chain. The edge between vr and vr+1 is round vr+1 both ways.
//
// The children are appended to the caller's slice, so a walk over every
// rank can lend one buffer; nil allocates. An unresolved AutoAlgo lays out
// flat, at every rank alike.
func shape(alg Algorithm, vr, p int, children []hop) (hop, []hop) {
	var parent hop
	switch alg {
	case Tree:
		top := log2ceil(p) - 1
		for b := 0; 1<<b < p; b++ {
			mask := 1 << b
			if vr&mask != 0 {
				return hop{vr - mask, vr - mask + 1, b, top - b}, children
			}
			if vr+mask < p {
				children = append(children, hop{vr + mask, vr + mask + 1, b, top - b})
			}
		}
	case Ring:
		parent = hop{vr - 1, vr, vr, vr}
		if vr+1 < p {
			children = append(children, hop{vr + 1, vr + 2, vr + 1, vr + 1})
		}
	default:
		parent = hop{0, 1, 0, 0}
		if vr == 0 && p > 1 {
			children = append(children, hop{1, p, 0, 0})
		}
	}
	return parent, children
}

// reduce folds every rank's contribution toward root along the topology:
// a rank drains its children hop by hop, combining every delivery into its
// accumulator as it arrives, then hands the partial result to its parent.
// It returns the combined set at root and the rank's own partial elsewhere.
func reduce(alg Algorithm, lk Link, op string, root int, mine *wire.RowSet, combine Combiner) (*wire.RowSet, error) {
	p := lk.Size()
	if p <= 1 {
		return mine, nil
	}
	vr := vrank(lk.Rank(), root, p)
	parent, children := shape(alg, vr, p, nil)
	if len(children) > 0 {
		// Declared here so that a leaf neither builds the closure nor moves
		// its accumulator to the heap.
		acc := mine
		fold := func(_ int, rs *wire.RowSet) {
			if combine != nil {
				acc = combine(acc, rs)
			}
		}
		for _, h := range children {
			if err := lk.Gather(op, h.up, h.ranks(root, p), fold); err != nil {
				return nil, err
			}
		}
		mine = acc
	}
	if vr == 0 {
		return mine, nil
	}
	return mine, lk.Send(op, parent.up, rankOf(parent.lo, root, p), orEmpty(mine))
}

// broadcast carries root's row set to every rank along the topology, the
// reduce run backwards: a rank takes the value from its parent, then feeds
// its children, last-drained first. It returns the value at every rank.
func broadcast(alg Algorithm, lk Link, op string, root int, rs *wire.RowSet) (*wire.RowSet, error) {
	p := lk.Size()
	if p <= 1 {
		return rs, nil
	}
	vr := vrank(lk.Rank(), root, p)
	parent, children := shape(alg, vr, p, nil)
	if vr > 0 {
		var err error
		if rs, err = recv(lk, op, parent.down, rankOf(parent.lo, root, p)); err != nil {
			return nil, err
		}
	}
	for i := len(children) - 1; i >= 0; i-- {
		h := children[i]
		var err error
		if h.hi-h.lo == 1 {
			err = lk.Send(op, h.down, rankOf(h.lo, root, p), orEmpty(rs))
		} else {
			sets := make([]*wire.RowSet, h.hi-h.lo)
			for j := range sets {
				sets[j] = orEmpty(rs)
			}
			err = lk.SendAll(op, h.down, h.ranks(root, p), sets)
		}
		if err != nil {
			return nil, err
		}
	}
	return rs, nil
}

// recv gathers the one value src sent under (op, round); nil if it was
// empty. A value that arrives as a single byte string is returned as
// delivered: the decoded set carries its frame, so forwarding it pays no
// compressor. A value that arrives in several is joined into a set of its
// own — a delivered set is never appended to.
func recv(lk Link, op string, round, src int) (*wire.RowSet, error) {
	// One struct, so the closure moves one variable to the heap, not two:
	// the ring's pass-around receives P(P-1) times a run.
	var in struct {
		rs     *wire.RowSet
		pieces int
	}
	err := lk.Gather(op, round, []int{src}, func(_ int, rs *wire.RowSet) {
		switch in.pieces++; in.pieces {
		case 1:
			in.rs = rs
		case 2:
			in.rs = Union(Union(nil, in.rs), rs)
		default:
			in.rs = Union(in.rs, rs)
		}
	})
	return in.rs, err
}

// Barrier returns once every rank has entered it: an empty reduce to rank 0
// and an empty broadcast back.
func Barrier(alg Algorithm, lk Link) error {
	if _, err := reduce(alg, lk, opBarrierUp, 0, nil, nil); err != nil {
		return err
	}
	_, err := broadcast(alg, lk, opBarrierDown, 0, nil)
	return err
}

// Gather unions every rank's rows at root. It returns the union there and
// the rank's own (possibly partially combined) contribution elsewhere; an
// empty result may come back nil.
func Gather(alg Algorithm, lk Link, root int, mine *wire.RowSet) (*wire.RowSet, error) {
	return reduce(alg, lk, opGather, root, mine, Union)
}

// Allreduce combines every rank's contribution and returns the result at
// every rank: a reduce to rank 0 and a broadcast back under flat and tree,
// the pass-around under ring. An empty result may come back nil.
func Allreduce(alg Algorithm, lk Link, mine *wire.RowSet, combine Combiner) (*wire.RowSet, error) {
	if alg == Ring {
		return passAround(lk, mine, combine)
	}
	acc, err := reduce(alg, lk, opAllreduceUp, 0, mine, combine)
	if err != nil {
		return nil, err
	}
	return broadcast(alg, lk, opAllreduceBc, 0, acc)
}

// passAround is the classic ring allreduce, the one algorithm that is not
// a reduce and a broadcast: in round s every rank sends its successor the
// contribution it received last round (its own in round 0) and folds what
// arrives from its predecessor. After P-1 rounds every rank has folded
// every contribution, and no rank ever sent more than one contribution per
// round — the bandwidth-optimal regime.
func passAround(lk Link, mine *wire.RowSet, combine Combiner) (*wire.RowSet, error) {
	p, r := lk.Size(), lk.Rank()
	if p <= 1 {
		return mine, nil
	}
	next, prev := (r+1)%p, (r-1+p)%p
	acc, hold := mine, mine
	for s := 0; s < p-1; s++ {
		if err := lk.Send(opAllreduceUp, s, next, orEmpty(hold)); err != nil {
			return nil, err
		}
		got, err := recv(lk, opAllreduceUp, s, prev)
		if err != nil {
			return nil, err
		}
		if combine != nil && got != nil {
			acc = combine(acc, got)
		}
		hold = got
	}
	return acc, nil
}
