// Package collective implements the communication collectives FSD workers
// run over their serverless channels — Barrier, Broadcast, Reduce,
// Allreduce, Scatter and Gather — in three topologies:
//
//   - flat: every rank exchanges directly with the root, the paper's
//     original pattern (§III-C3). O(P) messages funnel through the root's
//     inbox, which is the raw-speed ceiling at high worker counts.
//   - tree: binomial trees, ceil(log2 P) rounds. The latency winner for
//     small payloads, since no single inbox drains more than log P values.
//   - ring: chains and the classic pass-around allreduce, P-1 concurrent
//     rounds of neighbour exchanges. The bandwidth winner: no rank ever
//     sends more than its own contribution per round.
//
// Algorithms address peers through a Link — the tagged point-to-point
// transport a channel lends them — so every channel (queue, object,
// memory, hybrid) runs every topology unchanged. An analytic cost model
// (cost.go) predicts latency, message count and bytes per (operation,
// topology, P, payload, channel traits) so AutoAlgo can pick the topology
// per call the way cost.Recommend picks channels.
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
	// via Pick; it must be resolved before For.
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
// collective algorithms. Send ships one row set to a peer under an
// (op, round) tag; Gather blocks until every listed source has delivered
// one row set under the tag, invoking deliver per arrival. A transport
// may skip deliver for empty row sets — completion is tracked
// independently of delivery, so algorithms treat a missing delivery as an
// empty contribution.
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

// Collective is one topology's implementation of the collective
// operations. Reduce and Gather return the combined set at root and the
// rank's own (possibly partially combined) contribution elsewhere;
// Broadcast and Allreduce return the result at every rank. Empty payloads
// may come back nil.
type Collective interface {
	Algorithm() Algorithm
	Barrier(lk Link) error
	Broadcast(lk Link, root int, rs *wire.RowSet) (*wire.RowSet, error)
	Reduce(lk Link, root int, mine *wire.RowSet, combine Combiner) (*wire.RowSet, error)
	Allreduce(lk Link, mine *wire.RowSet, combine Combiner) (*wire.RowSet, error)
	Scatter(lk Link, root int, parts []*wire.RowSet) (*wire.RowSet, error)
	Gather(lk Link, root int, mine *wire.RowSet) (*wire.RowSet, error)
}

// For returns the implementation of a concrete algorithm. AutoAlgo must
// be resolved (Pick) first; unresolved it falls back to Flat.
func For(alg Algorithm) Collective {
	switch alg {
	case Tree:
		return tree{}
	case Ring:
		return ring{}
	default:
		return flat{}
	}
}

// Operation tags. Each public operation owns distinct tags so composites
// (allreduce = reduce + broadcast) and back-to-back operations in one run
// phase never collide on the transport's (op, round) keying.
const (
	opBarrierUp   = "bar"
	opBarrierDown = "bgo"
	opBroadcast   = "bc"
	opReduce      = "rd"
	opAllreduceUp = "ar"
	opAllreduceBc = "ab"
	opScatter     = "sc"
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

// recvOne gathers exactly one tagged row set from src (nil if the payload
// was empty).
func recvOne(lk Link, op string, round, src int) (*wire.RowSet, error) {
	var got *wire.RowSet
	err := lk.Gather(op, round, []int{src}, func(_ int, rs *wire.RowSet) { got = rs })
	return got, err
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

// ---------------------------------------------------------------- flat --

// flat is the paper's original pattern: every rank exchanges directly
// with the root.
type flat struct{}

func (flat) Algorithm() Algorithm { return Flat }

func (f flat) reduce(lk Link, op string, root int, mine *wire.RowSet, combine Combiner) (*wire.RowSet, error) {
	p, r := lk.Size(), lk.Rank()
	if p <= 1 {
		return mine, nil
	}
	if r != root {
		return mine, lk.Send(op, 0, root, orEmpty(mine))
	}
	acc := mine
	srcs := make([]int, 0, p-1)
	for m := 0; m < p; m++ {
		if m != root {
			srcs = append(srcs, m)
		}
	}
	err := lk.Gather(op, 0, srcs, func(_ int, rs *wire.RowSet) {
		if combine != nil {
			acc = combine(acc, rs)
		}
	})
	return acc, err
}

func (f flat) broadcast(lk Link, op string, root int, rs *wire.RowSet) (*wire.RowSet, error) {
	p, r := lk.Size(), lk.Rank()
	if p <= 1 {
		return rs, nil
	}
	if r == root {
		targets := make([]int, 0, p-1)
		sets := make([]*wire.RowSet, 0, p-1)
		for t := 0; t < p; t++ {
			if t == root {
				continue
			}
			targets = append(targets, t)
			sets = append(sets, orEmpty(rs))
		}
		if err := lk.SendAll(op, 0, targets, sets); err != nil {
			return nil, err
		}
		return rs, nil
	}
	return recvOne(lk, op, 0, root)
}

func (f flat) Barrier(lk Link) error {
	if _, err := f.reduce(lk, opBarrierUp, 0, nil, nil); err != nil {
		return err
	}
	_, err := f.broadcast(lk, opBarrierDown, 0, nil)
	return err
}

func (f flat) Broadcast(lk Link, root int, rs *wire.RowSet) (*wire.RowSet, error) {
	return f.broadcast(lk, opBroadcast, root, rs)
}

func (f flat) Reduce(lk Link, root int, mine *wire.RowSet, combine Combiner) (*wire.RowSet, error) {
	return f.reduce(lk, opReduce, root, mine, combine)
}

func (f flat) Allreduce(lk Link, mine *wire.RowSet, combine Combiner) (*wire.RowSet, error) {
	acc, err := f.reduce(lk, opAllreduceUp, 0, mine, combine)
	if err != nil {
		return nil, err
	}
	return f.broadcast(lk, opAllreduceBc, 0, acc)
}

func (f flat) Scatter(lk Link, root int, parts []*wire.RowSet) (*wire.RowSet, error) {
	p, r := lk.Size(), lk.Rank()
	if p <= 1 {
		if len(parts) > r {
			return parts[r], nil
		}
		return nil, nil
	}
	if r == root {
		if len(parts) < p {
			return nil, fmt.Errorf("collective: scatter root holds %d parts, need %d", len(parts), p)
		}
		targets := make([]int, 0, p-1)
		sets := make([]*wire.RowSet, 0, p-1)
		for t := 0; t < p; t++ {
			if t == root {
				continue
			}
			targets = append(targets, t)
			sets = append(sets, orEmpty(parts[t]))
		}
		if err := lk.SendAll(opScatter, 0, targets, sets); err != nil {
			return nil, err
		}
		return parts[root], nil
	}
	return recvOne(lk, opScatter, 0, root)
}

func (f flat) Gather(lk Link, root int, mine *wire.RowSet) (*wire.RowSet, error) {
	return f.reduce(lk, opGather, root, mine, Union)
}

// ---------------------------------------------------------------- tree --

// tree uses binomial trees rooted (in virtual rank space) at the
// operation's root: ceil(log2 P) rounds, no inbox ever drains more than
// log P values.
type tree struct{}

func (tree) Algorithm() Algorithm { return Tree }

func (t tree) reduce(lk Link, op string, root int, mine *wire.RowSet, combine Combiner) (*wire.RowSet, error) {
	p, r := lk.Size(), lk.Rank()
	if p <= 1 {
		return mine, nil
	}
	vr := vrank(r, root, p)
	acc := mine
	round := 0
	for mask := 1; mask < p; mask <<= 1 {
		if vr&mask != 0 {
			// Partial subtree combined; hand it to the parent and stop.
			return acc, lk.Send(op, round, rankOf(vr-mask, root, p), orEmpty(acc))
		}
		if vr+mask < p {
			got, err := recvOne(lk, op, round, rankOf(vr+mask, root, p))
			if err != nil {
				return nil, err
			}
			if combine != nil && got != nil {
				acc = combine(acc, got)
			}
		}
		round++
	}
	return acc, nil
}

func (t tree) broadcast(lk Link, op string, root int, rs *wire.RowSet) (*wire.RowSet, error) {
	p, r := lk.Size(), lk.Rank()
	if p <= 1 {
		return rs, nil
	}
	vr := vrank(r, root, p)
	cur := rs
	have := vr == 0
	round := 0
	for mask := 1 << (log2ceil(p) - 1); mask > 0; mask >>= 1 {
		switch {
		case !have && vr&mask != 0 && vr&(mask-1) == 0:
			// mask is my lowest set bit: my parent sends me the payload
			// in this round.
			got, err := recvOne(lk, op, round, rankOf(vr-mask, root, p))
			if err != nil {
				return nil, err
			}
			cur, have = got, true
		case have && vr&(2*mask-1) == 0 && vr+mask < p:
			if err := lk.Send(op, round, rankOf(vr+mask, root, p), orEmpty(cur)); err != nil {
				return nil, err
			}
		}
		round++
	}
	return cur, nil
}

func (t tree) Barrier(lk Link) error {
	if _, err := t.reduce(lk, opBarrierUp, 0, nil, nil); err != nil {
		return err
	}
	_, err := t.broadcast(lk, opBarrierDown, 0, nil)
	return err
}

func (t tree) Broadcast(lk Link, root int, rs *wire.RowSet) (*wire.RowSet, error) {
	return t.broadcast(lk, opBroadcast, root, rs)
}

func (t tree) Reduce(lk Link, root int, mine *wire.RowSet, combine Combiner) (*wire.RowSet, error) {
	return t.reduce(lk, opReduce, root, mine, combine)
}

func (t tree) Allreduce(lk Link, mine *wire.RowSet, combine Combiner) (*wire.RowSet, error) {
	acc, err := t.reduce(lk, opAllreduceUp, 0, mine, combine)
	if err != nil {
		return nil, err
	}
	return t.broadcast(lk, opAllreduceBc, 0, acc)
}

// Scatter routes each destination's part down the binomial tree,
// store-and-forward: every internal node first receives its subtree's
// bundle, then peels off each child subtree. Messages are tagged by
// destination virtual rank, so forwarded parts never collide.
func (t tree) Scatter(lk Link, root int, parts []*wire.RowSet) (*wire.RowSet, error) {
	p, r := lk.Size(), lk.Rank()
	if p <= 1 {
		if len(parts) > r {
			return parts[r], nil
		}
		return nil, nil
	}
	vr := vrank(r, root, p)
	have := make(map[int]*wire.RowSet, p)
	if vr == 0 {
		if len(parts) < p {
			return nil, fmt.Errorf("collective: scatter root holds %d parts, need %d", len(parts), p)
		}
		for d := 0; d < p; d++ {
			have[d] = parts[rankOf(d, root, p)]
		}
	}
	for mask := 1 << (log2ceil(p) - 1); mask > 0; mask >>= 1 {
		switch {
		case vr&mask != 0 && vr&(mask-1) == 0:
			parent := rankOf(vr-mask, root, p)
			for d := vr; d < vr+mask && d < p; d++ {
				got, err := recvOne(lk, opScatter, d, parent)
				if err != nil {
					return nil, err
				}
				have[d] = got
			}
		case vr&(2*mask-1) == 0:
			child := rankOf(vr+mask, root, p)
			for d := vr + mask; d < vr+2*mask && d < p; d++ {
				if err := lk.Send(opScatter, d, child, orEmpty(have[d])); err != nil {
					return nil, err
				}
			}
		}
	}
	return have[vr], nil
}

func (t tree) Gather(lk Link, root int, mine *wire.RowSet) (*wire.RowSet, error) {
	return t.reduce(lk, opGather, root, mine, Union)
}

// ---------------------------------------------------------------- ring --

// ring uses chains (reduce, broadcast, scatter, gather) and the classic
// pass-around allreduce: P-1 rounds in which every rank forwards to its
// successor the contribution it received last round, so no rank ever
// sends more than one contribution per round — the bandwidth-optimal
// regime.
type ring struct{}

func (ring) Algorithm() Algorithm { return Ring }

// chainReduce folds contributions down the chain vr=P-1 -> ... -> vr=0
// (the root). Hop into vr-1 is tagged with vr, the hop index.
func (g ring) chainReduce(lk Link, op string, root int, mine *wire.RowSet, combine Combiner) (*wire.RowSet, error) {
	p, r := lk.Size(), lk.Rank()
	if p <= 1 {
		return mine, nil
	}
	vr := vrank(r, root, p)
	acc := mine
	if vr < p-1 {
		got, err := recvOne(lk, op, vr+1, rankOf(vr+1, root, p))
		if err != nil {
			return nil, err
		}
		if combine != nil && got != nil {
			acc = combine(acc, got)
		}
	}
	if vr > 0 {
		return acc, lk.Send(op, vr, rankOf(vr-1, root, p), orEmpty(acc))
	}
	return acc, nil
}

// chainBroadcast forwards the payload up the chain vr=0 -> ... -> vr=P-1.
func (g ring) chainBroadcast(lk Link, op string, root int, rs *wire.RowSet) (*wire.RowSet, error) {
	p, r := lk.Size(), lk.Rank()
	if p <= 1 {
		return rs, nil
	}
	vr := vrank(r, root, p)
	cur := rs
	if vr > 0 {
		got, err := recvOne(lk, op, vr, rankOf(vr-1, root, p))
		if err != nil {
			return nil, err
		}
		cur = got
	}
	if vr < p-1 {
		if err := lk.Send(op, vr+1, rankOf(vr+1, root, p), orEmpty(cur)); err != nil {
			return nil, err
		}
	}
	return cur, nil
}

func (g ring) Barrier(lk Link) error {
	if _, err := g.chainReduce(lk, opBarrierUp, 0, nil, nil); err != nil {
		return err
	}
	_, err := g.chainBroadcast(lk, opBarrierDown, 0, nil)
	return err
}

func (g ring) Broadcast(lk Link, root int, rs *wire.RowSet) (*wire.RowSet, error) {
	return g.chainBroadcast(lk, opBroadcast, root, rs)
}

func (g ring) Reduce(lk Link, root int, mine *wire.RowSet, combine Combiner) (*wire.RowSet, error) {
	return g.chainReduce(lk, opReduce, root, mine, combine)
}

// Allreduce is the pass-around ring: in round s every rank sends its
// predecessor-received contribution (its own in round 0) to its successor
// and folds what arrives. After P-1 rounds every rank has folded every
// contribution.
func (g ring) Allreduce(lk Link, mine *wire.RowSet, combine Combiner) (*wire.RowSet, error) {
	p, r := lk.Size(), lk.Rank()
	if p <= 1 {
		return mine, nil
	}
	next, prev := (r+1)%p, (r-1+p)%p
	acc := mine
	hold := mine
	for s := 0; s < p-1; s++ {
		if err := lk.Send(opAllreduceUp, s, next, orEmpty(hold)); err != nil {
			return nil, err
		}
		got, err := recvOne(lk, opAllreduceUp, s, prev)
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

// Scatter relays parts along the chain, store-and-forward: node vr
// receives the bundles destined for [vr, P-1] and forwards all but its
// own. Messages are tagged by destination virtual rank.
func (g ring) Scatter(lk Link, root int, parts []*wire.RowSet) (*wire.RowSet, error) {
	p, r := lk.Size(), lk.Rank()
	if p <= 1 {
		if len(parts) > r {
			return parts[r], nil
		}
		return nil, nil
	}
	vr := vrank(r, root, p)
	if vr == 0 {
		if len(parts) < p {
			return nil, fmt.Errorf("collective: scatter root holds %d parts, need %d", len(parts), p)
		}
		next := rankOf(1, root, p)
		for d := 1; d < p; d++ {
			if err := lk.Send(opScatter, d, next, orEmpty(parts[rankOf(d, root, p)])); err != nil {
				return nil, err
			}
		}
		return parts[root], nil
	}
	var own *wire.RowSet
	prev, next := rankOf(vr-1, root, p), rankOf(vr+1, root, p)
	for d := vr; d < p; d++ {
		got, err := recvOne(lk, opScatter, d, prev)
		if err != nil {
			return nil, err
		}
		if d == vr {
			own = got
			continue
		}
		if err := lk.Send(opScatter, d, next, orEmpty(got)); err != nil {
			return nil, err
		}
	}
	return own, nil
}

func (g ring) Gather(lk Link, root int, mine *wire.RowSet) (*wire.RowSet, error) {
	return g.chainReduce(lk, opGather, root, mine, Union)
}
