package collective

import (
	"fmt"
	"sort"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"fsdinference/internal/wire"
)

// topologies are the concrete algorithms AutoAlgo resolves to.
var topologies = []Algorithm{Flat, Tree, Ring}

// memBus is an in-process Link transport: tagged mailboxes with blocking
// take, mirroring the channels' semantics (deliver skipped for empty row
// sets, completion tracked regardless).
type memBus struct {
	mu   sync.Mutex
	cond *sync.Cond
	q    map[string][]*wire.RowSet
}

func newMemBus() *memBus {
	b := &memBus{q: make(map[string][]*wire.RowSet)}
	b.cond = sync.NewCond(&b.mu)
	return b
}

func busKey(op string, round, src, target int) string {
	return fmt.Sprintf("%s:%d:%d:%d", op, round, src, target)
}

func (b *memBus) put(op string, round, src, target int, rs *wire.RowSet) {
	b.mu.Lock()
	defer b.mu.Unlock()
	k := busKey(op, round, src, target)
	b.q[k] = append(b.q[k], rs)
	b.cond.Broadcast()
}

func (b *memBus) take(op string, round, src, target int) *wire.RowSet {
	b.mu.Lock()
	defer b.mu.Unlock()
	k := busKey(op, round, src, target)
	for len(b.q[k]) == 0 {
		b.cond.Wait()
	}
	rs := b.q[k][0]
	b.q[k] = b.q[k][1:]
	return rs
}

// memLink is one rank's end of a memBus. With split set, Gather delivers
// every value of two or more rows in two pieces, the way a channel delivers
// a value it had to ship as several byte strings.
type memLink struct {
	bus   *memBus
	rank  int
	size  int
	split bool
}

func (l memLink) Rank() int { return l.rank }
func (l memLink) Size() int { return l.size }

func (l memLink) Send(op string, round, target int, rs *wire.RowSet) error {
	// Copy, as a real transport serializes: the sender may keep mutating
	// its accumulator. A nil rs ships as an empty set.
	cp := wire.NewRowSet(0)
	if rs != nil {
		cp = wire.NewRowSet(rs.Batch)
		cp.Append(rs)
	}
	l.bus.put(op, round, l.rank, target, cp)
	return nil
}

func (l memLink) SendAll(op string, round int, targets []int, rs *wire.RowSet) error {
	for _, t := range targets {
		if err := l.Send(op, round, t, rs); err != nil {
			return err
		}
	}
	return nil
}

func (l memLink) Gather(op string, round int, sources []int, deliver func(src int, rs *wire.RowSet)) error {
	for _, s := range sources {
		rs := l.bus.take(op, round, s, l.rank)
		if deliver == nil || rs == nil || rs.Len() == 0 {
			continue
		}
		if n := rs.Len(); l.split && n > 1 {
			deliver(s, rs.Slice(0, n/2))
			rs = rs.Slice(n/2, n)
		}
		deliver(s, rs)
	}
	return nil
}

// runRanks executes body concurrently on every rank and returns the
// per-rank results; split selects memLink's two-piece delivery.
func runRanks(t *testing.T, p int, split bool, body func(lk Link) (*wire.RowSet, error)) []*wire.RowSet {
	t.Helper()
	bus := newMemBus()
	results := make([]*wire.RowSet, p)
	errs := make([]error, p)
	var wg sync.WaitGroup
	for r := 0; r < p; r++ {
		r := r
		wg.Add(1)
		go func() {
			defer wg.Done()
			results[r], errs[r] = body(memLink{bus: bus, rank: r, size: p, split: split})
		}()
	}
	wg.Wait()
	for r, err := range errs {
		if err != nil {
			t.Fatalf("rank %d: %v", r, err)
		}
	}
	return results
}

// contribution builds rank r's disjoint row set: row ids 2r and 2r+1, each
// holding its id plus one — two rows, so that even a single contribution can
// arrive in two pieces.
func contribution(r, batch int) *wire.RowSet {
	rs := wire.NewRowSet(batch)
	for id := 2 * r; id < 2*r+2; id++ {
		vals := make([]float32, batch)
		for i := range vals {
			vals[i] = float32(id + 1)
		}
		rs.Add(int32(id), vals)
	}
	return rs
}

// ids returns the sorted row ids of a set (nil-safe).
func ids(rs *wire.RowSet) []int {
	if rs == nil {
		return nil
	}
	out := make([]int, 0, rs.Len())
	for _, id := range rs.IDs {
		out = append(out, int(id))
	}
	sort.Ints(out)
	return out
}

// wantAll lists the row ids of p ranks' contributions.
func wantAll(p int) []int {
	out := make([]int, 2*p)
	for i := range out {
		out[i] = i
	}
	return out
}

func eqInts(a, b []int) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

// bothDeliveries runs body as two subtests: values delivered whole, and
// values delivered in two pieces.
func bothDeliveries(t *testing.T, body func(t *testing.T, split bool)) {
	for _, split := range []bool{false, true} {
		split := split
		t.Run(fmt.Sprintf("split=%v", split), func(t *testing.T) { body(t, split) })
	}
}

func TestAllreduceAllAlgorithmsAllRanks(t *testing.T) {
	for _, alg := range topologies {
		for _, p := range []int{1, 2, 3, 8, 33} {
			t.Run(fmt.Sprintf("%v/p=%d", alg, p), func(t *testing.T) {
				bothDeliveries(t, func(t *testing.T, split bool) {
					results := runRanks(t, p, split, func(lk Link) (*wire.RowSet, error) {
						return Allreduce(alg, lk, contribution(lk.Rank(), 2), Union)
					})
					for r, rs := range results {
						if got := ids(rs); !eqInts(got, wantAll(p)) {
							t.Fatalf("rank %d got rows %v, want %v", r, got, wantAll(p))
						}
						// Row values must survive the trip intact.
						for i := 0; i < rs.Len(); i++ {
							if want := float32(rs.IDs[i] + 1); rs.Row(i)[0] != want {
								t.Fatalf("rank %d row %d value %v, want %v", r, rs.IDs[i], rs.Row(i)[0], want)
							}
						}
					}
				})
			})
		}
	}
}

func TestReduceAndGatherAtRoot(t *testing.T) {
	for _, alg := range topologies {
		for _, root := range []int{0, 2} {
			t.Run(fmt.Sprintf("%v/root=%d", alg, root), func(t *testing.T) {
				bothDeliveries(t, func(t *testing.T, split bool) {
					p := 5
					results := runRanks(t, p, split, func(lk Link) (*wire.RowSet, error) {
						return Gather(alg, lk, root, contribution(lk.Rank(), 1), Union)
					})
					if got := ids(results[root]); !eqInts(got, wantAll(p)) {
						t.Fatalf("root got rows %v, want %v", got, wantAll(p))
					}
				})
			})
		}
	}
}

// TestBroadcast drives the broadcast phase directly, from a root other than
// the rank 0 the three operations use it at.
func TestBroadcast(t *testing.T) {
	for _, alg := range topologies {
		t.Run(alg.String(), func(t *testing.T) {
			bothDeliveries(t, func(t *testing.T, split bool) {
				p, root := 6, 1
				payload := contribution(41, 1)
				results := runRanks(t, p, split, func(lk Link) (*wire.RowSet, error) {
					var rs *wire.RowSet
					if lk.Rank() == root {
						rs = payload
					}
					return broadcast(alg, lk, "bc", root, rs)
				})
				for r, rs := range results {
					if got := ids(rs); !eqInts(got, ids(payload)) {
						t.Fatalf("rank %d got rows %v, want %v", r, got, ids(payload))
					}
				}
			})
		})
	}
}

// pieces is a Link whose Gather delivers a scripted list of row sets.
type pieces []*wire.RowSet

func (pieces) Rank() int                                      { return 0 }
func (pieces) Size() int                                      { return 2 }
func (pieces) Send(string, int, int, *wire.RowSet) error      { return nil }
func (pieces) SendAll(string, int, []int, *wire.RowSet) error { return nil }
func (ps pieces) Gather(_ string, _ int, sources []int, deliver func(int, *wire.RowSet)) error {
	for _, rs := range ps {
		deliver(sources[0], rs)
	}
	return nil
}

// TestRecvKeepsTheFrame: a value delivered in one piece comes back as the
// delivered set itself, so a forward reuses its frame; a value delivered in
// several comes back whole in a set of its own, the delivered ones untouched.
// One receiver takes all three, as it takes every hop of a pass-around, so
// each receive starts from nothing the one before it left.
func TestRecvKeepsTheFrame(t *testing.T) {
	in := newReceiver()
	one := contribution(3, 2)
	if got, err := in.recv(pieces{one}, "x", 0, 1); err != nil || got != one {
		t.Fatalf("recv of one piece = (%p, %v), want the delivered set %p", got, err, one)
	}
	if got, err := in.recv(pieces{}, "x", 0, 1); err != nil || got != nil {
		t.Fatalf("recv of an empty value = (%v, %v), want nil", ids(got), err)
	}
	a, b, c := contribution(0, 2), contribution(1, 2), contribution(2, 2)
	got, err := in.recv(pieces{a, b, c}, "x", 0, 1)
	if err != nil || !eqInts(ids(got), wantAll(3)) {
		t.Fatalf("recv of three pieces = (%v, %v), want rows %v", ids(got), err, wantAll(3))
	}
	if got == a || a.Len() != 2 || b.Len() != 2 || c.Len() != 2 {
		t.Fatalf("recv joined into a delivered set: pieces now hold %d, %d, %d rows", a.Len(), b.Len(), c.Len())
	}
	if got, err := in.recv(pieces{one}, "x", 0, 1); err != nil || got != one {
		t.Fatalf("recv of one piece after three = (%v, %v), want the delivered set", ids(got), err)
	}
}

func TestBarrierCompletes(t *testing.T) {
	for _, alg := range topologies {
		t.Run(alg.String(), func(t *testing.T) {
			runRanks(t, 9, false, func(lk Link) (*wire.RowSet, error) {
				return nil, Barrier(alg, lk)
			})
		})
	}
}

// emptyCounter is a memLink that counts the empty sets it is handed that
// are not nil: a phase that allocated one per hop.
type emptyCounter struct {
	memLink
	made *atomic.Int64
}

func (l emptyCounter) Send(op string, round, target int, rs *wire.RowSet) error {
	if rs != nil && rs.Len() == 0 {
		l.made.Add(1)
	}
	return l.memLink.Send(op, round, target, rs)
}

func (l emptyCounter) SendAll(op string, round int, targets []int, rs *wire.RowSet) error {
	for _, t := range targets {
		if err := l.Send(op, round, t, rs); err != nil {
			return err
		}
	}
	return nil
}

// TestEmptyHopsShipNil: a barrier's hops, and a pass-around's first round
// from ranks with nothing to contribute, hand the link nil rather than an
// empty set of their own, so no hop allocates one; the transport frames the
// empty contribution.
func TestEmptyHopsShipNil(t *testing.T) {
	for _, alg := range topologies {
		var made atomic.Int64
		runRanks(t, 9, false, func(lk Link) (*wire.RowSet, error) {
			lk = emptyCounter{lk.(memLink), &made}
			if err := Barrier(alg, lk); err != nil {
				return nil, err
			}
			return Allreduce(alg, lk, nil, Union)
		})
		if n := made.Load(); n != 0 {
			t.Errorf("%v: the phases handed the link %d empty sets of their own", alg, n)
		}
	}
}

// TestShapeIsASpanningTree checks the layout every phase runs over without
// starting a goroutine: a hop whose two ends disagree on a round is a
// deadlock, a rank nobody lists is a lost contribution.
func TestShapeIsASpanningTree(t *testing.T) {
	for _, alg := range append(topologies, AutoAlgo) {
		for p := 2; p <= 40; p++ {
			parentOf := make([]int, p)
			edges := 0
			for vr := 0; vr < p; vr++ {
				parent, children := shape(alg, vr, p, nil)
				parentOf[vr] = parent.lo
				if vr > 0 && (parent.hi-parent.lo != 1 || parent.lo < 0 || parent.lo >= p) {
					t.Fatalf("%v p=%d vr=%d: parent hop %+v is not one rank", alg, p, vr, parent)
				}
				for _, h := range children {
					if h.lo >= h.hi || h.lo <= 0 || h.hi > p {
						t.Fatalf("%v p=%d vr=%d: child hop %+v out of range", alg, p, vr, h)
					}
					for c := h.lo; c < h.hi; c++ {
						edges++
						// Mutual, with equal rounds at both ends.
						if back, _ := shape(alg, c, p, nil); back != (hop{vr, vr + 1, h.up, h.down}) {
							t.Fatalf("%v p=%d: %d lists child %d under %+v, which sees its parent as %+v", alg, p, vr, c, h, back)
						}
					}
				}
			}
			if edges != p-1 {
				t.Fatalf("%v p=%d: %d edges, want %d", alg, p, edges, p-1)
			}
			depth := 0
			for vr := 1; vr < p; vr++ {
				d := 0
				for at := vr; at != 0; at = parentOf[at] {
					if d++; d > p {
						t.Fatalf("%v p=%d: rank %d never reaches the root", alg, p, vr)
					}
				}
				if d > depth {
					depth = d
				}
			}
			want := map[Algorithm]int{Flat: 1, AutoAlgo: 1, Tree: log2ceil(p), Ring: p - 1}[alg]
			if depth > want || (alg != Tree && depth != want) {
				t.Fatalf("%v p=%d: depth %d, want %d", alg, p, depth, want)
			}
		}
	}
}

func TestEstimateRegimes(t *testing.T) {
	// Memory-store-like traits: fast small ops.
	tr := Traits{PerMsg: 600 * time.Microsecond, BytesPerSec: 1.25e9, Fan: 4}

	// Small-message allreduce at P=32: tree must beat flat, and the ring
	// must beat flat too (concurrent rounds vs the root's serial drain).
	p, m := 32, int64(1024)
	flatL := EstimateOp(OpAllreduce, Flat, p, m, tr).Latency
	treeL := EstimateOp(OpAllreduce, Tree, p, m, tr).Latency
	ringL := EstimateOp(OpAllreduce, Ring, p, m, tr).Latency
	if treeL >= flatL {
		t.Fatalf("tree allreduce %v not faster than flat %v at P=%d", treeL, flatL, p)
	}
	if ringL >= flatL {
		t.Fatalf("ring allreduce %v not faster than flat %v at P=%d", ringL, flatL, p)
	}
	if Pick(OpAllreduce, p, m, tr) == Flat {
		t.Fatalf("Pick kept flat for a P=32 allreduce")
	}

	// Large messages: the ring's per-round payload stays m while flat and
	// tree ship the P*m result, so ring wins the bandwidth regime.
	big := int64(16 << 20)
	if got := Pick(OpAllreduce, p, big, tr); got != Ring {
		t.Fatalf("Pick(%d MB allreduce) = %v, want ring", big>>20, got)
	}

	// Tiny deployments keep the paper's flat pattern.
	if got := Pick(OpAllreduce, 2, m, tr); got != Flat {
		t.Fatalf("Pick(P=2) = %v, want flat", got)
	}
	if got := Pick(OpBarrier, 2, 0, tr); got != Flat {
		t.Fatalf("Pick(P=2 barrier) = %v, want flat", got)
	}
}

// TestEstimateMessages: one message per edge per pass — P-1 for a gather,
// 2(P-1) for a barrier and for a flat or tree allreduce — and P(P-1) for
// the ring's pass-around.
func TestEstimateMessages(t *testing.T) {
	tr := Traits{PerMsg: 600 * time.Microsecond, BytesPerSec: 1.25e9, Fan: 4}
	for p := 2; p <= 64; p++ {
		for _, alg := range topologies {
			for _, op := range []Op{OpBarrier, OpAllreduce, OpGather} {
				want := 2 * (p - 1)
				switch {
				case op == OpGather:
					want = p - 1
				case op == OpAllreduce && alg == Ring:
					want = p * (p - 1)
				}
				if got := EstimateOp(op, alg, p, 1024, tr).Messages; got != int64(want) {
					t.Fatalf("%v %v at P=%d: %d messages, want %d", alg, op, p, got, want)
				}
			}
		}
	}
}

// TestPickAllocs: the estimate walks shape into a buffer on the stack, so a
// pick costs the walks' one P-sized slice each, not a slice per rank.
func TestPickAllocs(t *testing.T) {
	tr := Traits{PerMsg: 600 * time.Microsecond, BytesPerSec: 1.25e9, Fan: 4}
	if n := testing.AllocsPerRun(100, func() { Pick(OpAllreduce, 32, 1024, tr) }); n > 3 {
		t.Fatalf("Pick(allreduce, P=32) allocates %v times, want at most 3", n)
	}
}

// TestUnionOfNothing: an empty or missing contribution leaves the
// accumulator as it is, nil included, rather than allocating one.
func TestUnionOfNothing(t *testing.T) {
	dst := wire.NewRowSet(2)
	dst.Add(1, []float32{1, 2})
	for _, src := range []*wire.RowSet{nil, wire.NewRowSet(2)} {
		if got := Union(dst, src); got != dst || got.Len() != 1 {
			t.Errorf("Union(dst, %v) = %v, want dst unchanged", src, got)
		}
		if got := Union(nil, src); got != nil {
			t.Errorf("Union(nil, %v) = %v, want nil", src, got)
		}
	}
}
