package collective

import (
	"fmt"
	"sort"
	"sync"
	"testing"
	"time"

	"fsdinference/internal/wire"
)

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

type memLink struct {
	bus  *memBus
	rank int
	size int
}

func (l memLink) Rank() int { return l.rank }
func (l memLink) Size() int { return l.size }

func (l memLink) Send(op string, round, target int, rs *wire.RowSet) error {
	// Copy, as a real transport serializes: the sender may keep mutating
	// its accumulator.
	cp := wire.NewRowSet(rs.Batch)
	cp.Append(rs)
	l.bus.put(op, round, l.rank, target, cp)
	return nil
}

func (l memLink) SendAll(op string, round int, targets []int, sets []*wire.RowSet) error {
	for i, t := range targets {
		if err := l.Send(op, round, t, sets[i]); err != nil {
			return err
		}
	}
	return nil
}

func (l memLink) Gather(op string, round int, sources []int, deliver func(src int, rs *wire.RowSet)) error {
	for _, s := range sources {
		rs := l.bus.take(op, round, s, l.rank)
		if deliver != nil && rs != nil && rs.Len() > 0 {
			deliver(s, rs)
		}
	}
	return nil
}

// runRanks executes body concurrently on every rank and returns the
// per-rank results.
func runRanks(t *testing.T, p int, body func(lk Link) (*wire.RowSet, error)) []*wire.RowSet {
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
			results[r], errs[r] = body(memLink{bus: bus, rank: r, size: p})
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

// contribution builds rank r's disjoint row set: row id r with value r+1.
func contribution(r, batch int) *wire.RowSet {
	rs := wire.NewRowSet(batch)
	vals := make([]float32, batch)
	for i := range vals {
		vals[i] = float32(r + 1)
	}
	rs.Add(int32(r), vals)
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

func wantAll(p int) []int {
	out := make([]int, p)
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

func TestAllreduceAllAlgorithmsAllRanks(t *testing.T) {
	for _, alg := range Algorithms() {
		for _, p := range []int{1, 2, 3, 8, 33} {
			t.Run(fmt.Sprintf("%v/p=%d", alg, p), func(t *testing.T) {
				c := For(alg)
				results := runRanks(t, p, func(lk Link) (*wire.RowSet, error) {
					return c.Allreduce(lk, contribution(lk.Rank(), 2), Union)
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
		}
	}
}

func TestReduceAndGatherAtRoot(t *testing.T) {
	for _, alg := range Algorithms() {
		for _, root := range []int{0, 2} {
			t.Run(fmt.Sprintf("%v/root=%d", alg, root), func(t *testing.T) {
				c := For(alg)
				p := 5
				results := runRanks(t, p, func(lk Link) (*wire.RowSet, error) {
					return c.Gather(lk, root, contribution(lk.Rank(), 1))
				})
				if got := ids(results[root]); !eqInts(got, wantAll(p)) {
					t.Fatalf("root got rows %v, want %v", got, wantAll(p))
				}
			})
		}
	}
}

func TestBroadcast(t *testing.T) {
	for _, alg := range Algorithms() {
		t.Run(alg.String(), func(t *testing.T) {
			c := For(alg)
			p, root := 6, 1
			payload := contribution(41, 1)
			results := runRanks(t, p, func(lk Link) (*wire.RowSet, error) {
				var rs *wire.RowSet
				if lk.Rank() == root {
					rs = payload
				}
				return c.Broadcast(lk, root, rs)
			})
			for r, rs := range results {
				if rs == nil || rs.Len() != 1 || rs.IDs[0] != 41 {
					t.Fatalf("rank %d got %v, want row 41", r, ids(rs))
				}
			}
		})
	}
}

func TestScatter(t *testing.T) {
	for _, alg := range Algorithms() {
		for _, p := range []int{2, 5, 8} {
			t.Run(fmt.Sprintf("%v/p=%d", alg, p), func(t *testing.T) {
				c := For(alg)
				root := 1 % p
				parts := make([]*wire.RowSet, p)
				for i := range parts {
					parts[i] = contribution(100+i, 1)
				}
				results := runRanks(t, p, func(lk Link) (*wire.RowSet, error) {
					var in []*wire.RowSet
					if lk.Rank() == root {
						in = parts
					}
					return c.Scatter(lk, root, in)
				})
				for r, rs := range results {
					if rs == nil || rs.Len() != 1 || int(rs.IDs[0]) != 100+r {
						t.Fatalf("rank %d got %v, want row %d", r, ids(rs), 100+r)
					}
				}
			})
		}
	}
}

func TestBarrierCompletes(t *testing.T) {
	for _, alg := range Algorithms() {
		t.Run(alg.String(), func(t *testing.T) {
			c := For(alg)
			runRanks(t, 9, func(lk Link) (*wire.RowSet, error) {
				return nil, c.Barrier(lk)
			})
		})
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

	// Message-count accounting: ring allreduce is P(P-1), the others
	// 2(P-1).
	if got := EstimateOp(OpAllreduce, Ring, p, m, tr).Messages; got != int64(p*(p-1)) {
		t.Fatalf("ring allreduce messages = %d, want %d", got, p*(p-1))
	}
	if got := EstimateOp(OpAllreduce, Flat, p, m, tr).Messages; got != int64(2*(p-1)) {
		t.Fatalf("flat allreduce messages = %d, want %d", got, 2*(p-1))
	}
	if got := EstimateOp(OpAllreduce, Tree, p, m, tr).Messages; got != int64(2*(p-1)) {
		t.Fatalf("tree allreduce messages = %d, want %d", got, 2*(p-1))
	}
}
