package collective

import (
	"bytes"
	"fmt"
	"slices"
	"sync"
	"testing"

	"fsdinference/internal/wire"
)

// sharedBus is a Link transport that ships frames, as the channels do, and
// decodes each distinct frame once: every receiver handed the same bytes —
// each receiver of one (op, round, src), and under ring every rank a
// contribution passes — gets the same set. It records what every set it
// delivered looked like when first decoded.
type sharedBus struct {
	mu        sync.Mutex
	cond      *sync.Cond
	q         map[string][][]byte
	sets      map[string]*wire.RowSet
	delivered map[*wire.RowSet]snapshot
	receivers map[*wire.RowSet]int
}

func newSharedBus() *sharedBus {
	b := &sharedBus{
		q:         make(map[string][][]byte),
		sets:      make(map[string]*wire.RowSet),
		delivered: make(map[*wire.RowSet]snapshot),
		receivers: make(map[*wire.RowSet]int),
	}
	b.cond = sync.NewCond(&b.mu)
	return b
}

func (b *sharedBus) put(key string, frame []byte) {
	b.mu.Lock()
	defer b.mu.Unlock()
	b.q[key] = append(b.q[key], frame)
	b.cond.Broadcast()
}

// take waits for the next frame under key and returns the set it decodes
// to: the one decoded when the same bytes first arrived, if they did.
func (b *sharedBus) take(t *testing.T, key string) (*wire.RowSet, error) {
	b.mu.Lock()
	defer b.mu.Unlock()
	for len(b.q[key]) == 0 {
		b.cond.Wait()
	}
	frame := b.q[key][0]
	b.q[key] = b.q[key][1:]
	if rs, ok := b.sets[string(frame)]; ok {
		b.receivers[rs]++
		return rs, nil
	}
	rs, err := wire.Decode(frame)
	if err != nil {
		return nil, err
	}
	b.sets[string(frame)] = rs
	b.delivered[rs], b.receivers[rs] = snap(t, rs), 1
	return rs, nil
}

// snapshot is a delivered set's rows and frame, copied.
type snapshot struct {
	len   int
	ids   []int32
	vals  []float32
	frame []byte
}

func snap(t *testing.T, rs *wire.RowSet) snapshot {
	t.Helper()
	frame, err := wire.Encode(rs, false)
	if err != nil {
		t.Error(err)
	}
	return snapshot{rs.Len(), slices.Clone(rs.IDs), slices.Clone(rs.Vals), slices.Clone(frame)}
}

func (s snapshot) same(o snapshot) bool {
	return s.len == o.len && slices.Equal(s.ids, o.ids) && slices.Equal(s.vals, o.vals) && bytes.Equal(s.frame, o.frame)
}

// sharedLink is one rank's end of a sharedBus.
type sharedLink struct {
	bus  *sharedBus
	t    *testing.T
	rank int
	size int
}

func (l sharedLink) Rank() int { return l.rank }
func (l sharedLink) Size() int { return l.size }

func (l sharedLink) Send(op string, round, target int, rs *wire.RowSet) error {
	if rs == nil {
		rs = wire.NewRowSet(0)
	}
	frame, err := wire.Encode(rs, false)
	if err != nil {
		return err
	}
	l.bus.put(busKey(op, round, l.rank, target), frame)
	return nil
}

func (l sharedLink) SendAll(op string, round int, targets []int, rs *wire.RowSet) error {
	for _, t := range targets {
		if err := l.Send(op, round, t, rs); err != nil {
			return err
		}
	}
	return nil
}

func (l sharedLink) Gather(op string, round int, sources []int, deliver func(src int, rs *wire.RowSet)) error {
	for _, s := range sources {
		rs, err := l.bus.take(l.t, busKey(op, round, s, l.rank))
		if err != nil {
			return err
		}
		if deliver != nil && rs.Len() > 0 {
			deliver(s, rs)
		}
	}
	return nil
}

// TestDeliveredSetsAreShareable pins the contract a receive side that
// decodes each distinct frame once relies on: the collectives never write to
// a set a Link delivered. Every receiver of one (op, round, src) is handed
// the same set; every result must still be right, and no delivered set's
// rows or frame may have changed when every rank is done.
func TestDeliveredSetsAreShareable(t *testing.T) {
	ops := []struct {
		name string
		run  func(alg Algorithm, lk Link) (*wire.RowSet, error)
		want func(rank, p int) []int
	}{
		{"barrier", func(alg Algorithm, lk Link) (*wire.RowSet, error) {
			return nil, Barrier(alg, lk)
		}, func(int, int) []int { return nil }},
		{"gather", func(alg Algorithm, lk Link) (*wire.RowSet, error) {
			return Gather(alg, lk, 0, contribution(lk.Rank(), 3), Union)
		}, func(rank, p int) []int {
			if rank == 0 {
				return wantAll(p)
			}
			return nil
		}},
		{"allreduce", func(alg Algorithm, lk Link) (*wire.RowSet, error) {
			return Allreduce(alg, lk, contribution(lk.Rank(), 3), Union)
		}, func(_, p int) []int { return wantAll(p) }},
	}
	for _, op := range ops {
		for _, alg := range []Algorithm{Flat, Tree, Ring, AutoAlgo} {
			for _, p := range []int{2, 5, 8} {
				op, alg, p := op, alg, p
				t.Run(fmt.Sprintf("%s/%v/p=%d", op.name, alg, p), func(t *testing.T) {
					bus := newSharedBus()
					results := make([]*wire.RowSet, p)
					errs := make([]error, p)
					var wg sync.WaitGroup
					for r := 0; r < p; r++ {
						r := r
						wg.Add(1)
						go func() {
							defer wg.Done()
							results[r], errs[r] = op.run(alg, sharedLink{bus: bus, t: t, rank: r, size: p})
						}()
					}
					wg.Wait()
					for r := range results {
						if errs[r] != nil {
							t.Fatalf("rank %d: %v", r, errs[r])
						}
						if want := op.want(r, p); want != nil && !eqInts(ids(results[r]), want) {
							t.Errorf("rank %d got rows %v, want %v", r, ids(results[r]), want)
						}
						rs := results[r]
						for i := 0; op.name != "barrier" && i < rs.Len(); i++ {
							if got, want := rs.Row(i), float32(rs.IDs[i]+1); got[0] != want || got[2] != want {
								t.Errorf("rank %d row %d holds %v, want %v", r, rs.IDs[i], got, want)
							}
						}
					}
					shared := 0
					for rs, before := range bus.delivered {
						if after := snap(t, rs); !after.same(before) {
							t.Errorf("a set delivered to %d receivers changed: %d rows %v, was %d rows %v",
								bus.receivers[rs], after.len, after.ids, before.len, before.ids)
						}
						shared = max(shared, bus.receivers[rs])
					}
					// A gather's contributions are distinct; the empty
					// frames of a barrier and an allreduce's result and
					// passed-around contributions reach several ranks.
					if op.name != "gather" && p > 2 && shared < 2 {
						t.Errorf("no set was delivered to more than one receiver")
					}
				})
			}
		}
	}
}
