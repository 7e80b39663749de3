package serve

import (
	"container/heap"
	"math/rand"
	"testing"
	"testing/quick"
	"time"
)

// refHeap is the admission queue as a container/heap: the order the typed
// admissionHeap must reproduce, ties included.
type refHeap struct {
	pol  AdmissionPolicy
	reqs []*request
}

func (h *refHeap) Len() int           { return len(h.reqs) }
func (h *refHeap) Less(i, j int) bool { return h.pol.Less(h.reqs[i].info, h.reqs[j].info) }
func (h *refHeap) Swap(i, j int)      { h.reqs[i], h.reqs[j] = h.reqs[j], h.reqs[i] }
func (h *refHeap) Push(x any)         { h.reqs = append(h.reqs, x.(*request)) }
func (h *refHeap) Pop() any {
	r := h.reqs[len(h.reqs)-1]
	h.reqs = h.reqs[:len(h.reqs)-1]
	return r
}

// TestAdmissionHeapPopsAsContainerHeap: over random interleavings of pushes
// and pops of random RequestInfos, under FIFO and DeadlineAdmission, the
// typed heap pops the very requests container/heap pops, in the same order
// (FIFO's through the heap's inline compare, the deadline policy's through
// the interface).
// Sequence numbers and deadlines are drawn from small ranges, so the
// policies see many ties, and a tie broken by sift order would show.
func TestAdmissionHeapPopsAsContainerHeap(t *testing.T) {
	for _, pol := range []AdmissionPolicy{FIFO(), DeadlineAdmission(false)} {
		f := func(seed int64) bool {
			rng := rand.New(rand.NewSource(seed))
			var got admissionHeap
			got.use(pol)
			want := &refHeap{pol: pol}
			for op := 0; op < 400; op++ {
				if len(got.reqs) != want.Len() {
					t.Fatalf("%s seed %d: lengths %d and %d", pol.Name(), seed, len(got.reqs), want.Len())
				}
				if len(got.reqs) > 0 && rng.Intn(3) == 0 {
					if g, w := got.pop(), heap.Pop(want).(*request); g != w {
						t.Fatalf("%s seed %d op %d: popped %+v, container/heap popped %+v", pol.Name(), seed, op, g.info, w.info)
					}
					continue
				}
				r := &request{info: RequestInfo{
					Seq:     rng.Intn(50),
					Arrived: time.Duration(rng.Intn(1000)),
					Samples: 1 + rng.Intn(8),
				}}
				if rng.Intn(2) == 0 {
					r.info.Deadline = time.Duration(1 + rng.Intn(20))
				}
				got.push(r)
				heap.Push(want, r)
			}
			for len(got.reqs) > 0 {
				if g, w := got.pop(), heap.Pop(want).(*request); g != w {
					t.Fatalf("%s seed %d drain: popped %+v, container/heap popped %+v", pol.Name(), seed, g.info, w.info)
				}
			}
			return want.Len() == 0
		}
		if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
			t.Fatal(err)
		}
	}
}
