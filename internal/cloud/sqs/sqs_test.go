package sqs

import (
	"fmt"
	"math/rand"
	"slices"
	"strconv"
	"strings"
	"testing"
	"time"

	"fsdinference/internal/cloud/usage"
	"fsdinference/internal/sim"
)

func newSvc() (*sim.Kernel, *usage.Meter, *Service) {
	k := sim.New()
	m := usage.NewMeter()
	return k, m, New(k, m, DefaultConfig())
}

func TestSendReceiveDelete(t *testing.T) {
	k, m, svc := newSvc()
	q := svc.CreateQueue("q")
	k.Go("worker", func(p *sim.Proc) {
		if err := q.Send(p, Message{Body: []byte("hello")}); err != nil {
			t.Errorf("send: %v", err)
		}
		got := q.Receive(p, 10, time.Second)
		if len(got) != 1 || string(got[0].Body) != "hello" {
			t.Errorf("received %v", got)
		}
		if err := q.DeleteBatch(p, []string{got[0].ReceiptHandle}); err != nil {
			t.Errorf("delete: %v", err)
		}
		if q.Depth() != 0 {
			t.Errorf("depth = %d after delete", q.Depth())
		}
	})
	if err := k.Run(); err != nil {
		t.Fatal(err)
	}
	if m.SQSReceiveCalls != 1 || m.SQSDeleteCalls != 1 || m.SQSSendCalls != 1 {
		t.Fatalf("meter: recv=%d del=%d send=%d", m.SQSReceiveCalls, m.SQSDeleteCalls, m.SQSSendCalls)
	}
}

func TestLongPollWaitsForArrival(t *testing.T) {
	k, _, svc := newSvc()
	q := svc.CreateQueue("q")
	var recvAt time.Duration
	k.Go("consumer", func(p *sim.Proc) {
		got := q.Receive(p, 10, 20*time.Second)
		if len(got) != 1 {
			t.Errorf("got %d messages", len(got))
		}
		recvAt = p.Now()
	})
	k.Go("producer", func(p *sim.Proc) {
		p.Sleep(5 * time.Second)
		q.Send(p, Message{Body: []byte("x")})
	})
	if err := k.Run(); err != nil {
		t.Fatal(err)
	}
	// Producer sends at 5s + send latency; consumer should wake right then,
	// not at the 20s timeout.
	if recvAt > 6*time.Second {
		t.Fatalf("long poll returned at %v, want shortly after 5s arrival", recvAt)
	}
}

func TestLongPollTimesOutEmpty(t *testing.T) {
	k, m, svc := newSvc()
	q := svc.CreateQueue("q")
	k.Go("consumer", func(p *sim.Proc) {
		got := q.Receive(p, 10, 4*time.Second)
		if got != nil {
			t.Errorf("got %v from empty queue", got)
		}
		if p.Now() < 4*time.Second {
			t.Errorf("returned at %v, want after full 4s wait", p.Now())
		}
	})
	if err := k.Run(); err != nil {
		t.Fatal(err)
	}
	if m.SQSReceiveCalls != 1 {
		t.Fatalf("billed %d receive calls for one empty long poll, want 1", m.SQSReceiveCalls)
	}
}

// TestLongPollWaitIsCapped: a long poll asked to wait past MaxWaitTime
// returns empty at the cap, as the service's 20 s limit does.
func TestLongPollWaitIsCapped(t *testing.T) {
	k, _, svc := newSvc()
	q := svc.CreateQueue("q")
	k.Go("consumer", func(p *sim.Proc) {
		if got := q.Receive(p, 10, time.Minute); got != nil {
			t.Errorf("got %v from empty queue", got)
		}
		if want := svc.cfg.MaxWaitTime; p.Now() < want || p.Now() > want+time.Second {
			t.Errorf("returned at %v, want at the %v cap", p.Now(), want)
		}
	})
	if err := k.Run(); err != nil {
		t.Fatal(err)
	}
}

func TestShortPollCanMissMessages(t *testing.T) {
	// With messages on all shards, repeated short polls must sometimes
	// return fewer messages than a long poll would, because only a subset
	// of shards is sampled.
	k, _, svc := newSvc()
	q := svc.CreateQueue("q")
	missed := false
	k.Go("worker", func(p *sim.Proc) {
		for trial := 0; trial < 20 && !missed; trial++ {
			for i := 0; i < 8; i++ {
				q.Send(p, Message{Body: []byte{byte(i)}})
			}
			got := q.Receive(p, 10, 0)
			if len(got) < 8 {
				missed = true
			}
			// Drain for the next trial.
			for q.Depth() > 0 {
				rest := q.Receive(p, 10, time.Second)
				var hs []string
				for _, r := range rest {
					hs = append(hs, r.ReceiptHandle)
				}
				q.DeleteBatch(p, hs)
			}
			var hs []string
			for _, r := range got {
				hs = append(hs, r.ReceiptHandle)
			}
			q.DeleteBatch(p, hs)
		}
	})
	if err := k.Run(); err != nil {
		t.Fatal(err)
	}
	if !missed {
		t.Fatal("short polls never missed a message across 20 trials")
	}
}

func TestLongPollSeesAllShards(t *testing.T) {
	k, _, svc := newSvc()
	q := svc.CreateQueue("q")
	k.Go("worker", func(p *sim.Proc) {
		for i := 0; i < 8; i++ {
			q.Send(p, Message{Body: []byte{byte(i)}})
		}
		got := q.Receive(p, 8, time.Second)
		if len(got) != 8 {
			t.Errorf("long poll returned %d of 8", len(got))
		}
	})
	if err := k.Run(); err != nil {
		t.Fatal(err)
	}
}

func TestBatchLimitTen(t *testing.T) {
	k, _, svc := newSvc()
	q := svc.CreateQueue("q")
	k.Go("worker", func(p *sim.Proc) {
		for i := 0; i < 25; i++ {
			q.Send(p, Message{Body: []byte{byte(i)}})
		}
		got := q.Receive(p, 99, time.Second)
		if len(got) != 10 {
			t.Errorf("receive returned %d, want capped at 10", len(got))
		}
	})
	if err := k.Run(); err != nil {
		t.Fatal(err)
	}
}

func TestVisibilityTimeoutRedelivers(t *testing.T) {
	k, _, svc := newSvc()
	q := svc.CreateQueue("q")
	k.Go("worker", func(p *sim.Proc) {
		q.Send(p, Message{Body: []byte("x")})
		got := q.Receive(p, 10, time.Second)
		if len(got) != 1 {
			t.Fatalf("first receive got %d", len(got))
		}
		// Don't delete: the message stays invisible until the visibility
		// timeout, then comes back.
		if hidden := q.Receive(p, 10, time.Second); len(hidden) != 0 {
			t.Errorf("in-flight message received again before its visibility timeout")
		}
		p.Sleep(svc.cfg.VisibilityTimeout)
		again := q.Receive(p, 10, time.Second)
		if len(again) != 1 || string(again[0].Body) != "x" {
			t.Fatalf("redelivery receive got %v", again)
		}
		var hs []string
		for _, r := range again {
			hs = append(hs, r.ReceiptHandle)
		}
		q.DeleteBatch(p, hs)
	})
	if err := k.Run(); err != nil {
		t.Fatal(err)
	}
}

func TestDeletedMessageNotRedelivered(t *testing.T) {
	k, _, svc := newSvc()
	q := svc.CreateQueue("q")
	k.Go("worker", func(p *sim.Proc) {
		q.Send(p, Message{Body: []byte("x")})
		got := q.Receive(p, 10, time.Second)
		q.DeleteBatch(p, []string{got[0].ReceiptHandle})
		p.Sleep(svc.cfg.VisibilityTimeout * 2)
		if q.Depth() != 0 {
			t.Errorf("depth = %d, want 0", q.Depth())
		}
		if again := q.Receive(p, 10, time.Second); len(again) != 0 {
			t.Errorf("deleted message received again: %v", again)
		}
	})
	if err := k.Run(); err != nil {
		t.Fatal(err)
	}
}

func TestOversizeMessageRejected(t *testing.T) {
	k, _, svc := newSvc()
	q := svc.CreateQueue("q")
	k.Go("worker", func(p *sim.Proc) {
		err := q.Send(p, Message{Body: make([]byte, 300*1024)})
		if err == nil {
			t.Error("oversize message accepted")
		}
	})
	if err := k.Run(); err != nil {
		t.Fatal(err)
	}
}

func TestMessageSizeIncludesAttributes(t *testing.T) {
	m := Message{Body: make([]byte, 100), Attributes: map[string]string{"src": "42"}}
	if m.Size() != 100+3+2 {
		t.Fatalf("size = %d, want 105", m.Size())
	}
}

func TestDeleteBatchLimitAndForeignHandle(t *testing.T) {
	k, _, svc := newSvc()
	q := svc.CreateQueue("q")
	k.Go("worker", func(p *sim.Proc) {
		hs := make([]string, 11)
		for i := range hs {
			hs[i] = fmt.Sprintf("q/%d", i)
		}
		if err := q.DeleteBatch(p, hs); err == nil {
			t.Error("11-handle delete batch accepted")
		}
		if err := q.DeleteBatch(p, []string{"other/1"}); err == nil {
			t.Error("foreign receipt handle accepted")
		}
	})
	if err := k.Run(); err != nil {
		t.Fatal(err)
	}
}

func TestAttributesRoundTrip(t *testing.T) {
	k, _, svc := newSvc()
	q := svc.CreateQueue("q")
	k.Go("worker", func(p *sim.Proc) {
		q.Send(p, Message{Body: []byte("b"), Attributes: map[string]string{"layer": "3", "src": "7"}})
		got := q.Receive(p, 10, time.Second)
		if len(got) != 1 || got[0].Attributes["layer"] != "3" || got[0].Attributes["src"] != "7" {
			t.Errorf("attributes lost: %+v", got)
		}
	})
	if err := k.Run(); err != nil {
		t.Fatal(err)
	}
}

func TestLongPollReturnsMoreMessagesPerCall(t *testing.T) {
	// The paper's polling analysis: long polling returns significantly
	// more messages per poll request than short polling. Reproduce the
	// aggregate effect.
	perMode := map[bool]float64{}
	for _, long := range []bool{false, true} {
		k, _, svc := newSvc()
		q := svc.CreateQueue("q")
		received := 0
		calls := 0
		k.Go("producer", func(p *sim.Proc) {
			for i := 0; i < 40; i++ {
				q.Send(p, Message{Body: []byte{byte(i)}})
				p.Sleep(50 * time.Millisecond)
			}
		})
		k.Go("consumer", func(p *sim.Proc) {
			wait := time.Duration(0)
			if long {
				wait = 2 * time.Second
			}
			for received < 40 {
				got := q.Receive(p, 10, wait)
				calls++
				received += len(got)
				var hs []string
				for _, r := range got {
					hs = append(hs, r.ReceiptHandle)
				}
				q.DeleteBatch(p, hs)
			}
		})
		if err := k.Run(); err != nil {
			t.Fatal(err)
		}
		perMode[long] = 40.0 / float64(calls)
	}
	if perMode[true] <= perMode[false] {
		t.Fatalf("messages/poll long=%.2f short=%.2f, want long > short", perMode[true], perMode[false])
	}
}

func TestQueueLookup(t *testing.T) {
	_, _, svc := newSvc()
	q := svc.CreateQueue("a")
	if svc.queues["a"] != q {
		t.Fatal("Queue lookup failed")
	}
	if svc.queues["missing"] != nil {
		t.Fatal("missing queue should be nil")
	}
	if svc.CreateQueue("a") != q {
		t.Fatal("CreateQueue should be idempotent")
	}
}

// TestFIFOPerShardProperty: over random interleavings of delivers, long
// polls of random batch sizes, deletes of a random part of each batch and
// waits past the visibility timeout, every receive returns exactly what a
// reference queue returns: shards consulted in order, each first in first
// out, a message whose visibility lapsed going back to its shard's tail in
// the order the lapsed receives took them.
func TestFIFOPerShardProperty(t *testing.T) {
	for seed := int64(1); seed <= 30; seed++ {
		rng := rand.New(rand.NewSource(seed))
		k, _, svc := newSvc()
		q := svc.CreateQueue("q")
		shards := svc.cfg.Shards
		// The reference: each shard's visible bodies, and the bodies still in
		// flight in the order they were received. Body b is message id b, on
		// shard b % shards; 60 steps deliver fewer than 256 messages.
		ref := make([][]byte, shards)
		var flying []byte
		next := byte(0)
		k.Go("worker", func(p *sim.Proc) {
			for step := 0; step < 60; step++ {
				switch op := rng.Intn(8); {
				case op < 4:
					for n := rng.Intn(4) + 1; n > 0; n-- {
						next++
						if err := q.Deliver(Message{Body: []byte{next}}); err != nil {
							t.Error(err)
							return
						}
						s := int(next) % shards
						ref[s] = append(ref[s], next)
					}
				case op < 7:
					max := rng.Intn(5) + 1
					var want []byte
					for s := range ref {
						take := min(len(ref[s]), max-len(want))
						want = append(want, ref[s][:take]...)
						ref[s] = ref[s][take:]
					}
					got := q.Receive(p, max, time.Millisecond)
					var bodies, kept []byte
					var gone []string
					for _, r := range got {
						bodies = append(bodies, r.Body[0])
						if rng.Intn(2) == 0 {
							gone = append(gone, r.ReceiptHandle)
						} else {
							kept = append(kept, r.Body[0])
						}
					}
					if string(bodies) != string(want) {
						t.Errorf("seed %d step %d: received %v, want %v", seed, step, bodies, want)
						return
					}
					if err := q.DeleteBatch(p, gone); err != nil {
						t.Error(err)
						return
					}
					flying = append(flying, kept...)
				default:
					p.Sleep(svc.cfg.VisibilityTimeout + time.Second)
					for _, b := range flying {
						s := int(b) % shards
						ref[s] = append(ref[s], b)
					}
					flying = nil
				}
			}
		})
		if err := k.Run(); err != nil {
			t.Fatal(err)
		}
	}
}

// TestGoneMessagesDropTheirBodies: a deleted message, and every message a
// purge discards, visible or in flight, lets go of its body and attributes,
// so the chunk of messages it was cut from keeps no frame alive.
func TestGoneMessagesDropTheirBodies(t *testing.T) {
	k, _, svc := newSvc()
	q := svc.CreateQueue("q")
	k.Go("worker", func(p *sim.Proc) {
		for i := 0; i < 6; i++ {
			q.Deliver(Message{Body: []byte{byte(i)}, Attributes: map[string]string{"i": "x"}})
		}
		got := q.Receive(p, 3, time.Second)
		id, err := strconv.ParseInt(strings.TrimPrefix(got[0].ReceiptHandle, "q/"), 10, 64)
		if err != nil {
			t.Fatal(err)
		}
		deleted := q.inflight[id]
		if err := q.DeleteBatch(p, []string{got[0].ReceiptHandle}); err != nil {
			t.Fatal(err)
		}
		if deleted.msg.Body != nil || deleted.msg.Attributes != nil {
			t.Errorf("a deleted message still holds body %v", deleted.msg.Body)
		}
		var held []*qmsg
		for _, m := range q.inflight {
			held = append(held, m)
		}
		for _, sh := range q.shards {
			held = append(held, sh...)
		}
		if len(held) != 5 {
			t.Fatalf("%d messages held before the purge, want 5", len(held))
		}
		q.Purge()
		for _, m := range held {
			if m.msg.Body != nil || m.msg.Attributes != nil {
				t.Errorf("message %d still holds body %v after the purge", m.id, m.msg.Body)
			}
		}
	})
	if err := k.Run(); err != nil {
		t.Fatal(err)
	}
}

// TestShortPollSamplingPinned: a short poll's shard sample is the same draw
// sequence it always was, under the default shards and fraction and under a
// sparse fraction whose polls fall back to one random shard, and long polls
// between short ones draw nothing from the queue's RNG: a queue that only
// long-polls never seeds one.
func TestShortPollSamplingPinned(t *testing.T) {
	want := [][]int{{1, 2}, {1, 2, 3}, {0, 2, 3}, {0, 2, 3}, {3}, {1, 3}, {0, 2}, {1, 3}, {3}, {0, 2, 3}, {1}, {0, 1},
		{0, 3}, {0, 1}, {2}, {0, 2}, {0, 2, 3}, {0, 1}, {0, 1}, {0, 1}, {0, 1}, {0}, {3}, {0, 2}}
	k, _, svc := newSvc()
	q := svc.CreateQueue("q")
	k.Go("worker", func(p *sim.Proc) {
		for i, w := range want {
			if got := q.sampleShards(false); !slices.Equal(got, w) {
				t.Errorf("short poll %d samples %v, want %v", i, got, w)
			}
			q.Receive(p, 10, time.Millisecond)
		}
	})
	if err := k.Run(); err != nil {
		t.Fatal(err)
	}
	long := svc.CreateQueue("long")
	for i := 0; i < 5; i++ {
		if got := long.sampleShards(true); !slices.Equal(got, []int{0, 1, 2, 3}) {
			t.Fatalf("long poll consults %v, want every shard", got)
		}
	}
	if long.rng != nil {
		t.Error("long polls seeded the queue's RNG")
	}

	cfg := DefaultConfig()
	cfg.Shards, cfg.ShortPollShardFraction, cfg.Seed = 3, 0.2, 11
	sparse := New(sim.New(), usage.NewMeter(), cfg).CreateQueue("q")
	want = [][]int{{0}, {2}, {0}, {0}, {2}, {1}, {0}, {2}, {1}, {2}, {2}, {0, 1, 2}}
	for i, w := range want {
		if got := sparse.sampleShards(false); !slices.Equal(got, w) {
			t.Errorf("sparse short poll %d samples %v, want %v", i, got, w)
		}
	}
}

// TestLongPollReceiveAllocs: delivering one message, long-polling it and
// deleting it allocates the returned batch, the receipt handle and the
// visibility timer with its closure, and nothing per shard, per poll pass
// or per message slot: 4 allocations (7 while each poll listed its shards,
// each message was allocated alone, a popped shard dropped its front so
// that appends reallocated and a delete built the handle's prefix).
func TestLongPollReceiveAllocs(t *testing.T) {
	k, _, svc := newSvc()
	q := svc.CreateQueue("q")
	msg := Message{Body: []byte("x")}
	handles := make([]string, 1)
	var allocs float64
	k.Go("worker", func(p *sim.Proc) {
		allocs = testing.AllocsPerRun(200, func() {
			if err := q.Deliver(msg); err != nil {
				t.Fatal(err)
			}
			got := q.Receive(p, 10, time.Second)
			if len(got) != 1 {
				t.Fatalf("received %d messages, want 1", len(got))
			}
			handles[0] = got[0].ReceiptHandle
			if err := q.DeleteBatch(p, handles); err != nil {
				t.Fatal(err)
			}
		})
	})
	if err := k.Run(); err != nil {
		t.Fatal(err)
	}
	if allocs > 4 {
		t.Errorf("deliver, long poll and delete of one message allocate %v times, want 4 at most", allocs)
	}
}
