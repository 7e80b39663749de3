package sqs

import (
	"fmt"
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
