package sns

import (
	"testing"
	"time"

	"fsdinference/internal/cloud/sqs"
	"fsdinference/internal/cloud/usage"
	"fsdinference/internal/sim"
)

func newStack() (*sim.Kernel, *usage.Meter, *Service, *sqs.Service) {
	k := sim.New()
	m := usage.NewMeter()
	return k, m, New(k, m, DefaultConfig()), sqs.New(k, m, sqs.DefaultConfig())
}

func TestFanOutWithFilterPolicies(t *testing.T) {
	k, _, snsSvc, sqsSvc := newStack()
	topic := snsSvc.CreateTopic("t0")
	q1 := sqsSvc.CreateQueue("q1")
	q2 := sqsSvc.CreateQueue("q2")
	topic.Subscribe(q1, FilterPolicy{"target": {"1"}})
	topic.Subscribe(q2, FilterPolicy{"target": {"2"}})

	k.Go("pub", func(p *sim.Proc) {
		err := topic.PublishBatch(p, []sqs.Message{
			{Body: []byte("for1"), Attributes: map[string]string{"target": "1"}},
			{Body: []byte("for2a"), Attributes: map[string]string{"target": "2"}},
			{Body: []byte("for2b"), Attributes: map[string]string{"target": "2"}},
		})
		if err != nil {
			t.Errorf("publish: %v", err)
		}
		p.Sleep(time.Second) // let fan-out complete
		if q1.Depth() != 1 {
			t.Errorf("q1 depth = %d, want 1", q1.Depth())
		}
		if q2.Depth() != 2 {
			t.Errorf("q2 depth = %d, want 2", q2.Depth())
		}
		got := q1.Receive(p, 10, time.Second)
		if len(got) != 1 || string(got[0].Body) != "for1" {
			t.Errorf("q1 got %v", got)
		}
	})
	if err := k.Run(); err != nil {
		t.Fatal(err)
	}
}

func TestUnmatchedMessageIsFiltered(t *testing.T) {
	k, m, snsSvc, sqsSvc := newStack()
	topic := snsSvc.CreateTopic("t")
	q := sqsSvc.CreateQueue("q")
	topic.Subscribe(q, FilterPolicy{"target": {"5"}})
	k.Go("pub", func(p *sim.Proc) {
		topic.PublishBatch(p, []sqs.Message{
			{Body: []byte("x"), Attributes: map[string]string{"target": "9"}},
		})
		p.Sleep(time.Second)
		if q.Depth() != 0 {
			t.Errorf("q depth = %d, want 0 (filtered)", q.Depth())
		}
	})
	if err := k.Run(); err != nil {
		t.Fatal(err)
	}
	if m.SNSDeliveredBytes != 0 {
		t.Fatalf("delivered %d bytes of a message no subscription matches", m.SNSDeliveredBytes)
	}
}

func TestNilFilterDeliversAll(t *testing.T) {
	k, _, snsSvc, sqsSvc := newStack()
	topic := snsSvc.CreateTopic("t")
	q := sqsSvc.CreateQueue("q")
	topic.Subscribe(q, nil)
	k.Go("pub", func(p *sim.Proc) {
		topic.PublishBatch(p, []sqs.Message{{Body: []byte("a")}, {Body: []byte("b")}})
		p.Sleep(time.Second)
		if q.Depth() != 2 {
			t.Errorf("depth = %d, want 2", q.Depth())
		}
	})
	if err := k.Run(); err != nil {
		t.Fatal(err)
	}
}

func TestBatchQuotas(t *testing.T) {
	k, _, snsSvc, _ := newStack()
	topic := snsSvc.CreateTopic("t")
	k.Go("pub", func(p *sim.Proc) {
		// Too many entries.
		big := make([]sqs.Message, 11)
		for i := range big {
			big[i] = sqs.Message{Body: []byte("x")}
		}
		if err := topic.PublishBatch(p, big); err == nil {
			t.Error("11-entry batch accepted")
		}
		// Oversize single entry.
		if err := topic.PublishBatch(p, []sqs.Message{{Body: make([]byte, 300*1024)}}); err == nil {
			t.Error("oversize entry accepted")
		}
		// Batch total over 256 KB.
		over := []sqs.Message{
			{Body: make([]byte, 150*1024)},
			{Body: make([]byte, 150*1024)},
		}
		if err := topic.PublishBatch(p, over); err == nil {
			t.Error("oversize batch total accepted")
		}
		// Empty batch.
		if err := topic.PublishBatch(p, nil); err == nil {
			t.Error("empty batch accepted")
		}
	})
	if err := k.Run(); err != nil {
		t.Fatal(err)
	}
}

func TestBilledIn64KBIncrements(t *testing.T) {
	k, m, snsSvc, sqsSvc := newStack()
	topic := snsSvc.CreateTopic("t")
	topic.Subscribe(sqsSvc.CreateQueue("q"), nil)
	k.Go("pub", func(p *sim.Proc) {
		// 4 x 60 KB = 240 KB -> ceil(240/64) = 4 billed requests.
		var batch []sqs.Message
		for i := 0; i < 4; i++ {
			batch = append(batch, sqs.Message{Body: make([]byte, 60*1024)})
		}
		topic.PublishBatch(p, batch)
		// Tiny publish still bills 1.
		topic.PublishBatch(p, []sqs.Message{{Body: []byte("x")}})
	})
	if err := k.Run(); err != nil {
		t.Fatal(err)
	}
	if m.SNSPublishCalls != 2 {
		t.Fatalf("publish calls = %d, want 2", m.SNSPublishCalls)
	}
	if m.SNSBilledPublishes != 5 {
		t.Fatalf("billed publishes = %d, want 4+1=5", m.SNSBilledPublishes)
	}
}

func TestDeliveredBytesMetered(t *testing.T) {
	k, m, snsSvc, sqsSvc := newStack()
	topic := snsSvc.CreateTopic("t")
	qa := sqsSvc.CreateQueue("qa")
	qb := sqsSvc.CreateQueue("qb")
	topic.Subscribe(qa, nil)
	topic.Subscribe(qb, nil)
	k.Go("pub", func(p *sim.Proc) {
		topic.PublishBatch(p, []sqs.Message{{Body: make([]byte, 1000)}})
		p.Sleep(time.Second)
	})
	if err := k.Run(); err != nil {
		t.Fatal(err)
	}
	// Delivered to two queues: 2000 bytes total.
	if m.SNSDeliveredBytes != 2000 {
		t.Fatalf("delivered bytes = %d, want 2000", m.SNSDeliveredBytes)
	}
}

func TestDeliveryDelayApplied(t *testing.T) {
	k, _, snsSvc, sqsSvc := newStack()
	topic := snsSvc.CreateTopic("t")
	q := sqsSvc.CreateQueue("q")
	topic.Subscribe(q, nil)
	var recvAt time.Duration
	k.Go("consumer", func(p *sim.Proc) {
		got := q.Receive(p, 10, 20*time.Second)
		if len(got) == 0 {
			t.Error("nothing received")
		}
		recvAt = p.Now()
	})
	k.Go("pub", func(p *sim.Proc) {
		topic.PublishBatch(p, []sqs.Message{{Body: []byte("x")}})
	})
	if err := k.Run(); err != nil {
		t.Fatal(err)
	}
	min := snsSvc.Config().PublishLatency + snsSvc.Config().DeliveryLatency
	if recvAt < min {
		t.Fatalf("received at %v, want >= %v (publish + delivery latency)", recvAt, min)
	}
}

func TestFilterPolicyMatches(t *testing.T) {
	f := FilterPolicy{"target": {"1", "2"}, "kind": {"data"}}
	cases := []struct {
		attrs map[string]string
		want  bool
	}{
		{map[string]string{"target": "1", "kind": "data"}, true},
		{map[string]string{"target": "2", "kind": "data"}, true},
		{map[string]string{"target": "3", "kind": "data"}, false},
		{map[string]string{"target": "1"}, false},
		{map[string]string{"target": "1", "kind": "ctrl"}, false},
		{nil, false},
	}
	for i, c := range cases {
		if got := f.Matches(c.attrs); got != c.want {
			t.Errorf("case %d: Matches(%v) = %v, want %v", i, c.attrs, got, c.want)
		}
	}
	if !(FilterPolicy{}).Matches(nil) {
		t.Error("empty policy should match anything")
	}
}

func TestTopicLookupIdempotent(t *testing.T) {
	_, _, snsSvc, _ := newStack()
	a := snsSvc.CreateTopic("x")
	if snsSvc.CreateTopic("x") != a || snsSvc.topics["x"] != a {
		t.Fatal("topic identity not stable")
	}
	if snsSvc.topics["y"] != nil {
		t.Fatal("missing topic should be nil")
	}
}
