// Package sns simulates a cloud publish-subscribe service modelled on AWS
// SNS (paper §II-D4, §III-A). It reproduces the behaviours FSD-Inf-Queue is
// designed around:
//
//   - topics with queue subscriptions and service-side filter policies, so
//     targeted message distribution is offloaded from the
//     resource-constrained FaaS workers onto the back-end service,
//   - batch publishes of up to 10 messages and 256 KB total payload,
//   - billing in 64 KiB increments (a full 256 KB publish bills as 4
//     requests) plus per-byte SNS-to-SQS transfer charges,
//   - asynchronous fan-out delivery with a configurable service-side delay.
package sns

import (
	"fmt"
	"time"

	"fsdinference/internal/cloud/pricing"
	"fsdinference/internal/cloud/sqs"
	"fsdinference/internal/cloud/usage"
	"fsdinference/internal/sim"
)

// Config holds service-wide behaviour and quotas.
type Config struct {
	// PublishLatency is the API round-trip charged to the publisher.
	PublishLatency time.Duration
	// PublishBytesPerSec models upload bandwidth from the caller.
	PublishBytesPerSec float64
	// DeliveryLatency is the service-side delay before a published
	// message lands on matching subscribed queues.
	DeliveryLatency time.Duration

	// MaxBatchEntries is the maximum messages per publish batch (10).
	MaxBatchEntries int
	// MaxPayloadBytes caps both a single message and the whole batch
	// (256 KB).
	MaxPayloadBytes int
}

// DefaultConfig returns SNS-like defaults.
func DefaultConfig() Config {
	return Config{
		PublishLatency:     10 * time.Millisecond,
		PublishBytesPerSec: 200e6,
		DeliveryLatency:    25 * time.Millisecond,
		MaxBatchEntries:    10,
		MaxPayloadBytes:    256 * 1024,
	}
}

// FilterPolicy is a service-side subscription filter: a message matches if,
// for every attribute key in the policy, the message carries that attribute
// with one of the allowed values.
type FilterPolicy map[string][]string

// Matches reports whether msg attributes satisfy the policy.
func (f FilterPolicy) Matches(attrs map[string]string) bool {
	for key, allowed := range f {
		v, ok := attrs[key]
		if !ok {
			return false
		}
		found := false
		for _, a := range allowed {
			if a == v {
				found = true
				break
			}
		}
		if !found {
			return false
		}
	}
	return true
}

type subscription struct {
	queue  *sqs.Queue
	filter FilterPolicy
}

// Topic is a simulated SNS topic.
type Topic struct {
	svc  *Service
	subs []subscription
}

// Service is a simulated SNS endpoint.
type Service struct {
	k      *sim.Kernel
	meter  *usage.Meter
	cfg    Config
	topics map[string]*Topic
}

// New returns a pub-sub service on kernel k metering into meter.
func New(k *sim.Kernel, meter *usage.Meter, cfg Config) *Service {
	return &Service{k: k, meter: meter, cfg: cfg, topics: make(map[string]*Topic)}
}

// Config returns the service configuration.
func (s *Service) Config() Config { return s.cfg }

// CreateTopic creates (or returns the existing) topic with the given name.
func (s *Service) CreateTopic(name string) *Topic {
	if t, ok := s.topics[name]; ok {
		return t
	}
	t := &Topic{svc: s}
	s.topics[name] = t
	return t
}

// NumSubscriptions returns the live subscription count across all topics
// (test/metrics helper): per-run subscriptions must unwind to zero once
// their runs end.
//
//simlint:allow testonly — leak inspection: tests read it until Service.CheckInvariants (ROADMAP 7(d)) calls it
func (s *Service) NumSubscriptions() int {
	total := 0
	for _, t := range s.topics {
		total += len(t.subs)
	}
	return total
}

// Subscribe attaches a queue to the topic with a filter policy. A nil
// policy delivers everything.
func (t *Topic) Subscribe(q *sqs.Queue, filter FilterPolicy) {
	t.subs = append(t.subs, subscription{queue: q, filter: filter})
}

// Unsubscribe detaches every subscription of q from the topic. Like
// Subscribe it is a free control-plane operation; messages already handed
// to the delivery agent still land on the queue.
func (t *Topic) Unsubscribe(q *sqs.Queue) {
	keep := t.subs[:0]
	for _, s := range t.subs {
		if s.queue != q {
			keep = append(keep, s)
		}
	}
	for i := len(keep); i < len(t.subs); i++ {
		t.subs[i] = subscription{}
	}
	t.subs = keep
}

// PublishBatch publishes up to MaxBatchEntries messages in one API call from
// Proc p. The publisher is charged the API latency plus upload time; the
// meter records one publish call, the 64 KiB-increment billed requests, and
// the bytes delivered to each matching queue. Delivery happens
// asynchronously after the configured fan-out delay.
func (t *Topic) PublishBatch(p *sim.Proc, entries []sqs.Message) error {
	if len(entries) == 0 {
		return fmt.Errorf("sns: empty publish batch")
	}
	if len(entries) > t.svc.cfg.MaxBatchEntries {
		return fmt.Errorf("sns: batch of %d exceeds %d entry limit", len(entries), t.svc.cfg.MaxBatchEntries)
	}
	// Each entry's size walks its attributes once: the limits and the
	// fan-out's delivered bytes read it from here, on the stack for a batch
	// of up to 16 entries (the service's limit is 10).
	var room [16]int
	sizes := room[:0]
	total := 0
	for i, e := range entries {
		sz := e.Size()
		if sz > t.svc.cfg.MaxPayloadBytes {
			return fmt.Errorf("sns: entry %d of %d bytes exceeds %d limit", i, sz, t.svc.cfg.MaxPayloadBytes)
		}
		sizes = append(sizes, sz)
		total += sz
	}
	if total > t.svc.cfg.MaxPayloadBytes {
		return fmt.Errorf("sns: batch payload of %d bytes exceeds %d limit", total, t.svc.cfg.MaxPayloadBytes)
	}

	t.svc.meter.SNSPublishCalls++
	t.svc.meter.SNSMessages += int64(len(entries))
	t.svc.meter.SNSBilledPublishes += pricing.BilledPublishRequests(int64(total))

	upload := time.Duration(0)
	if t.svc.cfg.PublishBytesPerSec > 0 {
		upload = time.Duration(float64(total) / t.svc.cfg.PublishBytesPerSec * float64(time.Second))
	}
	p.Sleep(t.svc.cfg.PublishLatency + upload)

	// Service-side fan-out: deliver each entry to every matching queue
	// after the delivery delay, without occupying the publisher.
	for i, e := range entries {
		e := e
		for _, sub := range t.subs {
			if sub.filter != nil && !sub.filter.Matches(e.Attributes) {
				continue
			}
			sub := sub
			t.svc.meter.SNSDeliveredBytes += int64(sizes[i])
			t.svc.k.At(t.svc.cfg.DeliveryLatency, func() {
				// Delivery failures (oversize for SQS) cannot be
				// surfaced to the publisher, matching SNS's
				// asynchronous semantics; the message is dropped.
				_ = sub.queue.Deliver(e)
			})
		}
	}
	return nil
}
