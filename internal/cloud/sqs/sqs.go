// Package sqs simulates a cloud message-queue service modelled on AWS SQS
// (paper §II-D5, §III-A). It reproduces the behaviours the FSD-Inf-Queue
// channel depends on:
//
//   - dedicated standard queues with at-least-once delivery and a
//     visibility timeout,
//   - up to 10 messages per receive, 256 KB maximum message size,
//   - long polling (wait up to W seconds, all storage shards consulted,
//     returns as soon as messages arrive) versus short polling (immediate
//     return, only a sampled subset of shards consulted, so messages can be
//     missed — the behaviour the paper's polling analysis exploits),
//   - per-API-request billing (receives, deletes, sends).
package sqs

import (
	"fmt"
	"math/rand"
	"strconv"
	"strings"
	"time"

	"fsdinference/internal/cloud/usage"
	"fsdinference/internal/sim"
)

// Config holds service-wide behaviour and quotas.
type Config struct {
	// SendLatency, ReceiveLatency and DeleteLatency are API round-trip
	// times charged to the calling Proc.
	SendLatency    time.Duration
	ReceiveLatency time.Duration
	DeleteLatency  time.Duration
	// TransferBytesPerSec models payload bandwidth between the service
	// and a function instance.
	TransferBytesPerSec float64

	// MaxMessageBytes is the maximum message size (256 KB).
	MaxMessageBytes int
	// MaxBatch is the maximum messages per receive or delete batch (10).
	MaxBatch int
	// MaxWaitTime is the longest allowed long-poll wait (20 s).
	MaxWaitTime time.Duration
	// VisibilityTimeout is how long a received message stays invisible
	// before redelivery if not deleted.
	VisibilityTimeout time.Duration

	// Shards models SQS storing messages across multiple servers.
	Shards int
	// ShortPollShardFraction is the probability each shard is consulted
	// by a short poll (long polls always consult every shard).
	ShortPollShardFraction float64
	// Seed drives deterministic shard sampling.
	Seed int64
}

// DefaultConfig returns SQS-like defaults.
func DefaultConfig() Config {
	return Config{
		SendLatency:            8 * time.Millisecond,
		ReceiveLatency:         6 * time.Millisecond,
		DeleteLatency:          5 * time.Millisecond,
		TransferBytesPerSec:    200e6,
		MaxMessageBytes:        256 * 1024,
		MaxBatch:               10,
		MaxWaitTime:            20 * time.Second,
		VisibilityTimeout:      30 * time.Second,
		Shards:                 4,
		ShortPollShardFraction: 0.5,
		Seed:                   7,
	}
}

// Message is a queue message: an opaque body plus string attributes
// (the FSD engine uses attributes for source worker ID, layer and
// chunk-count metadata, paper §III-C1).
type Message struct {
	Body       []byte
	Attributes map[string]string
}

// Size returns the billed size of the message: body plus attribute bytes.
func (m Message) Size() int {
	n := len(m.Body)
	for k, v := range m.Attributes {
		n += len(k) + len(v)
	}
	return n
}

// Received is a message returned by a poll, carrying the receipt handle
// needed to delete it.
type Received struct {
	Message
	ReceiptHandle string
}

// qmsg is one message held by a queue. Deliver cuts it from the queue's
// slab (see Queue.slab), so a message that is deleted or purged drops its
// Message: a slab chunk stays reachable while any of its messages is, and
// must not keep a gone message's body alive with it.
type qmsg struct {
	msg   Message
	size  int // msg.Size(), the billed and transferred bytes
	id    int64
	shard int32
	state int32 // 0 available (in shard slice), 1 inflight, 2 deleted
	vis   *sim.Timer
}

const (
	stAvailable = 0
	stInflight  = 1
	stDeleted   = 2
)

// Service is a simulated SQS endpoint.
type Service struct {
	k      *sim.Kernel
	meter  *usage.Meter
	cfg    Config
	queues map[string]*Queue
	// allShards lists every shard index, the shards a long poll consults;
	// built once, read by every queue's long polls and never written.
	allShards []int
}

// New returns a queue service on kernel k metering into meter.
func New(k *sim.Kernel, meter *usage.Meter, cfg Config) *Service {
	all := make([]int, cfg.Shards)
	for i := range all {
		all[i] = i
	}
	return &Service{
		k: k, meter: meter, cfg: cfg,
		queues:    make(map[string]*Queue),
		allShards: all,
	}
}

// CreateQueue creates (or returns the existing) queue with the given name.
// Pre-creating queues is free, matching the paper's observation that
// communication resources are provisioned a priori at no ongoing cost.
func (s *Service) CreateQueue(name string) *Queue {
	if q, ok := s.queues[name]; ok {
		return q
	}
	q := &Queue{
		name:     name,
		svc:      s,
		shards:   make([][]*qmsg, s.cfg.Shards),
		inflight: make(map[int64]*qmsg),
		cond:     sim.NewCond(s.k),
	}
	s.queues[name] = q
	return q
}

// NumQueues returns the number of live queues (test/metrics helper): a
// long-lived deployment that tears its per-run queues down correctly
// returns to its baseline after every run.
//
//simlint:allow testonly — leak inspection: tests read it until Service.CheckInvariants (ROADMAP 7(d)) calls it
func (s *Service) NumQueues() int { return len(s.queues) }

// DeleteQueue removes the named queue (free control-plane operation, like
// CreateQueue). Messages still held by the queue are discarded. Deleting a
// queue that does not exist is a no-op.
func (s *Service) DeleteQueue(name string) {
	if q, ok := s.queues[name]; ok {
		q.Purge()
		delete(s.queues, name)
	}
}

// Queue is a single simulated SQS queue.
type Queue struct {
	name     string
	svc      *Service
	shards   [][]*qmsg // available messages only
	inflight map[int64]*qmsg
	cond     *sim.Cond
	nextID   int64
	// rng drives this queue's short-poll shard sampling. Scoped per queue
	// (not service-wide) so a queue's sampling sequence depends only on
	// its own poll order, never on how other queues' polls interleave —
	// the property that lets sharded replay lanes reproduce a
	// shared-kernel run exactly. Seeded from Config.Seed by the first short
	// poll: seeding costs a 607-word table, and the per-run queues of a
	// long-polled run never draw.
	rng *rand.Rand
	// picked is the list of shards the short poll in progress consults,
	// refilled by every short poll.
	picked []int
	// slab is the unused tail of the chunk Deliver cuts messages from: a
	// chunk holds as many messages as the queue has taken so far, between
	// slabMin and slabMax, so messages allocate per chunk, not per
	// message, and a queue that sees few allocates little.
	slab []qmsg
}

// The bounds of a slab chunk, in messages.
const (
	slabMin = 4
	slabMax = 64
)

// Name returns the queue name.
func (q *Queue) Name() string { return q.name }

// Depth returns the number of visible (receivable) messages.
//
//simlint:allow testonly — leak inspection: tests read it until Service.CheckInvariants (ROADMAP 7(d)) calls it
func (q *Queue) Depth() int {
	n := 0
	for _, sh := range q.shards {
		n += len(sh)
	}
	return n
}

// Deliver places a message on the queue without charging any Proc latency.
// It is the path used by pub-sub fan-out, which happens service-side
// (the SNS delivery agent calls this from kernel context).
func (q *Queue) Deliver(msg Message) error {
	size := msg.Size()
	if size > q.svc.cfg.MaxMessageBytes {
		return fmt.Errorf("sqs: message of %d bytes exceeds %d limit", size, q.svc.cfg.MaxMessageBytes)
	}
	q.nextID++
	if len(q.slab) == 0 {
		q.slab = make([]qmsg, min(max(q.nextID, slabMin), slabMax))
	}
	m := &q.slab[0]
	q.slab = q.slab[1:]
	*m = qmsg{msg: msg, size: size, id: q.nextID, shard: int32(q.nextID % int64(len(q.shards)))}
	q.shards[m.shard] = append(q.shards[m.shard], m)
	q.svc.meter.SQSSendCalls++
	q.cond.Broadcast()
	return nil
}

// Send enqueues a message from Proc p, charging API latency and transfer
// time. Used for direct worker-to-queue sends (collectives).
func (q *Queue) Send(p *sim.Proc, msg Message) error {
	p.Sleep(q.svc.cfg.SendLatency + q.transferTime(msg.Size()))
	return q.Deliver(msg)
}

func (q *Queue) transferTime(bytes int) time.Duration {
	return time.Duration(float64(bytes) / q.svc.cfg.TransferBytesPerSec * float64(time.Second))
}

// Receive polls the queue from Proc p. With wait == 0 it performs a short
// poll: it returns immediately and consults only a sampled subset of shards,
// so it can come back empty even when messages exist. With wait > 0 it
// performs a long poll: all shards are consulted and the call blocks up to
// wait for messages to arrive, returning as soon as at least one is
// available. At most max messages (capped at the batch limit) are returned;
// each becomes invisible for the visibility timeout.
func (q *Queue) Receive(p *sim.Proc, max int, wait time.Duration) []Received {
	if max <= 0 || max > q.svc.cfg.MaxBatch {
		max = q.svc.cfg.MaxBatch
	}
	if wait > q.svc.cfg.MaxWaitTime {
		wait = q.svc.cfg.MaxWaitTime
	}
	q.svc.meter.SQSReceiveCalls++

	deadline := p.Now() + wait
	for {
		shards := q.sampleShards(wait > 0)
		n := 0
		for _, shard := range shards {
			n += min(len(q.shards[shard]), max-n)
		}
		var got []Received
		if n > 0 {
			got = make([]Received, 0, n)
		}
		totalBytes := 0
		for _, shard := range shards {
			sh := q.shards[shard]
			take := min(len(sh), n-len(got))
			for _, m := range sh[:take] {
				m.state = stInflight
				q.inflight[m.id] = m
				q.scheduleRedelivery(m)
				got = append(got, Received{Message: m.msg, ReceiptHandle: q.handle(m.id)})
				totalBytes += m.size
			}
			// Pop by copying the rest down, so the shard keeps its array
			// and the next Deliver appends without reallocating.
			rest := copy(sh, sh[take:])
			clear(sh[rest:])
			q.shards[shard] = sh[:rest]
		}
		if len(got) > 0 {
			p.Sleep(q.svc.cfg.ReceiveLatency + q.transferTime(totalBytes))
			return got
		}
		if wait <= 0 || p.Now() >= deadline {
			p.Sleep(q.svc.cfg.ReceiveLatency)
			return nil
		}
		q.cond.WaitTimeout(p, deadline-p.Now())
	}
}

// handle is the receipt handle of message id: the queue's name, a slash and
// the id, in one allocation.
func (q *Queue) handle(id int64) string {
	var buf [64]byte
	b := append(append(buf[:0], q.name...), '/')
	return string(strconv.AppendInt(b, id, 10))
}

// sampleShards returns the shard indexes a poll consults: every shard for a
// long poll, which draws nothing from the queue's RNG, and a sample for a
// short poll, written into the queue's picked list. Either is read only
// until the next poll.
func (q *Queue) sampleShards(long bool) []int {
	if long {
		return q.svc.allShards
	}
	if q.rng == nil {
		q.rng = rand.New(rand.NewSource(q.svc.cfg.Seed))
	}
	n := len(q.shards)
	if q.picked == nil {
		q.picked = make([]int, 0, n)
	}
	picked := q.picked[:0]
	for i := 0; i < n; i++ {
		if q.rng.Float64() < q.svc.cfg.ShortPollShardFraction {
			picked = append(picked, i)
		}
	}
	if len(picked) == 0 {
		picked = append(picked, q.rng.Intn(n))
	}
	q.picked = picked
	return picked
}

func (q *Queue) scheduleRedelivery(m *qmsg) {
	m.vis = q.svc.k.After(q.svc.cfg.VisibilityTimeout, func() {
		if m.state != stInflight {
			return
		}
		m.state = stAvailable
		delete(q.inflight, m.id)
		q.shards[m.shard] = append(q.shards[m.shard], m)
		q.cond.Broadcast()
	})
}

// DeleteBatch deletes up to the batch limit of messages by receipt handle,
// charging one API request.
func (q *Queue) DeleteBatch(p *sim.Proc, handles []string) error {
	if len(handles) == 0 {
		return nil
	}
	if len(handles) > q.svc.cfg.MaxBatch {
		return fmt.Errorf("sqs: delete batch of %d exceeds %d limit", len(handles), q.svc.cfg.MaxBatch)
	}
	q.svc.meter.SQSDeleteCalls++
	p.Sleep(q.svc.cfg.DeleteLatency)
	for _, h := range handles {
		idStr, ok := strings.CutPrefix(h, q.name)
		if ok {
			idStr, ok = strings.CutPrefix(idStr, "/")
		}
		if !ok {
			return fmt.Errorf("sqs: receipt handle %q does not belong to queue %q", h, q.name)
		}
		id, err := strconv.ParseInt(idStr, 10, 64)
		if err != nil {
			return fmt.Errorf("sqs: malformed receipt handle %q", h)
		}
		if m, ok := q.inflight[id]; ok {
			if m.vis != nil {
				m.vis.Stop()
			}
			m.drop()
			delete(q.inflight, id)
		}
	}
	return nil
}

// drop marks a message deleted and lets go of its body and attributes (see
// qmsg).
func (m *qmsg) drop() {
	m.state = stDeleted
	m.msg = Message{}
}

// Purge discards all messages (test/reset helper; free of charge).
func (q *Queue) Purge() {
	for i, sh := range q.shards {
		for _, m := range sh {
			m.drop()
		}
		q.shards[i] = nil
	}
	for id, m := range q.inflight {
		m.drop()
		delete(q.inflight, id)
	}
}
