package core

import (
	"fmt"
	"strconv"

	"fsdinference/internal/cloud/env"
	"fsdinference/internal/cloud/pricing"
	"fsdinference/internal/cloud/sns"
	"fsdinference/internal/cloud/sqs"
	"fsdinference/internal/cloud/usage"
	"fsdinference/internal/collective"
	"fsdinference/internal/sim"
	"fsdinference/internal/wire"
)

// queueChannel implements FSD-Inf-Queue (Algorithm 1): outgoing row sets
// are chunked into size-limited byte strings, packed into publish batches
// (up to 10 messages, possibly for different targets, to maximise payload
// utilisation and minimise billed publishes), and published to the
// source-keyed topic topic-{m%T} from parallel threads. The pub-sub service
// distributes each message to the target's run-scoped queue via filter
// policies on (target, run) — consumption is partitioned by run id, so
// concurrent runs of one deployment never steal each other's messages —
// and targets long-poll their queue and delete after processing.
type queueChannel struct {
	// queue is the worker's run-scoped queue, looked up as each gather
	// begins. A run's queues are unbound the moment its root finishes, so a
	// gather still in flight on another rank keeps polling the queue it
	// started on — the tree/ring AllreduceOutput teardown defect the golden
	// test pins; looking the queue up per poll would change how it fails.
	queue *sqs.Queue
}

func openQueue(*worker) channel { return &queueChannel{} }

// numTopics is the number of parallel pub-sub topics (topic-{m%10} in
// Algorithm 1).
const numTopics = 10

// provisionTopics creates the topics a priori (free to keep, §III-A); the
// per-worker receive queues are created per run in bindRunQueues, with
// filter policies keyed on (target, run), so any number of runs can overlap
// on one deployment.
func provisionTopics(d *Deployment) error {
	d.topics = make([]*sns.Topic, numTopics)
	for t := range d.topics {
		d.topics[t] = d.Env.SNS.CreateTopic(fmt.Sprintf("%s-topic-%d", d.prefix, t))
	}
	return nil
}

// bindRunQueues creates the run's per-worker receive queues and subscribes
// each to every topic with a service-side filter on (target, run). Queue
// creation and subscription are free control-plane operations, like the
// paper's a-priori resource provisioning; scoping them per run is what
// lets Queue-channel runs overlap on one deployment.
func bindRunQueues(d *Deployment, run *runState) {
	p := d.Cfg.Workers()
	run.queues = make([]*sqs.Queue, p)
	for m := 0; m < p; m++ {
		q := d.Env.SQS.CreateQueue(fmt.Sprintf("%s-%s-q-%d", d.prefix, run.id, m))
		run.queues[m] = q
		filter := sns.FilterPolicy{
			"target": {strconv.Itoa(m)},
			"run":    {run.id},
		}
		for _, t := range d.topics {
			t.Subscribe(q, filter)
		}
	}
}

// unbindRunQueues tears the run's queues down once the run completes, so a
// long-lived deployment does not accumulate dead subscriptions.
func unbindRunQueues(d *Deployment, run *runState) {
	for _, q := range run.queues {
		for _, t := range d.topics {
			t.Unsubscribe(q)
		}
		d.Env.SQS.DeleteQueue(q.Name())
	}
	run.queues = nil
}

// queueTraits is one message's path through the pub-sub service and the
// queue behind it: publish, delivery, receive.
func queueTraits(cfg Config, ec env.Config, _ int64) collective.Traits {
	return collective.Traits{
		PerMsg:      ec.SNS.PublishLatency + ec.SNS.DeliveryLatency + ec.SQS.ReceiveLatency,
		BytesPerSec: ec.SQS.TransferBytesPerSec,
		Fan:         cfg.Threads,
	}
}

// billQueue maps a worker's ledger onto the pub-sub and queue meters, the
// inputs of Equations (5)-(6): billed 64 KiB publish increments S, delivered
// bytes with their attributes Z, and the queue API calls Q.
func billQueue(w *WorkerMetrics, u *usage.Meter) {
	u.SNSPublishCalls += w.Publishes
	u.SNSBilledPublishes += w.BilledPublishes
	u.SNSMessages += w.MessagesSent
	u.SNSDeliveredBytes += w.BytesSent + w.AttrBytes
	u.SQSReceiveCalls += w.Polls
	u.SQSDeleteCalls += w.Deletes
	u.SQSSendCalls += w.MessagesSent
}

// attrOverhead approximates the billed bytes of message attributes.
const attrOverhead = 96

// buildMessages encodes one target's row set into chunked messages carrying
// the paper's attributes: source worker id, total byte strings for this
// (source, target, layer), and the message layer — kind and layer together
// being the tag.
func (*queueChannel) buildMessages(w *worker, t tag, target int32, rs *wire.RowSet) ([]sqs.Message, error) {
	// The largest body that still fits a publish next to its attributes.
	limit := w.d.Env.SNS.Config().MaxPayloadBytes - attrOverhead
	chunks, err := w.encodeChunks(rs, limit)
	if err != nil {
		return nil, err
	}
	msgs := make([]sqs.Message, len(chunks))
	for i, c := range chunks {
		msgs[i] = sqs.Message{
			Body: c,
			Attributes: map[string]string{
				"run":    w.run.id,
				"kind":   t.kind,
				"layer":  strconv.Itoa(t.layer),
				"src":    strconv.Itoa(int(w.id)),
				"target": strconv.Itoa(int(target)),
				"chunks": strconv.Itoa(len(chunks)),
				"seq":    strconv.Itoa(i),
			},
		}
		w.metrics.BytesSent += int64(len(c))
		w.metrics.AttrBytes += int64(msgs[i].Size() - len(c))
	}
	w.metrics.MessagesSent += int64(len(msgs))
	return msgs, nil
}

// packBatches greedily packs messages (possibly for different targets) into
// publish batches respecting the service's entry-count and payload limits —
// a single publish can serve up to 10 targets at once (§IV-C).
func (*queueChannel) packBatches(w *worker, msgs []sqs.Message) [][]sqs.Message {
	cfg := w.d.Env.SNS.Config()
	var batches [][]sqs.Message
	var cur []sqs.Message
	size := 0
	for _, m := range msgs {
		sz := m.Size()
		if len(cur) > 0 && (len(cur) >= cfg.MaxBatchEntries || size+sz > cfg.MaxPayloadBytes) {
			batches = append(batches, cur)
			cur, size = nil, 0
		}
		cur = append(cur, m)
		size += sz
	}
	if len(cur) > 0 {
		batches = append(batches, cur)
	}
	return batches
}

// publish ships batches to this worker's source-keyed topic from the
// communication thread pool, keeping the worker-side billed-publish ledger
// used by the cost-model validation.
func (*queueChannel) publish(w *worker, batches [][]sqs.Message) error {
	topic := w.d.topics[int(w.id)%len(w.d.topics)]
	tasks := make([]func(p *sim.Proc) error, len(batches))
	for i, b := range batches {
		b := b
		var bytes int64
		for _, m := range b {
			bytes += int64(m.Size())
		}
		w.metrics.BilledPublishes += pricing.BilledPublishRequests(bytes)
		tasks[i] = func(p *sim.Proc) error { return topic.PublishBatch(p, b) }
	}
	w.metrics.Publishes += int64(len(batches))
	return w.threads("pub", tasks)
}

func (qc *queueChannel) send(w *worker, t tag, outs []targetRows) error {
	var msgs []sqs.Message
	for _, out := range outs {
		ms, err := qc.buildMessages(w, t, out.target, out.rs)
		if err != nil {
			return err
		}
		msgs = append(msgs, ms...)
	}
	return qc.publish(w, qc.packBatches(w, msgs))
}

func (qc *queueChannel) gather(w *worker, t tag, sources []int32, deliver func(src int32, rs *wire.RowSet)) error {
	qc.queue = w.run.queues[w.id]
	return w.gatherLoop(t, sources, qc, decodePayload, deliver)
}

// parseQueueAttrs reads a message's tag, source and chunk position from the
// attributes buildMessages wrote. It accepts only what strconv.Itoa writes
// and a position inside the announced count: a malformed source read as
// worker 0 could complete worker 0's transfer without its data.
func parseQueueAttrs(attrs map[string]string) (arrival, error) {
	layer, layerOK := parseDecimal(attrs["layer"])
	src, srcOK := parseDecimal(attrs["src"])
	chunks, chunksOK := parseDecimal(attrs["chunks"])
	seq, seqOK := parseDecimal(attrs["seq"])
	if !layerOK || !srcOK || !chunksOK || !seqOK || chunks < 1 || seq < 0 || seq >= chunks {
		return arrival{}, fmt.Errorf("core: malformed queue message attributes: layer %q, src %q, seq %q of %q chunks",
			attrs["layer"], attrs["src"], attrs["seq"], attrs["chunks"])
	}
	return arrival{tag: tag{attrs["kind"], layer}, src: int32(src), chunks: chunks, seq: seq}, nil
}

// poll is the queue's arrival source (Algorithm 1 lines 9-15): long-poll
// the worker's run-scoped queue, read each message's tag and chunk position
// from its attributes, and delete the batch once it is processed.
func (qc *queueChannel) poll(w *worker, g *gathering) error {
	msgs := qc.queue.Receive(w.ctx.P, 10, w.d.Cfg.PollWait)
	w.metrics.Polls++
	w.metrics.Fetches += int64(len(msgs))
	handles := make([]string, 0, len(msgs))
	for _, m := range msgs {
		handles = append(handles, m.ReceiptHandle)
		if m.Attributes["run"] != w.run.id {
			// Defensive: the (target, run) subscription filter should
			// make foreign-run messages impossible.
			continue
		}
		a, err := parseQueueAttrs(m.Attributes)
		if err != nil {
			return err
		}
		a.body = m.Body
		if err := g.arrive(w, a); err != nil {
			return err
		}
	}
	if len(handles) > 0 {
		if err := qc.queue.DeleteBatch(w.ctx.P, handles); err != nil {
			return err
		}
		w.metrics.Deletes++
	}
	return nil
}
