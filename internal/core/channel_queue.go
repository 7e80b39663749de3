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
	// publishBatch, built as the channel opens, is the task every publish
	// hands the comm pool: it ships batch i of the rank's send buffer
	// (msgs, bounds) to the worker's source-keyed topic.
	publishBatch func(p *sim.Proc, i int) error
}

func openQueue(w *worker) channel {
	topic := w.d.topics[int(w.id)%len(w.d.topics)]
	return &queueChannel{publishBatch: func(p *sim.Proc, i int) error {
		lo, hi := w.bounds[i], w.bounds[i+1]
		return topic.PublishBatch(p, w.msgs[lo:hi:hi])
	}}
}

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
func queueTraits(_ Config, ec env.Config, _ int64) collective.Traits {
	return collective.Traits{
		PerMsg:      ec.SNS.PublishLatency + ec.SNS.DeliveryLatency + ec.SQS.ReceiveLatency,
		BytesPerSec: ec.SQS.TransferBytesPerSec,
		Fan:         commThreads,
	}
}

// predictQueue is §IV-C's request count for one query. Per layer, each of
// the Workers workers (one when unset) sends an even share of the pairs:
// a message per chunk of each pair's frame, cut by the split buildMessages
// runs, its body plus attrOverhead bytes of attributes. packBatches packs
// and bills each worker's messages as send does: a publish batch of up to
// 10 messages within the payload limit, billed in 64 KiB increments. Each
// worker receives as many pairs as it sends from its own queue, and
// receives and deletes them a receive batch to a call: a lower bound on a
// run's receives, to which empty long polls add. The volume-proportional
// SNS→SQS byte charge belongs to the full Equation (5) model, not this
// per-request comparison.
func predictQueue(w Workload, _ Config) (usage.Meter, error) {
	if w.PairsPerLayer == 0 {
		return usage.Meter{}, nil
	}
	pub, recv := sns.DefaultConfig(), int64(sqs.DefaultConfig().MaxBatch)
	chunks, err := w.Frame.Chunks(queueBodyLimit(pub))
	if err != nil {
		return usage.Meter{}, err
	}
	workers := int64(max(1, w.Workers))
	more := w.PairsPerLayer % workers // workers that send one pair more
	var billed, polls int64
	for _, share := range []struct{ workers, pairs int64 }{
		{more, w.PairsPerLayer/workers + 1}, {workers - more, w.PairsPerLayer / workers},
	} {
		sizes := make([]int, 0, share.pairs*int64(len(chunks)))
		for i := int64(0); i < share.pairs; i++ {
			for _, c := range chunks {
				sizes = append(sizes, int(c.Bytes())+attrOverhead)
			}
		}
		_, b := packBatches(pub, sizes, nil)
		billed += share.workers * b
		polls += share.workers * ((int64(len(sizes)) + recv - 1) / recv)
	}
	layers := int64(w.Layers)
	return usage.Meter{SNSBilledPublishes: billed * layers, SQSReceiveCalls: polls * layers, SQSDeleteCalls: polls * layers}, nil
}

// attrOverhead approximates the billed bytes of message attributes.
const attrOverhead = 96

// queueBodyLimit is the largest body that still fits a publish next to its
// attributes: what buildMessages chunks a row set at, and predictQueue
// counts chunks at.
func queueBodyLimit(c sns.Config) int { return c.MaxPayloadBytes - attrOverhead }

// buildMessages encodes one target's row set into chunked messages carrying
// the paper's attributes: source worker id, total byte strings for this
// (source, target, layer), and the message layer — kind and layer together
// being the tag. The messages are appended to the rank's send buffer (msgs).
func buildMessages(w *worker, t tag, target int32, rs *wire.RowSet) error {
	chunks, err := w.encodeChunks(rs, queueBodyLimit(w.d.Env.SNS.Config()))
	if err != nil {
		return err
	}
	for i, c := range chunks {
		w.msgs = append(w.msgs, sqs.Message{
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
		})
		w.metrics.BytesSent += int64(len(c))
	}
	w.metrics.MessagesSent += int64(len(chunks))
	return nil
}

// packBatches greedily packs messages of the given sizes (possibly for
// different targets), in order, into publish batches within cfg's
// entry-count and payload limits — a single publish can serve up to 10
// targets at once (§IV-C) — and bills each batch in 64 KiB increments.
// Batch i is messages bounds[i] to bounds[i+1]; bounds is appended to buf,
// which the caller passes empty. publish ships what it packs and
// predictQueue prices it.
func packBatches(cfg sns.Config, sizes, buf []int) (bounds []int, billed int64) {
	bounds = append(buf, 0) // a batch holds one message at least
	size := 0
	for i, sz := range sizes {
		if n := i - bounds[len(bounds)-1]; n > 0 && (n >= cfg.MaxBatchEntries || size+sz > cfg.MaxPayloadBytes) {
			bounds = append(bounds, i)
			billed += pricing.BilledPublishRequests(int64(size))
			size = 0
		}
		size += sz
	}
	if len(sizes) > 0 {
		bounds = append(bounds, len(sizes))
		billed += pricing.BilledPublishRequests(int64(size))
	}
	return bounds, billed
}

// publish packs the rank's send buffer (msgs) into publish batches and
// ships them to this worker's source-keyed topic from the communication
// thread pool. It charges the run what Equations (5)-(6) price: the publish
// calls with their billed 64 KiB increments S, and the fan-out, each message
// delivered to its target's queue alone with its attributes (Z and, when
// billed, Q).
func (qc *queueChannel) publish(w *worker) error {
	msgs, sizes := w.msgs, w.sizes[:0]
	delivered := 0
	for _, m := range msgs {
		sz := m.Size()
		sizes = append(sizes, sz)
		delivered += sz
	}
	bounds, billed := packBatches(w.d.Env.SNS.Config(), sizes, w.bounds[:0])
	w.sizes, w.bounds = sizes, bounds
	u := &w.run.usage
	u.SNSPublishCalls += int64(len(bounds) - 1)
	u.SNSBilledPublishes += billed
	u.SNSMessages += int64(len(msgs))
	u.SNSDeliveredBytes += int64(delivered)
	u.SQSSendCalls += int64(len(msgs))
	return w.threads("pub", len(bounds)-1, qc.publishBatch)
}

// send builds every target's messages into the rank's send buffer and
// publishes them, then empties the buffers the send filled.
func (qc *queueChannel) send(w *worker, t tag, outs []targetRows) error {
	defer w.doneSending()
	for _, out := range outs {
		if err := buildMessages(w, t, out.target, out.rs); err != nil {
			return err
		}
	}
	return qc.publish(w)
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
// The receipt handles collect in the rank's buffer (handles), emptied as
// the poll returns.
func (qc *queueChannel) poll(w *worker, g *gathering) error {
	defer func() {
		clear(w.handles)
		w.handles = w.handles[:0]
	}()
	msgs := qc.queue.Receive(w.ctx.P, 10, w.d.Cfg.PollWait)
	w.run.usage.SQSReceiveCalls++
	w.metrics.Fetches += int64(len(msgs))
	for _, m := range msgs {
		w.handles = append(w.handles, m.ReceiptHandle)
		a, err := parseQueueAttrs(m.Attributes)
		if err != nil {
			return err
		}
		a.body = m.Body
		if err := g.arrive(w, a); err != nil {
			return err
		}
	}
	if len(w.handles) > 0 {
		if err := qc.queue.DeleteBatch(w.ctx.P, w.handles); err != nil {
			return err
		}
		w.run.usage.SQSDeleteCalls++
	}
	return nil
}
