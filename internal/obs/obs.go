// Package obs is the simulated-time observability layer: a span tracer
// and a metrics registry that record where virtual time goes during a
// replay — request queueing and coalescing, run execution, worker
// phases, channel sends and receives, collective operations, store
// failovers — without perturbing the simulation they observe.
//
// Two invariants define the package:
//
// Determinism. Spans are stamped from the simulation clock, never the
// wall clock, and sampling is a pure function of the request's position
// in the workload trace (1-in-N by trace index). The Chrome exporter
// emits no allocation-order identifiers and canonically orders events by
// (timestamp, rendered bytes), so replaying the same trace at the same
// seed and sampling rate produces byte-identical trace files whether the
// replay ran on one shared kernel, sharded across concurrent lanes, or
// streamed just-in-time.
//
// Near-zero overhead when off. A nil *Tracer is a valid tracer: every
// method is nil-receiver safe and the zero SpanRef no-ops all
// operations, so an uninstrumented hot path pays one pointer comparison
// per hook and nothing else — no allocation, no map lookup, no clock
// read. When tracing is on, spans live in a free-list arena so steady
// state allocates only when the set of concurrently open spans grows.
package obs

import "time"

// Kind classifies a span for exporters: it selects the Chrome trace
// category and whether the span renders as an async request-scoped pair
// or a duration slice on its track.
type Kind uint8

const (
	// KindRequest is a request's whole lifetime, submit to completion.
	KindRequest Kind = iota
	// KindPhase is one serving-side stage of a request: coalesce, queue.
	KindPhase
	// KindRun is one coalesced batch executing on a replica.
	KindRun
	// KindWorker is one worker's lifetime within a run.
	KindWorker
	// KindOp is an engine-internal phase on a worker: load, layer,
	// send, recv, barrier, allreduce, gather.
	KindOp
	// KindFault is an injected-fault window: store failover, partition.
	KindFault
	// KindEvent is an instant: a MOVED redirect, a replan.
	KindEvent
)

// kindNames are the kinds' names, indexed by Kind.
var kindNames = [...]string{
	KindRequest: "request", KindPhase: "phase", KindRun: "run", KindWorker: "worker",
	KindOp: "op", KindFault: "fault", KindEvent: "event",
}

func (k Kind) String() string { return kindNames[k] }

// Attr is one key/value annotation on a span. Values are strings so the
// exporter never has to guess at formatting.
type Attr struct {
	Key, Val string
}

// SpanID identifies a live span within one tracer. IDs are allocation
// ordered and therefore NOT stable across replay modes — they exist to
// link child spans to parents while both are open, and exporters must
// not emit them.
type SpanID uint64

// Span is one finished (or open) interval of simulated time.
type Span struct {
	ID SpanID
	//simlint:allow testonly — the span tree: tests check each child's parent, and the critical-path attribution of ROADMAP 5(a) walks it
	Parent SpanID
	// Track names the timeline the span belongs to — a replica
	// ("ep/r1"), a worker ("ep/r1/w0"), a KV shard ("ep/r1/kv/s0").
	// Tracks are logical names chosen by the instrumentation, stable
	// across replay modes.
	Track string
	Name  string
	// AID is the async-correlation id for request- and run-scoped
	// spans ("q17", "ep/r1/r3"); empty for plain duration spans.
	AID   string
	Kind  Kind
	Start time.Duration
	End   time.Duration
	Attrs []Attr
}

// Tracer records spans against a simulated clock. It is single-threaded
// by design — each kernel (lane) owns its own tracer, and lane tracers
// are folded together with Merge after their kernels stop.
type Tracer struct {
	clock  func() time.Duration
	every  int
	nextID SpanID

	done   []Span  // finished spans, in End order
	active []Span  // open-span arena, indexed by SpanRef.slot
	free   []int32 // recycled arena slots
}

// New builds a tracer reading simulated time from clock and sampling one
// in every requests (every <= 1 samples all).
func New(clock func() time.Duration, every int) *Tracer {
	return &Tracer{clock: clock, every: every}
}

// Sample reports whether the request at trace index idx is traced. It is
// a pure function of idx and the sampling rate, so every replay mode
// selects the same requests.
func (t *Tracer) Sample(idx int) bool {
	if t == nil || idx < 0 {
		return false
	}
	if t.every <= 1 {
		return true
	}
	return idx%t.every == 0
}

// Start opens a span on track at the current simulated time. A nil
// tracer returns the zero SpanRef, on which every operation no-ops.
func (t *Tracer) Start(track, name string, kind Kind, parent SpanID) SpanRef {
	if t == nil {
		return SpanRef{}
	}
	t.nextID++
	var slot int32
	if n := len(t.free); n > 0 {
		slot = t.free[n-1]
		t.free = t.free[:n-1]
	} else {
		slot = int32(len(t.active))
		t.active = append(t.active, Span{})
	}
	sp := &t.active[slot]
	*sp = Span{ID: t.nextID, Parent: parent, Track: track, Name: name, Kind: kind, Start: t.clock()}
	return SpanRef{t: t, slot: slot, id: t.nextID}
}

// Event records an instant (zero-duration span) on track.
func (t *Tracer) Event(track, name string, kind Kind) {
	if t == nil {
		return
	}
	t.nextID++
	now := t.clock()
	t.done = append(t.done, Span{ID: t.nextID, Track: track, Name: name, Kind: kind, Start: now, End: now})
}

// Merge appends another tracer's finished spans, folding a lane's trace
// into the parent service's. The exporter's canonical ordering makes the
// final output independent of merge order.
func (t *Tracer) Merge(o *Tracer) {
	if t == nil || o == nil {
		return
	}
	t.done = append(t.done, o.done...)
}

// Spans returns the finished spans recorded so far, in End order. Spans
// still open (never ended — e.g. a worker that died mid-run) are not
// included.
func (t *Tracer) Spans() []Span {
	if t == nil {
		return nil
	}
	return t.done
}

// SpanRef is a handle on an open span. The zero SpanRef is valid and
// inert: every method checks one pointer and returns, which is what
// makes call sites free when tracing is off or the request unsampled.
type SpanRef struct {
	t    *Tracer
	slot int32
	id   SpanID
}

// Active reports whether the ref points at a live span.
func (r SpanRef) Active() bool {
	return r.t != nil && r.t.active[r.slot].ID == r.id
}

// ID returns the span's id for parenting, or 0 for the zero ref.
func (r SpanRef) ID() SpanID {
	if r.t == nil {
		return 0
	}
	return r.id
}

// SetAttr annotates the span. No-op on the zero ref or after End.
func (r SpanRef) SetAttr(key, val string) {
	if r.t == nil {
		return
	}
	sp := &r.t.active[r.slot]
	if sp.ID != r.id {
		return
	}
	sp.Attrs = append(sp.Attrs, Attr{Key: key, Val: val})
}

// SetAsync tags the span with a mode-stable async-correlation id; the
// Chrome exporter keys request and run pairs on it instead of span IDs.
func (r SpanRef) SetAsync(aid string) {
	if r.t == nil {
		return
	}
	sp := &r.t.active[r.slot]
	if sp.ID != r.id {
		return
	}
	sp.AID = aid
}

// Child opens a sub-span on the same track, inheriting the parent's
// async id so phases render inside the request's async envelope. Returns
// the zero ref if the receiver is inert.
func (r SpanRef) Child(name string, kind Kind) SpanRef {
	if r.t == nil {
		return SpanRef{}
	}
	parent := &r.t.active[r.slot]
	if parent.ID != r.id {
		return SpanRef{}
	}
	track, aid := parent.Track, parent.AID
	child := r.t.Start(track, name, kind, r.id)
	if aid != "" {
		child.SetAsync(aid)
	}
	return child
}

// End closes the span at the current simulated time and moves it to the
// finished list, returning its arena slot to the free list. Idempotent:
// a second End (or an End racing a recycled slot) is a no-op.
func (r SpanRef) End() {
	if r.t == nil {
		return
	}
	t := r.t
	sp := &t.active[r.slot]
	if sp.ID != r.id {
		return
	}
	sp.End = t.clock()
	t.done = append(t.done, *sp)
	// The finished copy owns the attrs; clearing the slot's ID retires
	// the ref and nil Attrs prevents the next occupant appending into
	// the copied slice.
	sp.ID = 0
	sp.Attrs = nil
	t.free = append(t.free, r.slot)
}

// Scope carries a tracer plus the track and parent span a subsystem
// should emit under. The zero Scope disables tracing: engine hooks guard
// on T == nil and pay a single comparison. The serving layer stamps a
// per-replica Scope into each deployment's config; the deployment
// narrows it per run and per worker.
type Scope struct {
	T      *Tracer
	Track  string
	Parent SpanID
}

// Sub returns the scope narrowed to a child track ("kv" under "ep/r1"
// gives "ep/r1/kv"). The zero scope stays zero.
func (s Scope) Sub(name string) Scope {
	if s.T == nil {
		return Scope{}
	}
	return Scope{T: s.T, Track: s.Track + "/" + name, Parent: s.Parent}
}

// Event records an instant on the scope's track; no-op for the zero
// scope.
func (s Scope) Event(name string, kind Kind) {
	if s.T == nil {
		return
	}
	s.T.Event(s.Track, name, kind)
}
