package workload

import (
	"math"
	"math/rand"
	"sort"
	"time"
)

// TraceStream yields a workload trace incrementally, so a very large day
// (a million queries and beyond) never has to materialise as one slice.
// Next returns the next batch of queries in non-decreasing arrival order
// — both within a batch and across successive batches — and nil once the
// stream is exhausted. Streams are single-pass; generators are rebuilt
// (same seed) to replay the same trace again.
type TraceStream interface {
	Next() []Query
}

// sliceStream adapts an in-memory trace to TraceStream.
type sliceStream struct {
	trace []Query
	batch int
}

// Stream adapts an existing trace slice to a TraceStream, yielding it in
// batches of the given size, at least 1. The trace must already be sorted
// by arrival time, as Day's traces are.
func Stream(trace []Query, batch int) TraceStream {
	return &sliceStream{trace: trace, batch: batch}
}

func (s *sliceStream) Next() []Query {
	if len(s.trace) == 0 {
		return nil
	}
	n := s.batch
	if n > len(s.trace) {
		n = len(s.trace)
	}
	out := s.trace[:n]
	s.trace = s.trace[n:]
	return out
}

// DiurnalStream generates a sporadic day with a diurnal intensity profile
// — a sinusoid peaking mid-afternoon and bottoming out before dawn, the
// shape of the paper's sporadic workloads (§VI-C) at scale — without ever
// materialising the full trace. The day is sliced into minute windows;
// each window's query count follows the normalised intensity (with
// cumulative rounding, so exactly total queries are emitted) and its
// arrival offsets are drawn from the window's seeded RNG. Memory is
// bounded by the batch size plus one window, independent of total.
type DiurnalStream struct {
	sizes   []int
	samples int
	batch   int
	rng     *rand.Rand

	planned int // total queries the day was asked for
	total   int // queries still to emit
	weights []float64
	wsum    float64
	window  int
	carry   float64
	idx     int // global query index (drives the size round-robin)
	pending []Query
}

// diurnalWindows is the day's resolution: one window per minute.
const diurnalWindows = 24 * 60

// DiurnalDay returns a stream of total queries over one day with a
// diurnal arrival profile, spread over the model sizes round-robin with
// samplesPerQuery buffered samples each, yielded in batches of batch
// queries, at least 1. Deterministic in seed.
func DiurnalDay(total int, sizes []int, samplesPerQuery int, seed int64, batch int) *DiurnalStream {
	s := &DiurnalStream{
		sizes:   sizes,
		samples: samplesPerQuery,
		batch:   batch,
		rng:     rand.New(rand.NewSource(seed)),
		planned: total,
		total:   total,
		weights: make([]float64, diurnalWindows),
	}
	if total <= 0 || samplesPerQuery <= 0 || len(sizes) == 0 {
		s.total = 0
		return s
	}
	for i := range s.weights {
		// Peak at 15:00, trough at 03:00; the +1.05 floor keeps a thin
		// overnight trickle rather than a dead zone.
		frac := (float64(i) + 0.5) / diurnalWindows
		s.weights[i] = 1.05 + math.Sin(2*math.Pi*(frac-0.375))
		s.wsum += s.weights[i]
	}
	return s
}

// Next yields the next batch of queries, or nil when the day is done.
func (s *DiurnalStream) Next() []Query {
	for len(s.pending) < s.batch && s.window < diurnalWindows && s.total > 0 {
		s.fillWindow()
	}
	if len(s.pending) == 0 {
		return nil
	}
	n := s.batch
	if n > len(s.pending) {
		n = len(s.pending)
	}
	out := s.pending[:n:n]
	s.pending = s.pending[n:]
	return out
}

// fillWindow emits one minute window's queries into pending.
func (s *DiurnalStream) fillWindow() {
	w := s.window
	s.window++
	// Cumulative rounding: each window gets its exact fractional share
	// plus the carry from earlier windows, so the day sums to total.
	// The windows so far round their running share, which stays below
	// planned, so m never exceeds what is left.
	share := float64(s.planned)*s.weights[w]/s.wsum + s.carry
	m := int(math.Floor(share + 0.5))
	if s.window == diurnalWindows {
		m = s.total // the last window absorbs any residual rounding
	}
	s.carry = share - float64(m)
	if m == 0 {
		return
	}
	winStart := time.Duration(w) * (24 * time.Hour / diurnalWindows)
	winLen := 24 * time.Hour / diurnalWindows
	offs := make([]time.Duration, m)
	for i := range offs {
		offs[i] = time.Duration(s.rng.Float64() * float64(winLen))
	}
	sort.Slice(offs, func(i, j int) bool { return offs[i] < offs[j] })
	for _, off := range offs {
		s.pending = append(s.pending, Query{
			At:      winStart + off,
			Neurons: s.sizes[s.idx%len(s.sizes)],
			Samples: s.samples,
		})
		s.idx++
	}
	s.total -= m
}
