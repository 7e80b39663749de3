package core

import (
	"errors"
	"fmt"
	"reflect"
	"strings"
	"testing"
	"time"

	"fsdinference/internal/cloud/env"
	"fsdinference/internal/cloud/faas"
	"fsdinference/internal/sim"
	"fsdinference/internal/wire"
)

// scriptedSource is a fake transport: poll n hands gatherLoop the n-th
// scripted batch of arrivals. Polling past the script is an error, so a
// gather that fails to complete on the arrivals it was given cannot spin.
type scriptedSource struct {
	polls [][]arrival
	n     int
}

func (s *scriptedSource) poll(w *worker, g *gathering) error {
	if s.n == len(s.polls) {
		return errors.New("script exhausted: gather polled past its last arrival")
	}
	batch := s.polls[s.n]
	s.n++
	for _, a := range batch {
		if err := g.arrive(w, a); err != nil {
			return err
		}
	}
	return nil
}

// inWorker runs body as a FaaS function instance with a bare worker around
// its context, and returns what the invocation returned.
func inWorker(t *testing.T, body func(w *worker) error) error {
	t.Helper()
	e := env.NewDefault()
	err := e.FaaS.Register(faas.FunctionConfig{
		Name: "gather", MemoryMB: 1024, Timeout: time.Minute,
		Handler: func(ctx *faas.Ctx, _ []byte) ([]byte, error) {
			return nil, body(&worker{ctx: ctx, pending: make(map[tag][]arrival)})
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	var runErr error
	e.K.Go("client", func(p *sim.Proc) {
		fut, err := e.FaaS.Invoke(p, "gather", nil)
		if err != nil {
			runErr = err
			return
		}
		_, runErr = fut.Wait(p)
	})
	if err := e.K.Run(); err != nil {
		t.Fatal(err)
	}
	return runErr
}

// mark encodes a one-row set whose row id names the arrival carrying it.
func mark(t *testing.T, id int32) []byte {
	t.Helper()
	rs := wire.NewRowSet(1)
	rs.Add(id, []float32{1})
	body, err := wire.Encode(rs, false)
	if err != nil {
		t.Fatal(err)
	}
	return body
}

// delivered records what a gather delivered as "src:mark" strings, in order.
type delivered []string

func (d *delivered) deliver(src int32, rs *wire.RowSet) {
	*d = append(*d, fmt.Sprintf("%d:%d", src, rs.IDs[0]))
}

func plainDecode(_ *worker, _ int32, body []byte) (*wire.RowSet, error) { return wire.Decode(body) }

func TestGatherLoopBuffersEarlyArrivalsByTag(t *testing.T) {
	now, next := tag{dataKind, 0}, tag{dataKind, 1}
	err := inWorker(t, func(w *worker) error {
		src := &scriptedSource{polls: [][]arrival{
			{{tag: next, src: 1, chunks: 1, body: mark(t, 11)}}, // source 1 is a layer ahead
			{{tag: now, src: 1, chunks: 1, body: mark(t, 10)}},
		}}
		var got delivered
		if err := w.gatherLoop(now, []int32{1}, src, plainDecode, got.deliver); err != nil {
			return err
		}
		if want := (delivered{"1:10"}); !reflect.DeepEqual(got, want) {
			return fmt.Errorf("layer 0 delivered %v, want %v", got, want)
		}
		if len(w.pending[next]) != 1 {
			return fmt.Errorf("early arrival not buffered under its tag: %v", w.pending)
		}
		// The next phase completes from the buffer alone: the script is
		// spent, so any poll fails the gather.
		got = nil
		if err := w.gatherLoop(next, []int32{1}, src, plainDecode, got.deliver); err != nil {
			return err
		}
		if want := (delivered{"1:11"}); !reflect.DeepEqual(got, want) {
			return fmt.Errorf("layer 1 delivered %v, want %v exactly once", got, want)
		}
		if len(w.pending) != 0 {
			return fmt.Errorf("buffer not drained: %v", w.pending)
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}

func TestGatherLoopDropsRedeliveredChunk(t *testing.T) {
	tg := tag{"reduce", 3}
	err := inWorker(t, func(w *worker) error {
		first := arrival{tag: tg, src: 2, chunks: 2, seq: 0, body: mark(t, 20)}
		src := &scriptedSource{polls: [][]arrival{
			{first},
			{first}, // visibility timeout elapsed: the same chunk again
			{{tag: tg, src: 2, chunks: 2, seq: 1, body: mark(t, 21)}},
		}}
		var got delivered
		if err := w.gatherLoop(tg, []int32{2}, src, plainDecode, got.deliver); err != nil {
			return err
		}
		if src.n != 3 {
			return fmt.Errorf("gather returned after %d polls: the duplicate completed its source early", src.n)
		}
		if want := (delivered{"2:20", "2:21"}); !reflect.DeepEqual(got, want) {
			return fmt.Errorf("delivered %v, want %v", got, want)
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}

func TestGatherLoopIgnoresCompletedAndUnlistedSources(t *testing.T) {
	tg := tag{dataKind, 0}
	err := inWorker(t, func(w *worker) error {
		decodes := 0
		decode := func(w *worker, src int32, body []byte) (*wire.RowSet, error) {
			decodes++
			return plainDecode(w, src, body)
		}
		src := &scriptedSource{polls: [][]arrival{{
			{tag: tg, src: 9, chunks: 1, body: mark(t, 90)}, // not a source of this gather
			{tag: tg, src: 1, chunks: 1, body: mark(t, 10)},
			{tag: tg, src: 1, chunks: 1, body: mark(t, 10)}, // source 1 is complete by now
			{tag: tg, src: 2, chunks: 1},                    // nothing to send: no body to decode
			{tag: tg, src: 3, chunks: 1, body: mark(t, 30)},
		}}}
		var got delivered
		if err := w.gatherLoop(tg, []int32{1, 2, 3}, src, decode, got.deliver); err != nil {
			return err
		}
		if want := (delivered{"1:10", "3:30"}); !reflect.DeepEqual(got, want) {
			return fmt.Errorf("delivered %v, want %v", got, want)
		}
		if decodes != 2 {
			return fmt.Errorf("%d bodies decoded (and charged), want 2", decodes)
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}

func TestGatherLoopRejectsChunkOutsideAnnouncedRange(t *testing.T) {
	tg := tag{dataKind, 0}
	err := inWorker(t, func(w *worker) error {
		src := &scriptedSource{polls: [][]arrival{
			{{tag: tg, src: 1, chunks: 2, seq: 2, body: mark(t, 10)}},
		}}
		return w.gatherLoop(tg, []int32{1}, src, plainDecode, nil)
	})
	if err == nil || !strings.Contains(err.Error(), "byte string 2 of 2") {
		t.Fatalf("err = %v, want the out-of-range chunk named", err)
	}
}

func TestGatherLoopStopsWhenRuntimeIsSpent(t *testing.T) {
	tg := tag{dataKind, 4}
	src := &scriptedSource{}
	err := inWorker(t, func(w *worker) error {
		// A context with no deadline set has no runtime left.
		w.id, w.ctx = 7, &faas.Ctx{P: w.ctx.P}
		return w.gatherLoop(tg, []int32{1}, src, plainDecode, nil)
	})
	if err == nil || !strings.Contains(err.Error(), "worker 7 out of runtime collecting data/layer 4") {
		t.Fatalf("err = %v, want the out-of-runtime error", err)
	}
	if src.n != 0 {
		t.Fatalf("gather polled %d times with no runtime left", src.n)
	}
}
