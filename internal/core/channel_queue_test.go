package core

import (
	"strconv"
	"strings"
	"testing"
	"time"

	"fsdinference/internal/cloud/sqs"
	"fsdinference/internal/cloud/usage"
)

// queueAttrs spells a message's position attributes the way buildMessages
// does.
func queueAttrs(kind, layer, src, chunks, seq string) map[string]string {
	return map[string]string{"kind": kind, "layer": layer, "src": src, "chunks": chunks, "seq": seq}
}

func TestParseQueueAttrsStrict(t *testing.T) {
	a, err := parseQueueAttrs(queueAttrs("allreduce", "2", "17", "3", "2"))
	if err != nil {
		t.Fatal(err)
	}
	if want := (arrival{tag: tag{"allreduce", 2}, src: 17, chunks: 3, seq: 2}); a.tag != want.tag ||
		a.src != want.src || a.chunks != want.chunks || a.seq != want.seq || a.body != nil {
		t.Fatalf("parsed %+v, want %+v", a, want)
	}
	malformed := map[string]map[string]string{
		"no attributes":      {},
		"src missing":        {"kind": "data", "layer": "0", "chunks": "1", "seq": "0"},
		"src empty":          queueAttrs("data", "0", "", "1", "0"),
		"src not a number":   queueAttrs("data", "0", "w3", "1", "0"),
		"src signed":         queueAttrs("data", "0", "+3", "1", "0"),
		"src zero-padded":    queueAttrs("data", "0", "03", "1", "0"),
		"src past 32 bits":   queueAttrs("data", "0", "4294967299", "1", "0"),
		"layer not a number": queueAttrs("data", "first", "3", "1", "0"),
		"layer spaced":       queueAttrs("data", " 0", "3", "1", "0"),
		"chunks zero":        queueAttrs("data", "0", "3", "0", "0"),
		"chunks negative":    queueAttrs("data", "0", "3", "-1", "0"),
		"chunks missing":     {"kind": "data", "layer": "0", "src": "3", "seq": "0"},
		"seq negative":       queueAttrs("data", "0", "3", "2", "-1"),
		"seq at the count":   queueAttrs("data", "0", "3", "2", "2"),
		"seq hexadecimal":    queueAttrs("data", "0", "3", "20", "0x1"),
	}
	for name, attrs := range malformed {
		if a, err := parseQueueAttrs(attrs); err == nil {
			t.Errorf("%s: parsed to %+v, want an error", name, a)
		}
	}
}

// TestQueuePollFailsOnMalformedAttributes: a message whose source does not
// parse used to be read as worker 0's and complete worker 0's transfer with
// whatever it carried; the gather must fail instead.
func TestQueuePollFailsOnMalformedAttributes(t *testing.T) {
	err := inWorker(t, func(w *worker) error {
		q := sqs.New(w.ctx.P.Kernel(), usage.NewMeter(), sqs.DefaultConfig()).CreateQueue("inbox")
		attrs := queueAttrs(dataKind, "0", "", "1", "0")
		attrs["run"] = "r1"
		if err := q.Send(w.ctx.P, sqs.Message{Body: mark(t, 9), Attributes: attrs}); err != nil {
			return err
		}
		w.d = &Deployment{Cfg: Config{PollWait: time.Second}}
		w.run, w.metrics = &runState{id: "r1"}, &WorkerMetrics{}
		return w.gatherLoop(tag{dataKind, 0}, []int32{0}, &queueChannel{queue: q}, plainDecode, nil)
	})
	if err == nil || !strings.Contains(err.Error(), "malformed queue message attributes") {
		t.Fatalf("gather over a message with an empty src returned %v, want a malformed-attributes error", err)
	}
}

// FuzzParseQueueAttrs: like the three decoders in fuzz_test.go, the queue's
// attribute parser must accept only what its encoder writes — whatever
// parses re-spells to the same strings, at a position inside the count.
func FuzzParseQueueAttrs(f *testing.F) {
	f.Add("data", "3", "17", "4", "2")
	f.Add("barrier", "0", "0", "1", "0")
	f.Add("", "-1", "-2", "1", "0")
	f.Add("data", "", "", "", "")
	f.Add("data", "+3", "17", "1", "0")
	f.Add("data", "3", "017", "1", "0")
	f.Add("data", "3", "4294967299", "1", "0")
	f.Add("data", "3", "17", "0", "0")
	f.Add("data", "3", "17", "2", "2")
	f.Add("data", "3", "17", "2", "-1")
	f.Add("data", "3", "17", "99999999999999999999", "0")

	f.Fuzz(func(t *testing.T, kind, layer, src, chunks, seq string) {
		a, err := parseQueueAttrs(queueAttrs(kind, layer, src, chunks, seq))
		if err != nil {
			return
		}
		if a.chunks < 1 || a.seq < 0 || a.seq >= a.chunks {
			t.Fatalf("(%q, %q) parsed to byte string %d of %d", chunks, seq, a.seq, a.chunks)
		}
		again := queueAttrs(a.tag.kind, strconv.Itoa(a.tag.layer), strconv.Itoa(int(a.src)),
			strconv.Itoa(a.chunks), strconv.Itoa(a.seq))
		for k, v := range queueAttrs(kind, layer, src, chunks, seq) {
			if again[k] != v {
				t.Fatalf("%s %q parsed to %+v, which spells it %q", k, v, a, again[k])
			}
		}
	})
}
