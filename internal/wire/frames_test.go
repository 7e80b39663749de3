package wire

import (
	"bytes"
	"math/rand"
	"reflect"
	"testing"
)

// framesCases are frames of every kind a receiver meets: raw, deflated and
// empty, which Decode keeps as the set's frame, and payloads it parses but
// does not keep — an unknown flag bit, bytes after the zlib stream, a zlib
// body shorter than Encode deflates.
func framesCases(t *testing.T) map[string][]byte {
	t.Helper()
	rng := rand.New(rand.NewSource(5))
	rs := randomRowSet(rng, 40, 16, 0.5)
	for rs.RawBytes() < deflateFrom {
		rs = randomRowSet(rng, 40, 16, 0.5)
	}
	small := randomRowSet(rng, 3, 4, 1)
	raw, err := encode(rs, false)
	if err != nil {
		t.Fatal(err)
	}
	deflated, err := encode(rs, true)
	if err != nil {
		t.Fatal(err)
	}
	short, err := encode(small, true)
	if err != nil {
		t.Fatal(err)
	}
	flagged := append([]byte{}, raw...)
	flagged[1] |= 0x02
	return map[string][]byte{
		"raw":           raw,
		"deflated":      deflated,
		"empty":         emptyFrame(16),
		"unknown flag":  flagged,
		"trailing":      append(append([]byte{}, deflated...), 0xF5, 0x01, 0x00),
		"short deflate": short,
	}
}

// TestFramesDecodeIsDecode: the table's set for any frame deep-equals a
// fresh Decode of the same bytes, memoised frame included. A frame Decode
// keeps decodes once: a second lookup, of the same bytes or of a copy at
// another address, returns the first set. A payload it does not keep
// decodes afresh every time, and a hostile one returns Decode's error.
func TestFramesDecodeIsDecode(t *testing.T) {
	var tab Frames
	for name, b := range framesCases(t) {
		want, err := Decode(b)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		got, err := tab.Decode(b)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if !reflect.DeepEqual(got, want) {
			t.Errorf("%s: the table's set differs from Decode's", name)
		}
		kept := want.enc[0] != nil || want.enc[1] != nil
		for _, again := range [][]byte{b, append([]byte{}, b...)} {
			second, err := tab.Decode(again)
			if err != nil {
				t.Fatalf("%s: %v", name, err)
			}
			if (second == got) != kept {
				t.Errorf("%s: second lookup returned the first set: %v, Decode keeps the frame: %v", name, second == got, kept)
			}
			if !reflect.DeepEqual(second, want) {
				t.Errorf("%s: the second lookup's set differs from Decode's", name)
			}
		}
	}
	for _, b := range [][]byte{nil, {magic}, {0, 0}, {magic, 0, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF}} {
		_, want := Decode(b)
		if rs, err := tab.Decode(b); rs != nil || err == nil || err.Error() != want.Error() {
			t.Errorf("Frames.Decode(%x) = (%v, %v), want Decode's error %v", b, rs, err, want)
		}
	}
	raw := framesCases(t)["raw"]
	first, _ := tab.Decode(raw)
	tab.Reset()
	if again, _ := tab.Decode(raw); again == first {
		t.Error("a reset table returned a set decoded before the reset")
	}
}

// TestFramesDecodeAllocs: a lookup that finds its frame allocates nothing,
// and a reset table decodes as many distinct frames as it held before with
// no allocation but the decodes' own.
func TestFramesDecodeAllocs(t *testing.T) {
	rng := rand.New(rand.NewSource(9))
	frames := make([][]byte, 64)
	for i := range frames {
		rs := NewRowSet(4)
		rs.Add(int32(i), []float32{rng.Float32(), 1, 2, 3})
		p, err := encode(rs, false)
		if err != nil {
			t.Fatal(err)
		}
		frames[i] = p
	}
	var tab Frames
	for _, b := range frames {
		if _, err := tab.Decode(b); err != nil {
			t.Fatal(err)
		}
	}
	if n := testing.AllocsPerRun(10, func() { tab.Decode(frames[7]) }); n != 0 {
		t.Errorf("a lookup that hits allocated %v times", n)
	}
	decode := testing.AllocsPerRun(10, func() { Decode(frames[7]) })
	n := testing.AllocsPerRun(10, func() {
		tab.Reset()
		for _, b := range frames {
			tab.Decode(b)
		}
	})
	if want := decode * float64(len(frames)); n > want {
		t.Errorf("a reset table decoding %d frames allocated %v times, the decodes alone %v", len(frames), n, want)
	}
}

// FuzzFramesDecode: for any bytes the table agrees with Decode — both reject
// them with the same error, or both accept the same rows with the same
// memoised frame — and a lookup of a copy at another address returns the
// first set exactly when Decode keeps the bytes as the set's frame.
func FuzzFramesDecode(f *testing.F) {
	addDecodeSeeds(f)
	f.Fuzz(func(t *testing.T, b []byte) {
		want, wantErr := Decode(b)
		var tab Frames
		got, err := tab.Decode(b)
		if (err == nil) != (wantErr == nil) || err != nil && err.Error() != wantErr.Error() {
			t.Fatalf("Frames.Decode error %v, Decode error %v", err, wantErr)
		}
		if err != nil {
			return
		}
		if !rowSetsEqual(got, want) || !bytes.Equal(got.enc[0], want.enc[0]) || !bytes.Equal(got.enc[1], want.enc[1]) {
			t.Fatal("Frames.Decode and Decode accepted different sets")
		}
		again, err := tab.Decode(append([]byte{}, b...))
		if err != nil {
			t.Fatalf("the copy: %v", err)
		}
		if kept := want.enc[0] != nil || want.enc[1] != nil; (again == got) != kept {
			t.Fatalf("the copy returned the first set: %v, Decode keeps the frame: %v", again == got, kept)
		}
		if !rowSetsEqual(again, want) {
			t.Fatal("the copy decoded to other rows")
		}
	})
}
