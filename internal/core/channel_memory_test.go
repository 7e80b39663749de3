package core

import (
	"bytes"
	"math/rand"
	"testing"
	"testing/quick"

	"fsdinference/internal/wire"
)

// TestMemValueIsHeaderAndFrameProperty: the inbox value memValue frames a row
// set into in one allocation is encodeMemValue(t, src, wire.Encode(rs, c))
// byte for byte, and afterwards the set's memo — what wire.Encode returns for
// it — is the frame a fresh encode of the same rows writes. Sets are raw and
// deflated, fresh and already framed (a set wire.Decode returned, as a
// collective hop forwards it), and empty. A fresh non-empty set's memo is the
// value's own frame, capped at its end, with no header in front; a decoded
// set keeps the payload it was decoded from.
func TestMemValueIsHeaderAndFrameProperty(t *testing.T) {
	kinds := []string{dataKind, "bar", "bgo", "ar", "ab", "gt"}
	seen := map[[2]bool]int{} // {deflated, forwarded}
	empty := 0
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		rows, batch := rng.Intn(40), 1+rng.Intn(16)
		if seed%7 == 0 {
			rows = 0
		}
		if rows == 0 {
			empty++
		}
		compress := rng.Intn(4) > 0
		tg, src := tag{kinds[rng.Intn(len(kinds))], rng.Intn(8)}, int32(rng.Intn(64))
		content := rng.Int63()
		set := func() *wire.RowSet {
			r := rand.New(rand.NewSource(content))
			rs := wire.NewRowSet(batch)
			row := make([]float32, batch)
			for i := 0; i < rows; i++ {
				for j := range row {
					row[j] = 0
					if r.Intn(3) > 0 {
						row[j] = float32(r.NormFloat64())
					}
				}
				rs.Add(int32(r.Intn(1<<12)), row)
			}
			return rs
		}
		fresh := frame(t, set(), compress)
		want := encodeMemValue(tg, src, fresh)
		for _, forwarded := range []bool{false, true} {
			rs := set()
			var decoded []byte
			if forwarded {
				decoded = frame(t, set(), compress)
				var err error
				if rs, err = wire.Decode(decoded); err != nil {
					t.Fatal(err)
				}
			}
			val, err := memValue(tg, src, rs, compress)
			if err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(val, want) {
				t.Fatalf("seed %d forwarded=%v: memValue wrote %q, encodeMemValue of the frame is %q", seed, forwarded, val, want)
			}
			memo := frame(t, rs, compress)
			if !bytes.Equal(memo, fresh) {
				t.Fatalf("seed %d forwarded=%v: after memValue the set encodes to %d bytes, a fresh encode to %d", seed, forwarded, len(memo), len(fresh))
			}
			switch {
			case forwarded && &memo[0] != &decoded[0]:
				t.Fatalf("seed %d: a decoded set no longer keeps the payload it was decoded from", seed)
			case !forwarded && rows > 0 && (cap(memo) != len(memo) || &memo[len(memo)-1] != &val[len(val)-1]):
				t.Fatalf("seed %d: a fresh set's memo is not the value's frame, capped at its end", seed)
			}
			seen[[2]bool{wire.Deflated(fresh), forwarded}]++
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
	for _, c := range [][2]bool{{false, false}, {false, true}, {true, false}, {true, true}} {
		if seen[c] == 0 {
			t.Errorf("no set with deflated=%v, forwarded=%v was drawn", c[0], c[1])
		}
	}
	if empty == 0 {
		t.Error("no empty set was drawn")
	}
}
