package core

import (
	"bytes"
	"fmt"
	"strings"
	"testing"
)

// The three decoders below parse bytes that crossed a simulated wire: an
// inbox value header, a bulk pointer frame, an object key. Each must return
// an error rather than panic on hostile bytes, and must accept only what its
// encoder writes — whatever decodes re-encodes to the same bytes, so no
// second spelling ("+3", "03", 2^32+3) can alias a real worker id or layer.

func FuzzDecodeMemValue(f *testing.F) {
	real := encodeMemValue(tag{dataKind, 3}, 17, []byte{0xF5, 0, 1, 2})
	f.Add(real)
	f.Add(encodeMemValue(tag{"allreduce", 0}, 0, nil))
	f.Add(encodeMemValue(tag{"", -1}, -2, []byte{0}))
	f.Add(real[:4])                                 // truncated before the separator
	f.Add(bytes.ReplaceAll(real, []byte(":"), nil)) // missing separators
	f.Add([]byte("data:3\x00body"))
	f.Add([]byte("data:+3:17\x00"))
	f.Add([]byte("data:03:17\x00"))
	f.Add([]byte("data:3:-0\x00"))
	f.Add([]byte("data:3:4294967299\x00"))
	f.Add([]byte("data:99999999999999999999:1\x00"))
	f.Add([]byte{})

	f.Fuzz(func(t *testing.T, val []byte) {
		tg, src, body, err := decodeMemValue(val)
		if err != nil {
			return
		}
		if again := encodeMemValue(tg, src, body); !bytes.Equal(again, val) {
			t.Fatalf("%q decoded to (%v, %d, %q), which encodes to %q", val, tg, src, body, again)
		}
	})
}

func FuzzDecodeBulkPointer(f *testing.F) {
	real := encodeBulkPointer(12, "fsd1-run3/bulk/data/2/5_7")
	f.Add(real)
	f.Add(encodeBulkPointer(1, ""))
	f.Add(real[:1])
	f.Add(real[1:])                                         // magic byte missing
	f.Add(bytes.ReplaceAll(real, []byte(":"), []byte("/"))) // missing separator
	f.Add([]byte{bulkMagic, '0', ':', 'p'})
	f.Add([]byte{bulkMagic, '-', '4', ':', 'p'})
	f.Add([]byte{bulkMagic, '+', '4', ':', 'p'})
	f.Add(append([]byte{bulkMagic}, "4294967297:p"...))
	f.Add([]byte{})

	f.Fuzz(func(t *testing.T, body []byte) {
		chunks, prefix, err := decodeBulkPointer(body)
		if err != nil {
			return
		}
		if chunks < 1 {
			t.Fatalf("%q decoded to %d chunks", body, chunks)
		}
		if again := encodeBulkPointer(chunks, prefix); !bytes.Equal(again, body) {
			t.Fatalf("%q decoded to (%d, %q), which encodes to %q", body, chunks, prefix, again)
		}
	})
}

func FuzzParseObjectKey(f *testing.F) {
	w := &worker{id: 5, run: &runState{id: "fsd1-run3"}}
	f.Add(objectKey(w, tag{dataKind, 2}, 5, 7, ".dat"))
	f.Add(objectKey(w, tag{"barrier", 0}, 0, 31, ".nul"))
	f.Add("5_7.dat")
	f.Add("run/data/2/7/5_7")    // no extension
	f.Add("run/data/2/7/57.dat") // no separator
	f.Add("run/data/2/7/_7.dat") // no source
	f.Add("run/data/2/7/-5_7.nul")
	f.Add("run/data/2/7/+5_7.dat")
	f.Add("run/data/2/7/05_7.dat")
	f.Add("run/data/2/7/4294967301_7.dat")
	f.Add("run/data/2/7/5_7.dat/")
	f.Add("")

	f.Fuzz(func(t *testing.T, key string) {
		src, ext, ok := parseObjectKey(key)
		if !ok {
			return
		}
		if ext != ".dat" && ext != ".nul" {
			t.Fatalf("%q parsed to extension %q", key, ext)
		}
		// The key's last segment is "{src}_{target}{ext}"; the target is
		// not parsed, so it re-encodes as whatever sits between.
		base := key[strings.LastIndexByte(key, '/')+1:]
		head := fmt.Sprintf("%d_", src)
		if !strings.HasPrefix(base, head) || !strings.HasSuffix(base, ext) || len(base) < len(head)+len(ext) {
			t.Fatalf("%q parsed to (%d, %q), which does not spell its last segment %q", key, src, ext, base)
		}
	})
}
