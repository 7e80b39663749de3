package s3

import (
	"bytes"
	"fmt"
	"testing"
	"time"

	"fsdinference/internal/cloud/usage"
	"fsdinference/internal/sim"
)

func newSvc() (*sim.Kernel, *usage.Meter, *Service) {
	k := sim.New()
	m := usage.NewMeter()
	return k, m, New(k, m, DefaultConfig())
}

func TestPutGetRoundTrip(t *testing.T) {
	k, m, svc := newSvc()
	b := svc.CreateBucket("bucket-0")
	k.Go("w", func(p *sim.Proc) {
		if err := b.Put(p, "1/2/3_2.dat", []byte("payload")); err != nil {
			t.Errorf("put: %v", err)
		}
		data, err := b.Get(p, "1/2/3_2.dat")
		if err != nil {
			t.Errorf("get: %v", err)
		}
		if !bytes.Equal(data, []byte("payload")) {
			t.Errorf("data = %q", data)
		}
	})
	if err := k.Run(); err != nil {
		t.Fatal(err)
	}
	if m.S3PutCalls != 1 || m.S3GetCalls != 1 {
		t.Fatalf("puts=%d gets=%d", m.S3PutCalls, m.S3GetCalls)
	}
	if m.S3BytesIn != 7 || m.S3BytesOut != 7 {
		t.Fatalf("bytesIn=%d bytesOut=%d", m.S3BytesIn, m.S3BytesOut)
	}
}

func TestGetMissingKeyErrorsAndBills(t *testing.T) {
	k, m, svc := newSvc()
	b := svc.CreateBucket("b")
	k.Go("w", func(p *sim.Proc) {
		if _, err := b.Get(p, "nope"); err == nil {
			t.Error("missing key returned no error")
		}
	})
	if err := k.Run(); err != nil {
		t.Fatal(err)
	}
	if m.S3GetCalls != 1 {
		t.Fatalf("gets = %d, want 1 (missing keys still bill)", m.S3GetCalls)
	}
}

// TestGetReturnsCopy: the stored object is the slice Put was handed (the
// caller gave it up, see TestStageAndPutAdopt), and Get copies it for the
// reader, whose writes to that copy leave the stored object alone.
func TestGetReturnsCopy(t *testing.T) {
	k, _, svc := newSvc()
	b := svc.CreateBucket("b")
	k.Go("w", func(p *sim.Proc) {
		orig := []byte("abc")
		b.Put(p, "k", orig)
		got, _ := b.Get(p, "k")
		if string(got) != "abc" {
			t.Errorf("Get read %q, want the bytes put", got)
		}
		if &got[0] == &orig[0] {
			t.Error("Get returned the stored object, not a copy")
		}
		got[0] = 'Y' // reader mutation must not affect stored object
		got2, _ := b.Get(p, "k")
		if string(got2) != "abc" {
			t.Errorf("stored object affected by reader mutation: %q", got2)
		}
	})
	if err := k.Run(); err != nil {
		t.Fatal(err)
	}
}

// TestViewChargesLikeGet: View is Get without the copy and nothing else —
// the same reads, one of a missing key and enough of them to run the
// prefix's read quota dry, leave the same meter counts and take the same
// virtual time through either call.
func TestViewChargesLikeGet(t *testing.T) {
	type outcome struct {
		calls, bytes  int64
		missing, done time.Duration
	}
	drive := func(read func(b *Bucket, p *sim.Proc, key string) ([]byte, error)) outcome {
		k := sim.New()
		m := usage.NewMeter()
		cfg := DefaultConfig()
		cfg.GetRatePerPrefix = 4
		cfg.GetBytesPerSec = 1 << 20 // 64 KiB take 62.5 ms
		b := New(k, m, cfg).CreateBucket("b")
		b.Stage("in/obj", make([]byte, 64<<10))
		staged := m.S3GetCalls
		var o outcome
		k.Go("w", func(p *sim.Proc) {
			t0 := p.Now()
			if _, err := read(b, p, "in/nope"); err == nil {
				t.Error("missing key returned no error")
			}
			o.missing = p.Now() - t0
			for i := 0; i < 10; i++ {
				if data, err := read(b, p, "in/obj"); err != nil || len(data) != 64<<10 {
					t.Errorf("read %d: %d bytes, %v", i, len(data), err)
				}
			}
			o.done = p.Now()
		})
		if err := k.Run(); err != nil {
			t.Fatal(err)
		}
		o.calls, o.bytes = m.S3GetCalls-staged, m.S3BytesOut
		return o
	}
	get := drive((*Bucket).Get)
	view := drive((*Bucket).View)
	if view != get {
		t.Fatalf("View charged %+v, Get charged %+v", view, get)
	}
	if get.calls != 11 || get.bytes != 10*(64<<10) {
		t.Fatalf("charges = %+v, want 11 billed reads of which 10 transfer 64 KiB", get)
	}
	if get.missing != DefaultConfig().GetLatency {
		t.Fatalf("a missing key took %v, want the GET latency %v", get.missing, DefaultConfig().GetLatency)
	}
	// Unthrottled the reads take 0.79 s of latency and transfer time.
	if get.done < time.Second {
		t.Fatalf("reads finished at %v: the read quota did not throttle them", get.done)
	}
}

// TestViewAliasesStorage: a view is the stored object, not a copy of it —
// every reader shares one backing array — while Get still hands out copies.
func TestViewAliasesStorage(t *testing.T) {
	k, _, svc := newSvc()
	b := svc.CreateBucket("b")
	k.Go("w", func(p *sim.Proc) {
		b.Put(p, "k", []byte("abc"))
		v1, _ := b.View(p, "k")
		v2, _ := b.View(p, "k")
		got, _ := b.Get(p, "k")
		if string(v1) != "abc" || &v1[0] != &v2[0] {
			t.Errorf("two views %q, %q do not share the stored bytes", v1, v2)
		}
		if &got[0] == &v1[0] {
			t.Error("Get returned the stored bytes, not a copy")
		}
		// Overwriting replaces the object; a view already held keeps the
		// bytes it was given.
		b.Put(p, "k", []byte("xyz"))
		if v3, _ := b.View(p, "k"); string(v1) != "abc" || string(v3) != "xyz" {
			t.Errorf("after overwrite: held view %q, new view %q", v1, v3)
		}
	})
	if err := k.Run(); err != nil {
		t.Fatal(err)
	}
}

// TestStageAndPutAdopt: the stored object is the slice its writer handed
// over, whether staged host-side or put by a function that pays for it —
// both kinds of caller hand over immutable bytes (deployments stage and put
// wire frames and EncodeCSR blobs), so neither keeps a copy. Unstage is
// Stage's inverse: the object goes, nothing is counted or slept.
func TestStageAndPutAdopt(t *testing.T) {
	k, m, svc := newSvc()
	b := svc.CreateBucket("b")
	k.Go("w", func(p *sim.Proc) {
		staged, put := []byte("staged"), []byte("put")
		b.Stage("s", staged)
		b.Put(p, "p", put)
		vs, _ := b.View(p, "s")
		vp, _ := b.View(p, "p")
		if &vs[0] != &staged[0] {
			t.Error("Stage stored a copy of the slice it was given")
		}
		if &vp[0] != &put[0] {
			t.Error("Put stored a copy of the slice it was given")
		}
		before := p.Now()
		b.Unstage("s")
		b.Unstage("never-staged")
		if _, ok := b.Size("s"); ok || b.NumObjects() != 1 {
			t.Errorf("after Unstage: %d objects, want the put one alone", b.NumObjects())
		}
		if p.Now() != before {
			t.Error("Unstage took virtual time")
		}
		if string(vs) != "staged" {
			t.Errorf("a held view changed when its object was unstaged: %q", vs)
		}
	})
	if err := k.Run(); err != nil {
		t.Fatal(err)
	}
	if m.S3PutCalls != 1 || m.S3BytesIn != 3 {
		t.Fatalf("metered %d PUTs, %d bytes in: Stage and Unstage must meter nothing", m.S3PutCalls, m.S3BytesIn)
	}
}

func TestListPrefixSortedAndFiltered(t *testing.T) {
	k, m, svc := newSvc()
	b := svc.CreateBucket("b")
	k.Go("w", func(p *sim.Proc) {
		b.Put(p, "3/7/2_7.dat", nil)
		b.Put(p, "3/7/1_7.nul", nil)
		b.Put(p, "3/8/1_8.dat", nil)
		b.Put(p, "2/7/1_7.dat", nil)
		keys := b.List(p, "3/7/")
		want := []string{"3/7/1_7.nul", "3/7/2_7.dat"}
		if len(keys) != 2 || keys[0] != want[0] || keys[1] != want[1] {
			t.Errorf("keys = %v, want %v", keys, want)
		}
	})
	if err := k.Run(); err != nil {
		t.Fatal(err)
	}
	if m.S3ListCalls != 1 {
		t.Fatalf("lists = %d", m.S3ListCalls)
	}
}

func TestListCapsKeys(t *testing.T) {
	k, _, svc := newSvc()
	cfg := DefaultConfig()
	cfg.MaxKeysPerList = 5
	svc = New(k, usage.NewMeter(), cfg)
	b := svc.CreateBucket("b")
	k.Go("w", func(p *sim.Proc) {
		for i := 0; i < 9; i++ {
			b.Put(p, fmt.Sprintf("x/%d", i), nil)
		}
		if got := b.List(p, "x/"); len(got) != 5 {
			t.Errorf("list returned %d keys, want 5", len(got))
		}
	})
	if err := k.Run(); err != nil {
		t.Fatal(err)
	}
}

func TestPutOverwrites(t *testing.T) {
	k, _, svc := newSvc()
	b := svc.CreateBucket("b")
	k.Go("w", func(p *sim.Proc) {
		b.Put(p, "k", []byte("v1"))
		b.Put(p, "k", []byte("v2"))
		got, _ := b.Get(p, "k")
		if string(got) != "v2" {
			t.Errorf("got %q, want v2", got)
		}
		if b.NumObjects() != 1 {
			t.Errorf("objects = %d, want 1", b.NumObjects())
		}
	})
	if err := k.Run(); err != nil {
		t.Fatal(err)
	}
}

func TestZeroByteObjectBillsPut(t *testing.T) {
	k, m, svc := newSvc()
	b := svc.CreateBucket("b")
	k.Go("w", func(p *sim.Proc) {
		if err := b.Put(p, "a/1_2.nul", nil); err != nil {
			t.Errorf("nul put: %v", err)
		}
		if sz, ok := b.Size("a/1_2.nul"); !ok || sz != 0 {
			t.Errorf("size=%d ok=%v", sz, ok)
		}
	})
	if err := k.Run(); err != nil {
		t.Fatal(err)
	}
	if m.S3PutCalls != 1 {
		t.Fatalf("puts = %d (zero-byte PUTs are billed)", m.S3PutCalls)
	}
}

func TestEmptyKeyRejected(t *testing.T) {
	k, _, svc := newSvc()
	b := svc.CreateBucket("b")
	k.Go("w", func(p *sim.Proc) {
		if err := b.Put(p, "", []byte("x")); err == nil {
			t.Error("empty key accepted")
		}
	})
	if err := k.Run(); err != nil {
		t.Fatal(err)
	}
}

func TestTransferTimeScalesWithSize(t *testing.T) {
	k, _, svc := newSvc()
	b := svc.CreateBucket("b")
	var smallDur, bigDur time.Duration
	k.Go("w", func(p *sim.Proc) {
		t0 := p.Now()
		b.Put(p, "small", make([]byte, 1024))
		smallDur = p.Now() - t0
		t0 = p.Now()
		b.Put(p, "big", make([]byte, 64*1024*1024))
		bigDur = p.Now() - t0
	})
	if err := k.Run(); err != nil {
		t.Fatal(err)
	}
	if bigDur < 2*smallDur {
		t.Fatalf("big put %v not much slower than small put %v", bigDur, smallDur)
	}
}

func TestPerPrefixRateLimit(t *testing.T) {
	// Hammer one prefix with more than the burst of PUTs; the limiter
	// must spread them out in time. A second prefix is unaffected.
	k, _, svc := newSvc()
	cfg := DefaultConfig()
	cfg.PutRatePerPrefix = 10 // tiny quota for the test
	cfg.PutLatency = 0
	cfg.PutBytesPerSec = 0
	svc = New(k, usage.NewMeter(), cfg)
	b := svc.CreateBucket("b")
	var sameDur time.Duration
	k.Go("w", func(p *sim.Proc) {
		t0 := p.Now()
		for i := 0; i < 30; i++ {
			b.Put(p, fmt.Sprintf("hot/%d", i), nil)
		}
		sameDur = p.Now() - t0
	})
	if err := k.Run(); err != nil {
		t.Fatal(err)
	}
	// 30 puts at 10/s with burst 10: ~2 s of throttling.
	if sameDur < time.Second {
		t.Fatalf("hot-prefix puts finished in %v, want throttled >= 1s", sameDur)
	}

	// Different prefixes (the multi-bucket/prefix design): no throttling.
	k2 := sim.New()
	svc2 := New(k2, usage.NewMeter(), cfg)
	b2 := svc2.CreateBucket("b")
	var spreadDur time.Duration
	k2.Go("w", func(p *sim.Proc) {
		t0 := p.Now()
		for i := 0; i < 30; i++ {
			b2.Put(p, fmt.Sprintf("p%d/obj", i), nil)
		}
		spreadDur = p.Now() - t0
	})
	if err := k2.Run(); err != nil {
		t.Fatal(err)
	}
	if spreadDur != 0 {
		t.Fatalf("spread-prefix puts took %v, want 0 (independent quotas)", spreadDur)
	}
}

func TestBucketLookupIdempotent(t *testing.T) {
	_, _, svc := newSvc()
	a := svc.CreateBucket("x")
	if svc.CreateBucket("x") != a || svc.buckets["x"] != a {
		t.Fatal("bucket identity not stable")
	}
	if svc.buckets["y"] != nil {
		t.Fatal("missing bucket should be nil")
	}
}

func TestPrefixOf(t *testing.T) {
	cases := map[string]string{
		"a/b/c.dat": "a/b/",
		"top":       "",
		"x/":        "x/",
		"":          "",
	}
	for key, want := range cases {
		if got := prefixOf(key); got != want {
			t.Errorf("prefixOf(%q) = %q, want %q", key, got, want)
		}
	}
}

// Size returns the stored byte size of an object and whether it exists,
// without billing a request.
func (b *Bucket) Size(key string) (int, bool) {
	data, ok := b.objects[key]
	return len(data), ok
}
