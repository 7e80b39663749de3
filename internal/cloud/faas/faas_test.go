package faas

import (
	"strings"
	"testing"
	"time"

	"fsdinference/internal/cloud/usage"
	"fsdinference/internal/sim"
)

func testPlatform(t *testing.T) (*sim.Kernel, *usage.Meter, *Platform) {
	t.Helper()
	k := sim.New()
	m := usage.NewMeter()
	return k, m, New(k, m, DefaultConfig())
}

func TestRegisterValidation(t *testing.T) {
	_, _, pl := testPlatform(t)
	ok := FunctionConfig{Name: "f", MemoryMB: 1024, Timeout: time.Minute,
		Handler: func(c *Ctx, p []byte) ([]byte, error) { return nil, nil }}

	if err := pl.Register(ok); err != nil {
		t.Fatalf("valid register failed: %v", err)
	}
	cases := []struct {
		name string
		mut  func(FunctionConfig) FunctionConfig
		want string
	}{
		{"dup", func(f FunctionConfig) FunctionConfig { return f }, "already registered"},
		{"noname", func(f FunctionConfig) FunctionConfig { f.Name = ""; return f }, "name required"},
		{"lowmem", func(f FunctionConfig) FunctionConfig { f.Name = "a"; f.MemoryMB = 64; return f }, "memory"},
		{"highmem", func(f FunctionConfig) FunctionConfig { f.Name = "b"; f.MemoryMB = 20480; return f }, "memory"},
		{"badtimeout", func(f FunctionConfig) FunctionConfig { f.Name = "c"; f.Timeout = time.Hour; return f }, "timeout"},
		{"nohandler", func(f FunctionConfig) FunctionConfig { f.Name = "d"; f.Handler = nil; return f }, "handler"},
	}
	for _, tc := range cases {
		if err := pl.Register(tc.mut(ok)); err == nil || !strings.Contains(err.Error(), tc.want) {
			t.Errorf("%s: err = %v, want containing %q", tc.name, err, tc.want)
		}
	}
}

func TestInvokeReturnsResult(t *testing.T) {
	k, m, pl := testPlatform(t)
	err := pl.Register(FunctionConfig{
		Name: "echo", MemoryMB: 1024, Timeout: time.Minute,
		Handler: func(c *Ctx, p []byte) ([]byte, error) {
			c.P.Sleep(time.Second)
			return append([]byte("got:"), p...), nil
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	var res []byte
	k.Go("caller", func(p *sim.Proc) {
		fut, err := pl.Invoke(p, "echo", []byte("hi"))
		if err != nil {
			t.Errorf("invoke: %v", err)
			return
		}
		res, err = fut.Wait(p)
		if err != nil {
			t.Errorf("wait: %v", err)
		}
	})
	if err := k.Run(); err != nil {
		t.Fatal(err)
	}
	if string(res) != "got:hi" {
		t.Fatalf("result = %q", res)
	}
	if m.LambdaInvocations != 1 {
		t.Fatalf("invocations = %d, want 1", m.LambdaInvocations)
	}
	if m.LambdaGBSeconds <= 0 {
		t.Fatalf("GB-seconds = %v, want > 0", m.LambdaGBSeconds)
	}
}

func TestColdThenWarmStart(t *testing.T) {
	k, _, pl := testPlatform(t)
	var starts []time.Duration
	pl.Register(FunctionConfig{
		Name: "f", MemoryMB: 1024, Timeout: time.Minute,
		Handler: func(c *Ctx, p []byte) ([]byte, error) {
			starts = append(starts, c.P.Now())
			return nil, nil
		},
	})
	k.Go("caller", func(p *sim.Proc) {
		fut, _ := pl.Invoke(p, "f", nil)
		fut.Wait(p)
		t0 := p.Now()
		fut, _ = pl.Invoke(p, "f", nil)
		fut.Wait(p)
		_ = t0
	})
	if err := k.Run(); err != nil {
		t.Fatal(err)
	}
	if pl.ColdStarts != 1 || pl.WarmStarts != 1 {
		t.Fatalf("cold=%d warm=%d, want 1/1", pl.ColdStarts, pl.WarmStarts)
	}
	cfg := pl.Config()
	coldDelay := starts[0] - cfg.InvokeAPILatency
	if coldDelay < time.Duration(0.8*float64(cfg.ColdStart)) || coldDelay > time.Duration(1.2*float64(cfg.ColdStart)) {
		t.Fatalf("cold start delay %v outside jitter band around %v", coldDelay, cfg.ColdStart)
	}
}

func TestWarmPoolExpires(t *testing.T) {
	k, _, pl := testPlatform(t)
	pl.Register(FunctionConfig{
		Name: "f", MemoryMB: 1024, Timeout: time.Minute,
		Handler: func(c *Ctx, p []byte) ([]byte, error) { return nil, nil },
	})
	k.Go("caller", func(p *sim.Proc) {
		fut, _ := pl.Invoke(p, "f", nil)
		fut.Wait(p)
		p.Sleep(pl.Config().WarmKeep + time.Minute)
		fut, _ = pl.Invoke(p, "f", nil)
		fut.Wait(p)
	})
	if err := k.Run(); err != nil {
		t.Fatal(err)
	}
	if pl.ColdStarts != 2 {
		t.Fatalf("cold starts = %d, want 2 (warm pool expired)", pl.ColdStarts)
	}
}

func TestTimeoutKillsHandler(t *testing.T) {
	k, m, pl := testPlatform(t)
	reachedEnd := false
	pl.Register(FunctionConfig{
		Name: "slow", MemoryMB: 1024, Timeout: 10 * time.Second,
		Handler: func(c *Ctx, p []byte) ([]byte, error) {
			c.P.Sleep(time.Hour)
			reachedEnd = true
			return nil, nil
		},
	})
	var err error
	k.Go("caller", func(p *sim.Proc) {
		fut, _ := pl.Invoke(p, "slow", nil)
		_, err = fut.Wait(p)
	})
	if e := k.Run(); e != nil {
		t.Fatal(e)
	}
	if err == nil || !strings.Contains(err.Error(), "timed out") {
		t.Fatalf("err = %v, want timeout", err)
	}
	if reachedEnd {
		t.Fatal("handler ran past its kill point")
	}
	// Billed duration should be the full timeout: 1 GB * 10 s.
	if m.LambdaGBSeconds < 9.9 || m.LambdaGBSeconds > 10.1 {
		t.Fatalf("GB-seconds = %v, want ~10", m.LambdaGBSeconds)
	}
}

func TestOOMFailsInvocation(t *testing.T) {
	k, _, pl := testPlatform(t)
	pl.Register(FunctionConfig{
		Name: "hog", MemoryMB: 128, Timeout: time.Minute,
		Handler: func(c *Ctx, p []byte) ([]byte, error) {
			c.Alloc(64 * 1024 * 1024)
			c.Alloc(100 * 1024 * 1024) // exceeds 128 MB
			return []byte("unreachable"), nil
		},
	})
	var err error
	k.Go("caller", func(p *sim.Proc) {
		fut, _ := pl.Invoke(p, "hog", nil)
		_, err = fut.Wait(p)
	})
	if e := k.Run(); e != nil {
		t.Fatal(e)
	}
	if err == nil || !strings.Contains(err.Error(), "out of memory") {
		t.Fatalf("err = %v, want OOM", err)
	}
}

func TestAllocFreeTracking(t *testing.T) {
	k, _, pl := testPlatform(t)
	pl.Register(FunctionConfig{
		Name: "f", MemoryMB: 256, Timeout: time.Minute,
		Handler: func(c *Ctx, p []byte) ([]byte, error) {
			c.Alloc(100 << 20)
			c.Free(50 << 20)
			c.Alloc(100 << 20) // 150 MB used, fits
			if c.PeakMem() != 150<<20 {
				t.Errorf("PeakMem = %d", c.PeakMem())
			}
			return nil, nil
		},
	})
	var err error
	k.Go("caller", func(p *sim.Proc) {
		fut, _ := pl.Invoke(p, "f", nil)
		_, err = fut.Wait(p)
	})
	if e := k.Run(); e != nil {
		t.Fatal(e)
	}
	if err != nil {
		t.Fatalf("invocation failed: %v", err)
	}
}

func TestComputeScalesWithMemory(t *testing.T) {
	// Same work on a 2x-memory function should take half the time
	// (below the vCPU cap).
	times := map[int]time.Duration{}
	for _, mem := range []int{1024, 2048} {
		k := sim.New()
		pl := New(k, usage.NewMeter(), DefaultConfig())
		pl.Register(FunctionConfig{
			Name: "f", MemoryMB: mem, Timeout: 15 * time.Minute,
			Handler: func(c *Ctx, p []byte) ([]byte, error) {
				t0 := c.P.Now()
				c.Compute(1e9)
				times[mem] = c.P.Now() - t0
				return nil, nil
			},
		})
		k.Go("caller", func(p *sim.Proc) {
			fut, _ := pl.Invoke(p, "f", nil)
			fut.Wait(p)
		})
		if err := k.Run(); err != nil {
			t.Fatal(err)
		}
	}
	ratio := float64(times[1024]) / float64(times[2048])
	if ratio < 1.99 || ratio > 2.01 {
		t.Fatalf("compute time ratio = %.3f, want 2.0 (times: %v)", ratio, times)
	}
}

func TestVCPUCap(t *testing.T) {
	cfg := DefaultConfig()
	v := cfg.Perf.VCPUs(10240)
	if v < 5.7 || v > 5.9 {
		t.Fatalf("VCPUs(10240) = %v, want ~5.79", v)
	}
	v = cfg.Perf.VCPUs(1769)
	if v < 0.999 || v > 1.001 {
		t.Fatalf("VCPUs(1769) = %v, want 1", v)
	}
	// The cap kicks in for hypothetical allocations beyond the Lambda max.
	if got := cfg.Perf.VCPUs(20000); got != 6 {
		t.Fatalf("VCPUs(20000) = %v, want capped at 6", got)
	}
}

func TestPayloadLimits(t *testing.T) {
	k, _, pl := testPlatform(t)
	pl.Register(FunctionConfig{
		Name: "f", MemoryMB: 1024, Timeout: time.Minute,
		Handler: func(c *Ctx, p []byte) ([]byte, error) { return nil, nil },
	})
	k.Go("caller", func(p *sim.Proc) {
		if _, err := pl.InvokeAsync(p, "f", make([]byte, 300*1024)); err == nil {
			t.Error("async payload over 256KB accepted")
		}
		if _, err := pl.Invoke(p, "f", make([]byte, 7*1024*1024)); err == nil {
			t.Error("sync payload over 6MB accepted")
		}
		if _, err := pl.Invoke(p, "f", make([]byte, 300*1024)); err != nil {
			t.Errorf("sync 300KB payload rejected: %v", err)
		}
	})
	if err := k.Run(); err != nil {
		t.Fatal(err)
	}
}

func TestResponseLimit(t *testing.T) {
	k, _, pl := testPlatform(t)
	pl.Register(FunctionConfig{
		Name: "big", MemoryMB: 1024, Timeout: time.Minute,
		Handler: func(c *Ctx, p []byte) ([]byte, error) {
			return make([]byte, 7*1024*1024), nil
		},
	})
	var err error
	k.Go("caller", func(p *sim.Proc) {
		fut, _ := pl.Invoke(p, "big", nil)
		_, err = fut.Wait(p)
	})
	if e := k.Run(); e != nil {
		t.Fatal(e)
	}
	if err == nil || !strings.Contains(err.Error(), "response") {
		t.Fatalf("err = %v, want response limit error", err)
	}
}

func TestHandlerPanicBecomesError(t *testing.T) {
	k, _, pl := testPlatform(t)
	pl.Register(FunctionConfig{
		Name: "boom", MemoryMB: 1024, Timeout: time.Minute,
		Handler: func(c *Ctx, p []byte) ([]byte, error) { panic("logic bug") },
	})
	var err error
	k.Go("caller", func(p *sim.Proc) {
		fut, _ := pl.Invoke(p, "boom", nil)
		_, err = fut.Wait(p)
	})
	if e := k.Run(); e != nil {
		t.Fatal(e)
	}
	if err == nil || !strings.Contains(err.Error(), "crashed") {
		t.Fatalf("err = %v, want crash report", err)
	}
}

func TestUnknownFunction(t *testing.T) {
	k, _, pl := testPlatform(t)
	k.Go("caller", func(p *sim.Proc) {
		if _, err := pl.Invoke(p, "nope", nil); err == nil {
			t.Error("invoking unregistered function succeeded")
		}
	})
	if err := k.Run(); err != nil {
		t.Fatal(err)
	}
}

func TestConcurrentInvocations(t *testing.T) {
	k, _, pl := testPlatform(t)
	running := 0
	peak := 0
	pl.Register(FunctionConfig{
		Name: "f", MemoryMB: 1024, Timeout: time.Minute,
		Handler: func(c *Ctx, p []byte) ([]byte, error) {
			running++
			if running > peak {
				peak = running
			}
			c.P.Sleep(10 * time.Second)
			running--
			return nil, nil
		},
	})
	k.Go("caller", func(p *sim.Proc) {
		var futs []*Future
		for i := 0; i < 8; i++ {
			fut, err := pl.InvokeAsync(p, "f", nil)
			if err != nil {
				t.Errorf("invoke %d: %v", i, err)
				return
			}
			futs = append(futs, fut)
		}
		for _, f := range futs {
			f.Wait(p)
		}
	})
	if err := k.Run(); err != nil {
		t.Fatal(err)
	}
	if peak < 2 {
		t.Fatalf("peak concurrent handlers = %d, want overlap", peak)
	}
	if pl.PeakConcurrency != 8 {
		t.Fatalf("PeakConcurrency = %d, want 8", pl.PeakConcurrency)
	}
}

func TestDeterministicColdStarts(t *testing.T) {
	run := func() []time.Duration {
		k := sim.New()
		pl := New(k, usage.NewMeter(), DefaultConfig())
		var starts []time.Duration
		pl.Register(FunctionConfig{
			Name: "f", MemoryMB: 1024, Timeout: time.Minute,
			Handler: func(c *Ctx, p []byte) ([]byte, error) {
				starts = append(starts, c.P.Now())
				return nil, nil
			},
		})
		k.Go("caller", func(p *sim.Proc) {
			for i := 0; i < 5; i++ {
				fut, _ := pl.Invoke(p, "f", nil)
				fut.Wait(p)
				p.Sleep(time.Hour) // force cold every time
			}
		})
		if err := k.Run(); err != nil {
			t.Fatal(err)
		}
		return starts
	}
	a, b := run(), run()
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("run differs at %d: %v vs %v", i, a[i], b[i])
		}
	}
}
