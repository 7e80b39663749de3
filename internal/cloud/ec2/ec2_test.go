package ec2

import (
	"testing"
	"time"

	"fsdinference/internal/cloud/pricing"
	"fsdinference/internal/cloud/usage"
	"fsdinference/internal/sim"
)

func TestLaunchChargesProvisionDelay(t *testing.T) {
	k := sim.New()
	m := usage.NewMeter()
	svc := New(m, DefaultConfig())
	k.Go("w", func(p *sim.Proc) {
		inst, err := svc.Launch(p, "c5.2xlarge")
		if err != nil {
			t.Errorf("launch: %v", err)
			return
		}
		if p.Now() != svc.Config().ProvisionDelay {
			t.Errorf("launched at %v, want %v", p.Now(), svc.Config().ProvisionDelay)
		}
		inst.Terminate(p)
	})
	if err := k.Run(); err != nil {
		t.Fatal(err)
	}
}

func TestTerminateBillsMinimum(t *testing.T) {
	k := sim.New()
	m := usage.NewMeter()
	svc := New(m, DefaultConfig())
	k.Go("w", func(p *sim.Proc) {
		inst, _ := svc.Launch(p, "c5.12xlarge")
		p.Sleep(time.Second) // very short job
		inst.Terminate(p)
	})
	if err := k.Run(); err != nil {
		t.Fatal(err)
	}
	wantHours := time.Minute.Hours()
	if got := m.EC2Hours["c5.12xlarge"]; got < wantHours*0.99 || got > wantHours*1.01 {
		t.Fatalf("billed hours = %v, want minimum %v", got, wantHours)
	}
}

func TestTerminateBillsActualDuration(t *testing.T) {
	k := sim.New()
	m := usage.NewMeter()
	svc := New(m, DefaultConfig())
	k.Go("w", func(p *sim.Proc) {
		inst, _ := svc.Launch(p, "c5.2xlarge")
		p.Sleep(30 * time.Minute)
		inst.Terminate(p)
	})
	if err := k.Run(); err != nil {
		t.Fatal(err)
	}
	if got := m.EC2Hours["c5.2xlarge"]; got < 0.49 || got > 0.51 {
		t.Fatalf("billed hours = %v, want ~0.5", got)
	}
	// And convert to dollars via the catalogue.
	cost := m.Cost(pricing.Default())
	want := 0.5 * 0.34
	if cost.EC2 < want*0.98 || cost.EC2 > want*1.02 {
		t.Fatalf("EC2 cost = %v, want ~%v", cost.EC2, want)
	}
}

func TestAlwaysOnNotBilledOnTerminate(t *testing.T) {
	k := sim.New()
	m := usage.NewMeter()
	svc := New(m, DefaultConfig())
	k.Go("w", func(p *sim.Proc) {
		inst, err := svc.AlwaysOn("c5.12xlarge")
		if err != nil {
			t.Errorf("always-on: %v", err)
			return
		}
		p.Sleep(time.Hour)
		inst.Terminate(p)
	})
	if err := k.Run(); err != nil {
		t.Fatal(err)
	}
	if m.EC2Hours["c5.12xlarge"] != 0 {
		t.Fatalf("always-on billed %v hours via Terminate", m.EC2Hours["c5.12xlarge"])
	}
}

func TestComputeScalesWithVCPUs(t *testing.T) {
	k := sim.New()
	cfg := DefaultConfig()
	cfg.EffectiveVCPUCap = 0 // measure raw hardware scaling
	svc := New(usage.NewMeter(), cfg)
	var t8, t48 time.Duration
	k.Go("w", func(p *sim.Proc) {
		small, _ := svc.AlwaysOn("c5.2xlarge")
		big, _ := svc.AlwaysOn("c5.12xlarge")
		t0 := p.Now()
		small.Compute(p, 1e9)
		t8 = p.Now() - t0
		t0 = p.Now()
		big.Compute(p, 1e9)
		t48 = p.Now() - t0
	})
	if err := k.Run(); err != nil {
		t.Fatal(err)
	}
	ratio := float64(t8) / float64(t48)
	if ratio < 5.9 || ratio > 6.1 {
		t.Fatalf("8 vs 48 vCPU compute ratio = %.2f, want 6.0", ratio)
	}
}

func TestEffectiveVCPUCapLimitsBaselineSpeed(t *testing.T) {
	// The default config models the paper's single-process SciPy
	// codebase: a 48-vCPU server computes no faster than the cap.
	k := sim.New()
	svc := New(usage.NewMeter(), DefaultConfig())
	var t8, t48 time.Duration
	k.Go("w", func(p *sim.Proc) {
		small, _ := svc.AlwaysOn("c5.2xlarge")
		big, _ := svc.AlwaysOn("c5.12xlarge")
		t0 := p.Now()
		small.Compute(p, 1e9)
		t8 = p.Now() - t0
		t0 = p.Now()
		big.Compute(p, 1e9)
		t48 = p.Now() - t0
	})
	if err := k.Run(); err != nil {
		t.Fatal(err)
	}
	if t8 != t48 {
		t.Fatalf("capped compute should be equal: %v vs %v", t8, t48)
	}
}

func TestLoadBandwidths(t *testing.T) {
	k := sim.New()
	svc := New(usage.NewMeter(), DefaultConfig())
	var ebs, s3 time.Duration
	k.Go("w", func(p *sim.Proc) {
		inst, _ := svc.AlwaysOn("c5.12xlarge")
		t0 := p.Now()
		inst.LoadFromEBS(p, 1<<30)
		ebs = p.Now() - t0
		t0 = p.Now()
		inst.LoadFromS3(p, 1<<30)
		s3 = p.Now() - t0
	})
	if err := k.Run(); err != nil {
		t.Fatal(err)
	}
	if ebs >= s3 {
		t.Fatalf("EBS load %v should be faster than S3 load %v", ebs, s3)
	}
}

func TestUnknownInstanceType(t *testing.T) {
	k := sim.New()
	svc := New(usage.NewMeter(), DefaultConfig())
	k.Go("w", func(p *sim.Proc) {
		if _, err := svc.Launch(p, "m7g.humongous"); err == nil {
			t.Error("unknown type accepted by Launch")
		}
	})
	if _, err := svc.AlwaysOn("m7g.humongous"); err == nil {
		t.Error("unknown type accepted by AlwaysOn")
	}
	if err := k.Run(); err != nil {
		t.Fatal(err)
	}
}

func TestCatalogSizes(t *testing.T) {
	// Paper §VI-A2 baseline sizing.
	if c := Catalog["c5.12xlarge"]; c.VCPUs != 48 || c.MemoryGB != 96 {
		t.Fatalf("c5.12xlarge = %+v", c)
	}
	if c := Catalog["c5.9xlarge"]; c.VCPUs != 36 || c.MemoryGB != 72 {
		t.Fatalf("c5.9xlarge = %+v", c)
	}
	if c := Catalog["c5.2xlarge"]; c.VCPUs != 8 || c.MemoryGB != 16 {
		t.Fatalf("c5.2xlarge = %+v", c)
	}
}

func TestDoubleTerminateBillsOnce(t *testing.T) {
	k := sim.New()
	m := usage.NewMeter()
	svc := New(m, DefaultConfig())
	k.Go("w", func(p *sim.Proc) {
		inst, _ := svc.Launch(p, "c5.2xlarge")
		p.Sleep(2 * time.Hour)
		inst.Terminate(p)
		inst.Terminate(p)
	})
	if err := k.Run(); err != nil {
		t.Fatal(err)
	}
	if got := m.EC2Hours["c5.2xlarge"]; got < 1.99 || got > 2.01 {
		t.Fatalf("billed hours = %v, want ~2 (single billing)", got)
	}
}
