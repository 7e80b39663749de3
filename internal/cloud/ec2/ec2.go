// Package ec2 simulates provisioned server instances for the paper's
// server-based baselines (§VI-A2, §VI-B): Server-Always-On (large VMs left
// running between queries) and Server-Job-Scoped (VMs provisioned per
// request and shut down afterwards). Only the behaviours the comparison
// depends on are modelled: instance sizing (vCPUs, memory), provisioning
// delay, hourly billing, compute scaled by vCPU count, and model-load
// bandwidth from block storage (EBS) or object storage.
package ec2

import (
	"fmt"
	"time"

	"fsdinference/internal/cloud/perf"
	"fsdinference/internal/cloud/usage"
	"fsdinference/internal/sim"
)

// InstanceType describes a server instance size.
type InstanceType struct {
	Name     string
	VCPUs    int
	MemoryGB int
}

// Catalog lists the instance types used by the paper's baselines.
var Catalog = map[string]InstanceType{
	"c5.2xlarge":  {Name: "c5.2xlarge", VCPUs: 8, MemoryGB: 16},
	"c5.9xlarge":  {Name: "c5.9xlarge", VCPUs: 36, MemoryGB: 72},
	"c5.12xlarge": {Name: "c5.12xlarge", VCPUs: 48, MemoryGB: 96},
}

// Config holds baseline environment parameters.
type Config struct {
	// ProvisionDelay is the job-scoped instance startup time (boot +
	// environment preparation), the latency penalty Fig. 5 shows for JS.
	ProvisionDelay time.Duration
	// EBSReadBytesPerSec is model-load bandwidth from attached block
	// storage (the "hot-ish" path of Server-Always-On-Hot's miss case).
	EBSReadBytesPerSec float64
	// S3ReadBytesPerSec is model-load bandwidth from object storage
	// (Server-Always-On-Cold and Server-Job-Scoped).
	S3ReadBytesPerSec float64
	// MinBilledDuration is the minimum billed runtime per launched
	// instance (AWS bills per second with a 60 s minimum).
	MinBilledDuration time.Duration
	// EffectiveVCPUCap bounds how many vCPUs the baseline codebase can
	// exploit. The paper runs the FSD-Inf-Serial Python/SciPy code on
	// its servers (§VI-A2); SciPy sparse kernels have limited intra-op
	// parallelism, so a 48-vCPU server does not run 48x faster. 0 means
	// uncapped.
	EffectiveVCPUCap float64
	// Perf is the shared calibrated compute model.
	Perf perf.Model
}

// DefaultConfig returns EC2-like defaults.
func DefaultConfig() Config {
	return Config{
		ProvisionDelay:     105 * time.Second,
		EBSReadBytesPerSec: 350e6,
		S3ReadBytesPerSec:  180e6,
		MinBilledDuration:  60 * time.Second,
		EffectiveVCPUCap:   8,
		Perf:               perf.Default(),
	}
}

// Service launches and bills simulated instances.
type Service struct {
	meter *usage.Meter
	cfg   Config
}

// New returns an EC2 service metering into meter.
func New(meter *usage.Meter, cfg Config) *Service {
	return &Service{meter: meter, cfg: cfg}
}

// Config returns the service configuration.
func (s *Service) Config() Config { return s.cfg }

// Instance is a running simulated server.
type Instance struct {
	Type InstanceType
	svc  *Service

	startedAt  time.Duration
	terminated bool
	alwaysOn   bool
}

// Launch provisions a fresh instance of the named type, charging the
// provisioning delay to p. The instance bills from launch until Terminate.
func (s *Service) Launch(p *sim.Proc, typeName string) (*Instance, error) {
	t, ok := Catalog[typeName]
	if !ok {
		return nil, fmt.Errorf("ec2: unknown instance type %q", typeName)
	}
	p.Sleep(s.cfg.ProvisionDelay)
	return &Instance{Type: t, svc: s, startedAt: p.Now()}, nil
}

// AlwaysOn returns an already-running instance whose billing is handled
// externally (the workload layer bills always-on capacity for the full
// provisioned window regardless of utilisation).
func (s *Service) AlwaysOn(typeName string) (*Instance, error) {
	t, ok := Catalog[typeName]
	if !ok {
		return nil, fmt.Errorf("ec2: unknown instance type %q", typeName)
	}
	return &Instance{Type: t, svc: s, alwaysOn: true}, nil
}

// Terminate stops the instance and bills its runtime (per-second billing
// with the configured minimum). Always-on instances are not billed here.
func (i *Instance) Terminate(p *sim.Proc) {
	if i.terminated || i.alwaysOn {
		i.terminated = true
		return
	}
	i.terminated = true
	dur := p.Now() - i.startedAt
	if dur < i.svc.cfg.MinBilledDuration {
		dur = i.svc.cfg.MinBilledDuration
	}
	i.svc.meter.AddEC2Hours(i.Type.Name, dur.Hours())
}

// effectiveVCPUs returns the vCPUs the baseline codebase actually exploits.
func (i *Instance) effectiveVCPUs() float64 {
	v := float64(i.Type.VCPUs)
	if cap := i.svc.cfg.EffectiveVCPUCap; cap > 0 && v > cap {
		v = cap
	}
	return v
}

// Compute charges virtual time for macs multiply-adds on the instance,
// bounded by the codebase's effective parallelism (the baselines run the
// serial engine, §VI-A2).
func (i *Instance) Compute(p *sim.Proc, macs float64) {
	sec := macs / (i.svc.cfg.Perf.MACRatePerVCPU * i.effectiveVCPUs())
	p.Sleep(time.Duration(sec * float64(time.Second)))
}

// ComputeElem charges virtual time for element-wise operations.
func (i *Instance) ComputeElem(p *sim.Proc, ops float64) {
	sec := ops / (i.svc.cfg.Perf.ElemRatePerVCPU * i.effectiveVCPUs())
	p.Sleep(time.Duration(sec * float64(time.Second)))
}

// LoadFromEBS charges the time to read bytes from attached block storage.
func (i *Instance) LoadFromEBS(p *sim.Proc, bytes int64) {
	p.Sleep(time.Duration(float64(bytes) / i.svc.cfg.EBSReadBytesPerSec * float64(time.Second)))
}

// LoadFromS3 charges the time to read bytes from object storage.
func (i *Instance) LoadFromS3(p *sim.Proc, bytes int64) {
	p.Sleep(time.Duration(float64(bytes) / i.svc.cfg.S3ReadBytesPerSec * float64(time.Second)))
}

// MemoryBytes returns the instance's memory capacity.
func (i *Instance) MemoryBytes() int64 { return int64(i.Type.MemoryGB) << 30 }
