// Package s3 simulates a cloud object storage service modelled on AWS S3
// (paper §II-D6, §III-B). It reproduces the behaviours FSD-Inf-Object is
// designed around:
//
//   - buckets holding immutable objects under hierarchical key prefixes,
//   - PUT/GET/LIST requests billed per request, independent of object size
//     (which is why object-storage communication cost grows linearly with
//     worker parallelism but not data volume, paper §VI-D1),
//   - per-prefix API rate limits, so spreading traffic over k buckets
//     raises the aggregate limit k-fold (the paper's multi-bucket design),
//   - latency plus bandwidth transfer-time models for reads and writes,
//   - strong read-after-write consistency (as S3 provides today), which the
//     object channel's LIST-driven receive loop relies on.
package s3

import (
	"fmt"
	"sort"
	"strings"
	"time"

	"fsdinference/internal/cloud/usage"
	"fsdinference/internal/sim"
)

// Config holds service-wide behaviour and quotas.
type Config struct {
	// PutLatency, GetLatency, ListLatency and DeleteLatency are
	// first-byte API latencies charged to the caller.
	PutLatency    time.Duration
	GetLatency    time.Duration
	ListLatency   time.Duration
	DeleteLatency time.Duration

	// PutBytesPerSec and GetBytesPerSec model single-connection transfer
	// bandwidth between a function instance and the service.
	PutBytesPerSec float64
	GetBytesPerSec float64

	// PutRatePerPrefix and GetRatePerPrefix are the provider API quotas
	// per bucket prefix (3,500 writes/s and 5,500 reads/s on S3). LIST
	// shares the read quota.
	PutRatePerPrefix float64
	GetRatePerPrefix float64

	// MaxKeysPerList caps keys returned by one LIST call (1,000).
	MaxKeysPerList int
}

// DefaultConfig returns S3-like defaults.
func DefaultConfig() Config {
	return Config{
		PutLatency:       25 * time.Millisecond,
		GetLatency:       15 * time.Millisecond,
		ListLatency:      30 * time.Millisecond,
		DeleteLatency:    15 * time.Millisecond,
		PutBytesPerSec:   90e6,
		GetBytesPerSec:   120e6,
		PutRatePerPrefix: 3500,
		GetRatePerPrefix: 5500,
		MaxKeysPerList:   1000,
	}
}

// Service is a simulated S3 endpoint.
type Service struct {
	k       *sim.Kernel
	meter   *usage.Meter
	cfg     Config
	buckets map[string]*Bucket
}

// New returns an object storage service on kernel k metering into meter.
func New(k *sim.Kernel, meter *usage.Meter, cfg Config) *Service {
	return &Service{k: k, meter: meter, cfg: cfg, buckets: make(map[string]*Bucket)}
}

// Config returns the service configuration.
func (s *Service) Config() Config { return s.cfg }

// CreateBucket creates (or returns the existing) bucket with the given name.
func (s *Service) CreateBucket(name string) *Bucket {
	if b, ok := s.buckets[name]; ok {
		return b
	}
	b := &Bucket{
		name:        name,
		svc:         s,
		objects:     make(map[string][]byte),
		putLimiters: make(map[string]*sim.Limiter),
		getLimiters: make(map[string]*sim.Limiter),
	}
	s.buckets[name] = b
	return b
}

// Bucket returns the named bucket, or nil if it does not exist.
func (s *Service) Bucket(name string) *Bucket { return s.buckets[name] }

// Bucket is a simulated S3 bucket.
type Bucket struct {
	name    string
	svc     *Service
	objects map[string][]byte

	putLimiters map[string]*sim.Limiter
	getLimiters map[string]*sim.Limiter

	// Bandwidth overrides; 0 uses the service defaults. Experiments use
	// these to model parallel multipart transfers for bulk model loads.
	PutBandwidth float64
	GetBandwidth float64

	// Stats.
	Puts    int64
	Gets    int64
	Lists   int64
	Deletes int64
	Bytes   int64
}

// Name returns the bucket name.
func (b *Bucket) Name() string { return b.name }

// prefixOf returns the rate-limit prefix of a key: everything up to and
// including the final '/'.
func prefixOf(key string) string {
	if i := strings.LastIndexByte(key, '/'); i >= 0 {
		return key[:i+1]
	}
	return ""
}

func (b *Bucket) putLimiter(key string) *sim.Limiter {
	p := prefixOf(key)
	l, ok := b.putLimiters[p]
	if !ok {
		l = sim.NewLimiter(b.svc.k, b.svc.cfg.PutRatePerPrefix, b.svc.cfg.PutRatePerPrefix)
		b.putLimiters[p] = l
	}
	return l
}

func (b *Bucket) getLimiter(key string) *sim.Limiter {
	p := prefixOf(key)
	l, ok := b.getLimiters[p]
	if !ok {
		l = sim.NewLimiter(b.svc.k, b.svc.cfg.GetRatePerPrefix, b.svc.cfg.GetRatePerPrefix)
		b.getLimiters[p] = l
	}
	return l
}

func transfer(bytes int, rate float64) time.Duration {
	if rate <= 0 {
		return 0
	}
	return time.Duration(float64(bytes) / rate * float64(time.Second))
}

// Put writes an object, overwriting any existing object at key. PUTs are
// billed per request regardless of size, including zero-byte objects (the
// engine's ".nul" markers).
func (b *Bucket) Put(p *sim.Proc, key string, data []byte) error {
	if key == "" {
		return fmt.Errorf("s3: empty object key")
	}
	b.putLimiter(key).Take(p, 1)
	bw := b.svc.cfg.PutBytesPerSec
	if b.PutBandwidth > 0 {
		bw = b.PutBandwidth
	}
	p.Sleep(b.svc.cfg.PutLatency + transfer(len(data), bw))
	cp := make([]byte, len(data))
	copy(cp, data)
	b.objects[key] = cp
	b.Puts++
	b.Bytes += int64(len(data))
	b.svc.meter.S3PutCalls++
	b.svc.meter.S3BytesIn += int64(len(data))
	return nil
}

// Get reads an object into a buffer of the caller's own. Missing keys
// return an error after the API latency, as a real request would.
func (b *Bucket) Get(p *sim.Proc, key string) ([]byte, error) {
	data, err := b.View(p, key)
	if err != nil {
		return nil, err
	}
	cp := make([]byte, len(data))
	copy(cp, data)
	return cp, nil
}

// View is Get without the host-side copy: the same request — rate-limit
// token, billed GET, latency plus transfer time, metered bytes out — but
// the returned bytes are the stored object itself, shared with the bucket
// and every other reader, and must not be modified. A stored object is the
// private copy Put made or the slice Stage adopted, which its owner gave up
// writing to, and is replaced, never written to, so a view stays valid and
// unchanged for as long as its holder keeps it. The simulated transfer is
// what the reader pays for; copying the bytes again on the host would only
// charge the simulator.
func (b *Bucket) View(p *sim.Proc, key string) ([]byte, error) {
	b.getLimiter(key).Take(p, 1)
	b.Gets++
	b.svc.meter.S3GetCalls++
	data, ok := b.objects[key]
	if !ok {
		p.Sleep(b.svc.cfg.GetLatency)
		return nil, fmt.Errorf("s3: no such key %q in bucket %q", key, b.name)
	}
	bw := b.svc.cfg.GetBytesPerSec
	if b.GetBandwidth > 0 {
		bw = b.GetBandwidth
	}
	p.Sleep(b.svc.cfg.GetLatency + transfer(len(data), bw))
	b.svc.meter.S3BytesOut += int64(len(data))
	return data, nil
}

// List returns up to MaxKeysPerList keys with the given prefix, in
// lexicographic order. One billed LIST request per call.
func (b *Bucket) List(p *sim.Proc, prefix string) []string {
	b.getLimiter(prefix+"x").Take(p, 1)
	p.Sleep(b.svc.cfg.ListLatency)
	b.Lists++
	b.svc.meter.S3ListCalls++
	var keys []string
	for k := range b.objects {
		if strings.HasPrefix(k, prefix) {
			keys = append(keys, k)
		}
	}
	sort.Strings(keys)
	if len(keys) > b.svc.cfg.MaxKeysPerList {
		keys = keys[:b.svc.cfg.MaxKeysPerList]
	}
	return keys
}

// Delete removes an object. Deleting a missing key succeeds, as on S3.
func (b *Bucket) Delete(p *sim.Proc, key string) {
	p.Sleep(b.svc.cfg.DeleteLatency)
	delete(b.objects, key)
	b.Deletes++
}

// Stage writes an object host-side, free of charge and virtual time: no
// billed request, no transfer delay, no rate-limit token. Deployments use
// it for offline staging (a-priori model upload, buffered request inputs,
// paper §V-B2), which the engine models as happening outside the metered
// run. It must not be used for anything a function pays for. The bucket
// adopts data as the stored object instead of copying it: the caller must
// never write to it again (what deployments stage — wire frames and
// EncodeCSR blobs — is immutable once built).
func (b *Bucket) Stage(key string, data []byte) {
	b.objects[key] = data
}

// Unstage removes an object host-side, as Stage wrote it: no Delete
// latency, no count. Deployments use it to drop a finished run's objects,
// so that a long-lived bucket holds its model and the runs in flight.
func (b *Bucket) Unstage(key string) {
	delete(b.objects, key)
}

// Size returns the stored byte size of an object and whether it exists,
// without billing a request (test/metrics helper).
func (b *Bucket) Size(key string) (int, bool) {
	data, ok := b.objects[key]
	return len(data), ok
}

// NumObjects returns the number of stored objects (test/metrics helper).
func (b *Bucket) NumObjects() int { return len(b.objects) }

// Clear discards all objects (test/reset helper; free of charge).
func (b *Bucket) Clear() { b.objects = make(map[string][]byte) }
