// Package kvstore simulates a provisioned in-memory key-value store
// modelled on AWS ElastiCache for Redis (paper §II-D: the memory-based
// store the paper weighs against its pub/sub and object-storage channels
// and rules out on cost for sporadic workloads). It reproduces the
// behaviours the FSD-Inf-Memory channel depends on:
//
//   - provisioned cache nodes with fixed GB capacity, ops/second and
//     network-bandwidth limits, chosen from an instance catalogue,
//   - list push/pop plus blocking-read operations (RPUSH / LPOP / BLPOP)
//     with sub-millisecond API latency — the memory-speed data path,
//   - per-key TTLs so abandoned keyspaces expire on their own,
//   - provisioned node-hour billing that accrues from Provision to
//     Release whether or not any request arrives — unlike SQS/SNS/S3,
//     there is no per-request charge, which is exactly why a memory store
//     wins under sustained load and loses on sporadic traces.
package kvstore

import (
	"fmt"
	"slices"
	"sort"
	"strings"
	"time"

	"fsdinference/internal/cloud/usage"
	"fsdinference/internal/sim"
)

// NodeType describes a provisioned cache node size.
type NodeType struct {
	Name     string
	MemoryGB float64
	// MaxOpsPerSec is the node's request-rate ceiling.
	MaxOpsPerSec float64
	// NetBytesPerSec is the node's network bandwidth.
	NetBytesPerSec float64
}

// DefaultNodeType is the node size deployments and the analytic cost
// model assume unless configured otherwise — the single home of the
// default, so the simulator's bill and the break-even analysis cannot
// drift apart.
const DefaultNodeType = "cache.m6g.large"

// Catalog lists the cache node sizes available to deployments.
var Catalog = map[string]NodeType{
	"cache.t3.small":  {Name: "cache.t3.small", MemoryGB: 1.37, MaxOpsPerSec: 40_000, NetBytesPerSec: 600e6},
	"cache.m6g.large": {Name: "cache.m6g.large", MemoryGB: 6.38, MaxOpsPerSec: 100_000, NetBytesPerSec: 1.25e9},
	"cache.r6g.large": {Name: "cache.r6g.large", MemoryGB: 13.07, MaxOpsPerSec: 120_000, NetBytesPerSec: 1.25e9},
}

// Config holds service-wide behaviour and quotas.
type Config struct {
	// OpLatency is the API round-trip charged per operation — in-memory
	// stores answer in fractions of a millisecond where queue/object
	// services take 5-30 ms, which is the latency case for the channel.
	OpLatency time.Duration
	// MaxValueBytes caps one stored value (Redis allows 512 MB; the
	// default stays far above the pub-sub 256 KB ceiling, so the memory
	// channel never needs chunking).
	MaxValueBytes int
	// MinBilledDuration is the minimum billed lifetime of a provisioned
	// node: capacity reserved for a single query still pays a floor,
	// mirroring how provisioning latency and billing granularity make
	// memory stores uneconomical for one-shot use.
	MinBilledDuration time.Duration
	// KeyOverheadBytes approximates per-key metadata against capacity.
	KeyOverheadBytes int
}

// DefaultConfig returns ElastiCache-like defaults.
func DefaultConfig() Config {
	return Config{
		OpLatency:         300 * time.Microsecond,
		MaxValueBytes:     64 << 20,
		MinBilledDuration: 60 * time.Second,
		KeyOverheadBytes:  64,
	}
}

// Service is a simulated provisioned in-memory store endpoint.
type Service struct {
	k     *sim.Kernel
	meter *usage.Meter
	cfg   Config
	nodes map[string]*Node
}

// New returns a key-value store service on kernel k metering into meter.
func New(k *sim.Kernel, meter *usage.Meter, cfg Config) *Service {
	return &Service{k: k, meter: meter, cfg: cfg, nodes: make(map[string]*Node)}
}

// Config returns the service configuration.
func (s *Service) Config() Config { return s.cfg }

// Kernel returns the simulation kernel the service runs on, for layers
// (like the kvcluster subsystem) that schedule their own events.
func (s *Service) Kernel() *sim.Kernel { return s.k }

// Meter returns the usage meter the service bills into.
func (s *Service) Meter() *usage.Meter { return s.meter }

// Provision creates (or returns the existing) named node of the given
// type. Creation itself is a control-plane operation, but unlike queue or
// topic creation it is not free to keep: the node bills node-hours from
// this moment until Release, idle or not.
func (s *Service) Provision(name, typeName string) (*Node, error) {
	if n, ok := s.nodes[name]; ok {
		if n.typ.Name != typeName {
			return nil, fmt.Errorf("kvstore: node %q already provisioned as %s, not %s",
				name, n.typ.Name, typeName)
		}
		return n, nil
	}
	t, ok := Catalog[typeName]
	if !ok {
		return nil, fmt.Errorf("kvstore: unknown node type %q", typeName)
	}
	n := &Node{
		name:          name,
		typ:           t,
		svc:           s,
		provisionedAt: s.k.Now(),
		items:         make(map[string]*entry),
		limiter:       sim.NewLimiter(s.k, t.MaxOpsPerSec, t.MaxOpsPerSec),
		cond:          sim.NewCond(s.k),
	}
	s.nodes[name] = n
	return n, nil
}

// Settle accrues every live node's billing up to the current virtual
// time, so a meter snapshot taken now reflects all provisioned capacity
// consumed so far (the windowed-accounting hook: idle node-hours must
// land inside the window that held them).
func (s *Service) Settle() {
	// Accrue in sorted node order: accruals add float node-hours into
	// the shared meter, and float addition in map iteration order would
	// let the meter's low bits differ between runs of the same trace.
	names := make([]string, 0, len(s.nodes))
	for name := range s.nodes {
		names = append(names, name)
	}
	sort.Strings(names)
	for _, name := range names {
		s.nodes[name].accrue()
	}
}

// NumNodes returns the number of provisioned (billing) nodes
// (test/metrics helper): released nodes deregister, so a pool that
// decommissions correctly returns to its baseline.
//
//simlint:allow testonly — leak inspection: tests read it until Service.CheckInvariants (ROADMAP 7(d)) calls it
func (s *Service) NumNodes() int { return len(s.nodes) }

// NumKeys returns the live (unexpired) keys across all nodes
// (test/metrics helper; free of charge).
//
//simlint:allow testonly — leak inspection: tests read it until Service.CheckInvariants (ROADMAP 7(d)) calls it
func (s *Service) NumKeys() int {
	total := 0
	for _, n := range s.nodes {
		total += n.NumKeys()
	}
	return total
}

// entry is one key's stored state: a list of values plus an optional
// absolute expiry.
type entry struct {
	list      [][]byte
	bytes     int64
	expiresAt time.Duration // 0 = no TTL
}

// Node is one provisioned cache node.
type Node struct {
	name string
	typ  NodeType
	svc  *Service

	provisionedAt time.Duration
	billed        time.Duration // lifetime already metered
	released      bool

	// shard and replica attribute billed hours in cluster reports:
	// shard labels the cluster shard the node serves, replica marks it
	// as replica (not primary) capacity. Both are empty/false for
	// standalone nodes.
	shard   string
	replica bool

	items map[string]*entry
	// free holds the entries of keys a pop emptied, cleared but with their
	// lists' capacity kept, for the next keys created: an inbox that drains
	// and refills takes its entry back instead of allocating one. Expiry and
	// DropPrefix drop their entries instead, as they find them in map order.
	free      []*entry
	usedBytes int64
	limiter   *sim.Limiter
	cond      *sim.Cond
}

// Name returns the node name.
func (n *Node) Name() string { return n.name }

// SetBillingTag attributes the node's future accruals to a cluster
// shard, optionally as replica capacity. Any already-billed lifetime is
// accrued first so a promotion retag (replica -> primary) cannot move
// hours that were served in the old role; a freshly provisioned node
// retags before its first accrual, so the up-front billing floor lands
// under the new tag.
func (n *Node) SetBillingTag(shard string, replica bool) {
	if n.billed > 0 {
		n.accrue()
	}
	n.shard = shard
	n.replica = replica
}

// Released reports whether the node has been released (its billing clock
// stopped and its contents discarded).
func (n *Node) Released() bool { return n.released }

// IsReplica reports whether the node bills as replica capacity.
func (n *Node) IsReplica() bool { return n.replica }

// Type returns the node's provisioned size.
func (n *Node) Type() NodeType { return n.typ }

// UsedBytes returns the currently stored bytes (values plus key
// overhead), without billing a request.
//
//simlint:allow testonly — leak inspection: tests read it until Service.CheckInvariants (ROADMAP 7(d)) calls it
func (n *Node) UsedBytes() int64 { return n.usedBytes }

// CapacityBytes returns the node's memory capacity.
func (n *Node) CapacityBytes() int64 { return int64(n.typ.MemoryGB * float64(1<<30)) }

// accrue meters the node-hours consumed since the last accrual. Billing
// follows max(lifetime, MinBilledDuration): the floor is charged up front
// — reserving the capacity is what costs, not using it.
func (n *Node) accrue() {
	if n.released {
		return
	}
	lifetime := n.svc.k.Now() - n.provisionedAt
	if lifetime < n.svc.cfg.MinBilledDuration {
		lifetime = n.svc.cfg.MinBilledDuration
	}
	if delta := lifetime - n.billed; delta > 0 {
		n.svc.meter.AddKVNodeHours(n.typ.Name, delta.Hours())
		n.svc.meter.KVGBHours += float64(delta.Hours() * n.typ.MemoryGB)
		if n.shard != "" {
			n.svc.meter.AddKVShardHours(n.shard, delta.Hours())
		}
		if n.replica {
			n.svc.meter.AddKVReplicaHours(n.typ.Name, delta.Hours())
		}
		n.billed = lifetime
	}
}

// Release stops the node's billing clock and discards its contents.
func (n *Node) Release() {
	n.accrue()
	n.released = true
	n.items = make(map[string]*entry)
	n.usedBytes = 0
	delete(n.svc.nodes, n.name)
}

// dropExpired lazily removes the key if its TTL has elapsed.
func (n *Node) dropExpired(key string) {
	e := n.items[key]
	if e == nil || e.expiresAt == 0 || n.svc.k.Now() < e.expiresAt {
		return
	}
	n.usedBytes -= e.bytes + int64(n.svc.cfg.KeyOverheadBytes)
	delete(n.items, key)
}

// sweepExpired drops every expired key. Expiry is normally lazy
// (per-key, on access), which never revisits keys an aborted run
// abandoned; the full sweep runs when a write is about to fail on
// capacity, so dead keyspaces cannot wedge the node.
func (n *Node) sweepExpired() {
	for key := range n.items {
		n.dropExpired(key)
	}
}

func (n *Node) transferTime(bytes int) time.Duration {
	return time.Duration(float64(bytes) / n.typ.NetBytesPerSec * float64(time.Second))
}

// chargeOp applies the rate limit, meters the op and accrues billing.
func (n *Node) chargeOp(p *sim.Proc, bytes int) {
	n.limiter.Take(p, 1)
	p.Sleep(n.svc.cfg.OpLatency + n.transferTime(bytes))
	n.svc.meter.KVOps++
	n.accrue()
}

// RPush appends a value to the list at key, creating it if needed. A
// non-zero ttl (re)sets the key's expiry relative to now, like a
// pipelined RPUSH+EXPIRE billed as one round trip. Fails when the value
// exceeds the size cap or the node is out of memory. The node adopts val
// as the stored value instead of copying it, and BLPop hands that slice to
// the popper: neither side may write to it again (what workers push — wire
// frames, re-pushed as they are on failover recovery — is immutable once
// built).
func (n *Node) RPush(p *sim.Proc, key string, val []byte, ttl time.Duration) error {
	if key == "" {
		return fmt.Errorf("kvstore: empty key")
	}
	if len(val) > n.svc.cfg.MaxValueBytes {
		return fmt.Errorf("kvstore: value of %d bytes exceeds %d limit", len(val), n.svc.cfg.MaxValueBytes)
	}
	n.chargeOp(p, len(val))
	n.dropExpired(key)
	need := int64(len(val))
	e := n.items[key]
	if e == nil {
		need += int64(n.svc.cfg.KeyOverheadBytes)
	}
	if n.usedBytes+need > n.CapacityBytes() {
		n.sweepExpired()
	}
	if n.usedBytes+need > n.CapacityBytes() {
		return fmt.Errorf("kvstore: node %s out of memory (%d of %d bytes used)",
			n.name, n.usedBytes, n.CapacityBytes())
	}
	if e == nil {
		e = n.newEntry()
		n.items[key] = e
	}
	e.list = append(e.list, val)
	e.bytes += int64(len(val))
	n.usedBytes += need
	if ttl > 0 {
		e.expiresAt = n.svc.k.Now() + ttl
	}
	n.svc.meter.KVBytesIn += int64(len(val))
	n.cond.Broadcast()
	return nil
}

// BLPop pops the head of the list at key, blocking up to wait for a value
// to arrive. It returns nil on timeout. With wait <= 0 it degenerates to
// a non-blocking LPOP.
func (n *Node) BLPop(p *sim.Proc, key string, wait time.Duration) []byte {
	deadline := p.Now() + wait
	for {
		n.dropExpired(key)
		if e := n.items[key]; e != nil && len(e.list) > 0 {
			val := n.popHead(key, e)
			n.chargeOp(p, len(val))
			n.svc.meter.KVBytesOut += int64(len(val))
			return val
		}
		if wait <= 0 || p.Now() >= deadline {
			n.chargeOp(p, 0)
			return nil
		}
		n.cond.WaitTimeout(p, deadline-p.Now())
	}
}

func (n *Node) drop(key string) {
	if e := n.items[key]; e != nil {
		n.usedBytes -= e.bytes + int64(n.svc.cfg.KeyOverheadBytes)
		delete(n.items, key)
	}
}

// DropPrefix discards every key under prefix host-side, free of charge
// and virtual time — the control-plane teardown of a run's keyspace,
// analogous to DeleteQueue/Unsubscribe for the queue channel.
func (n *Node) DropPrefix(prefix string) {
	for key := range n.items {
		if strings.HasPrefix(key, prefix) {
			n.drop(key)
		}
	}
}

// ReplApply appends a value to the list at key host-side, free of charge
// and virtual time: the intra-cluster replication stream is not a billed
// API call — a replica's entire cost is its node-hours. Capacity is not
// enforced (the replica mirrors a primary of the same node type, so a
// write that fit the primary fits the replica). val is adopted, as by RPush:
// a replica stores the slice its primary does.
func (n *Node) ReplApply(key string, val []byte, ttl time.Duration) {
	if n.released || key == "" {
		return
	}
	n.dropExpired(key)
	e := n.items[key]
	if e == nil {
		e = n.newEntry()
		n.items[key] = e
		n.usedBytes += int64(n.svc.cfg.KeyOverheadBytes)
	}
	e.list = append(e.list, val)
	e.bytes += int64(len(val))
	n.usedBytes += int64(len(val))
	if ttl > 0 {
		e.expiresAt = n.svc.k.Now() + ttl
	}
	n.cond.Broadcast()
}

// ReplApplyPop removes the head of the list at key host-side (the
// replication of a pop), free of charge. A missing or empty key is a
// no-op — the replica may simply not have received the value yet.
func (n *Node) ReplApplyPop(key string) {
	if n.released {
		return
	}
	n.dropExpired(key)
	e := n.items[key]
	if e == nil || len(e.list) == 0 {
		return
	}
	n.popHead(key, e)
}

// newEntry returns an empty entry for a key being created: the last one a
// pop emptied, or a new one.
func (n *Node) newEntry() *entry {
	last := len(n.free) - 1
	if last < 0 {
		return &entry{}
	}
	e := n.free[last]
	n.free[last] = nil
	n.free = n.free[:last]
	return e
}

// popHead removes and returns the head of e, the non-empty list at key. The
// list shifts down in place, so it keeps its capacity; a list left empty
// deletes the key, and its entry, cleared, goes on the free list.
func (n *Node) popHead(key string, e *entry) []byte {
	val := e.list[0]
	last := len(e.list) - 1
	copy(e.list, e.list[1:])
	e.list[last] = nil
	e.list = e.list[:last]
	e.bytes -= int64(len(val))
	n.usedBytes -= int64(len(val))
	if last == 0 {
		n.usedBytes -= int64(n.svc.cfg.KeyOverheadBytes)
		delete(n.items, key)
		e.bytes, e.expiresAt = 0, 0
		n.free = append(n.free, e)
	}
	return val
}

// SyncFrom replaces the node's contents with a host-side copy of src —
// the background full re-sync a fresh replica performs when it joins a
// shard. Free of charge and virtual time, like the replication stream.
func (n *Node) SyncFrom(src *Node) {
	if n.released {
		return
	}
	n.items = make(map[string]*entry, len(src.items))
	n.usedBytes = 0
	for key, e := range src.items {
		// The values are immutable once pushed: only the list is copied.
		n.items[key] = &entry{list: slices.Clone(e.list), bytes: e.bytes, expiresAt: e.expiresAt}
		n.usedBytes += e.bytes + int64(n.svc.cfg.KeyOverheadBytes)
	}
	n.cond.Broadcast()
}

// NumValues returns the live (unexpired) list values stored on the node
// (test/metrics helper; free of charge) — what a failover with no
// replica to promote loses.
func (n *Node) NumValues() int {
	count := 0
	now := n.svc.k.Now()
	for _, e := range n.items {
		if e.expiresAt != 0 && now >= e.expiresAt {
			continue
		}
		count += len(e.list)
	}
	return count
}

// ListLens returns each live key's list length host-side, free of
// charge — the snapshot a cluster failover diffs against a replica to
// count exactly the values that die with the primary.
func (n *Node) ListLens() map[string]int {
	now := n.svc.k.Now()
	out := make(map[string]int, len(n.items))
	for key, e := range n.items {
		if e.expiresAt != 0 && now >= e.expiresAt {
			continue
		}
		out[key] = len(e.list)
	}
	return out
}

// NumKeys returns the node's live (unexpired) key count (test/metrics
// helper; free of charge).
func (n *Node) NumKeys() int {
	count := 0
	now := n.svc.k.Now()
	for _, e := range n.items {
		if e.expiresAt != 0 && now >= e.expiresAt {
			continue
		}
		count++
	}
	return count
}
