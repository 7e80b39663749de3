// Package kvcluster layers a Redis-Cluster-style sharded, replicated
// key-value cluster on the provisioned in-memory store (kvstore). Keys
// hash into 16384 slots; rendezvous hashing maps every slot to one of N
// primary shards, each backed by one primary node and R replica nodes of
// the same provisioned type. Replicas bill node-hours exactly like
// primaries — availability is bought with capacity — and every node
// keeps its own request-rate and bandwidth ceiling, so aggregate cluster
// throughput scales with the shard count past any single node's limit.
//
// Replication follows the availability ladder real deployments climb:
//
//   - R = 0: no replica. A node failure loses the shard's entire
//     keyspace; a fresh empty node replaces it after the failover window.
//   - R = 1: asynchronous replication with a bounded lag. Failover
//     promotes the replica; writes still in the replication pipe when the
//     primary died are lost (the Redis async-replication window).
//   - R >= 2: quorum writes. Each write is acknowledged only after it
//     reaches a majority of the shard's nodes (primary plus the first
//     replica), costing one extra round trip per operation; the remaining
//     replicas trail asynchronously. A single node failure then loses
//     nothing: promotion picks the synchronously caught-up replica.
//
// Fault injection (KillNode, Partition) makes the failover window
// observable: operations on the affected shard's slots block (or error)
// until a replica is promoted — or a replacement provisioned — and the
// cluster topology epoch advances, at which point clients holding cached
// routes pay one MOVED-style redirect round trip.
package kvcluster

import (
	"fmt"
	"strconv"
	"time"

	"fsdinference/internal/cloud/kvstore"
	"fsdinference/internal/obs"
	"fsdinference/internal/sim"
)

// Config sizes and parameterises one cluster.
type Config struct {
	// Name prefixes node names and shard billing labels.
	Name string
	// Shards is the number of primaries N, at least 1.
	Shards int
	// Replicas is the replica count R per shard, at least 0.
	Replicas int
	// NodeType is the provisioned node size for every cluster node
	// (default kvstore.DefaultNodeType).
	NodeType string
	// FailoverWindow is how long a failed shard's slots stay unavailable
	// before a replica is promoted or a replacement provisioned (default
	// 5s — the detection-plus-election window of a managed store).
	FailoverWindow time.Duration
	// ReplicationLag bounds the asynchronous replication delay (default
	// 50ms). Writes younger than the lag when the primary dies are lost
	// under R = 1.
	ReplicationLag time.Duration
	// Trace is the owning deployment's observability scope
	// (internal/obs): failover and partition windows become fault spans
	// on per-shard tracks, MOVED redirects become instants. The zero
	// scope disables it.
	Trace obs.Scope
	// FailoverCounter and LostValuesCounter, when set, count failovers
	// and lost values into the owning endpoint's metrics registry so the
	// SLO monitor can attribute KV availability incidents per endpoint
	// (the obs counters are nil-safe, so the zero Config stays valid).
	FailoverCounter   *obs.Counter
	LostValuesCounter *obs.Counter
}

func (c Config) withDefaults() Config {
	if c.NodeType == "" {
		c.NodeType = kvstore.DefaultNodeType
	}
	if c.FailoverWindow <= 0 {
		c.FailoverWindow = 5 * time.Second
	}
	if c.ReplicationLag <= 0 {
		c.ReplicationLag = 50 * time.Millisecond
	}
	return c
}

// Client is one caller's cached view of the cluster topology. Operations
// taking a non-nil client charge a MOVED-style redirect round trip the
// first time the client acts after a topology change, mirroring how real
// cluster clients discover promotions.
type Client struct {
	epoch int
}

// Cluster is a sharded, replicated key-value cluster over provisioned
// store nodes.
type Cluster struct {
	kv  *kvstore.Service
	k   *sim.Kernel
	cfg Config

	slots  []int
	shards []*shard
	epoch  int // topology version; bumps on every promotion

	released bool

	failovers  int64
	lostValues int64
	moved      int64
}

// shard is one slot range owner: a primary plus R replicas.
type shard struct {
	c     *Cluster
	idx   int
	label string
	// strack is the shard's trace track ("ep/r1/kv/s0"); empty when the
	// cluster is untraced. faultSpan is the open failover span between
	// KillNode and promote.
	strack    string
	faultSpan obs.SpanRef
	primary   *kvstore.Node
	// replicas in promotion order: under quorum writes replicas[0] is
	// the synchronous majority partner and the failover candidate.
	replicas []*kvstore.Node
	nodeSeq  int

	failing bool
	cond    *sim.Cond

	// repEpoch invalidates in-flight asynchronous replication when the
	// primary dies: pending applies from a dead primary must not
	// resurrect on the promoted node.
	repEpoch int
}

// New provisions the cluster's nodes (N primaries, N*R replicas — all
// billing node-hours from this moment) and builds the slot map.
func New(kv *kvstore.Service, cfg Config) (*Cluster, error) {
	if cfg.Shards < 1 || cfg.Replicas < 0 {
		return nil, fmt.Errorf("kvcluster: %s: %d shard(s) of %d replica(s) each is no cluster", cfg.Name, cfg.Shards, cfg.Replicas)
	}
	cfg = cfg.withDefaults()
	c := &Cluster{
		kv:    kv,
		k:     kv.Kernel(),
		cfg:   cfg,
		slots: BuildSlotMap(cfg.Shards),
	}
	for i := 0; i < cfg.Shards; i++ {
		sh := &shard{
			c:     c,
			idx:   i,
			label: fmt.Sprintf("%s-s%d", cfg.Name, i),
			cond:  sim.NewCond(c.k),
		}
		if cfg.Trace.T != nil {
			sh.strack = fmt.Sprintf("%s/s%d", cfg.Trace.Track, i)
		}
		var err error
		if sh.primary, err = c.provision(sh, false); err != nil {
			return nil, err
		}
		for r := 0; r < cfg.Replicas; r++ {
			rep, err := c.provision(sh, true)
			if err != nil {
				return nil, err
			}
			sh.replicas = append(sh.replicas, rep)
		}
		c.shards = append(c.shards, sh)
	}
	return c, nil
}

func (c *Cluster) provision(sh *shard, replica bool) (*kvstore.Node, error) {
	name := fmt.Sprintf("%s-n%d", sh.label, sh.nodeSeq)
	sh.nodeSeq++
	n, err := c.kv.Provision(name, c.cfg.NodeType)
	if err != nil {
		return nil, err
	}
	n.SetBillingTag(sh.label, replica)
	return n, nil
}

// Epoch returns the topology version; it advances on every promotion.
//
//simlint:allow testonly — leak inspection: tests read it until Service.CheckInvariants (ROADMAP 7(d)) calls it
func (c *Cluster) Epoch() int { return c.epoch }

// Failovers, LostValues and Moved report the cluster's fault counters
// (also mirrored into the usage meter for windowed reports).
//
//simlint:allow testonly — leak inspection: tests read it until Service.CheckInvariants (ROADMAP 7(d)) calls it
func (c *Cluster) Failovers() int64 { return c.failovers }

// LostValues counts the values failovers lost because they had not replicated.
func (c *Cluster) LostValues() int64 { return c.lostValues }

// Moved counts the MOVED round trips cached clients paid after a promotion.
//
//simlint:allow testonly — leak inspection: tests read it until Service.CheckInvariants (ROADMAP 7(d)) calls it
func (c *Cluster) Moved() int64 { return c.moved }

// Shards returns the primary count.
func (c *Cluster) Shards() int { return len(c.shards) }

// Nodes returns every live cluster node, primaries first then replicas,
// in shard order.
func (c *Cluster) Nodes() []*kvstore.Node {
	var out []*kvstore.Node
	for _, sh := range c.shards {
		if sh.primary != nil && !sh.primary.Released() {
			out = append(out, sh.primary)
		}
	}
	for _, sh := range c.shards {
		for _, r := range sh.replicas {
			if !r.Released() {
				out = append(out, r)
			}
		}
	}
	return out
}

func (c *Cluster) shardFor(key string) *shard {
	return c.shards[c.slots[SlotForKey(key)]]
}

// redirect charges a cached client the MOVED round trip when the
// topology moved underneath it.
func (c *Cluster) redirect(p *sim.Proc, cl *Client) {
	if cl == nil || cl.epoch == c.epoch {
		return
	}
	p.Sleep(c.kv.Config().OpLatency)
	c.moved++
	c.kv.Meter().KVMoved++
	c.cfg.Trace.Event("moved", obs.KindEvent)
	cl.epoch = c.epoch
}

// quorum reports whether the shard runs quorum writes (R >= 2: primary
// plus the first replica form a majority of the shard's nodes).
func (sh *shard) quorum() bool { return len(sh.replicas) >= 2 }

// ackLatency is the extra round trip a quorum write pays for the
// synchronous replica acknowledgement.
func (c *Cluster) ackLatency() time.Duration { return c.kv.Config().OpLatency }

// RPush routes the key to its slot owner, appends the value on the
// primary and replicates per the shard's mode. During a failover of the
// owning shard the call blocks until promotion.
func (c *Cluster) RPush(p *sim.Proc, cl *Client, key string, val []byte, ttl time.Duration) error {
	sh := c.shardFor(key)
	c.opReady(p, cl, sh)
	if err := sh.primary.RPush(p, key, val, ttl); err != nil {
		return err
	}
	sh.replicatePush(p, key, val, ttl)
	return nil
}

func (sh *shard) replicatePush(p *sim.Proc, key string, val []byte, ttl time.Duration) {
	if len(sh.replicas) == 0 {
		return
	}
	if sh.quorum() {
		// Majority ack: the first replica applies synchronously and the
		// write pays one extra round trip; the rest trail asynchronously.
		sh.replicas[0].ReplApply(key, val, ttl)
		p.Sleep(sh.c.ackLatency())
		for _, r := range sh.replicas[1:] {
			sh.asyncApply(r, func(n *kvstore.Node) { n.ReplApply(key, val, ttl) })
		}
		return
	}
	sh.asyncApply(sh.replicas[0], func(n *kvstore.Node) { n.ReplApply(key, val, ttl) })
}

func (sh *shard) replicatePop(p *sim.Proc, key string) {
	if len(sh.replicas) == 0 {
		return
	}
	if sh.quorum() {
		sh.replicas[0].ReplApplyPop(key)
		p.Sleep(sh.c.ackLatency())
		for _, r := range sh.replicas[1:] {
			sh.asyncApply(r, func(n *kvstore.Node) { n.ReplApplyPop(key) })
		}
		return
	}
	sh.asyncApply(sh.replicas[0], func(n *kvstore.Node) { n.ReplApplyPop(key) })
}

// asyncApply ships one replication-stream entry to a replica after the
// configured lag. Entries from a dead primary (the shard's replication
// epoch moved) are dropped: they were in the pipe when the primary
// failed and never reached any surviving node.
func (sh *shard) asyncApply(n *kvstore.Node, apply func(*kvstore.Node)) {
	e := sh.repEpoch
	sh.c.k.At(sh.c.cfg.ReplicationLag, func() {
		if sh.repEpoch != e {
			return // lost with the failed primary; counted at kill time
		}
		apply(n)
	})
}

// BLPop routes the key to its slot owner and pops with a blocking wait.
// Failover time on the owning shard counts against the wait; nil is
// returned on timeout exactly as for a plain node.
func (c *Cluster) BLPop(p *sim.Proc, cl *Client, key string, wait time.Duration) []byte {
	val, _ := c.BLPopReached(p, cl, key, wait)
	return val
}

// BLPopReached is BLPop that also reports whether the pop reached the
// owning node, which meters it as one op whether or not it found a value: a
// wait spent entirely while the shard fails over returns nil, false and is
// metered nothing.
func (c *Cluster) BLPopReached(p *sim.Proc, cl *Client, key string, wait time.Duration) (val []byte, reached bool) {
	sh := c.shardFor(key)
	deadline := p.Now() + wait
	for {
		for sh.failing || sh.primary == nil {
			if wait <= 0 || p.Now() >= deadline {
				return nil, false
			}
			sh.cond.WaitTimeout(p, deadline-p.Now())
		}
		c.redirect(p, cl)
		// The redirect round trip yields: another fault may have landed
		// on the shard during it.
		if !sh.failing && sh.primary != nil {
			break
		}
	}
	// A wait already spent pops without blocking, as a zero wait does.
	val = sh.primary.BLPop(p, key, deadline-p.Now())
	if val != nil {
		sh.replicatePop(p, key)
	}
	return val, true
}

// DropPrefix discards every key under prefix host-side on every cluster
// node — primaries and replicas across all shards — the control-plane
// teardown of a run's keyspace. Free of charge and virtual time.
func (c *Cluster) DropPrefix(prefix string) {
	for _, sh := range c.shards {
		if sh.primary != nil {
			sh.primary.DropPrefix(prefix)
		}
		for _, r := range sh.replicas {
			r.DropPrefix(prefix)
		}
	}
}

// KillNode fails the shard's primary at the current virtual time: the
// node is released (its data is gone), the shard's slots become
// unavailable for the failover window, and losses are counted exactly —
// the values held on the primary that no surviving replica has yet
// received: everything for R = 0, the un-replicated pipe for
// asynchronous R = 1, nothing for quorum R >= 2 (the first replica is
// synchronously caught up). Values already consumed from the primary
// are not losses, however young. After the window a replica is promoted
// (or an empty replacement provisioned), fresh replicas restore R, and
// the topology epoch advances so cached clients pay a MOVED redirect.
// Killing a partitioned shard is allowed — the kill supersedes the
// partition's heal — but not a shard already failing over.
func (c *Cluster) KillNode(shardIdx int) error {
	if c.released {
		return fmt.Errorf("kvcluster: %s already released", c.cfg.Name)
	}
	if shardIdx < 0 || shardIdx >= len(c.shards) {
		return fmt.Errorf("kvcluster: no shard %d", shardIdx)
	}
	sh := c.shards[shardIdx]
	if sh.primary == nil {
		return fmt.Errorf("kvcluster: shard %d already failing over", shardIdx)
	}
	var lost int64
	if len(sh.replicas) == 0 {
		lost = int64(sh.primary.NumValues())
	} else {
		lost = diffValues(sh.primary, sh.replicas[0])
	}
	c.failovers++
	c.lostValues += lost
	c.cfg.FailoverCounter.Inc()
	c.cfg.LostValuesCounter.Add(lost)
	m := c.kv.Meter()
	m.KVFailovers++
	m.KVLostValues += lost
	sh.primary.Release()
	sh.primary = nil
	sh.failing = true
	sh.repEpoch++
	if t := c.cfg.Trace.T; t != nil {
		sh.faultSpan = t.Start(sh.strack, "failover", obs.KindFault, 0)
		sh.faultSpan.SetAttr("lost", strconv.FormatInt(lost, 10))
	}
	c.k.At(c.cfg.FailoverWindow, func() { sh.promote() })
	return nil
}

// diffValues counts the list values present on the primary that the
// replica has not yet received — per key, the primary's surplus. Values
// the replica holds beyond the primary are consumed-but-unreplicated
// pops: duplicates after promotion, not losses.
func diffValues(primary, replica *kvstore.Node) int64 {
	replicaLens := replica.ListLens()
	var lost int64
	for key, n := range primary.ListLens() {
		if d := n - replicaLens[key]; d > 0 {
			lost += int64(d)
		}
	}
	return lost
}

// promote completes a failover: the first replica (synchronously caught
// up under quorum, lag-bounded under async) becomes primary, or a fresh
// empty node replaces an unreplicated shard. Surviving replicas
// background-sync from the new primary — their replication stream from
// the dead primary was cut, so they may hold gaps — and new replicas
// are provisioned (billing from now) and synced, restoring the
// configured R.
func (sh *shard) promote() {
	c := sh.c
	if c.released {
		// The cluster was released while the shard was failing over:
		// provisioning replacements now would bill node-hours forever.
		return
	}
	// Close the billing window first: the promoted node's hours up to
	// this instant were served as replica capacity.
	c.kv.Settle()
	if len(sh.replicas) > 0 {
		sh.primary = sh.replicas[0]
		sh.replicas = sh.replicas[1:]
		sh.primary.SetBillingTag(sh.label, false)
	} else {
		n, err := c.provision(sh, false)
		if err != nil {
			// The node type was validated at New; re-provisioning the
			// same type cannot fail short of a programming error.
			panic(fmt.Sprintf("kvcluster: shard %d replacement: %v", sh.idx, err))
		}
		sh.primary = n
	}
	for _, r := range sh.replicas {
		r.SyncFrom(sh.primary)
	}
	for len(sh.replicas) < c.cfg.Replicas {
		r, err := c.provision(sh, true)
		if err != nil {
			panic(fmt.Sprintf("kvcluster: shard %d replica: %v", sh.idx, err))
		}
		r.SyncFrom(sh.primary)
		sh.replicas = append(sh.replicas, r)
	}
	sh.failing = false
	c.epoch++
	sh.faultSpan.End()
	sh.faultSpan = obs.SpanRef{}
	sh.cond.Broadcast()
}

// opReady brings an operation to a routable shard state: wait out any
// failover/partition, pay the topology redirect, and re-check — another
// fault may land during the redirect round trip itself.
func (c *Cluster) opReady(p *sim.Proc, cl *Client, sh *shard) {
	for {
		for sh.failing {
			sh.cond.Wait(p)
		}
		// A client that blocked through a promotion resumes against a
		// moved topology: pay the redirect before the retry lands.
		c.redirect(p, cl)
		if !sh.failing && sh.primary != nil {
			return
		}
	}
}

// Partition makes the shard's slots unavailable for d without killing
// the primary: operations block (or error) and no data is lost — the
// network heals before the failover logic would have promoted.
func (c *Cluster) Partition(shardIdx int, d time.Duration) error {
	if c.released {
		return fmt.Errorf("kvcluster: %s already released", c.cfg.Name)
	}
	if shardIdx < 0 || shardIdx >= len(c.shards) {
		return fmt.Errorf("kvcluster: no shard %d", shardIdx)
	}
	sh := c.shards[shardIdx]
	if sh.failing {
		return fmt.Errorf("kvcluster: shard %d already unavailable", shardIdx)
	}
	sh.failing = true
	epoch := sh.repEpoch
	var psp obs.SpanRef
	if t := c.cfg.Trace.T; t != nil {
		psp = t.Start(sh.strack, "partition", obs.KindFault, 0)
	}
	c.k.At(d, func() {
		if sh.repEpoch != epoch || !sh.failing {
			return // a kill superseded the partition (its span stays open and is simply never exported)
		}
		sh.failing = false
		psp.End()
		sh.cond.Broadcast()
	})
	return nil
}

// NumKeysByNode returns the live key count of every cluster node —
// primaries and replicas — keyed by node name, so teardown checks can
// assert the whole cluster (not just the primaries) unwound.
//
//simlint:allow testonly — leak inspection: tests read it until Service.CheckInvariants (ROADMAP 7(d)) calls it
func (c *Cluster) NumKeysByNode() map[string]int {
	out := make(map[string]int)
	for _, n := range c.Nodes() {
		out[n.Name()] = n.NumKeys()
	}
	return out
}

// Release stops every cluster node's billing clock and discards the
// cluster's contents. The cluster must not be used afterwards; a second
// Release finds no node left to release.
func (c *Cluster) Release() {
	c.released = true
	for _, sh := range c.shards {
		if sh.primary != nil {
			sh.primary.Release()
			sh.primary = nil
		}
		for _, r := range sh.replicas {
			r.Release()
		}
		sh.replicas = nil
	}
}
