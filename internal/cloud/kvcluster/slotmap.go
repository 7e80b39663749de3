package kvcluster

import (
	"hash/fnv"
	"strconv"
	"strings"
)

// NumSlots is the cluster keyspace size, matching Redis Cluster's 16384
// hash slots: every key hashes to exactly one slot, and every slot is
// owned by exactly one shard, so routing is total and unambiguous.
const NumSlots = 16384

// SlotForKey hashes a key to its slot. Redis-style hash tags apply: when
// the key contains a non-empty "{...}" section, only that section is
// hashed, letting callers pin related keys to one slot. The engine's
// per-run inbox keys carry no tag, so worker inboxes scatter across
// shards — which is exactly what lets aggregate throughput scale past a
// single node's request-rate ceiling.
func SlotForKey(key string) int {
	if i := strings.IndexByte(key, '{'); i >= 0 {
		if j := strings.IndexByte(key[i+1:], '}'); j > 0 {
			key = key[i+1 : i+1+j]
		}
	}
	h := fnv.New32a()
	h.Write([]byte(key))
	return int(h.Sum32() % NumSlots)
}

// BuildSlotMap assigns every slot to one of shards owners by rendezvous
// (highest-random-weight) hashing: slot s belongs to the shard whose
// hash(s, shard) is largest. The assignment is total, deterministic, and
// minimally disruptive under topology change — growing from n to n+1
// shards moves only the slots the new shard wins, shrinking moves only
// the departed shard's slots — the property the MOVED-redirect protocol
// relies on and the slot-map property test pins.
func BuildSlotMap(shards int) []int {
	m := make([]int, NumSlots)
	for s := range m {
		best, bestH := 0, rendezvous(s, 0)
		for i := 1; i < shards; i++ {
			if h := rendezvous(s, i); h > bestH {
				best, bestH = i, h
			}
		}
		m[s] = best
	}
	return m
}

// rendezvous is the FNV-1a 64 hash of "slot/shard" in decimal, written
// into a stack buffer: BuildSlotMap calls it NumSlots times per shard, so it
// must not allocate.
func rendezvous(slot, shard int) uint64 {
	var buf [2*20 + 1]byte
	b := strconv.AppendInt(buf[:0], int64(slot), 10)
	b = append(b, '/')
	b = strconv.AppendInt(b, int64(shard), 10)
	h := uint64(fnvOffset64)
	for _, c := range b {
		h ^= uint64(c)
		h *= fnvPrime64
	}
	return h
}

// The FNV-1a 64 parameters, as hash/fnv's New64a uses them.
const (
	fnvOffset64 = 14695981039346656037
	fnvPrime64  = 1099511628211
)
