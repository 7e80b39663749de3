package kvcluster

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"testing"

	"fsdinference/internal/golden"
)

// TestGoldenSlotMap pins every slot's owner for 1 to 8 shards: one SHA-256
// over the maps in shard-count order, each owner as a little-endian uint32,
// is the golden file's one line. The owners route every inbox key to its
// node, so a moved digest is a moved simulated number, not a golden to
// refresh.
func TestGoldenSlotMap(t *testing.T) {
	h := sha256.New()
	var buf [4]byte
	for shards := 1; shards <= 8; shards++ {
		for _, owner := range BuildSlotMap(shards) {
			binary.LittleEndian.PutUint32(buf[:], uint32(owner))
			h.Write(buf[:])
		}
	}
	golden.Check(t, hex.EncodeToString(h.Sum(nil))+"\n")
}

// TestBuildSlotMapAllocatesOnce: the map itself is the one allocation, so a
// Deploy's cluster pays one, not several per hashed (slot, shard) pair — at
// 8 shards the map took 130 273 while rendezvous formatted its key with
// strconv.Itoa and hashed it through fnv.New64a.
func TestBuildSlotMapAllocatesOnce(t *testing.T) {
	if n := testing.AllocsPerRun(3, func() { BuildSlotMap(8) }); n != 1 {
		t.Fatalf("BuildSlotMap(8) made %v allocations, want 1", n)
	}
}
