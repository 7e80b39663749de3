package collective_test

import (
	"crypto/sha256"
	"fmt"
	"strings"
	"testing"

	"fsdinference/internal/cloud/env"
	"fsdinference/internal/collective"
	"fsdinference/internal/core"
)

// TestGoldenPick pins AutoAlgo's choice on every cell of a grid: P 2..64 x
// the traits of Queue, Object, Memory and Hybrid (inline at 0 B and on its
// object route above the threshold) x nine payloads from 0 B to 16 MiB, two
// of them the reduce contribution the workers resolve with x the three
// operations. A moved digest is a moved pick, and so a MODEL CHANGE.
func TestGoldenPick(t *testing.T) {
	const golden = "5944eada3ad4553b"
	ec := env.DefaultConfig()
	traits := []struct {
		kind core.ChannelKind
		msg  int64
	}{
		{core.Queue, 0}, {core.Object, 0}, {core.Memory, 0},
		{core.Hybrid, 0}, {core.Hybrid, core.DefaultHybridThresholdBytes + 1},
	}
	var b strings.Builder
	cells := 0
	for p := 2; p <= 64; p++ {
		payloads := []int64{0, 64, 1 << 10, 16 << 10, 256 << 10, 4 << 20, 16 << 20,
			core.ReduceContributionBytes(1024, p, 8), core.ReduceContributionBytes(65536, p, 64)}
		for _, k := range traits {
			tr := core.ChannelTraits(core.Config{Channel: k.kind}, ec, k.msg)
			for _, m := range payloads {
				for _, op := range []collective.Op{collective.OpBarrier, collective.OpAllreduce, collective.OpGather} {
					fmt.Fprintf(&b, "%d %v/%d %d %v %v\n", p, k.kind, k.msg, m, op, collective.Pick(op, p, m, tr))
					cells++
				}
			}
		}
	}
	sum := sha256.Sum256([]byte(b.String()))
	if got := fmt.Sprintf("%x", sum[:8]); got != golden {
		t.Errorf("Pick moved on the %d-cell grid: digest %q, want %q", cells, got, golden)
	}
}
