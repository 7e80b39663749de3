package serve

import (
	"reflect"
	"testing"

	"fsdinference/internal/workload"
)

// TestReplaySameSeedIdenticalReports replays the same trace twice on
// identically configured fresh services and diffs the full Reports:
// every field — counts, latencies, costs, per-endpoint breakdowns, the
// rendered report text — must match bit-for-bit. This is the determinism
// contract the sharded replay lanes and the planner's cached probe trials
// both stand on.
func TestReplaySameSeedIdenticalReports(t *testing.T) {
	trace := workload.Day(30*6, []int{64, 128, 256}, 6, 5)
	opts := ReplayOptions{Seed: 23}

	a, err := lanesTestService(t).Replay(trace, opts)
	if err != nil {
		t.Fatal(err)
	}
	b, err := lanesTestService(t).Replay(trace, opts)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(a, b) {
		t.Fatalf("same-seed replays diverge:\nfirst:  %+v\nsecond: %+v", a, b)
	}
	if a.String() != b.String() {
		t.Fatalf("rendered reports diverge:\n%s\nvs\n%s", a.String(), b.String())
	}
}

// TestReplayStreamSameSeedIdenticalReports is the streaming counterpart:
// two ReplayStream passes over the same diurnal stream must fold to
// identical reports, including the histogram-derived percentiles.
func TestReplayStreamSameSeedIdenticalReports(t *testing.T) {
	opts := ReplayOptions{Seed: 23}
	run := func() *Report {
		rep, err := lanesTestService(t).ReplayStream(
			workload.DiurnalDay(1200, []int{64, 128, 256}, 4, 5, 128), opts)
		if err != nil {
			t.Fatal(err)
		}
		return rep
	}
	a, b := run(), run()
	if !reflect.DeepEqual(a, b) {
		t.Fatalf("same-seed streaming replays diverge:\nfirst:  %+v\nsecond: %+v", a, b)
	}
}
