package serve

import (
	"strings"
	"testing"

	"fsdinference/internal/cloud/usage"
)

// TestReportStringChaosCounters pins the rendering rule for the chaos
// counter line: it prints when ANY of the four counters is nonzero — a
// MOVED redirect without a completed failover must still surface — and is
// omitted only when all four are zero.
func TestReportStringChaosCounters(t *testing.T) {
	cases := []struct {
		name string
		rep  Report
		want string // "" means the line must be absent
	}{
		{"clean", Report{}, ""},
		{"failover only", Report{Usage: usage.Meter{KVFailovers: 2}},
			"store failovers: 2, 0 value(s) lost, 0 re-sent, 0 MOVED redirect(s)\n"},
		{"moved only", Report{Usage: usage.Meter{KVMoved: 3}},
			"store failovers: 0, 0 value(s) lost, 0 re-sent, 3 MOVED redirect(s)\n"},
		{"lost only", Report{Usage: usage.Meter{KVLostValues: 1}},
			"store failovers: 0, 1 value(s) lost, 0 re-sent, 0 MOVED redirect(s)\n"},
		{"resends only", Report{Usage: usage.Meter{KVResends: 4}},
			"store failovers: 0, 0 value(s) lost, 4 re-sent, 0 MOVED redirect(s)\n"},
		{"all", Report{Usage: usage.Meter{KVFailovers: 1, KVLostValues: 2, KVResends: 3, KVMoved: 4}},
			"store failovers: 1, 2 value(s) lost, 3 re-sent, 4 MOVED redirect(s)\n"},
	}
	for _, tc := range cases {
		out := tc.rep.String()
		if tc.want == "" {
			if strings.Contains(out, "store failovers:") {
				t.Errorf("%s: chaos line printed for all-zero counters:\n%s", tc.name, out)
			}
			continue
		}
		if !strings.Contains(out, tc.want) {
			t.Errorf("%s: report missing %q:\n%s", tc.name, tc.want, out)
		}
	}
}

// TestReportStringGolden pins the full rendering of an empty report, so
// accidental format drift shows up as a diff instead of silently breaking
// downstream parsing.
func TestReportStringGolden(t *testing.T) {
	const want = "serving report: 0 queries (0 samples), 0 failed, horizon 0s\n" +
		"latency: n/a\n" +
		"total metered cost: compute $0.0000, comms $0.0000 (SNS $0.0000, SQS $0.0000, S3 $0.0000), total $0.0000\n" +
		"instance starts: 0 cold / 0 warm\n"
	if got := (&Report{}).String(); got != want {
		t.Errorf("empty report drifted:\n--- got ---\n%s--- want ---\n%s", got, want)
	}
}
