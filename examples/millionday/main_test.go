package main

import (
	"testing"
	"time"
)

// TestMillionDayUnderBudget replays the full one-million-query day and
// holds it to a wall-clock budget: at the gated 100k queries/sec the day
// takes ten seconds, so ninety seconds means the streaming engine has
// catastrophically regressed (or fallen back to materialising the trace)
// even on a slow CI runner.
func TestMillionDayUnderBudget(t *testing.T) {
	if testing.Short() {
		t.Skip("full million-query replay; skipped with -short")
	}
	const total = 1_000_000
	rep, wall, err := replayMillion(total)
	if err != nil {
		t.Fatal(err)
	}
	if rep.Queries != total || rep.Failed != 0 {
		t.Fatalf("replayed %d queries, %d failed; want %d and none", rep.Queries, rep.Failed, total)
	}
	if budget := 90 * time.Second; wall > budget {
		t.Fatalf("million-query day took %v wall-clock, budget %v", wall, budget)
	}
	t.Logf("replayed %d queries in %v (%.0f queries/sec)",
		rep.Queries, wall.Round(time.Millisecond), float64(rep.Queries)/wall.Seconds())
}

// BenchmarkMillionQueryReplay streams the one-million-query day through
// replayMillion per iteration — streaming trace generation, admission,
// coalescing, batched inference, incremental report folding — and reports
// sustained queries/sec. `make profile` profiles it.
func BenchmarkMillionQueryReplay(b *testing.B) {
	const total = 1_000_000
	for i := 0; i < b.N; i++ {
		rep, _, err := replayMillion(total)
		if err != nil {
			b.Fatal(err)
		}
		if rep.Queries != total || rep.Failed != 0 {
			b.Fatalf("replayed %d queries, %d failed", rep.Queries, rep.Failed)
		}
	}
	b.ReportMetric(float64(total)*float64(b.N)/b.Elapsed().Seconds(), "queries/sec")
}
