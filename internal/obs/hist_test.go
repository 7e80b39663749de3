package obs

import (
	"math"
	"testing"
	"time"
)

// TestHistSingleSample: the p99 of one observation is that observation,
// exactly — the max clamp must cancel the bucket's rounding-up.
func TestHistSingleSample(t *testing.T) {
	var h Histogram
	d := 137 * time.Millisecond
	h.Observe(d)
	for _, p := range []int{1, 50, 95, 99, 100} {
		if got := h.Quantile(p); got != d {
			t.Errorf("p%d of single sample = %v, want %v", p, got, d)
		}
	}
	if h.Count() != 1 || h.Sum() != d || h.Min() != d || h.Max() != d {
		t.Errorf("single-sample stats wrong: count=%d sum=%v min=%v max=%v",
			h.Count(), h.Sum(), h.Min(), h.Max())
	}
}

// TestHistBelowFirstDecades: values at or below the linear head of the
// bucket scale (including zero and negative clamped to bucket 0) report
// exactly.
func TestHistBelowFirstDecades(t *testing.T) {
	var h Histogram
	for _, d := range []time.Duration{0, 1, 3, 15} {
		h.Observe(d)
	}
	if h.Min() != 0 || h.Max() != 15 {
		t.Errorf("min=%v max=%v", h.Min(), h.Max())
	}
	// Sub-16ns values index linearly, so each quantile is exact.
	if got := h.Quantile(25); got != 0 {
		t.Errorf("p25 = %v, want 0", got)
	}
	if got := h.Quantile(50); got != 1 {
		t.Errorf("p50 = %v, want 1ns", got)
	}
	if got := h.Quantile(75); got != 3 {
		t.Errorf("p75 = %v, want 3ns", got)
	}
	if got := h.Quantile(100); got != 15 {
		t.Errorf("p100 = %v, want 15ns", got)
	}

	// A negative duration (clock skew upstream) folds into bucket 0
	// rather than a panic or a wild index; quantiles report the bucket
	// bound (0) while Min stays exact.
	var n Histogram
	n.Observe(-time.Second)
	if got := n.Quantile(99); got != 0 {
		t.Errorf("negative sample p99 = %v, want bucket-0 bound 0", got)
	}
	if n.Min() != -time.Second {
		t.Errorf("negative sample min = %v", n.Min())
	}
}

// TestHistOverflowBucket: a duration near the top of the int64 range
// lands in the last decade and quantiles clamp to the exact max.
func TestHistOverflowBucket(t *testing.T) {
	var h Histogram
	huge := time.Duration(math.MaxInt64 - 7)
	h.Observe(time.Millisecond)
	h.Observe(huge)
	if got := h.Quantile(99); got != huge {
		t.Errorf("p99 = %v, want exact max %v", got, huge)
	}
	if got := h.Quantile(1); got < time.Millisecond || got > time.Millisecond+time.Millisecond/10 {
		t.Errorf("p1 = %v, want ~1ms bucket edge", got)
	}
	if h.Max() != huge {
		t.Errorf("max = %v", h.Max())
	}
}

// TestBucketMonotonic sweeps the bucket math at every supported
// geometry: indices never decrease with the value, the upper bound
// always covers the value, and the relative rounding error stays within
// one sub-bucket of its decade.
func TestBucketMonotonic(t *testing.T) {
	for _, sub := range []int{1, 2, 4, 8, 16} {
		prev := -1
		for _, v := range sweepDurations() {
			idx := bucketOf(v, sub)
			if idx < prev {
				t.Fatalf("sub=%d: bucketOf(%d) = %d < previous %d", sub, v, idx, prev)
			}
			prev = idx
			ub := upperBound(idx, sub)
			if ub < v {
				t.Fatalf("sub=%d: upperBound(bucketOf(%d)) = %d < value", sub, v, ub)
			}
			if sub == 16 && v >= 32 { // past the linear head the bound is within 1/16
				if float64(ub-v) > float64(v)/8 {
					t.Fatalf("bound %d too loose for %d", ub, v)
				}
			}
		}
	}
}

func sweepDurations() []time.Duration {
	var out []time.Duration
	for v := time.Duration(0); v < 200; v++ {
		out = append(out, v)
	}
	for e := uint(8); e < 62; e++ {
		base := time.Duration(1) << e
		out = append(out, base-1, base, base+base/16, base+base/3, base+base/2)
	}
	return out
}

// TestHistMerge: merging two halves equals observing everything in one
// histogram — bucket for bucket.
func TestHistMerge(t *testing.T) {
	var whole, a, b Histogram
	for i := 0; i < 500; i++ {
		d := time.Duration(i*i) * time.Microsecond
		whole.Observe(d)
		if i%2 == 0 {
			a.Observe(d)
		} else {
			b.Observe(d)
		}
	}
	a.Merge(&b)
	a.Merge(nil)          // no-op
	a.Merge(&Histogram{}) // empty no-op
	if a.Count() != whole.Count() || a.Sum() != whole.Sum() ||
		a.Min() != whole.Min() || a.Max() != whole.Max() {
		t.Fatalf("merged stats diverge: count %d/%d sum %v/%v",
			a.Count(), whole.Count(), a.Sum(), whole.Sum())
	}
	for _, p := range []int{1, 25, 50, 75, 95, 99, 100} {
		if a.Quantile(p) != whole.Quantile(p) {
			t.Errorf("p%d: merged %v, whole %v", p, a.Quantile(p), whole.Quantile(p))
		}
	}

	// Merging into an empty histogram copies min/max exactly.
	var empty Histogram
	empty.Merge(&whole)
	if empty.Min() != whole.Min() || empty.Max() != whole.Max() {
		t.Errorf("empty-merge min/max wrong: %v/%v", empty.Min(), empty.Max())
	}

	// Merging the slower half first, then the faster, moves the minimum
	// and the lowest bucket down.
	var slow, fast, merged Histogram
	for i := 0; i < 500; i++ {
		d := time.Duration(i*i) * time.Microsecond
		if i >= 250 {
			slow.Observe(d)
		} else {
			fast.Observe(d)
		}
	}
	merged.Merge(&slow)
	merged.Merge(&fast)
	for _, p := range []int{1, 50, 100} {
		if merged.Quantile(p) != whole.Quantile(p) {
			t.Errorf("slow-then-fast p%d: merged %v, whole %v", p, merged.Quantile(p), whole.Quantile(p))
		}
	}
	if merged.Min() != whole.Min() || merged.Max() != whole.Max() {
		t.Errorf("slow-then-fast min/max %v/%v, whole %v/%v", merged.Min(), merged.Max(), whole.Min(), whole.Max())
	}
}

// TestHistMergeGeometryMismatch: merging histograms with different
// sub-bucket resolutions used to fold counts into the wrong decades
// silently; it must panic instead. An empty default-geometry receiver
// (the registry's zero value) still adopts the argument's geometry.
func TestHistMergeGeometryMismatch(t *testing.T) {
	coarse := NewHistogram(4)
	fine := NewHistogram(16)
	coarse.Observe(3 * time.Millisecond)
	fine.Observe(5 * time.Millisecond)

	mustPanic := func(name string, fn func()) {
		t.Helper()
		defer func() {
			if recover() == nil {
				t.Errorf("%s: mismatched geometry did not panic", name)
			}
		}()
		fn()
	}
	mustPanic("Merge fine into coarse", func() { coarse.Merge(fine) })
	mustPanic("Merge coarse into fine", func() { fine.Merge(coarse) })
	snap := *fine
	mustPanic("Delta across geometries", func() { coarse.Delta(&snap) })

	// A zero-value (default-geometry) empty receiver adopts the
	// argument's geometry rather than panicking — registry folds start
	// from zero values.
	var zero Histogram
	zero.Merge(coarse)
	if zero.Count() != 1 || zero.Quantile(50) != coarse.Quantile(50) {
		t.Errorf("empty zero-value merge: count=%d p50=%v, want 1/%v",
			zero.Count(), zero.Quantile(50), coarse.Quantile(50))
	}
	mustPanic("adopted geometry then mismatch", func() { zero.Merge(fine) })

	// Same-geometry non-default merges still work.
	c2 := NewHistogram(4)
	c2.Observe(7 * time.Millisecond)
	coarse.Merge(c2)
	if coarse.Count() != 2 {
		t.Errorf("same-geometry merge count = %d, want 2", coarse.Count())
	}
}

// TestHistDelta: a snapshot copy plus Delta recovers exactly the
// observations made in between, with bucket-identical quantiles and
// bucket-derived (lane-order-independent) min/max.
func TestHistDelta(t *testing.T) {
	var h Histogram
	for i := 1; i <= 100; i++ {
		h.Observe(time.Duration(i) * time.Millisecond)
	}
	snap := h // plain struct copy is the snapshot
	var want Histogram
	for i := 101; i <= 250; i++ {
		d := time.Duration(i*i) * time.Microsecond
		h.Observe(d)
		want.Observe(d)
	}
	delta := h.Delta(&snap)
	if delta.Count() != want.Count() || delta.Sum() != want.Sum() {
		t.Fatalf("delta count/sum = %d/%v, want %d/%v",
			delta.Count(), delta.Sum(), want.Count(), want.Sum())
	}
	for _, p := range []int{50, 95, 99} {
		if delta.Quantile(p) > want.Quantile(p)+want.Quantile(p)/8 ||
			delta.Quantile(p) < want.Quantile(p)-want.Quantile(p)/8 {
			t.Errorf("delta p%d = %v, want ~%v", p, delta.Quantile(p), want.Quantile(p))
		}
	}
	// Min/max are bucket bounds, not exact extremes: still ordered and
	// covering.
	if delta.Min() > delta.Max() || delta.Max() < want.Max() {
		t.Errorf("delta min/max = %v/%v, want max ≥ %v", delta.Min(), delta.Max(), want.Max())
	}
	// An idle interval deltas to empty.
	idle := h
	if d := h.Delta(&idle); d.Count() != 0 {
		t.Errorf("idle delta count = %d, want 0", d.Count())
	}
}

// TestHistCountAtMost: the good/bad split the SLO monitor uses is
// bucket-granular and exact at bucket upper bounds.
func TestHistCountAtMost(t *testing.T) {
	var h Histogram
	for i := 1; i <= 64; i++ {
		h.Observe(time.Duration(i) * time.Millisecond)
	}
	if got := h.CountAtMost(-1); got != 0 {
		t.Errorf("CountAtMost(-1) = %d", got)
	}
	if got := h.CountAtMost(time.Hour); got != 64 {
		t.Errorf("CountAtMost(1h) = %d, want 64", got)
	}
	// At a quantile (a bucket upper bound) the count covers at least the
	// nearest rank, and never exceeds the total.
	p95 := h.Quantile(95)
	got := h.CountAtMost(p95)
	if got < 61 || got > 64 {
		t.Errorf("CountAtMost(p95=%v) = %d, want ~61..64", p95, got)
	}
	// Monotonic in the threshold.
	if h.CountAtMost(10*time.Millisecond) > h.CountAtMost(20*time.Millisecond) {
		t.Error("CountAtMost not monotonic")
	}
}
