package workload

import (
	"testing"
	"time"
)

func TestDayGeneration(t *testing.T) {
	sizes := []int{1024, 4096}
	day := Day(100_000, sizes, 10_000, 1)
	if len(day) != 10 {
		t.Fatalf("queries = %d, want 10", len(day))
	}
	counts := map[int]int{}
	for i, q := range day {
		if q.At < 0 || q.At >= 24*time.Hour {
			t.Fatalf("arrival %v outside the day", q.At)
		}
		if i > 0 && day[i-1].At > q.At {
			t.Fatal("queries not sorted by arrival")
		}
		counts[q.Neurons]++
	}
	if counts[1024] != 5 || counts[4096] != 5 {
		t.Fatalf("sizes not evenly spread: %v", counts)
	}
}

func TestDayDeterministicAndSeedSensitive(t *testing.T) {
	a := Day(50_000, []int{1024}, 10_000, 7)
	b := Day(50_000, []int{1024}, 10_000, 7)
	for i := range a {
		if a[i] != b[i] {
			t.Fatal("same seed produced different days")
		}
	}
	c := Day(50_000, []int{1024}, 10_000, 8)
	same := true
	for i := range a {
		if a[i].At != c[i].At {
			same = false
		}
	}
	if same {
		t.Fatal("different seeds produced identical arrivals")
	}
}

func TestDayDegenerate(t *testing.T) {
	if Day(0, []int{1024}, 100, 1) != nil {
		t.Fatal("zero samples should yield no queries")
	}
	if Day(100, nil, 100, 1) != nil {
		t.Fatal("no sizes should yield no queries")
	}
	if got := Day(50, []int{1024}, 100, 1); len(got) != 1 {
		t.Fatalf("sub-batch volume should yield one query, got %d", len(got))
	}
	for _, s := range []*DiurnalStream{
		DiurnalDay(0, []int{64}, 1, 1, 8), DiurnalDay(10, []int{64}, 0, 1, 8), DiurnalDay(10, nil, 1, 1, 8),
	} {
		if q := s.Next(); q != nil {
			t.Fatalf("a day of no queries, samples or sizes yielded %v", q)
		}
	}
}

func testCosts() PlatformCosts {
	return PlatformCosts{
		FSDPerQuery: map[int]float64{1024: 0.10, 4096: 0.40},
		JSPerQuery:  map[int]float64{1024: 0.08, 4096: 0.30},
		AODaily:     97.92,
	}
}

func TestDailyCosts(t *testing.T) {
	day := Day(40_000, []int{1024, 4096}, 10_000, 1)
	r, err := DailyCosts(day, testCosts())
	if err != nil {
		t.Fatal(err)
	}
	if r.FSD != 2*0.10+2*0.40 {
		t.Fatalf("FSD = %v", r.FSD)
	}
	if r.JobScoped != 2*0.08+2*0.30 {
		t.Fatalf("JS = %v", r.JobScoped)
	}
	if r.AlwaysOn != 97.92 {
		t.Fatalf("AO = %v", r.AlwaysOn)
	}
}

func TestDailyCostsMissingSize(t *testing.T) {
	day := Day(10_000, []int{512}, 10_000, 1)
	if _, err := DailyCosts(day, testCosts()); err == nil {
		t.Fatal("missing size accepted")
	}
}

func TestSeriesAndCrossover(t *testing.T) {
	volumes := []int{10_000, 100_000, 1_000_000, 4_000_000, 8_000_000}
	rows, err := Series(volumes, []int{1024, 4096}, 10_000, testCosts(), 3)
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != len(volumes) {
		t.Fatalf("rows = %d", len(rows))
	}
	// FSD cost grows with volume; AO flat.
	for i := 1; i < len(rows); i++ {
		if rows[i].FSD <= rows[i-1].FSD {
			t.Fatal("FSD cost not increasing with volume")
		}
		if rows[i].AlwaysOn != rows[0].AlwaysOn {
			t.Fatal("AO cost not flat")
		}
	}
	// avg per-query $0.25 -> crossover just below 4M samples/day.
	cross := Crossover(rows)
	if cross != 4_000_000 {
		t.Fatalf("crossover at %d, want 4M", cross)
	}
}

func TestCrossoverNever(t *testing.T) {
	rows := []Row{{SamplesPerDay: 10, FSD: 1, AlwaysOn: 100}}
	if Crossover(rows) != -1 {
		t.Fatal("crossover reported where none exists")
	}
}
