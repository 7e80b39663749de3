package partition

import (
	"testing"

	"fsdinference/internal/model"
)

func testModel(t *testing.T, n, layers int) *model.Model {
	t.Helper()
	m, err := model.Generate(model.GraphChallengeSpec(n, layers, 1))
	if err != nil {
		t.Fatal(err)
	}
	return m
}

func TestBlockOwnerContiguousBalanced(t *testing.T) {
	m := testModel(t, 256, 2)
	p, err := BuildPlan(m, 5, Block, Options{})
	if err != nil {
		t.Fatal(err)
	}
	// Contiguity: owner must be non-decreasing.
	for v := 1; v < 256; v++ {
		if p.Owner[v] < p.Owner[v-1] {
			t.Fatalf("block owners not contiguous at %d", v)
		}
	}
	// Balance: sizes differ by at most 1.
	for w := 0; w < 5; w++ {
		if len(p.Rows[w]) < 256/5 || len(p.Rows[w]) > 256/5+1 {
			t.Fatalf("worker %d owns %d rows", w, len(p.Rows[w]))
		}
	}
}

func TestRandomOwnerBalanced(t *testing.T) {
	m := testModel(t, 300, 2)
	p, err := BuildPlan(m, 7, Random, Options{Seed: 3})
	if err != nil {
		t.Fatal(err)
	}
	for w := 0; w < 7; w++ {
		if len(p.Rows[w]) < 300/7 || len(p.Rows[w]) > 300/7+1 {
			t.Fatalf("worker %d owns %d rows", w, len(p.Rows[w]))
		}
	}
	// Different from block: not contiguous.
	contiguous := true
	for v := 1; v < 300; v++ {
		if p.Owner[v] < p.Owner[v-1] {
			contiguous = false
			break
		}
	}
	if contiguous {
		t.Fatal("random placement produced contiguous blocks")
	}
}

func TestHGPBeatsRandomOnCommunication(t *testing.T) {
	// The Table III effect at test scale: HGP-DNN must transfer far fewer
	// activation rows than random placement.
	m := testModel(t, 512, 6)
	hgp, err := BuildPlan(m, 8, HGPDNN, Options{Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	rp, err := BuildPlan(m, 8, Random, Options{Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	sh, sr := hgp.Stats(m), rp.Stats(m)
	if sh.RowTransfers*3 >= sr.RowTransfers {
		t.Fatalf("HGP transfers %d not at least 3x below RP %d", sh.RowTransfers, sr.RowTransfers)
	}
	if sh.NNZImbalance > 0.35 {
		t.Fatalf("HGP nnz imbalance %.3f too high", sh.NNZImbalance)
	}
}

func TestSendRecvMapsConsistent(t *testing.T) {
	m := testModel(t, 256, 4)
	for _, scheme := range []Scheme{Block, Random, HGPDNN} {
		p, err := BuildPlan(m, 6, scheme, Options{Seed: 2})
		if err != nil {
			t.Fatalf("%v: %v", scheme, err)
		}
		for k := 0; k < p.Layers; k++ {
			// Every send entry must appear in the target's recv list.
			for s := 0; s < p.Workers; s++ {
				for _, e := range p.Sends[k][s] {
					found := false
					for _, src := range p.Recvs[k][e.Target] {
						if src == int32(s) {
							found = true
							break
						}
					}
					if !found {
						t.Fatalf("%v layer %d: send %d->%d missing from recv map", scheme, k, s, e.Target)
					}
					if e.Target == int32(s) {
						t.Fatalf("%v layer %d: self-send at worker %d", scheme, k, s)
					}
					// Rows must be owned by the sender and sorted.
					for i, r := range e.Rows {
						if p.Owner[r] != int32(s) {
							t.Fatalf("%v layer %d: worker %d sends unowned row %d", scheme, k, s, r)
						}
						if i > 0 && e.Rows[i-1] >= r {
							t.Fatalf("%v layer %d: unsorted rows", scheme, k)
						}
					}
				}
			}
			// Every recv edge must have a matching send entry.
			for tgt := 0; tgt < p.Workers; tgt++ {
				for _, src := range p.Recvs[k][tgt] {
					if !p.SendsTo(k, src, int32(tgt)) {
						t.Fatalf("%v layer %d: recv %d<-%d has no send entry", scheme, k, tgt, src)
					}
				}
			}
		}
	}
}

func TestMapsCoverWeightDependencies(t *testing.T) {
	// For every nonzero W^k[i,j] with owner(i) != owner(j), row j must be
	// in owner(j)'s send list toward owner(i).
	m := testModel(t, 128, 3)
	p, err := BuildPlan(m, 4, HGPDNN, Options{Seed: 5})
	if err != nil {
		t.Fatal(err)
	}
	for k, w := range m.Layers {
		// Build a lookup of sent rows per (src, tgt).
		sent := make(map[[2]int32]map[int32]bool)
		for s := 0; s < p.Workers; s++ {
			for _, e := range p.Sends[k][s] {
				key := [2]int32{int32(s), e.Target}
				set := make(map[int32]bool, len(e.Rows))
				for _, r := range e.Rows {
					set[r] = true
				}
				sent[key] = set
			}
		}
		for i := 0; i < 128; i++ {
			wi := p.Owner[i]
			cols, _ := w.Row(i)
			for _, j := range cols {
				oj := p.Owner[j]
				if oj == wi {
					continue
				}
				set := sent[[2]int32{oj, wi}]
				if set == nil || !set[j] {
					t.Fatalf("layer %d: W[%d,%d] needs row %d from %d to %d but plan omits it",
						k, i, j, j, oj, wi)
				}
			}
		}
	}
}

func TestSingleWorkerPlanHasNoComm(t *testing.T) {
	m := testModel(t, 64, 3)
	p, err := BuildPlan(m, 1, Block, Options{})
	if err != nil {
		t.Fatal(err)
	}
	st := p.Stats(m)
	if st.RowTransfers != 0 || st.Pairs != 0 {
		t.Fatalf("single-worker plan communicates: %+v", st)
	}
	if len(p.Rows[0]) != 64 {
		t.Fatalf("worker 0 owns %d rows", len(p.Rows[0]))
	}
}

func TestBuildPlanErrors(t *testing.T) {
	m := testModel(t, 64, 1)
	if _, err := BuildPlan(m, 0, Block, Options{}); err == nil {
		t.Error("0 workers accepted")
	}
	if _, err := BuildPlan(m, 128, Block, Options{}); err == nil {
		t.Error("more workers than neurons accepted")
	}
	if _, err := BuildPlan(m, 2, Scheme(99), Options{}); err == nil {
		t.Error("unknown scheme accepted")
	}
}

func TestPlanDeterministic(t *testing.T) {
	m := testModel(t, 256, 3)
	for _, scheme := range []Scheme{Random, HGPDNN} {
		a, _ := BuildPlan(m, 6, scheme, Options{Seed: 9})
		b, _ := BuildPlan(m, 6, scheme, Options{Seed: 9})
		for v := range a.Owner {
			if a.Owner[v] != b.Owner[v] {
				t.Fatalf("%v: owners differ at %d", scheme, v)
			}
		}
	}
}

func TestMapBytesPositiveWhenCommunicating(t *testing.T) {
	m := testModel(t, 256, 3)
	p, _ := BuildPlan(m, 4, Random, Options{Seed: 1})
	var total int64
	for w := 0; w < 4; w++ {
		total += p.MapBytes(w)
	}
	if total <= 0 {
		t.Fatal("map bytes should be positive for a communicating plan")
	}
}

func TestSchemeString(t *testing.T) {
	if Block.String() != "Block" || Random.String() != "RP" || HGPDNN.String() != "HGP-DNN" {
		t.Fatal("scheme names wrong")
	}
}

func TestRowsSortedAndComplete(t *testing.T) {
	m := testModel(t, 200, 2)
	p, _ := BuildPlan(m, 7, HGPDNN, Options{Seed: 4})
	seen := make([]bool, 200)
	for w, rows := range p.Rows {
		for i, r := range rows {
			if i > 0 && rows[i-1] >= r {
				t.Fatalf("worker %d rows unsorted", w)
			}
			if seen[r] {
				t.Fatalf("row %d owned twice", r)
			}
			seen[r] = true
			if p.Owner[r] != int32(w) {
				t.Fatalf("row %d in worker %d list but owned by %d", r, w, p.Owner[r])
			}
		}
	}
	for r, s := range seen {
		if !s {
			t.Fatalf("row %d unowned", r)
		}
	}
}

func BenchmarkHypergraphPartition(b *testing.B) {
	m, err := model.Generate(model.GraphChallengeSpec(512, 6, 1))
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := BuildPlan(m, 8, HGPDNN, Options{Seed: 1}); err != nil {
			b.Fatal(err)
		}
	}
}
