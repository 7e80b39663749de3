package experiments

import (
	"fmt"
	"strconv"
	"strings"
	"sync"
	"testing"

	"fsdinference/internal/cloud/usage"
	"fsdinference/internal/core"
)

// Experiments share one lab and run once; tests assert on the cached
// tables.
var (
	labOnce sync.Once
	lab     *Lab
	tables  map[string]*Table
	tabErr  map[string]error
)

func table(t *testing.T, id string) *Table {
	t.Helper()
	labOnce.Do(func() {
		lab = NewLab(QuickScale())
		tables = make(map[string]*Table)
		tabErr = make(map[string]error)
		for _, r := range Registry() {
			tab, err := r.Run(lab)
			tables[r.ID] = tab
			tabErr[r.ID] = err
		}
	})
	if err := tabErr[id]; err != nil {
		t.Fatalf("experiment %s failed: %v", id, err)
	}
	tab, ok := tables[id]
	if !ok {
		t.Fatalf("no experiment %s is registered", id)
	}
	return tab
}

func cellFloat(t *testing.T, tab *Table, key, col string) float64 {
	t.Helper()
	s, ok := tab.Cell(key, col)
	if !ok {
		t.Fatalf("%s: no cell (%s, %s)", tab.ID, key, col)
	}
	s = strings.TrimSuffix(strings.TrimSuffix(s, "*"), "k")
	v, err := strconv.ParseFloat(s, 64)
	if err != nil {
		t.Fatalf("%s: cell (%s,%s)=%q not numeric", tab.ID, key, col, s)
	}
	return v
}

func TestRegistryCompleteAndUnique(t *testing.T) {
	ids := map[string]bool{}
	for _, r := range Registry() {
		if ids[r.ID] {
			t.Fatalf("duplicate experiment id %s", r.ID)
		}
		ids[r.ID] = true
		if r.Desc == "" || r.Run == nil {
			t.Fatalf("experiment %s incomplete", r.ID)
		}
	}
	// The paper's experiments, and the ones README points at in place of
	// example programs.
	for _, want := range []string{"fig4", "fig5", "fig6", "table2", "table3", "costval",
		"serving", "planner", "slomonitor"} {
		if !ids[want] {
			t.Fatalf("missing experiment %s", want)
		}
	}
	if _, ok := Find("fig4"); !ok {
		t.Fatal("Find failed for fig4")
	}
	if _, ok := Find("nope"); ok {
		t.Fatal("Find invented an experiment")
	}
}

func TestAllExperimentsProduceTables(t *testing.T) {
	for _, r := range Registry() {
		tab := table(t, r.ID)
		if tab == nil || len(tab.Rows) == 0 || len(tab.Columns) == 0 {
			t.Fatalf("%s produced an empty table", r.ID)
		}
		if s := tab.String(); !strings.Contains(s, tab.Title) {
			t.Fatalf("%s: rendering lost the title", r.ID)
		}
	}
}

func TestFig4ShapeFSDGrowsAOFlat(t *testing.T) {
	tab := table(t, "fig4")
	first := cellFloat(t, tab, "10k", "FSD-Inference")
	last := cellFloat(t, tab, "5120k", "FSD-Inference")
	if last <= first {
		t.Fatalf("FSD daily cost flat: %v -> %v", first, last)
	}
	aoFirst := cellFloat(t, tab, "10k", "Server-Always-On")
	aoLast := cellFloat(t, tab, "5120k", "Server-Always-On")
	if aoFirst != aoLast {
		t.Fatal("always-on cost should be flat")
	}
	// At low volumes FSD must be dramatically cheaper (the paper's core
	// sporadic-workload claim).
	if first*100 > aoFirst {
		t.Fatalf("FSD at 10k/day ($%v) not far below always-on ($%v)", first, aoFirst)
	}
}

func TestFig5ShapeParallelismPaysOffAtScale(t *testing.T) {
	tab := table(t, "fig5")
	largest := tab.Rows[len(tab.Rows)-1][0]
	fsd := cellFloat(t, tab, largest, "FSD-Inf")
	aoHot := cellFloat(t, tab, largest, "AO-Hot")
	aoCold := cellFloat(t, tab, largest, "AO-Cold")
	js := cellFloat(t, tab, largest, "JS")
	if !(fsd < aoHot && fsd < aoCold && fsd < js) {
		t.Fatalf("at N=%s FSD (%v) should beat AO-Hot (%v), AO-Cold (%v) and JS (%v)",
			largest, fsd, aoHot, aoCold, js)
	}
	// At the smallest size the always-on hot server wins (paper Fig. 5).
	smallest := tab.Rows[0][0]
	if cellFloat(t, tab, smallest, "AO-Hot") >= cellFloat(t, tab, smallest, "FSD-Inf") {
		t.Fatalf("at N=%s AO-Hot should beat FSD", smallest)
	}
	// JS pays provisioning on every query: never the winner.
	for _, row := range tab.Rows {
		js := cellFloat(t, tab, row[0], "JS")
		if js < cellFloat(t, tab, row[0], "AO-Hot") {
			t.Fatalf("JS beat AO-Hot at N=%s", row[0])
		}
	}
}

func TestFig6ShapeObjectCostGrowsFasterWithP(t *testing.T) {
	tab := table(t, "fig6")
	// For each size: object cost at max P must exceed queue cost at max
	// P, and object cost must grow with P.
	type point struct{ q, o float64 }
	bySize := map[string][]point{}
	var order []string
	for _, row := range tab.Rows {
		if row[0] == "" {
			continue
		}
		q, _ := strconv.ParseFloat(row[2], 64)
		o, _ := strconv.ParseFloat(row[5], 64)
		qc, _ := strconv.ParseFloat(row[3], 64)
		oc, _ := strconv.ParseFloat(row[5], 64)
		_ = q
		_ = o
		if _, ok := bySize[row[0]]; !ok {
			order = append(order, row[0])
		}
		bySize[row[0]] = append(bySize[row[0]], point{qc, oc})
	}
	for _, size := range order {
		pts := bySize[size]
		lastP := pts[len(pts)-1]
		if lastP.o <= lastP.q {
			t.Fatalf("N=%s: object cost %v not above queue cost %v at max P", size, lastP.o, lastP.q)
		}
		if pts[len(pts)-1].o <= pts[0].o {
			t.Fatalf("N=%s: object cost did not grow with P", size)
		}
	}
}

func TestTable2SerialParallelCrossover(t *testing.T) {
	tab := table(t, "table2")
	rows := tab.Rows
	smallest := rows[0][0]
	third := rows[2][0]
	largest := rows[len(rows)-1][0]

	// Serial wins at the smallest size (paper: 2.00 vs 6.43 ms).
	if cellFloat(t, tab, smallest, "FSD-Inf-Serial") >= cellFloat(t, tab, smallest, "FSD-Inf-Parallel") {
		t.Fatalf("serial should win at N=%s", smallest)
	}
	// Parallel wins at the third size (paper: 12.97 vs 32.62 ms).
	if cellFloat(t, tab, third, "FSD-Inf-Parallel") >= cellFloat(t, tab, third, "FSD-Inf-Serial") {
		t.Fatalf("parallel should win at N=%s", third)
	}
	// Serial and Sage are infeasible at the largest size.
	if s, _ := tab.Cell(largest, "FSD-Inf-Serial"); s != "-" {
		t.Fatalf("serial at N=%s should be infeasible, got %q", largest, s)
	}
	if s, _ := tab.Cell(largest, "Sage-SL-Inf"); s != "-" {
		t.Fatalf("sage at N=%s should be infeasible, got %q", largest, s)
	}
	// Sage processes only a payload-capped sample count.
	if s, _ := tab.Cell(smallest, "Sage samples"); !strings.Contains(s, "8192 of 10000") {
		t.Fatalf("sage samples at N=%s = %q, want 8192 of 10000", smallest, s)
	}
}

func TestTable3HGPBeatsRandom(t *testing.T) {
	tab := table(t, "table3")
	hgp := cellFloat(t, tab, "HGP-DNN", "data volume sent (B)")
	rp := cellFloat(t, tab, "RP", "data volume sent (B)")
	if hgp*2 >= rp {
		t.Fatalf("HGP volume %v not well below RP %v", hgp, rp)
	}
	hgpMS := cellFloat(t, tab, "HGP-DNN", "per-sample runtime (ms)")
	rpMS := cellFloat(t, tab, "RP", "per-sample runtime (ms)")
	if hgpMS >= rpMS {
		t.Fatalf("HGP runtime %v not below RP %v", hgpMS, rpMS)
	}
}

// TestCostValidationAgrees: §VI-F holds on every row, and there is a row for
// every kind the transport table declares — a new transport is validated by
// being declared.
func TestCostValidationAgrees(t *testing.T) {
	tab := table(t, "costval")
	for _, row := range tab.Rows {
		if row[len(row)-1] != "true" {
			t.Fatalf("cost validation failed for %s: %v", row[0], row)
		}
	}
	kinds := core.ChannelKinds()
	if len(tab.Rows) != len(kinds) {
		t.Fatalf("%d rows for %d kinds", len(tab.Rows), len(kinds))
	}
	for _, kind := range kinds {
		if _, ok := tab.Cell(kind.String(), "agree<1%"); !ok {
			t.Errorf("no row validates %v", kind)
		}
	}
}

func TestValidationAgreement(t *testing.T) {
	v := validation{
		predicted: usage.Breakdown{Lambda: 0.10, SNS: 0.20, SQS: 0.05},
		actual:    usage.Breakdown{Lambda: 0.10, SNS: 0.21, SQS: 0.05},
	}
	if !v.computeAgrees(0.01) {
		t.Fatal("identical compute should agree")
	}
	if v.commsAgree(0.01) {
		t.Fatal("4% comms difference should fail 1% tolerance")
	}
	if !v.commsAgree(0.05) {
		t.Fatal("4% comms difference should pass 5% tolerance")
	}
	if !v.totalAgrees(0.05) {
		t.Fatal("totals should agree at 5%")
	}
}

func TestValidationZeroBaseline(t *testing.T) {
	v := validation{}
	if !v.totalAgrees(0.01) || !v.commsAgree(0.01) || !v.computeAgrees(0.01) {
		t.Fatal("zero-vs-zero should agree")
	}
}

func TestPollingAblationLongWins(t *testing.T) {
	tab := table(t, "polling")
	longReq := cellFloat(t, tab, "long (W=2s)", "SQS requests")
	shortReq := cellFloat(t, tab, "short (W=0)", "SQS requests")
	if longReq >= shortReq {
		t.Fatalf("long polling requests %v not below short %v", longReq, shortReq)
	}
	longPer := cellFloat(t, tab, "long (W=2s)", "msgs/poll")
	shortPer := cellFloat(t, tab, "short (W=0)", "msgs/poll")
	if longPer <= shortPer {
		t.Fatalf("long polling msgs/poll %v not above short %v", longPer, shortPer)
	}
}

func TestLaunchAblationHierarchicalBeatsCentralized(t *testing.T) {
	tab := table(t, "launch")
	h := cellFloat(t, tab, "hierarchical", "tree populated (s)")
	c := cellFloat(t, tab, "centralized", "tree populated (s)")
	if h >= c {
		t.Fatalf("hierarchical %v not faster than centralized %v", h, c)
	}
}

func TestCompressionAblationShrinksBytes(t *testing.T) {
	tab := table(t, "compression")
	z := cellFloat(t, tab, "zlib", "bytes sent")
	o := cellFloat(t, tab, "off", "bytes sent")
	if z >= o {
		t.Fatalf("zlib bytes %v not below uncompressed %v", z, o)
	}
	if cellFloat(t, tab, "zlib", "total $") > cellFloat(t, tab, "off", "total $") {
		t.Fatal("compression should not raise total cost")
	}
}

func TestQuotaAblationCrossover(t *testing.T) {
	tab := table(t, "quota")
	// Batch-1 frames of 127 and 33 554 431 rows: 1 KiB and 256 MiB.
	small := cellFloat(t, tab, "127", "queue/object")
	big := cellFloat(t, tab, "33554431", "queue/object")
	if small >= 0.1 {
		t.Fatalf("queue/object ratio at 1KB = %v, want ~1 OOM cheaper", small)
	}
	if big <= 1 {
		t.Fatalf("queue/object ratio at 256MB = %v, want object cheaper", big)
	}
}

// TestCutPerLayerIsMeasuredOnce: a dimension's cut is measured once per
// lab and served from the cache after; DefaultScale asks for 1024 and 4096
// both as a stand-in and as a paper size.
func TestCutPerLayerIsMeasuredOnce(t *testing.T) {
	l := NewLab(QuickScale())
	first, err := l.cutPerLayer(256, 8)
	if err != nil {
		t.Fatal(err)
	}
	if first <= 0 {
		t.Fatalf("N=256 over 8 workers cuts %v rows per layer, want some", first)
	}
	l.cuts["256/8"] = first + 1
	if again, err := l.cutPerLayer(256, 8); err != nil || again != first+1 {
		t.Fatalf("second ask = %v, %v; want the cached %v", again, err, first+1)
	}
}

func TestDilationArithmetic(t *testing.T) {
	l := NewLab(QuickScale())
	size := l.Scale.Sizes[0] // 256 -> 1024
	// macRatio = (1024/256) * (120/12) = 40; batch ratio = 10000/32.
	want := 40.0 * 10000 / 32
	if got := l.Dilation(size); got != want {
		t.Fatalf("dilation = %v, want %v", got, want)
	}
	if got := l.layerDilation(size); got != want*12/120 {
		t.Fatalf("layer dilation = %v, want %v", got, want*12/120)
	}
}

func TestPaperFeasibilityGates(t *testing.T) {
	l := NewLab(QuickScale())
	if !l.SerialFeasiblePaper(16384) {
		t.Fatal("N=16384 should fit the serial instance")
	}
	if l.SerialFeasiblePaper(65536) {
		t.Fatal("N=65536 should exceed the serial instance (paper)")
	}
	if !l.SageFeasiblePaper(16384) || l.SageFeasiblePaper(65536) {
		t.Fatal("sage feasibility gates wrong")
	}
	if got := l.SageSamplesPaper(1024); got != 8192 {
		t.Fatalf("sage samples at 1024 = %d, want 8192", got)
	}
}

func TestTableCellLookup(t *testing.T) {
	tab := &Table{
		Columns: []string{"k", "v"},
		Rows:    [][]string{{"a", "1"}, {"b", "2"}},
	}
	if v, ok := tab.Cell("b", "v"); !ok || v != "2" {
		t.Fatalf("Cell = %q, %v", v, ok)
	}
	if _, ok := tab.Cell("c", "v"); ok {
		t.Fatal("missing key found")
	}
	if _, ok := tab.Cell("a", "w"); ok {
		t.Fatal("missing column found")
	}
}

func TestPlannerBeatsStaticPicksAcrossRegimes(t *testing.T) {
	// The acceptance bar for the workload-aware planner: drift-aware
	// Replan beats both static one-shot AutoSelect picks on daily cost
	// for the sporadic trace (the statics keep an idle-billing memory
	// node the probe scoring undercounted) and matches them on the
	// sustained trace (where the flat node rate genuinely wins).
	tab := table(t, "planner")
	spor := fmt.Sprintf("sporadic(%d/day) $", sporadicQueriesPerDay)
	sus := fmt.Sprintf("sustained(%dk/day) $", sustainedQueriesPerDay/1000)
	planSpor := cellFloat(t, tab, "planner", spor)
	planSus := cellFloat(t, tab, "planner", sus)
	for _, static := range []string{"static-latency", "static-cost"} {
		sSpor := cellFloat(t, tab, static, spor)
		sSus := cellFloat(t, tab, static, sus)
		if planSpor >= sSpor {
			t.Fatalf("sporadic: planner $%.4f/day does not beat %s $%.4f/day", planSpor, static, sSpor)
		}
		if planSus > sSus*1.001 {
			t.Fatalf("sustained: planner $%.4f/day does not match %s $%.4f/day", planSus, static, sSus)
		}
	}
	// The undercount at the heart of it: both statics hold the memory
	// channel on the sporadic trace.
	for _, static := range []string{"static-latency", "static-cost"} {
		pick, ok := tab.Cell(static, "pick")
		if !ok || !strings.Contains(pick, "Memory") {
			t.Fatalf("%s picked %q; the probe-scored selection should keep the memory channel", static, pick)
		}
	}
	if pick, _ := tab.Cell("planner", "pick"); !strings.Contains(pick, "Queue") || !strings.Contains(pick, "Memory") {
		t.Fatalf("planner pick %q should flip queue -> memory across regimes", pick)
	}
}

func TestChannelComparisonRegimes(t *testing.T) {
	// The three-way comparison must show the paper's tradeoff: the
	// memory store is the fastest channel at every parallelism, the
	// cheapest under sustained load, and the most expensive on the
	// sporadic trace (idle node-hours).
	tab := table(t, "channels")
	for _, p := range lab.Scale.Workers {
		key := strconv.Itoa(p)
		qms := cellFloat(t, tab, key, "queue ms")
		mms := cellFloat(t, tab, key, "memory ms")
		if mms >= qms {
			t.Fatalf("P=%d: memory %.2f ms not below queue %.2f ms", p, mms, qms)
		}
	}
	for _, col := range []string{"queue $", "object $"} {
		sporadic := cellFloat(t, tab, "sporadic(20/day)", col)
		sustained := cellFloat(t, tab, "sustained(200k/day)", col)
		memSporadic := cellFloat(t, tab, "sporadic(20/day)", "memory $")
		memSustained := cellFloat(t, tab, "sustained(200k/day)", "memory $")
		if memSporadic <= sporadic {
			t.Fatalf("sporadic: memory $%.4f not above %s $%.4f", memSporadic, col, sporadic)
		}
		if memSustained >= sustained {
			t.Fatalf("sustained: memory $%.4f not below %s $%.4f", memSustained, col, sustained)
		}
	}
}

func TestClusterThroughputScalesPastCeiling(t *testing.T) {
	// Headline (a): one provisioned node pins at its request-rate
	// ceiling; hashing the keyspace across shards serves past it,
	// roughly linearly.
	tab := table(t, "cluster")
	ops := func(key string) float64 {
		t.Helper()
		s, ok := tab.Cell(key, "ops/s")
		if !ok {
			t.Fatalf("no cell (%s, ops/s)", key)
		}
		v, err := strconv.ParseFloat(strings.Fields(s)[0], 64)
		if err != nil {
			t.Fatalf("cell %q not numeric", s)
		}
		return v
	}
	one := ops("throughput 1 shard(s)")
	two := ops("throughput 2 shard(s)")
	four := ops("throughput 4 shard(s)")
	const ceiling = 40_000 // cache.t3.small MaxOpsPerSec
	if one > ceiling*1.10 {
		t.Fatalf("single node served %.0f ops/s, above its %d ceiling", one, ceiling)
	}
	if two <= ceiling*1.3 {
		t.Fatalf("2 shards served %.0f ops/s, not past the single-node ceiling", two)
	}
	if four <= two*1.3 {
		t.Fatalf("4 shards served %.0f ops/s, not meaningfully past 2 shards' %.0f", four, two)
	}
}

func TestClusterFailoverLadder(t *testing.T) {
	// Headline (b): a mid-run KillNode with R=2 completes with zero lost
	// messages; R=0 and R=1 lose in-flight values the run must re-send
	// and stall through the failover window — with replica node-hours
	// visible in the cost breakdown.
	tab := table(t, "cluster")
	baseLat := cellFloat(t, tab, "no failure R=0", "latency ms")
	for _, key := range []string{"kill mid-run R=0", "kill mid-run R=1"} {
		lost := cellFloat(t, tab, key, "lost")
		resent := cellFloat(t, tab, key, "resent")
		if lost <= 0 || resent <= 0 {
			t.Fatalf("%s: lost %.0f / resent %.0f, want both positive", key, lost, resent)
		}
		if lat := cellFloat(t, tab, key, "latency ms"); lat <= baseLat {
			t.Fatalf("%s: latency %.2f ms not above the %.2f ms no-failure baseline", key, lat, baseLat)
		}
	}
	if lost := cellFloat(t, tab, "kill mid-run R=2", "lost"); lost != 0 {
		t.Fatalf("R=2 lost %.0f values; quorum replication must hide a single kill", lost)
	}
	if resent := cellFloat(t, tab, "kill mid-run R=2", "resent"); resent != 0 {
		t.Fatalf("R=2 re-sent %.0f values; nothing should have been lost", resent)
	}
	kv := func(key string) (total, replicas float64) {
		t.Helper()
		s, ok := tab.Cell(key, "KV $ (replicas $)")
		if !ok {
			t.Fatalf("no cell (%s, KV $)", key)
		}
		parts := strings.Fields(s)
		total, err1 := strconv.ParseFloat(parts[0], 64)
		replicas, err2 := strconv.ParseFloat(strings.Trim(parts[1], "()"), 64)
		if err1 != nil || err2 != nil {
			t.Fatalf("cell %q not parseable", s)
		}
		return total, replicas
	}
	t0, r0 := kv("kill mid-run R=0")
	t2, r2 := kv("kill mid-run R=2")
	if r0 != 0 {
		t.Fatalf("R=0 shows $%.4f replica spend", r0)
	}
	if r2 <= 0 || t2 <= t0 {
		t.Fatalf("R=2 replica premium not visible: total $%.4f (replicas $%.4f) vs R=0 $%.4f", t2, r2, t0)
	}
	// The planner note closes the loop: a saturating volume picks the
	// sharded candidate.
	found := false
	for _, n := range tab.Notes {
		if strings.Contains(n, "2 shards") && strings.Contains(n, "Plan picks") {
			found = true
		}
	}
	if !found {
		t.Fatalf("no planner note picking the sharded candidate:\n%v", tab.Notes)
	}
}

func TestCollectivesShape(t *testing.T) {
	tab := table(t, "collectives")
	// Topology: tree and ring allreduce strictly beat flat from P=16 on,
	// and the flat gap widens with P.
	var prevFlat float64
	for _, p := range []string{"P=16", "P=32"} {
		flat := cellFloat(t, tab, p, "flat ms")
		tree := cellFloat(t, tab, p, "tree ms")
		ring := cellFloat(t, tab, p, "ring ms")
		if tree >= flat {
			t.Fatalf("%s: tree %.2fms does not beat flat %.2fms", p, tree, flat)
		}
		if ring >= flat {
			t.Fatalf("%s: ring %.2fms does not beat flat %.2fms", p, ring, flat)
		}
		if flat <= prevFlat {
			t.Fatalf("%s: flat %.2fms did not grow from %.2fms", p, flat, prevFlat)
		}
		prevFlat = flat
	}
	// Mixed workload: the planner picks a hybrid candidate on the small
	// node, and the hybrid score beats every monolithic channel's best.
	pick, ok := tab.Cell("mixed pick", "detail")
	if !ok || !strings.Contains(pick, "Hybrid") || !strings.Contains(pick, "cache.t3.small") {
		t.Fatalf("mixed pick is not hybrid on the small node: %q", pick)
	}
	bestScore := func(prefix string) float64 {
		best := -1.0
		for _, row := range tab.Rows {
			if !strings.HasPrefix(row[0], prefix) {
				continue
			}
			detail := row[len(row)-1]
			i := strings.Index(detail, "score ")
			if i < 0 {
				continue
			}
			v, err := strconv.ParseFloat(strings.TrimSpace(detail[i+len("score "):]), 64)
			if err != nil {
				t.Fatalf("%s: bad score in %q", row[0], detail)
			}
			if best < 0 || v < best {
				best = v
			}
		}
		if best < 0 {
			t.Fatalf("no scored trial rows with prefix %q", prefix)
		}
		return best
	}
	hybrid := bestScore("mixed FSD-Inf-Hybrid")
	for _, mono := range []string{"mixed FSD-Inf-Queue", "mixed FSD-Inf-Object", "mixed FSD-Inf-Memory"} {
		if s := bestScore(mono); hybrid >= s {
			t.Fatalf("hybrid score %.3f does not beat %s best %.3f", hybrid, mono, s)
		}
	}
	// The burst working set prunes the memory channel off the small node.
	pruned := false
	for _, row := range tab.Rows {
		if strings.HasPrefix(row[0], "mixed FSD-Inf-Memory") && strings.Contains(row[len(row)-1], "overflows") {
			pruned = true
		}
	}
	if !pruned {
		t.Fatal("memory channel on the small node was not capacity-pruned")
	}
	// The analytic pre-filter prunes the flat collective; tree wins.
	ppick, ok := tab.Cell("prune pick", "detail")
	if !ok || !strings.Contains(ppick, "[tree]") {
		t.Fatalf("prune pick did not select the tree collective: %q", ppick)
	}
}

func TestSLOMonitorAlertBeatsDrift(t *testing.T) {
	// The monitor's acceptance bar: on the flash crowd the burn-rate
	// page must fire within two scrape intervals of the crowd's onset,
	// the alert-driven re-plan must land before the drift arm's
	// break-even crossing, and acting on the page must cut simulated
	// time in SLO violation.
	tab := table(t, "slomonitor")
	driftReplan := cellFloat(t, tab, "drift-only", "first replan (s)")
	alertReplan := cellFloat(t, tab, "alert-driven", "first replan (s)")
	if alertReplan >= driftReplan {
		t.Fatalf("alert-driven replan at %.0fs not before drift replan at %.0fs", alertReplan, driftReplan)
	}
	page := cellFloat(t, tab, "alert-driven", "page (s)")
	const crowd, interval = 600, 15
	if page < crowd || page > crowd+2*interval {
		t.Fatalf("page at %.0fs, want within two scrapes of the crowd at %ds", page, crowd)
	}
	if alertReplan != page {
		t.Fatalf("alert-driven replan at %.0fs did not ride the page at %.0fs", alertReplan, page)
	}
	trigger, _ := tab.Cell("alert-driven", "trigger")
	if !strings.Contains(trigger, "slo alert") {
		t.Fatalf("alert-driven trigger %q is not the SLO alert", trigger)
	}
	trigger, _ = tab.Cell("drift-only", "trigger")
	if !strings.Contains(trigger, "break-even") {
		t.Fatalf("drift-only trigger %q is not the break-even crossing", trigger)
	}
	driftViol := cellFloat(t, tab, "drift-only", "violation (s)")
	alertViol := cellFloat(t, tab, "alert-driven", "violation (s)")
	if alertViol <= 0 || driftViol <= 0 {
		t.Fatalf("both arms must spend time in violation: drift %.0fs, alert %.0fs", driftViol, alertViol)
	}
	if alertViol >= driftViol {
		t.Fatalf("alert-driven violation %.0fs not below drift-only %.0fs", alertViol, driftViol)
	}
	// The passive arm still pages — observation is identical, only the
	// sink differs.
	if p := cellFloat(t, tab, "drift-only", "page (s)"); p != page {
		t.Fatalf("passive page at %.0fs diverged from active %.0fs", p, page)
	}
}

func TestServingElasticity(t *testing.T) {
	// The serving claims README quotes: on the sporadic day the autoscaler
	// provisions at least 2.5x fewer replica-hours than a fixed pool of
	// three at the same p95 and metered cost (within 2 %); under 2 s
	// deadlines a starved fixed pool of one sheds at least a quarter of
	// the day while the autoscaler serves it all; on the burst, every
	// extra run a replica may overlap holds replica-hours level or lower,
	// and four runs per replica need at most half of one's.
	tab := table(t, "serving")
	within := func(what string, a, b, tol float64) {
		t.Helper()
		if d := (a - b) / b; d > tol || d < -tol {
			t.Fatalf("%s: %v vs %v differ by more than %.0f%%", what, a, b, tol*100)
		}
	}
	fixedH := cellFloat(t, tab, "fixed(3)", "replica-hours")
	autoH := cellFloat(t, tab, "autoscale(1..3)", "replica-hours")
	if fixedH < 2.5*autoH {
		t.Fatalf("autoscale %.2f replica-hours not 2.5x below fixed(3) %.2f", autoH, fixedH)
	}
	for _, col := range []string{"p95 (ms)", "metered $"} {
		within(col, cellFloat(t, tab, "autoscale(1..3)", col), cellFloat(t, tab, "fixed(3)", col), 0.02)
	}

	const starved, elastic = "fixed(1) 2s deadline", "autoscale(1..3) 2s deadline"
	served, shed := cellFloat(t, tab, starved, "served"), cellFloat(t, tab, starved, "shed")
	if shed < 0.25*(served+shed) {
		t.Fatalf("fixed(1) shed %.0f of %.0f queries, want at least a quarter", shed, served+shed)
	}
	if s := cellFloat(t, tab, elastic, "shed"); s != 0 {
		t.Fatalf("autoscaler shed %.0f queries under 2s deadlines", s)
	}
	if s := cellFloat(t, tab, elastic, "served"); s != served+shed {
		t.Fatalf("autoscaler served %.0f of %.0f queries", s, served+shed)
	}

	prev := 0.0
	for rc := 1; rc <= 4; rc++ {
		h := cellFloat(t, tab, fmt.Sprintf("burst runs/replica=%d", rc), "replica-hours")
		if rc > 1 && h > prev {
			t.Fatalf("runs/replica=%d: %.4f replica-hours, up from %.4f", rc, h, prev)
		}
		prev = h
	}
	if one := cellFloat(t, tab, "burst runs/replica=1", "replica-hours"); prev*2 > one {
		t.Fatalf("runs/replica=4 holds %.4f replica-hours, not half of 1's %.4f", prev, one)
	}

	for _, row := range tab.Rows {
		if f := cellFloat(t, tab, row[0], "failed"); f != 0 {
			t.Fatalf("%s: %.0f queries failed", row[0], f)
		}
	}
}

// Cell finds the row whose first column equals key and returns the cell in
// the named column.
func (t *Table) Cell(key, column string) (string, bool) {
	ci := -1
	for i, c := range t.Columns {
		if c == column {
			ci = i
			break
		}
	}
	if ci < 0 {
		return "", false
	}
	for _, row := range t.Rows {
		if len(row) > ci && row[0] == key {
			return row[ci], true
		}
	}
	return "", false
}
