// Command bench is the repository benchmark: five cold-cache workloads
// driven through public functions of fsdinference's internal packages and
// timed from outside, ten end-to-end metrics per workload, and a traced
// round that attributes host time and simulated time to layers. See
// README.md in this directory for the workload table and how to read the
// numbers; BENCHMARK.json at the repository root is the contract.
//
// Every round of every workload runs in a child process of its own, so
// the program's process-wide memos start cold and peak_rss_mb and setup_s
// are clean.
//
//	bash bench/run.sh                                   all workloads, -rounds rounds + traced round, writes a result file
//	bash bench/run.sh --workload W --seed N --seconds S --trace 0|1
//	                                                    one workload for S seconds; last stdout line is the contract JSON
//	bash bench/run.sh -compare A.json B.json            values, quartiles, delta vs bound; non-zero on regression
package main

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"math"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"sort"
	"strings"
	"time"
)

func main() {
	var (
		workloadName = flag.String("workload", "", "run one workload in contract mode (prints the contract JSON line)")
		seed         = flag.Int64("seed", 7, "derives every trace and input; models and partition plans use fixed seeds")
		seconds      = flag.Int("seconds", 20, "contract mode: how long to keep starting rounds")
		trace        = flag.Int("trace", 0, "contract mode: 0 = end-to-end metrics, 1 = per-layer metrics from a traced round")
		rounds       = flag.Int("rounds", 7, "full mode: untraced rounds per workload, interleaved")
		out          = flag.String("out", "", "full mode: result file (default bench/results/<seed>-<time>.json)")
		compare      = flag.Bool("compare", false, "compare two result files given as arguments")
		child        = flag.String("child", "", "internal: run one round (\"round\") or the layer probes (\"probes\") in this process")
	)
	flag.Parse()
	var err error
	switch {
	case *child != "":
		err = runChild(*child, *workloadName, *seed, *trace == 1)
	case *compare:
		err = runCompare(flag.Args())
	case *workloadName != "":
		err = runContract(*workloadName, *seed, *seconds, *trace == 1)
	default:
		err = runFull(*seed, *rounds, *out)
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "bench:", err)
		os.Exit(1)
	}
}

// --- child side ---------------------------------------------------------------

func runChild(kind, workloadName string, seed int64, traced bool) error {
	var v any
	switch kind {
	case "round":
		def := findWorkload(workloadName)
		if def == nil {
			return fmt.Errorf("unknown workload %q", workloadName)
		}
		r, err := runRound(def, fullScale, seed, traced)
		if err != nil {
			return err
		}
		v = r
	case "probes":
		m, err := runProbes(fullScale, seed)
		if err != nil {
			return err
		}
		v = m
	default:
		return fmt.Errorf("unknown child kind %q", kind)
	}
	return json.NewEncoder(os.Stdout).Encode(v)
}

// --- parent side ----------------------------------------------------------------

// childTimeout bounds one child process; the longest at full scale takes
// about a tenth of it.
const childTimeout = 150 * time.Second

// spawn runs this executable again as a child and decodes its stdout.
// The child is waited for (and killed on timeout) before spawn returns.
func spawn(v any, env []string, args ...string) error {
	exe, err := os.Executable()
	if err != nil {
		return err
	}
	ctx, cancel := context.WithTimeout(context.Background(), childTimeout)
	defer cancel()
	cmd := exec.CommandContext(ctx, exe, args...)
	cmd.Env = append(os.Environ(), env...)
	var stdout, stderr bytes.Buffer
	cmd.Stdout, cmd.Stderr = &stdout, &stderr
	if err := cmd.Run(); err != nil {
		return fmt.Errorf("child %s: %w\n%s", strings.Join(args, " "), err, stderr.String())
	}
	return json.Unmarshal(stdout.Bytes(), v)
}

func spawnRound(def *workloadDef, seed int64, traced bool) (*roundResult, error) {
	t := "0"
	if traced {
		t = "1"
	}
	r := &roundResult{}
	// A round runs on one host thread. The simulator runs one simulated
	// process at a time and hands over through channels; with a second P
	// the Go scheduler wakes another OS thread for many of those
	// hand-offs, and a futex wake between two vCPUs of a shared host is
	// both slow and the noisiest thing a round did (replay_sporadic 1.25 s
	// -> 0.87 s, collective_p32 3.0 s -> 2.15 s, quartile spread halved).
	return r, spawn(r, []string{"GOMAXPROCS=1"}, "-child", "round", "-workload", def.name, "-seed", fmt.Sprint(seed), "-trace", t)
}

// spawnTraced runs traced rounds until their pooled CPU profiles hold
// minProfileSamples samples (at most maxTracedRounds rounds).
func spawnTraced(def *workloadDef, seed int64) (*roundResult, error) {
	var rounds []*roundResult
	for samples := int64(0); samples < minProfileSamples && len(rounds) < maxTracedRounds; {
		r, err := spawnRound(def, seed, true)
		if err != nil {
			return nil, err
		}
		rounds = append(rounds, r)
		samples += r.Profile.Total
	}
	return poolTraced(rounds)
}

func spawnProbes(seed int64) (map[string]float64, error) {
	m := map[string]float64{}
	return m, spawn(&m, nil, "-child", "probes", "-seed", fmt.Sprint(seed))
}

// quartiles returns Q1, median and Q3 the way Python's
// statistics.quantiles(values, n=4) does (exclusive method), so spreads
// computed here and by an outside checker agree.
func quartiles(values []float64) (q1, med, q3 float64) {
	x := append([]float64(nil), values...)
	sort.Float64s(x)
	n := len(x)
	switch n {
	case 0:
		return 0, 0, 0
	case 1:
		return x[0], x[0], x[0]
	}
	at := func(i int) float64 {
		m := n + 1
		j := i * m / 4
		if j < 1 {
			j = 1
		}
		if j > n-1 {
			j = n - 1
		}
		delta := float64(i*m - j*4)
		return (x[j-1]*(4-delta) + x[j]*delta) / 4
	}
	return at(1), at(2), at(3)
}

func median(values []float64) float64 {
	_, m, _ := quartiles(values)
	return m
}

func minOf(values []float64) float64 {
	m := values[0]
	for _, v := range values[1:] {
		m = math.Min(m, v)
	}
	return m
}

// stat summarises one metric over the untraced rounds. Value is what the
// run reports: the median, or the best round for a metricDef.Best metric.
type stat struct {
	Value  float64 `json:"value"`
	Median float64 `json:"median"`
	Q1     float64 `json:"q1"`
	Q3     float64 `json:"q3"`
	N      int     `json:"n"`
}

// spread is the quartile distance as a share of the median.
func (s stat) spread() float64 {
	if s.Median == 0 {
		return 0
	}
	return (s.Q3 - s.Q1) / math.Abs(s.Median)
}

// unresolved reports whether the rounds behind s are too scattered for a
// move of m's bound to show. For a median that is the quartile spread.
// For a best-round metric it is the distance from the best round to the
// quartile on the good side: when a quarter of the rounds came that
// close, the best round is what the code costs and not a fluke, however
// far interference pushed the slow rounds.
func (s stat) unresolved(m metricDef) (share float64, yes bool) {
	share = s.spread()
	if m.Best && s.Value != 0 {
		near := s.Q1
		if m.Better == "higher" {
			near = s.Q3
		}
		share = math.Abs(s.Value-near) / math.Abs(s.Value)
	}
	return share, share > m.Bound
}

// workloadResult is everything measured for one workload.
type workloadResult struct {
	Name    string  `json:"name"`
	Why     string  `json:"why"`
	Loop    string  `json:"loop"`
	Tail    string  `json:"tail"`
	LimitMS float64 `json:"latency_limit_ms"` // 0: closed loop, no limit
	Params  string  `json:"params"`

	Rounds    []*roundResult  `json:"rounds"`
	Summary   map[string]stat `json:"end_to_end"`
	Attempted int             `json:"attempted"`
	Failed    int             `json:"failed"`
	Digest    string          `json:"sim_digest"`
	Correct   bool            `json:"correct"`
	Problems  []string        `json:"problems,omitempty"`

	Traced *roundResult       `json:"traced_round,omitempty"`
	Layer  map[string]float64 `json:"per_layer,omitempty"`
}

func newWorkloadResult(def *workloadDef, sc scale) *workloadResult {
	return &workloadResult{
		Name: def.name, Why: def.why, Loop: def.loop, Tail: def.tail,
		LimitMS: float64(def.limit) / float64(time.Millisecond),
		Params:  def.params(sc),
	}
}

// summarise folds the untraced rounds: medians and quartiles per metric,
// totals, and the two checks that decide Correct: no failed or wrong
// query, and one sim_digest across all rounds.
func (w *workloadResult) summarise() {
	w.Summary = map[string]stat{}
	w.Attempted, w.Failed, w.Problems = 0, 0, nil
	for _, m := range endToEnd {
		var vals []float64
		for _, r := range w.Rounds {
			vals = append(vals, r.Metrics[m.Name])
		}
		q1, med, q3 := quartiles(vals)
		st := stat{Value: med, Median: med, Q1: q1, Q3: q3, N: len(vals)}
		if m.Best {
			for _, v := range vals {
				if worse(m, st.Value, v) < 0 {
					st.Value = v
				}
			}
		}
		w.Summary[m.Name] = st
	}
	for _, r := range w.Rounds {
		w.Attempted += r.Queries
		w.Failed += r.Failed + r.Wrong
		if w.Digest == "" {
			w.Digest = r.Digest
		}
		if r.Digest != w.Digest {
			w.Problems = append(w.Problems, fmt.Sprintf("sim_digest differs between rounds at one seed (%s vs %s): the simulation is not deterministic", r.Digest[:12], w.Digest[:12]))
		}
		if r.Wrong > 0 {
			w.Problems = append(w.Problems, fmt.Sprintf("%d outputs differ from model.Reference", r.Wrong))
		}
	}
	if w.Failed > 0 {
		w.Problems = append(w.Problems, fmt.Sprintf("%d of %d queries failed", w.Failed, w.Attempted))
	}
	w.Correct = len(w.Problems) == 0 && len(w.Rounds) > 0
}

// addTraced merges the traced round, the probes and the harness's own
// numbers into the workload's per-layer set.
func (w *workloadResult) addTraced(traced *roundResult, probes map[string]float64) {
	w.Traced = traced
	w.Layer = map[string]float64{}
	for k, v := range traced.Layer {
		w.Layer[k] = v
	}
	for k, v := range probes {
		w.Layer[k] = v
	}
	if traced.Digest != w.Digest {
		w.Problems = append(w.Problems, "traced round's sim_digest differs from the untraced rounds': tracing changed the simulation")
		w.Correct = false
	}
	var walls []float64
	for _, r := range w.Rounds {
		walls = append(walls, r.MeasureS)
	}
	q1, med, q3 := quartiles(walls)
	w.Layer["bench.trace_overhead_share"] = traced.MeasureS/minOf(walls) - 1
	w.Layer["bench.wall_iqr_share"] = (q3 - q1) / med
}

// runContract is the mode the benchmark driver uses: one workload, rounds
// started until the run has lasted -seconds, medians over the rounds.
func runContract(name string, seed int64, seconds int, traced bool) error {
	def := findWorkload(name)
	if def == nil {
		return fmt.Errorf("unknown workload %q (have %s)", name, strings.Join(workloadNames(), ", "))
	}
	budget := time.Duration(seconds) * time.Second
	minRounds := 3
	if traced {
		// The traced round and the probes need most of the run; the
		// untraced rounds here only anchor the tracing overhead.
		budget, minRounds = budget/4, 2
	}
	start := hostNow()
	w := newWorkloadResult(def, fullScale)
	for len(w.Rounds) < minRounds || time.Duration(hostSince(start)) < budget {
		r, err := spawnRound(def, seed, false)
		if err != nil {
			return err
		}
		w.Rounds = append(w.Rounds, r)
	}
	w.summarise()
	defs := endToEnd
	values := map[string]float64{}
	for _, m := range endToEnd {
		values[m.Name] = w.Summary[m.Name].Value
	}
	if traced {
		tr, err := spawnTraced(def, seed)
		if err != nil {
			return err
		}
		probes, err := spawnProbes(seed)
		if err != nil {
			return err
		}
		w.addTraced(tr, probes)
		defs, values = perLayer, w.Layer
	}
	printWorkload(os.Stdout, w, traced)
	line, err := contractLine(w, defs, values)
	if err != nil {
		return err
	}
	fmt.Println(line)
	return nil
}

// contractLine renders the driver's result object.
func contractLine(w *workloadResult, defs []metricDef, values map[string]float64) (string, error) {
	type mv struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
	}
	res := struct {
		Correct   bool          `json:"correct"`
		Attempted int           `json:"attempted"`
		Failed    int           `json:"failed"`
		Metrics   map[string]mv `json:"metrics"`
	}{w.Correct, w.Attempted, w.Failed, map[string]mv{}}
	for _, m := range defs {
		v, ok := values[m.Name]
		if !ok {
			return "", fmt.Errorf("metric %s was not measured", m.Name)
		}
		res.Metrics[m.Name] = mv{v, m.Unit}
	}
	b, err := json.Marshal(res)
	return string(b), err
}

func workloadNames() []string {
	var names []string
	for _, w := range workloads {
		names = append(names, w.name)
	}
	return names
}

// envHeader records where a result file came from.
type envHeader struct {
	GoVersion  string `json:"go_version"`
	NumCPU     int    `json:"nproc"`
	GOMAXPROCS int    `json:"gomaxprocs"` // of this process and the probes; a round runs on 1
	Commit     string `json:"commit"`
	Seed       int64  `json:"seed"`
	Rounds     int    `json:"rounds"`
	Lateness   string `json:"generator_lateness"`
}

func newEnvHeader(seed int64, rounds int) envHeader {
	commit := "unknown"
	if bi, ok := debug.ReadBuildInfo(); ok {
		for _, s := range bi.Settings {
			if s.Key == "vcs.revision" {
				commit = s.Value
			}
		}
	}
	return envHeader{
		GoVersion: runtime.Version(), NumCPU: runtime.NumCPU(), GOMAXPROCS: runtime.GOMAXPROCS(0),
		Commit: commit, Seed: seed, Rounds: rounds,
		Lateness: "0 by construction: open-loop arrivals are events in simulated time, so no query is ever submitted late",
	}
}

// resultFile is what full mode writes and -compare reads.
type resultFile struct {
	Env       envHeader         `json:"env"`
	EndToEnd  []metricDef       `json:"end_to_end_metrics"`
	PerLayer  []metricDef       `json:"per_layer_metrics"`
	Workloads []*workloadResult `json:"workloads"`
}

// runFull runs every workload: rounds interleaved across workloads so a
// noise burst on the shared machine spreads over all of them, then one
// traced round per workload and one set of layer probes.
func runFull(seed int64, rounds int, out string) error {
	if rounds < 2 {
		return errors.New("-rounds must be at least 2 (quartiles need two values)")
	}
	rf := &resultFile{Env: newEnvHeader(seed, rounds), EndToEnd: endToEnd, PerLayer: perLayer}
	printEnv(os.Stdout, rf.Env)
	for _, def := range workloads {
		rf.Workloads = append(rf.Workloads, newWorkloadResult(def, fullScale))
	}
	for r := 0; r < rounds; r++ {
		for i, def := range workloads {
			res, err := spawnRound(def, seed, false)
			if err != nil {
				return err
			}
			rf.Workloads[i].Rounds = append(rf.Workloads[i].Rounds, res)
			fmt.Printf("round %d/%d %-16s %8.0f q/s  setup %.2fs\n", r+1, rounds, def.name, res.Metrics["wall_qps"], res.Metrics["setup_s"])
		}
	}
	probes, err := spawnProbes(seed)
	if err != nil {
		return err
	}
	ok := true
	for i, def := range workloads {
		w := rf.Workloads[i]
		w.summarise()
		tr, err := spawnTraced(def, seed)
		if err != nil {
			return err
		}
		w.addTraced(tr, probes)
		printWorkload(os.Stdout, w, true)
		ok = ok && w.Correct
	}
	if out == "" {
		//simlint:allow walltime — names the result file after the host time of the run; not simulated state
		out = filepath.Join("bench", "results", fmt.Sprintf("seed%d-%s.json", seed, time.Now().UTC().Format("20060102T150405")))
	}
	if err := os.MkdirAll(filepath.Dir(out), 0o755); err != nil {
		return err
	}
	b, err := json.MarshalIndent(rf, "", " ")
	if err != nil {
		return err
	}
	if err := os.WriteFile(out, append(b, '\n'), 0o644); err != nil {
		return err
	}
	fmt.Println("result file:", out)
	if !ok {
		return errors.New("at least one workload failed verification (see problems above)")
	}
	return nil
}

// --- printing -------------------------------------------------------------------

func printEnv(f *os.File, e envHeader) {
	fmt.Fprintf(f, "# %s  nproc=%d GOMAXPROCS=%d (rounds 1)  commit=%s  seed=%d rounds=%d\n",
		e.GoVersion, e.NumCPU, e.GOMAXPROCS, e.Commit, e.Seed, e.Rounds)
	fmt.Fprintf(f, "# generator lateness: %s\n", e.Lateness)
}

func printWorkload(f *os.File, w *workloadResult, layers bool) {
	limit := "none"
	if w.LimitMS > 0 {
		limit = fmt.Sprintf("%.0f ms", w.LimitMS)
	}
	fmt.Fprintf(f, "\n== %s  (%s loop, tail=%s, latency limit %s, %d rounds, %d queries, %d failed)\n",
		w.Name, w.Loop, w.Tail, limit, len(w.Rounds), w.Attempted, w.Failed)
	fmt.Fprintf(f, "   %s\n   sim_digest %s\n", w.Params, w.Digest)
	for _, m := range endToEnd {
		s := w.Summary[m.Name]
		pick := "median"
		if m.Best {
			pick = "best"
		}
		fmt.Fprintf(f, "   %-22s %14.6g %-7s  [%s of %d; q1 %.6g  q3 %.6g  spread %.2f%%  bound %.1f%%]\n",
			m.Name, s.Value, m.Unit, pick, s.N, s.Q1, s.Q3, 100*s.spread(), 100*m.Bound)
	}
	for _, p := range w.Problems {
		fmt.Fprintf(f, "   PROBLEM: %s\n", p)
	}
	if !layers || w.Layer == nil {
		return
	}
	for _, m := range perLayer {
		fmt.Fprintf(f, "   . %-34s %14.6g %s\n", m.Name, w.Layer[m.Name], m.Unit)
	}
}

// --- compare --------------------------------------------------------------------

func readResult(path string) (*resultFile, error) {
	b, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	rf := &resultFile{}
	if err := json.Unmarshal(b, rf); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return rf, nil
}

// worse returns by what share of a's median b is worse than a (negative:
// better), in the metric's own direction.
func worse(m metricDef, a, b float64) float64 {
	if a == 0 || a == b {
		return 0
	}
	d := (b - a) / math.Abs(a)
	if m.Better == "higher" {
		d = -d
	}
	return d
}

// compareResults prints one row per (workload, metric) and returns the
// number of regressions, digest mismatches and unresolved rows.
func compareResults(f *os.File, a, b *resultFile) (regressions, unresolved int) {
	sameInputs := a.Env.Seed == b.Env.Seed
	if !sameInputs {
		fmt.Fprintf(f, "# seeds differ (%d vs %d): simulated metrics and digests are not comparable, only host metrics are judged\n",
			a.Env.Seed, b.Env.Seed)
	}
	byName := map[string]*workloadResult{}
	for _, w := range b.Workloads {
		byName[w.Name] = w
	}
	fmt.Fprintf(f, "%-16s %-22s %14s %14s %9s %7s  %s\n", "workload", "metric", "A value", "B value", "B worse", "bound", "verdict")
	for _, wa := range a.Workloads {
		wb := byName[wa.Name]
		if wb == nil {
			fmt.Fprintf(f, "%-16s missing from B\n", wa.Name)
			regressions++
			continue
		}
		for _, m := range endToEnd {
			sa, sb := wa.Summary[m.Name], wb.Summary[m.Name]
			d := worse(m, sa.Value, sb.Value)
			ua, badA := sa.unresolved(m)
			ub, badB := sb.unresolved(m)
			verdict := "ok"
			switch {
			case m.Exact && sameInputs && sa.Value != sb.Value:
				verdict = "MODEL CHANGE (simulated metric moved at one seed)"
				regressions++
			case m.Exact:
				// equal, or not comparable across seeds
			case d > m.Bound:
				verdict = "REGRESSION"
				regressions++
			case badA || badB:
				verdict = fmt.Sprintf("unresolved (spread %.1f%% / %.1f%% exceeds the bound)", 100*ua, 100*ub)
				unresolved++
			}
			fmt.Fprintf(f, "%-16s %-22s %14.6g %14.6g %+8.2f%% %6.1f%%  %s\n", wa.Name, m.Name, sa.Value, sb.Value, 100*d, 100*m.Bound, verdict)
			fmt.Fprintf(f, "%-16s %-22s [%.6g .. %.6g] [%.6g .. %.6g]\n", "", "  quartiles", sa.Q1, sa.Q3, sb.Q1, sb.Q3)
		}
		if sameInputs && wa.Digest != wb.Digest {
			fmt.Fprintf(f, "%-16s sim_digest MISMATCH %s vs %s\n", wa.Name, wa.Digest[:16], wb.Digest[:16])
			regressions++
		}
		if !wa.Correct || !wb.Correct {
			fmt.Fprintf(f, "%-16s a side failed verification (A correct=%v, B correct=%v)\n", wa.Name, wa.Correct, wb.Correct)
			regressions++
		}
	}
	return regressions, unresolved
}

func runCompare(args []string) error {
	if len(args) != 2 {
		return errors.New("usage: -compare A.json B.json")
	}
	a, err := readResult(args[0])
	if err != nil {
		return err
	}
	b, err := readResult(args[1])
	if err != nil {
		return err
	}
	printEnv(os.Stdout, a.Env)
	printEnv(os.Stdout, b.Env)
	regressions, unresolved := compareResults(os.Stdout, a, b)
	fmt.Printf("%d regressions or mismatches, %d unresolved rows\n", regressions, unresolved)
	if regressions > 0 {
		return fmt.Errorf("%d regressions or mismatches", regressions)
	}
	return nil
}

// --- the per-layer metric table ---------------------------------------------------

// perLayer lists every per-layer metric, in the order BENCHMARK.json has
// them. Names follow the modules; *_sim_* / sim_* units are simulated.
var perLayer = buildPerLayer()

func buildPerLayer() []metricDef {
	var defs []metricDef
	add := func(unit, better string, names ...string) {
		for _, n := range names {
			defs = append(defs, metricDef{Name: n, Unit: unit, Better: better})
		}
	}
	for _, l := range hostLayers {
		add("share", "lower", "host_share."+l)
	}
	for _, l := range underLayers {
		add("share", "lower", "host_under."+l)
	}
	add("1/s", "higher", "sim.events_per_s")
	add("ns", "lower", "sim.switch_ns", "sim.timer_ns")
	add("count", "lower", "sim.allocs_per_kevent")
	add("MB/s", "higher", "wire.encode_z_mb_s", "wire.encode_raw_mb_s", "wire.decode_z_mb_s", "wire.decode_raw_mb_s")
	add("count", "lower", "wire.encode_z_allocs")
	add("B", "lower", "wire.sim_bytes_per_q")
	add("ratio", "higher", "wire.sim_compress_ratio")
	add("GMAC/s", "higher", "sparse.mul_gmac_s", "sparse.mulgather_gmac_s")
	add("ns", "lower", "sparse.relu_ns_per_elem")
	add("GMAC", "lower", "sparse.sim_gmac_per_q")
	add("ms", "lower", "model.generate_ms")
	add("us", "lower", "model.inputs_us")
	add("ms", "lower", "model.reference_ms")
	add("s", "lower", "partition.hgp_s")
	add("ms", "lower", "partition.block_ms")
	add("ratio", "lower", "partition.sim_hgp_row_ratio", "partition.sim_nnz_imbalance")
	add("ns", "lower", "cloud.sqs.roundtrip_ns", "cloud.sns.publish_ns", "cloud.s3.putget_ns",
		"cloud.kv.pushpop_ns", "cloud.kvcluster.pushpop_ns", "cloud.faas.invoke_ns")
	add("count", "lower", "cloud.sqs.sim_calls_per_q", "cloud.sns.sim_billed_per_q", "cloud.s3.sim_calls_per_q", "cloud.kv.sim_ops_per_q")
	add("GB.s", "lower", "cloud.faas.sim_gb_s_per_q")
	add("share", "lower", "cloud.faas.sim_cold_share")
	for _, ch := range sweepChannels {
		n := "core." + channelName(ch)
		add("sim_ms", "lower", n+".sim_ms")
		add("usd/kq", "lower", n+".sim_usd_per_kq")
		add("ms", "lower", n+".host_ms")
	}
	add("ms", "lower", "core.deploy_host_ms")
	add("sim_ms", "lower", "core.sim_launch_ms")
	for _, op := range []string{"load", "layer", "send", "recv", "barrier", "gather"} {
		add("sim_ms", "lower", "core.simspan."+op+"_ms")
	}
	for _, alg := range []string{"flat", "tree", "ring"} {
		n := "collective." + alg
		add("sim_ms", "lower", n+".sim_reduce_ms", n+".sim_barrier_ms")
		add("ms", "lower", n+".host_ms")
	}
	add("share", "lower", "collective.auto_regret_share")
	add("sim_ms", "lower", "serve.simspan.coalesce_ms", "serve.simspan.queue_ms")
	add("count", "lower", "serve.sim_runs_per_kq")
	add("count", "higher", "serve.sim_run_samples")
	add("sim_s", "lower", "serve.sim_replica_s_per_q")
	add("ratio", "higher", "serve.stream_ratio", "serve.lanes2_ratio")
	add("ratio", "lower", "serve.rerun_ratio")
	add("ms", "lower", "serve.newservice_ms")
	add("us", "lower", "serve.report_string_us")
	add("1/s", "higher", "serve.sim_max_rate_qps")
	add("ms", "lower", "plan.plan_ms", "plan.replan_ms")
	add("share", "higher", "plan.sim_pruned_share")
	add("count", "lower", "plan.sim_replans")
	add("sim_s", "lower", "plan.sim_first_replan_s")
	add("share", "lower", "obs.trace_tax_share", "obs.monitor_tax_share")
	add("count", "lower", "obs.spans_per_q")
	add("ns", "lower", "obs.hist_observe_ns")
	add("ms", "lower", "obs.export_chrome_ms")
	add("sim_s", "lower", "obs.monitor.sim_violation_s", "obs.monitor.sim_first_page_s")
	add("Mq/s", "higher", "workload.diurnal_mq_s")
	add("ms", "lower", "workload.day_ms")
	add("share", "lower", "bench.trace_overhead_share", "bench.wall_iqr_share")
	add("count", "higher", "bench.profile_samples")
	return defs
}
