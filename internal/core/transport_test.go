package core

import (
	"go/ast"
	"go/parser"
	"go/token"
	"os"
	"strings"
	"testing"
	"time"

	"fsdinference/internal/cloud/env"
	"fsdinference/internal/model"
	"fsdinference/internal/partition"
)

func TestTransportTable(t *testing.T) {
	names, spellings := map[string]ChannelKind{}, map[string]ChannelKind{}
	for _, kind := range ChannelKinds() {
		tr := transports[kind]
		if tr.name == "" || tr.spelling == "" {
			t.Fatalf("kind %d has name %q and spelling %q; both are required", int(kind), tr.name, tr.spelling)
		}
		if other, dup := names[tr.name]; dup {
			t.Errorf("kinds %d and %d share the name %q", int(other), int(kind), tr.name)
		}
		if other, dup := spellings[tr.spelling]; dup {
			t.Errorf("kinds %d and %d share the spelling %q", int(other), int(kind), tr.spelling)
		}
		names[tr.name], spellings[tr.spelling] = kind, kind

		if got := kind.String(); got != tr.name || !strings.HasPrefix(got, "FSD-Inf-") {
			t.Errorf("kind %d prints as %q, want the paper's name %q", int(kind), got, tr.name)
		}
		if got, err := ParseChannelKind(tr.spelling); err != nil || got != kind {
			t.Errorf("ParseChannelKind(%q) = %v, %v; want %v", tr.spelling, got, err, kind)
		}
		// Serial is an engine shape with no transport behind it; every
		// other kind launches workers, is priced by AutoAlgo and bills.
		if kind != Serial && (tr.open == nil || tr.traits == nil || tr.bill == nil) {
			t.Errorf("%v lacks one of open, traits, bill", kind)
		}
		if (tr.bind == nil) != (tr.unbind == nil) {
			t.Errorf("%v binds per-run resources without unbinding them, or the reverse", kind)
		}
	}
	for _, s := range []string{"", "Queue", "FSD-Inf-Queue", "sqs"} {
		if kind, err := ParseChannelKind(s); err == nil {
			t.Errorf("ParseChannelKind(%q) = %v, want an error", s, kind)
		}
	}
	for _, kind := range []ChannelKind{-1, ChannelKind(len(transports))} {
		if got := kind.String(); !strings.HasPrefix(got, "ChannelKind(") {
			t.Errorf("out-of-table kind %d prints as %q", int(kind), got)
		}
		if tr := ChannelTraits(Config{Channel: kind}, env.DefaultConfig(), 1<<10); tr.BytesPerSec != 0 {
			t.Errorf("out-of-table kind %d has traits %+v", int(kind), tr)
		}
	}
}

// TestChannelTraitsFillsDefaults: the planner passes only the fields a
// candidate carries. Missing ones must take the deployment defaults, and a
// node type outside the catalogue the default node's bandwidth — a zero
// would price every store message at +Inf.
func TestChannelTraitsFillsDefaults(t *testing.T) {
	ec := env.DefaultConfig()
	for _, kind := range ChannelKinds() {
		if transports[kind].traits == nil {
			continue
		}
		for _, msg := range []int64{0, DefaultHybridThresholdBytes, DefaultHybridThresholdBytes + 1} {
			bare := ChannelTraits(Config{Channel: kind, KVNodeType: "cache.nonesuch"}, ec, msg)
			full := ChannelTraits(Config{Channel: kind}.withDefaults(), ec, msg)
			if bare != full || bare.PerMsg <= 0 || bare.BytesPerSec <= 0 || bare.Fan <= 0 {
				t.Errorf("%v at %d B: traits %+v from a bare config, %+v with defaults", kind, msg, bare, full)
			}
		}
	}
	inline := ChannelTraits(Config{Channel: Hybrid}, ec, DefaultHybridThresholdBytes)
	bulk := ChannelTraits(Config{Channel: Hybrid}, ec, DefaultHybridThresholdBytes+1)
	if inline != ChannelTraits(Config{Channel: Memory}, ec, 0) || bulk.Fan != hybridFanout {
		t.Errorf("hybrid traits do not follow the route: inline %+v, bulk %+v", inline, bulk)
	}
}

// TestChargesFollowTheFrame: compression is charged where a frame went
// through the compressor, not where the deployment allows it. On every kind
// of the table, a run all of whose frames are short enough to ship raw (the
// widest, all 64 rows at batch 1, is 522 bytes) simulates the same to the
// last field with Compress on as with it off, and a run with long frames
// does not.
func TestChargesFollowTheFrame(t *testing.T) {
	shapes := []struct {
		name           string
		neurons, batch int
		same           bool
	}{
		{"short frames", 64, 1, true},
		{"long frames", 256, 16, false},
	}
	for _, kind := range ChannelKinds() {
		for _, c := range shapes {
			t.Run(kind.String()+"/"+c.name, func(t *testing.T) {
				input := model.GenerateInputs(c.neurons, c.batch, 0.5, 2)
				var dumps [2]string
				for i, compress := range []bool{true, false} {
					d, m, _ := testSetup(t, c.neurons, 4, 4, kind, func(cfg *Config) {
						cfg.Compress = compress
						cfg.AllreduceOutput = kind != Serial
					})
					res, err := d.Infer(input)
					if err != nil {
						t.Fatal(err)
					}
					checkCorrect(t, m, input, res)
					dumps[i] = resultDump(res)
				}
				if same := dumps[0] == dumps[1]; same != c.same {
					t.Fatalf("Compress on and off simulate the same: %v, want %v\non:\n%s\noff:\n%s",
						same, c.same, dumps[0], dumps[1])
				}
			})
		}
	}
}

// TestRawDeploymentNeverInflates: with Compress off nothing a run reads, its
// staged input included, is deflated, so on no kind does the speed of the
// decompressor show anywhere in the simulated result.
func TestRawDeploymentNeverInflates(t *testing.T) {
	m, err := model.Generate(model.GraphChallengeSpec(256, 4, 1))
	if err != nil {
		t.Fatal(err)
	}
	plan, err := partition.BuildPlan(m, 4, partition.Block, partition.Options{Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	input := model.GenerateInputs(256, 16, 0.5, 2)
	for _, kind := range ChannelKinds() {
		var dumps [2]string
		for i, slowdown := range []float64{1, 1000} {
			ecfg := env.DefaultConfig()
			ecfg.FaaS.Perf.DecompressBytesPerSec /= slowdown
			cfg := Config{Model: m, Channel: kind, PollWait: 2 * time.Second}
			if kind != Serial {
				cfg.Plan = plan
			}
			d, err := Deploy(env.New(ecfg), cfg)
			if err != nil {
				t.Fatal(err)
			}
			res, err := d.Infer(input)
			if err != nil {
				t.Fatal(err)
			}
			dumps[i] = resultDump(res)
		}
		if dumps[0] != dumps[1] {
			t.Errorf("%v: a 1000x slower decompressor moved a run that ships nothing deflated\nbefore:\n%s\nafter:\n%s",
				kind, dumps[0], dumps[1])
		}
	}
}

// TestDeployRejectsUnknownChannel: a kind outside the table used to
// validate, deploy and register functions, and fail only once a worker was
// invoked.
func TestDeployRejectsUnknownChannel(t *testing.T) {
	m, err := model.Generate(model.GraphChallengeSpec(64, 2, 1))
	if err != nil {
		t.Fatal(err)
	}
	plan, err := partition.BuildPlan(m, 2, partition.Block, partition.Options{Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	for _, kind := range []ChannelKind{99, -1, ChannelKind(len(transports))} {
		d, err := Deploy(env.NewDefault(), Config{Model: m, Plan: plan, Channel: kind})
		if err == nil || d != nil || !strings.Contains(err.Error(), kind.String()) {
			t.Errorf("Deploy with %v returned (%v, %v), want an error naming the kind", kind, d, err)
		}
	}
}

// TestKindsNamedOnlyInTheTable keeps the engine from switching on a kind
// again: outside the const block that declares them and transport.go, the
// package's non-test code may not name Queue, Object, Memory or Hybrid.
// (Serial is an engine shape — no plan, no coordinator — and is tested for
// where the engine forks.) Selectors are skipped: sqs.Queue is a type.
func TestKindsNamedOnlyInTheTable(t *testing.T) {
	namedOnlyIn(t, "transport.go", "Queue", "Object", "Memory", "Hybrid")
}

// TestLaunchModesNamedOnlyInTheEnumeration does the same for the launch
// modes: outside core.go, where they are declared and Config.launchChildren
// enumerates their children, nothing may name Hierarchical, Centralized or
// TwoLevel, so a launch change edits the enumeration and nothing else.
func TestLaunchModesNamedOnlyInTheEnumeration(t *testing.T) {
	namedOnlyIn(t, "core.go", "Hierarchical", "Centralized", "TwoLevel")
}

// namedOnlyIn fails on every use of one of names in the package's non-test
// code outside the file home; declaring a name is not a use.
func namedOnlyIn(t *testing.T, home string, names ...string) {
	t.Helper()
	guarded := make(map[string]bool)
	for _, n := range names {
		guarded[n] = true
	}
	entries, err := os.ReadDir(".")
	if err != nil {
		t.Fatal(err)
	}
	fset := token.NewFileSet()
	for _, entry := range entries {
		name := entry.Name()
		if !strings.HasSuffix(name, ".go") || strings.HasSuffix(name, "_test.go") || name == home {
			continue
		}
		file, err := parser.ParseFile(fset, name, nil, parser.SkipObjectResolution)
		if err != nil {
			t.Fatal(err)
		}
		var visit func(n ast.Node) bool
		visit = func(n ast.Node) bool {
			switch n := n.(type) {
			case *ast.SelectorExpr:
				ast.Inspect(n.X, visit)
				return false
			case *ast.ValueSpec:
				// A declaration's own names are not uses; its type and
				// values are.
				if n.Type != nil {
					ast.Inspect(n.Type, visit)
				}
				for _, v := range n.Values {
					ast.Inspect(v, visit)
				}
				return false
			case *ast.Ident:
				if guarded[n.Name] {
					t.Errorf("%s names %s, which only %s may name", fset.Position(n.Pos()), n.Name, home)
				}
			}
			return true
		}
		ast.Inspect(file, visit)
	}
}
