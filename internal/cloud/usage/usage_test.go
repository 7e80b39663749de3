package usage

import (
	"go/ast"
	"go/parser"
	"go/token"
	"io/fs"
	"math"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"

	"fsdinference/internal/cloud/pricing"
)

func TestCostBreakdown(t *testing.T) {
	m := NewMeter()
	m.LambdaInvocations = 1_000_000
	m.LambdaGBSeconds = 1000
	m.SNSBilledPublishes = 1_000_000
	m.SNSDeliveredBytes = 1e9
	m.SQSReceiveCalls = 500_000
	m.SQSDeleteCalls = 500_000
	m.S3PutCalls = 1000
	m.S3GetCalls = 10000
	m.S3ListCalls = 2000
	m.AddEC2Hours("c5.2xlarge", 10)
	m.AddKVNodeHours("cache.m6g.large", 24)

	b := m.Cost(pricing.Default())
	approx := func(got, want float64, what string) {
		if math.Abs(got-want) > 1e-9+0.001*math.Abs(want) {
			t.Errorf("%s = %v, want %v", what, got, want)
		}
	}
	approx(b.Lambda, 0.20+1000*0.0000166667, "Lambda")
	approx(b.SNS, 0.50+0.09, "SNS")
	approx(b.SQS, 0.40, "SQS")
	approx(b.S3, 1000*0.005/1e3+10000*0.0004/1e3+2000*0.005/1e3, "S3")
	approx(b.EC2, 3.4, "EC2")
	approx(b.KV, 24*0.149, "KV")
	approx(b.Total(), b.Lambda+b.SNS+b.SQS+b.S3+b.EC2+b.KV, "Total")
	approx(b.Comms(), b.SNS+b.SQS+b.S3+b.KV, "Comms")
}

func TestSQSFanoutBillingToggle(t *testing.T) {
	m := NewMeter()
	m.SQSReceiveCalls = 10
	m.SQSDeleteCalls = 5
	m.SQSSendCalls = 100
	if got := m.SQSRequests(); got != 15 {
		t.Fatalf("Q = %d, want 15 (fan-out sends not billed by default)", got)
	}
	m.SQSBillFanout = true
	if got := m.SQSRequests(); got != 115 {
		t.Fatalf("Q = %d, want 115 with fan-out billing", got)
	}
}

func TestSnapshotSubIsolatesWindow(t *testing.T) {
	m := NewMeter()
	m.S3PutCalls = 5
	m.LambdaGBSeconds = 1.5
	m.AddEC2Hours("c5.2xlarge", 1)
	snap := m.Snapshot()

	m.S3PutCalls += 7
	m.LambdaGBSeconds += 2.5
	m.AddEC2Hours("c5.2xlarge", 3)

	d := m.Sub(snap)
	if d.S3PutCalls != 7 {
		t.Errorf("window puts = %d, want 7", d.S3PutCalls)
	}
	if math.Abs(d.LambdaGBSeconds-2.5) > 1e-12 {
		t.Errorf("window GB-s = %v, want 2.5", d.LambdaGBSeconds)
	}
	if math.Abs(d.EC2Hours["c5.2xlarge"]-3) > 1e-12 {
		t.Errorf("window EC2 hours = %v, want 3", d.EC2Hours["c5.2xlarge"])
	}
	// Snapshot is a deep copy: mutating it doesn't touch the live meter.
	snap.EC2Hours["c5.2xlarge"] = 99
	if m.EC2Hours["c5.2xlarge"] != 4 {
		t.Error("snapshot shares EC2Hours map with meter")
	}
}

// TestFoldListsEveryField guards the one field list: every numeric and
// map field of Meter is set nonzero by reflection, so a field added to the
// struct but not to fold survives Sub or misses Add's doubling.
func TestFoldListsEveryField(t *testing.T) {
	m := NewMeter()
	v := reflect.ValueOf(m).Elem()
	for i := 0; i < v.NumField(); i++ {
		switch f := v.Field(i); f.Kind() {
		case reflect.Int64:
			f.SetInt(int64(3 + i))
		case reflect.Float64:
			f.SetFloat(0.25 + float64(i))
		case reflect.Map:
			f.SetMapIndex(reflect.ValueOf("k"), reflect.ValueOf(2.0).Convert(f.Type().Elem()))
		case reflect.Bool:
		default:
			t.Fatalf("Meter.%s is a %v: teach fold and this test how to sum it", v.Type().Field(i).Name, f.Kind())
		}
	}
	zero, doubled := m.Sub(m.Snapshot()), m.Snapshot()
	doubled.Add(*m)
	z, d := reflect.ValueOf(zero), reflect.ValueOf(doubled)
	for i := 0; i < v.NumField(); i++ {
		name := v.Type().Field(i).Name
		switch f := v.Field(i); f.Kind() {
		case reflect.Int64:
			if z.Field(i).Int() != 0 || d.Field(i).Int() != 2*f.Int() {
				t.Errorf("%s: Sub left %d, Add made %d of %d", name, z.Field(i).Int(), d.Field(i).Int(), f.Int())
			}
		case reflect.Float64:
			if z.Field(i).Float() != 0 || d.Field(i).Float() != 2*f.Float() {
				t.Errorf("%s: Sub left %v, Add made %v of %v", name, z.Field(i).Float(), d.Field(i).Float(), f.Float())
			}
		case reflect.Map:
			k := reflect.ValueOf("k")
			got, sum := z.Field(i).MapIndex(k), d.Field(i).MapIndex(k)
			if !got.IsValid() || !got.IsZero() || !sum.IsValid() || sum.Convert(reflect.TypeOf(0.0)).Float() != 4 {
				t.Errorf("%s: Sub left %v, Add made %v of 2", name, got, sum)
			}
		}
	}
	var merged Meter
	merged.Add(*m)
	if !reflect.DeepEqual(merged, m.Snapshot()) {
		t.Error("Add on a zero Meter is not a copy")
	}
}

func TestBreakdownString(t *testing.T) {
	b := Breakdown{Lambda: 0.10, SNS: 0.20, SQS: 0.05, S3: 0.0}
	s := b.String()
	for _, want := range []string{"compute $0.1000", "comms $0.2500", "total $0.3500"} {
		if !strings.Contains(s, want) {
			t.Errorf("String() = %q missing %q", s, want)
		}
	}
}

func TestBilledPublishRequests(t *testing.T) {
	cases := []struct {
		bytes int64
		want  int64
	}{
		{0, 1}, {1, 1}, {64 * 1024, 1}, {64*1024 + 1, 2},
		{256 * 1024, 4}, {200 * 1024, 4}, {128 * 1024, 2},
	}
	for _, c := range cases {
		if got := pricing.BilledPublishRequests(c.bytes); got != c.want {
			t.Errorf("BilledPublishRequests(%d) = %d, want %d", c.bytes, got, c.want)
		}
	}
}

// TestCostFoldOrderDeterministic is the regression test for the
// maporder burndown: Cost folds per-type hour maps into float totals,
// and float addition is not associative, so folding in map iteration
// order produced bit-different totals from one call to the next.
// FoldSorted pins the order; every call must now agree to the last bit.
func TestCostFoldOrderDeterministic(t *testing.T) {
	m := NewMeter()
	c := pricing.Default()
	// Several binary-inexact hour values per type, so any reordering of
	// the fold changes the low bits of the sum.
	i := 0
	for typ := range c.EC2Hourly {
		m.EC2Hours[typ] = 0.1 + 0.7*float64(i)
		i++
	}
	i = 0
	for typ := range c.KVNodeHourly {
		m.KVNodeHours[typ] = 0.3 + 1.7*float64(i)
		m.KVReplicaHours[typ] = 0.9 + 0.13*float64(i)
		i++
	}
	if len(m.EC2Hours) < 3 || len(m.KVNodeHours) < 3 {
		t.Skip("catalog too small to exercise fold order")
	}
	first := m.Cost(c)
	for run := 0; run < 100; run++ {
		b := m.Cost(c)
		for _, v := range [][2]float64{
			{b.EC2, first.EC2}, {b.KV, first.KV}, {b.KVReplica, first.KVReplica},
		} {
			if math.Float64bits(v[0]) != math.Float64bits(v[1]) {
				t.Fatalf("Cost fold not deterministic: run %d got %x want %x", run, math.Float64bits(v[0]), math.Float64bits(v[1]))
			}
		}
	}
}

// TestFoldSortedOrder pins FoldSorted's contract: ascending key order,
// every entry exactly once.
func TestFoldSortedOrder(t *testing.T) {
	m := map[string]float64{"b": 2, "a": 1, "c": 3}
	var keys []string
	var sum float64
	FoldSorted(m, func(k string, v float64) {
		keys = append(keys, k)
		sum += v
	})
	if strings.Join(keys, "") != "abc" || sum != 6 {
		t.Fatalf("FoldSorted visited %v (sum %v), want a,b,c (6)", keys, sum)
	}
}

// TestRequestPricesReadOnlyByCost keeps Equations (4)-(7) stated once: outside
// this package's usage.go, where Cost multiplies them, and pricing.go, which
// declares them, no non-test file of the module may select one of the
// catalogue's eight request prices. Code that wants dollars fills a Meter and
// calls Cost. (bench/ is a module of its own and is not walked; neither are
// dot-directories, which hold whole copies of the tree.)
func TestRequestPricesReadOnlyByCost(t *testing.T) {
	prices := map[string]bool{
		"LambdaInvoke": true, "LambdaGBSecond": true, "SNSPublish": true, "SNSByte": true,
		"SQSRequest": true, "S3Put": true, "S3Get": true, "S3List": true,
	}
	const root = "../../.." // the module root, from internal/cloud/usage
	if _, err := os.Stat(filepath.Join(root, "go.mod")); err != nil {
		t.Fatal(err)
	}
	allowed := map[string]bool{
		filepath.Join(root, "internal/cloud/usage/usage.go"):     true,
		filepath.Join(root, "internal/cloud/pricing/pricing.go"): true,
	}
	fset := token.NewFileSet()
	files := 0
	err := filepath.WalkDir(root, func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() {
			if name := d.Name(); path != root && (name == "bench" || strings.HasPrefix(name, ".")) {
				return filepath.SkipDir
			}
			return nil
		}
		if !strings.HasSuffix(path, ".go") || strings.HasSuffix(path, "_test.go") || allowed[path] {
			return nil
		}
		file, err := parser.ParseFile(fset, path, nil, parser.SkipObjectResolution)
		if err != nil {
			return err
		}
		files++
		ast.Inspect(file, func(n ast.Node) bool {
			if sel, ok := n.(*ast.SelectorExpr); ok && prices[sel.Sel.Name] {
				t.Errorf("%s reads the price %s; fill a usage.Meter and call Cost", fset.Position(sel.Pos()), sel.Sel.Name)
			}
			return true
		})
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if files < 50 {
		t.Fatalf("walked %d files from %s: not the module root", files, root)
	}
}
