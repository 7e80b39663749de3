// Command fsdserve replays a sporadic query trace (paper §VI-C) through a
// multi-model FSD-Inference Service on the simulated cloud and prints the
// measured serving report: latency percentiles, per-endpoint cost,
// coalesced-batch statistics and cold-start counts.
//
// Usage:
//
//	fsdserve [-queries N] [-sizes 256,512] [-batch B] [-layers L]
//	         [-workers P] [-channel serial|queue|object|memory|hybrid]
//	         [-replicas R] [-coalesce-batch S] [-coalesce-delay D]
//	         [-autoscale] [-max-replicas M] [-run-concurrency C]
//	         [-trace out.json] [-trace-sample N]
//	         [-monitor] [-slo SPEC]... [-monitor-interval D]
//	         [-monitor-csv out.csv]
//	         [-seed S] [-verify]
//
// With -trace, the replay records simulated-time spans (sampling one in
// -trace-sample requests), writes a Perfetto-loadable Chrome trace to the
// given path and prints a flame summary plus the metrics registry after
// the report.
//
// With -monitor (or any -slo), the replay scrapes the metrics registry
// every -monitor-interval of simulated time into per-endpoint series,
// evaluates multi-window burn-rate rules against the given SLOs (each
// -slo adds one; the default is availability@0.999 across endpoints) and
// prints the alert log plus a Prometheus-style snapshot after the report.
// Firing pages feed back into serving: endpoints re-plan or grow their
// pool instead of waiting for drift triggers. -monitor-csv dumps the full
// time-series. SLO syntax:
//
//	-slo 'latency:p99<=250ms@0.99,endpoint=n512,window=720h'
//	-slo 'availability@0.999'
package main

import (
	"flag"
	"fmt"
	"io"
	"os"
	"strconv"
	"strings"
	"time"

	"fsdinference/internal/cloud/env"
	"fsdinference/internal/core"
	"fsdinference/internal/model"
	"fsdinference/internal/obs/monitor"
	"fsdinference/internal/serve"
	"fsdinference/internal/workload"
)

func main() {
	switch err := run(os.Args[1:], os.Stdout, os.Stderr); {
	case err == flag.ErrHelp:
	case err != nil:
		fmt.Fprintf(os.Stderr, "fsdserve: %v\n", err)
		os.Exit(2)
	}
}

// run parses args, replays the trace and prints the report and the
// summaries its flags ask for to stdout; flag usage goes to stderr. A flag
// error prints nothing.
func run(args []string, stdout, stderr io.Writer) error {
	fs := flag.NewFlagSet("fsdserve", flag.ContinueOnError)
	fs.SetOutput(stderr)
	queries := fs.Int("queries", 200, "queries over the simulated day")
	sizesArg := fs.String("sizes", "256,512", "comma-separated model sizes (one endpoint each)")
	batch := fs.Int("batch", 32, "buffered samples per query")
	layers := fs.Int("layers", 12, "layer count per model")
	workers := fs.Int("workers", 1, "FaaS worker parallelism per endpoint")
	channel := fs.String("channel", "", "channel: serial, queue, object, memory or hybrid (default: serial, or queue when workers > 1)")
	replicas := fs.Int("replicas", 2, "warm deployment replicas per endpoint (fixed pool)")
	autoscale := fs.Bool("autoscale", false, "scale each endpoint's pool from queue depth and arrival rate instead of a fixed size")
	maxReplicas := fs.Int("max-replicas", 4, "autoscaler pool bound (with -autoscale)")
	runConc := fs.Int("run-concurrency", 1, "engine runs one replica may overlap")
	coalesceBatch := fs.Int("coalesce-batch", 128, "max samples per coalesced engine run")
	coalesceDelay := fs.Duration("coalesce-delay", 100*time.Millisecond, "max wait before a coalescing batch closes")
	tracePath := fs.String("trace", "", "write a Chrome trace-event JSON file (open in Perfetto) and print flame/metrics summaries")
	traceSample := fs.Int("trace-sample", 100, "trace one in N requests (with -trace; 1 traces all)")
	monitorOn := fs.Bool("monitor", false, "scrape simulated-time SLO series and burn-rate alerts (implied by -slo)")
	monInterval := fs.Duration("monitor-interval", time.Minute, "simulated-time scrape interval (with -monitor)")
	monCSV := fs.String("monitor-csv", "", "write the monitor time-series as CSV (with -monitor)")
	var sloArgs stringList
	fs.Var(&sloArgs, "slo", "SLO spec, repeatable: latency:pNN<=DUR@OBJ or availability@OBJ, plus endpoint=,window=,name= options")
	seed := fs.Int64("seed", 7, "trace and input seed")
	verify := fs.Bool("verify", false, "check every output against reference inference")
	if err := fs.Parse(args); err != nil {
		return err
	}

	// Every flag is checked before anything prints.
	var sizes []int
	for _, s := range strings.Split(*sizesArg, ",") {
		n, err := strconv.Atoi(strings.TrimSpace(s))
		if err != nil || n <= 0 {
			return fmt.Errorf("-sizes: bad size %q", s)
		}
		sizes = append(sizes, n)
	}
	if *autoscale && *maxReplicas < 1 {
		return fmt.Errorf("-max-replicas must be at least 1, got %d", *maxReplicas)
	}
	opts := []serve.Option{
		serve.WithCoalescing(*coalesceBatch, *coalesceDelay),
		serve.WithRunConcurrency(*runConc),
	}
	if *autoscale {
		opts = append(opts, serve.WithScaling(serve.Autoscaler(
			serve.AutoscalerOptions{Min: 1, Max: *maxReplicas})))
	} else {
		opts = append(opts, serve.WithReplicas(*replicas))
	}
	if *tracePath != "" {
		opts = append(opts, serve.WithTracing(*traceSample))
	}
	monitoring := *monitorOn || len(sloArgs) > 0
	if monitoring {
		var slos []monitor.SLO
		for _, arg := range sloArgs {
			slo, err := monitor.ParseSLO(arg)
			if err != nil {
				return err
			}
			slos = append(slos, slo)
		}
		if len(slos) == 0 {
			slos = append(slos, monitor.SLO{
				Name: "availability", Kind: monitor.Availability,
				Window: 30 * 24 * time.Hour, Objective: 0.999,
			})
		}
		opts = append(opts, serve.WithMonitor(monitor.Spec{
			Interval: *monInterval,
			SLOs:     slos,
		}))
	}
	var epOpts []serve.EndpointOption
	if *workers > 1 {
		epOpts = append(epOpts, serve.WithWorkers(*workers))
	}
	if *channel != "" {
		kind, err := core.ParseChannelKind(*channel)
		if err != nil {
			return err
		}
		epOpts = append(epOpts, serve.WithChannel(kind))
	}

	for _, n := range sizes {
		fmt.Fprintf(stdout, "generating %d-neuron, %d-layer sparse DNN...\n", n, *layers)
		m, err := model.Generate(model.GraphChallengeSpec(n, *layers, 1))
		if err != nil {
			return err
		}
		opts = append(opts, serve.WithEndpoint(fmt.Sprintf("n%d", n), m, epOpts...))
	}
	svc, err := serve.NewService(env.NewDefault(), opts...)
	if err != nil {
		return err
	}
	trace := workload.Day(*queries**batch, sizes, *batch, *seed)
	fmt.Fprintf(stdout, "replaying %d queries over one simulated day on endpoints %v...\n",
		len(trace), svc.Endpoints())
	rep, err := svc.Replay(trace, serve.ReplayOptions{Seed: *seed, Verify: *verify})
	if err != nil {
		return err
	}
	fmt.Fprintln(stdout)
	fmt.Fprint(stdout, rep)
	if *verify {
		fmt.Fprintln(stdout, "all outputs verified against reference inference")
	}
	if *tracePath != "" {
		if err := writeFile(*tracePath, svc.Tracer().WriteChrome); err != nil {
			return fmt.Errorf("writing trace: %w", err)
		}
		fmt.Fprintf(stdout, "\nwrote %s (open in https://ui.perfetto.dev or chrome://tracing)\n", *tracePath)
		fmt.Fprintf(stdout, "\nflame summary (1 in %d requests sampled):\n", *traceSample)
		svc.Tracer().WriteFlame(stdout)
		fmt.Fprintln(stdout, "\nmetrics:")
		svc.Metrics().WriteText(stdout)
	}
	if monitoring {
		mon := svc.Monitor()
		fmt.Fprintf(stdout, "\nburn-rate alerts (scrape every %v of simulated time):\n", *monInterval)
		if err := mon.WriteAlerts(stdout); err != nil {
			return err
		}
		fmt.Fprintln(stdout, "\nmonitor snapshot (prometheus text):")
		if err := mon.WriteProm(stdout); err != nil {
			return err
		}
		if *monCSV != "" {
			if err := writeFile(*monCSV, mon.WriteCSV); err != nil {
				return fmt.Errorf("writing monitor csv: %w", err)
			}
			fmt.Fprintf(stdout, "\nwrote %s (one row per endpoint scrape window)\n", *monCSV)
		}
	}
	return nil
}

// writeFile creates path and has write fill it.
func writeFile(path string, write func(io.Writer) error) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := write(f); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// stringList collects a repeatable string flag.
type stringList []string

func (l *stringList) String() string { return strings.Join(*l, ";") }

func (l *stringList) Set(v string) error {
	*l = append(*l, v)
	return nil
}
