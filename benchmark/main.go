// Command benchmark is the benchmark of this repository: four closed-loop,
// fixed-work workloads driven through the public pipelines the CLI and the
// daemon use, six bounded end-to-end metrics, per-layer drivers and a traced
// run. BENCHMARK.json at the root names the command and the metrics;
// README.md in this directory says what each number means.
//
//	go run ./benchmark -seed 42                      every workload, untraced and traced
//	go run ./benchmark -workload plan-page -trace 1  one run, as BENCHMARK.json's command does
//	go run ./benchmark compare A.json B.json         verdict per workload x metric
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"runtime"
)

// metric is one value of a run's last output line.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// runLine is the last line a single run prints on standard output.
type runLine struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

func main() {
	if len(os.Args) > 1 && os.Args[1] == "compare" {
		os.Exit(compareMain(os.Args[2:]))
	}
	var (
		name    = flag.String("workload", "", "run this one workload and print one result line (default: every workload, untraced then traced)")
		seed    = flag.Int64("seed", 42, "the only workload input: seeds trace generation and paperexp.Config.Seed")
		seconds = flag.Int("seconds", defaultSeconds, "length the measured phase is sized for (the work is a fixed function of this value)")
		traced  = flag.Int("trace", 0, "0: end-to-end metrics with tracing off; 1: per-layer metrics from the drivers and a traced run")
		runs    = flag.Int("runs", 1, "without -workload: repeat everything this many times, at seeds seed, seed+1, ...")
		out     = flag.String("out", "", "without -workload: write the JSON document here instead of standard output")
		detail  = flag.String("detail", "", "with -workload: also write the run's samples, digests and op counts to this file")
		spans   = flag.String("trace-out", "", "with -trace 1: write the bounded sample of raw spans to this file")
		update  = flag.Bool("update-golden", false, "without -workload: rewrite benchmark/golden/ from this run (seed 42, from the repository root); with -workload: only skip the check against it")
	)
	flag.Parse()
	if flag.NArg() > 0 {
		fmt.Fprintf(os.Stderr, "benchmark: unexpected argument %q\n", flag.Arg(0))
		os.Exit(2)
	}
	// One worker, server worker and client per processor, and no more.
	runtime.GOMAXPROCS(runtime.NumCPU())
	ctx := context.Background()

	if *name == "" {
		os.Exit(runAll(ctx, *seed, *seconds, *runs, *out, *update))
	}
	w, err := workloadByName(*name)
	if err != nil {
		fmt.Fprintln(os.Stderr, "benchmark:", err)
		os.Exit(2)
	}
	r, err := runOne(ctx, w, runConfig{
		seed: *seed, seconds: *seconds, traced: *traced != 0, sz: fullSizes,
		spansOut: *spans, checkGolden: !*update,
	})
	if err != nil {
		fmt.Fprintln(os.Stderr, "benchmark:", err)
		os.Exit(1)
	}
	r.printTable(os.Stderr)
	if *detail != "" {
		if err := writeJSON(*detail, r.detail()); err != nil {
			fmt.Fprintln(os.Stderr, "benchmark:", err)
			os.Exit(1)
		}
	}
	line, err := json.Marshal(r.line())
	if err != nil {
		fmt.Fprintln(os.Stderr, "benchmark:", err)
		os.Exit(1)
	}
	fmt.Println(string(line))
	if r.failed > 0 || !r.goldenOK {
		os.Exit(1)
	}
}

func writeJSON(path string, v any) error {
	data, err := json.MarshalIndent(v, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(data, '\n'), 0o644)
}
