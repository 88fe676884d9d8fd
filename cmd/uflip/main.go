// Command uflip runs the uFLIP benchmark — the nine micro-benchmarks of
// Table 1 — against a simulated flash device, following the full methodology
// of Section 4: random-state enforcement, start-up/period measurement to set
// IOIgnore and IOCount, pause determination, and a benchmark plan with
// disjoint sequential-write target spaces and state resets.
//
// The workload subcommand replays application-shaped workloads instead of
// the paper's micro-benchmarks: synthetic generators (OLTP page mixes,
// log-append streams, Zipfian hot/cold access, bursty phases) and block
// traces — CSV or the streaming binary .utr form, detected by content and
// replayed with identical results — sharded deterministically across
// workers. The trace subcommand converts between the two trace forms.
//
// The array subcommand sweeps composite devices — stripe/mirror/concat
// arrays of simulated members with per-member queue-depth scheduling — over
// layout, member count and queue depth, reporting a Table-3-style grid.
// Wherever a -device flag takes a profile key it also takes an array spec
// such as "stripe(2,mtron,mtron)" (capacity then applies per member).
//
// Examples:
//
//	uflip -device memoright                        # full benchmark
//	uflip -device kingston-dti -micro Locality,Order
//	uflip -device "stripe(2,mtron,mtron)" -micro Granularity
//	uflip -device mtron -out results/              # JSON + CSV results
//	uflip workload -device memoright -kind oltp -ops 4096
//	uflip workload -device memoright -trace mytrace.csv -parallel 8
//	uflip trace convert -in mytrace.csv -out mytrace.utr
//	uflip workload -device memoright -trace mytrace.utr -parallel 8
//	uflip array -member mtron -counts 1,2,4 -layouts stripe,mirror
//
// The serve subcommand runs the experiment daemon (versioned /v1 HTTP API
// with streaming progress, durable jobs and per-tenant quotas), and the
// submit subcommand runs any of the above on a remote daemon with identical
// results:
//
//	uflip serve -statedir /var/lib/uflip/state -jobdir /var/lib/uflip/jobs
//	uflip submit -device memoright -out results/
//	uflip submit workload -device memoright -trace mytrace.csv
package main

import (
	"context"
	"flag"
	"fmt"
	"io"
	"os"
	"os/signal"
	"path/filepath"
	"runtime"
	"strings"
	"time"

	"uflip/internal/core"
	"uflip/internal/engine"
	"uflip/internal/methodology"
	"uflip/internal/paperexp"
	"uflip/internal/profile"
	"uflip/internal/report"
	"uflip/internal/statestore"
	"uflip/internal/trace"
)

func main() {
	var err error
	switch {
	case len(os.Args) > 1 && os.Args[1] == "workload":
		err = runWorkload(os.Args[2:])
	case len(os.Args) > 1 && os.Args[1] == "array":
		err = runArray(os.Args[2:])
	case len(os.Args) > 1 && os.Args[1] == "serve":
		err = runServe(os.Args[2:])
	case len(os.Args) > 1 && os.Args[1] == "submit":
		err = runSubmit(os.Args[2:])
	case len(os.Args) > 1 && os.Args[1] == "trace":
		err = runTrace(os.Args[2:])
	default:
		err = run()
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "uflip:", err)
		os.Exit(1)
	}
}

func run() error {
	var (
		devKey   = flag.String("device", "", "device profile or array spec to benchmark, e.g. mtron or stripe(2,mtron,mtron) (see flashio -list)")
		capacity = flag.Int64("capacity", 1<<30, "simulated capacity in bytes, per member for array specs (scaled-down devices behave identically)")
		micros   = flag.String("micro", "", "comma-separated micro-benchmarks to run (default: all nine)")
		ioCount  = flag.Int("iocount", 1024, "base run length before methodology scaling")
		seed     = flag.Int64("seed", 42, "random seed")
		outDir   = flag.String("out", "", "directory for JSON/CSV results")
		stateDir = flag.String("statedir", "", "persistent state-cache directory: enforced device states are saved there and later runs load them instead of re-filling (results are byte-identical)")
		parallel = flag.Int("parallel", runtime.GOMAXPROCS(0), "worker count for plan execution (1 = sequential fallback; results are identical for any value)")
		verbose  = flag.Bool("v", false, "log each run")
		cpuProf  = flag.String("cpuprofile", "", "write a CPU profile to this file (inspect with go tool pprof)")
		memProf  = flag.String("memprofile", "", "write a heap profile to this file on exit (inspect with go tool pprof)")
	)
	flag.Parse()
	if *devKey == "" {
		return fmt.Errorf("pass -device <profile>")
	}
	stopProfiles, err := startProfiles(*cpuProf, *memProf)
	if err != nil {
		return err
	}
	defer func() {
		if perr := stopProfiles(); perr != nil {
			fmt.Fprintln(os.Stderr, "uflip:", perr)
		}
	}()
	desc, err := profile.DescribeDevice(*devKey)
	if err != nil {
		return err
	}
	cfg := paperexp.Config{Capacity: *capacity, Seed: *seed, IOCount: *ioCount}
	if *stateDir != "" {
		if cfg.Store, err = statestore.Open(*stateDir); err != nil {
			return err
		}
	}
	fmt.Printf("== %s (%s)\n", *devKey, desc)
	// With a state cache, enforcement narration moves to stderr so stdout
	// stays byte-identical between the cold run (which fills and saves) and
	// every warm run (which loads and skips the fill).
	stateOut := io.Writer(os.Stdout)
	if cfg.Store != nil {
		stateOut = os.Stderr
	}
	var renderErr error
	stages := paperexp.Stages{
		EnforcingState: func(capacity int64) {
			if cfg.Store != nil {
				fmt.Fprintf(stateOut, "preparing enforced random state over %d MB (cache: %s)...\n", capacity>>20, *stateDir)
				return
			}
			fmt.Fprintf(stateOut, "enforcing random state over %d MB...\n", capacity>>20)
		},
		StateEnforced: func(at time.Duration, hit bool) {
			if hit {
				fmt.Fprintf(stateOut, "state cache hit: loaded enforced state (%v of device time), fill skipped\n", at.Round(time.Second))
				return
			}
			suffix := ""
			if cfg.Store != nil {
				suffix = " (saved to state cache)"
			}
			fmt.Fprintf(stateOut, "state enforced in %v of device time%s\n", at.Round(time.Second), suffix)
		},
		PhasesMeasured: func(phases *methodology.PhaseReport) {
			fmt.Println()
			if err := report.PhaseTable(phases).Render(os.Stdout); err != nil && renderErr == nil {
				renderErr = err
			}
		},
		PauseMeasured: func(pauseRep *methodology.PauseReport) {
			fmt.Printf("\nlingering effect after random writes: %d IOs (%v); pause between runs: %v\n",
				pauseRep.LingerIOs, pauseRep.LingerTime.Round(time.Millisecond), pauseRep.RecommendedPause)
		},
		PlanBuilt: func(plan methodology.Plan, workers int) {
			fmt.Printf("\nplan: %d runs, %d state resets; executing on %d workers\n",
				len(plan.Steps)-plan.Resets, plan.Resets, workers)
		},
	}
	var progress engine.ProgressFunc
	if *verbose {
		progress = func(done, total int, desc string) {
			fmt.Printf("  [%d/%d] %s\n", done, total, desc)
		}
	}
	var selectedMicros []string
	if *micros != "" {
		selectedMicros = strings.Split(*micros, ",")
	}
	// Plan runs execute through the engine: each shard gets a clone of the
	// one enforced master state, so any worker count produces identical
	// merged results. Ctrl-C cancels between runs.
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt)
	defer stop()
	out, err := paperexp.RunBenchmark(ctx, *devKey, cfg, paperexp.BenchmarkRequest{
		Micros:   selectedMicros,
		Workers:  *parallel,
		Progress: progress,
		Stages:   stages,
	})
	if err != nil {
		return err
	}
	if renderErr != nil {
		return renderErr
	}
	results := out.Results
	fmt.Printf("benchmark complete: %d runs, %v of device time on the longest shard\n\n", len(results.Results), results.Elapsed.Round(time.Second))

	// Summaries per micro-benchmark, then the device's Table 3 row.
	if err := report.PlanSection(os.Stdout, out.Micros, results, core.StandardDefaults().IOSize); err != nil {
		return err
	}

	if *outDir != "" {
		if err := saveResults(*outDir, fileSafe(*devKey), results); err != nil {
			return err
		}
		fmt.Printf("\nresults written under %s\n", *outDir)
	}
	return nil
}

// fileSafe turns a device key or array spec into a file-name stem: array
// specs contain parentheses and commas, which stay legible but awkward in
// result paths.
func fileSafe(key string) string {
	out := []rune(key)
	for i, r := range out {
		switch {
		case r >= 'a' && r <= 'z', r >= 'A' && r <= 'Z', r >= '0' && r <= '9', r == '-', r == '.', r == '_':
		default:
			out[i] = '_'
		}
	}
	return strings.Trim(string(out), "_")
}

func saveResults(dir, devKey string, results *methodology.Results) error {
	records := paperexp.Records(results)
	if err := trace.SaveJSON(filepath.Join(dir, devKey+".jsonl"), records); err != nil {
		return err
	}
	return trace.SaveSummaryCSV(filepath.Join(dir, devKey+".csv"), records)
}
