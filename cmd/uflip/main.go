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
//
// Identical by construction: the flags that describe a job are registered
// once (flags.go) and become one api.JobRequest; the local commands are a
// shell around job.Run (this file), submit is a shell around the daemon
// (submit.go), whose worker calls the same job.Run on the same request.
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"os"
	"os/signal"
	"path/filepath"
	"runtime"
	"strings"
	"time"

	"uflip/internal/job"
	"uflip/internal/methodology"
	"uflip/internal/paperexp"
	"uflip/internal/profile"
	"uflip/internal/report"
	"uflip/internal/statestore"
	"uflip/internal/workload"
)

func main() {
	// Ctrl-C cancels whatever runs: a local job between runs, a submitted
	// job on its daemon, the daemon itself.
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt)
	defer stop()
	sub, args := "", os.Args[1:]
	if len(args) > 0 {
		sub = args[0]
	}
	var err error
	switch sub {
	case "serve":
		err = runServe(ctx, args[1:])
	case "submit":
		err = runSubmit(ctx, args[1:])
	case "trace":
		err = runTrace(args[1:])
	default:
		kind := "plan"
		if sub == "workload" || sub == "array" {
			kind, args = sub, args[1:]
		}
		fs, _, cmd := localCommand(ctx, kind)
		err = run(fs, args, cmd)
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "uflip:", err)
		os.Exit(1)
	}
}

// run parses args into a command's flag set and runs the command; -h prints
// the usage and is no error.
func run(fs *flag.FlagSet, args []string, cmd func() error) error {
	if err := fs.Parse(args); err != nil {
		if errors.Is(err, flag.ErrHelp) {
			return nil
		}
		return err
	}
	return cmd()
}

// localCommand is `uflip` (the plan kind), `uflip workload` or `uflip array`:
// its flag set — the job's flags plus those only a local run has — and the
// local shell around job.Run, to call once the flags are parsed. The shell
// owns the state cache directory, the profiles, -v, -dump-trace and the
// narration on stdout; the job is the request the shared flags describe, run
// by the function the daemon runs.
func localCommand(ctx context.Context, kind string) (*flag.FlagSet, *jobFlags, func() error) {
	// The bare command keeps the flag package's own conventions: usage under
	// the binary's name, exit status 2 for a bad flag.
	fs := flag.NewFlagSet(os.Args[0], flag.ExitOnError)
	if kind != "plan" {
		fs = flag.NewFlagSet("uflip "+kind, flag.ContinueOnError)
	}
	var (
		text     = flagText[kind]
		jf       = registerJobFlags(fs, kind, runtime.GOMAXPROCS(0))
		stateDir = fs.String("statedir", "", text.statedir)
		verbose  = fs.Bool("v", false, text.verbose)
		// Flags only some kinds have; the others read them as unset.
		cpuProf, memProf, dumpTrace = new(string), new(string), new(string)
	)
	if kind != "array" {
		cpuProf = fs.String("cpuprofile", "", "write a CPU profile to this file (inspect with go tool pprof)")
		memProf = fs.String("memprofile", "", "write a heap profile to this file on exit (inspect with go tool pprof)")
	}
	if kind == "workload" {
		dumpTrace = fs.String("dump-trace", "", "also write the replayed stream as a block trace to this path (a .utr extension selects the binary form)")
	}
	return fs, jf, func() error {
		req, err := jf.request()
		if err != nil {
			return err
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
		var env job.Env
		if *stateDir != "" {
			if env.Store, err = statestore.Open(*stateDir); err != nil {
				return err
			}
		}
		if *verbose {
			env.Progress = func(done, total int, desc string) {
				fmt.Printf("  [%d/%d] %s\n", done, total, desc)
			}
		}

		// A workload's stream is opened (a trace) or built early (-dump-trace of
		// a synthetic one) so that it can be written out before the run narrates.
		if path := *jf.trace; path != "" {
			f, err := os.Open(path)
			if err != nil {
				return err
			}
			defer f.Close()
			st, err := f.Stat()
			if err != nil {
				return err
			}
			if env.Source, err = workload.OpenTrace(f, st.Size(), traceLabel(path)); err != nil {
				return err
			}
			if *dumpTrace != "" {
				n, err := workload.ConvertTraceFile(path, *dumpTrace, workload.FormatForPath(*dumpTrace))
				if err != nil {
					return err
				}
				fmt.Printf("trace written to %s (%d IOs)\n", *dumpTrace, n)
			}
		} else if *dumpTrace != "" {
			if env.Source, err = job.Synthetic(req.Workload.Spec); err != nil {
				return err
			}
			stream, err := env.Source.Segment(0, env.Source.Len())
			if err != nil {
				return err
			}
			if err := workload.SaveOps(*dumpTrace, stream); err != nil {
				return err
			}
			fmt.Printf("trace written to %s (%d IOs)\n", *dumpTrace, len(stream))
		}

		var renderErr error
		if kind == "array" {
			a := req.Array
			fmt.Printf("== array sweep over %s: %d layouts x %d counts x %d queue depths = %d combinations, degree %d, %d workers\n",
				a.Member, len(a.Layouts), len(a.Counts), len(a.QueueDepths), len(a.Layouts)*len(a.Counts)*len(a.QueueDepths), a.Degree, req.Parallel)
		} else {
			desc, err := profile.DescribeDevice(req.Device)
			if err != nil {
				return err
			}
			fmt.Printf("== %s (%s)\n", req.Device, desc)
			env.Stages = planNarration(*stateDir, &renderErr)
			env.Replaying = func(name string, ops, segmentOps, workers int) {
				fmt.Printf("replaying %s: %d IOs in segments of %d on %d workers\n", name, ops, segmentOps, workers)
			}
		}

		out, err := job.Run(ctx, req, env)
		if err == nil {
			err = renderErr
		}
		if err != nil {
			return err
		}
		if kind == "plan" {
			fmt.Printf("benchmark complete: %d runs, %v of device time on the longest shard\n", len(out.Records), out.Elapsed.Round(time.Second))
		}
		fmt.Println()
		os.Stdout.Write(out.Report)
		if *jf.out != "" {
			saved, err := out.Save(*jf.out, stem(req))
			if err != nil {
				return err
			}
			fmt.Printf("\n%s\n", saved)
		}
		return nil
	}
}

// planNarration prints a plan's stages as they complete. With a state cache
// the enforcement lines go to stderr, so stdout is byte-identical between the
// cold run (fills and saves) and every warm run (loads). A failed render lands
// in *renderErr.
func planNarration(stateDir string, renderErr *error) paperexp.Stages {
	cached := stateDir != ""
	stateOut := os.Stdout
	if cached {
		stateOut = os.Stderr
	}
	return paperexp.Stages{
		EnforcingState: func(capacity int64) {
			if cached {
				fmt.Fprintf(stateOut, "preparing enforced random state over %d MB (cache: %s)...\n", capacity>>20, stateDir)
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
			if cached {
				suffix = " (saved to state cache)"
			}
			fmt.Fprintf(stateOut, "state enforced in %v of device time%s\n", at.Round(time.Second), suffix)
		},
		PhasesMeasured: func(phases *methodology.PhaseReport) {
			fmt.Println()
			if err := report.PhaseTable(phases).Render(os.Stdout); err != nil && *renderErr == nil {
				*renderErr = err
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
}

// traceLabel names a replayed trace in reports: the file name without its
// format extension, so the same stream replayed from its .csv and .utr
// forms produces byte-identical results.
func traceLabel(path string) string {
	base := filepath.Base(path)
	return strings.TrimSuffix(base, filepath.Ext(base))
}
