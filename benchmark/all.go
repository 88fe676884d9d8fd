package main

import (
	"context"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"strconv"
	"text/tabwriter"
)

// allDoc is the JSON document a run of every workload writes, and the
// input of `benchmark compare`. Every metric holds one value per run.
type allDoc struct {
	Commit    string                  `json:"commit"`
	GoVersion string                  `json:"go_version"`
	NProc     int                     `json:"nproc"`
	Seconds   int                     `json:"seconds"`
	Seeds     []int64                 `json:"seeds"`
	Workloads map[string]*workloadDoc `json:"workloads"`
}

type workloadDoc struct {
	// Jobs and TracedJobs are the sample counts behind job_p50_ms and the
	// traced run's per-job means.
	Jobs           int                  `json:"jobs"`
	TracedJobs     int                  `json:"traced_jobs"`
	TailPercentile int                  `json:"tail_percentile"`
	Failed         int                  `json:"failed"`
	Attempted      int                  `json:"attempted"`
	EndToEnd       map[string][]float64 `json:"end_to_end"`
	// HostIndex is the host speed index of each untraced run's measured
	// phase, by which its time metrics were divided.
	HostIndex []float64            `json:"host_speed_index"`
	PerLayer  map[string][]float64 `json:"per_layer"`
	Digests   map[string]string    `json:"sim_digest"`
	OpCounts  map[string]int64     `json:"op_counts"`
}

// commit returns the revision the binary was built from, when the go tool
// stamped one.
func commit() string {
	if bi, ok := debug.ReadBuildInfo(); ok {
		for _, s := range bi.Settings {
			if s.Key == "vcs.revision" {
				return s.Value
			}
		}
	}
	return "unknown"
}

// runAll runs every workload, untraced and then traced, each in its own
// child process — one at a time — so that peak memory and collector state
// belong to one workload and no result depends on the order. It prints one
// JSON document and returns the exit code.
func runAll(ctx context.Context, seed int64, seconds, runs int, out string, update bool) int {
	fail := func(err error) int {
		fmt.Fprintln(os.Stderr, "benchmark:", err)
		return 1
	}
	if update && (seed != goldenSeed || runs != 1) {
		return fail(fmt.Errorf("-update-golden needs -seed %d and -runs 1", goldenSeed))
	}
	exe, err := os.Executable()
	if err != nil {
		return fail(err)
	}
	tmp, err := os.MkdirTemp("", "uflip-bench-all-")
	if err != nil {
		return fail(err)
	}
	defer os.RemoveAll(tmp)

	doc := allDoc{
		Commit: commit(), GoVersion: runtime.Version(), NProc: runtime.NumCPU(),
		Seconds: seconds, Workloads: make(map[string]*workloadDoc),
	}
	code := 0
	for run := range runs {
		s := seed + int64(run)
		doc.Seeds = append(doc.Seeds, s)
		for _, w := range workloads {
			wd := doc.Workloads[w.name]
			if wd == nil {
				wd = &workloadDoc{EndToEnd: map[string][]float64{}, PerLayer: map[string][]float64{}}
				doc.Workloads[w.name] = wd
			}
			for _, traced := range []bool{false, true} {
				d, err := runChild(ctx, exe, tmp, w.name, s, seconds, traced, update)
				if err != nil {
					return fail(err)
				}
				if !d.Line.Correct {
					code = 1
				}
				wd.Failed += d.Line.Failed
				wd.Attempted += d.Line.Attempted
				wd.Digests = d.Digests
				into := wd.EndToEnd
				if traced {
					into, wd.TracedJobs, wd.OpCounts = wd.PerLayer, d.Jobs, d.OpCounts
				} else {
					wd.Jobs, wd.TailPercentile = d.Jobs, d.TailPct
					if len(d.HostIndex) > 0 {
						wd.HostIndex = append(wd.HostIndex, d.HostIndex[0])
					}
				}
				for name, m := range d.Line.Metrics {
					into[name] = append(into[name], m.Value)
				}
			}
		}
	}
	doc.printSummary(os.Stderr)
	if update {
		if err := doc.writeGolden(); err != nil {
			return fail(err)
		}
		fmt.Fprintln(os.Stderr, "benchmark: rewrote", goldenPath)
	}
	if out == "" {
		out = "/dev/stdout"
	}
	if err := writeJSON(out, doc); err != nil {
		return fail(err)
	}
	return code
}

// runChild re-executes the binary for one run of one workload and returns
// what it wrote to its -detail file. The child's table goes to this
// process's standard error as it is printed.
func runChild(ctx context.Context, exe, tmp, workload string, seed int64, seconds int, traced, update bool) (*runDetail, error) {
	detail := filepath.Join(tmp, "detail.json")
	args := []string{
		"-workload", workload, "-seed", strconv.FormatInt(seed, 10),
		"-seconds", strconv.Itoa(seconds), "-detail", detail,
	}
	if traced {
		args = append(args, "-trace", "1")
	}
	if update {
		args = append(args, "-update-golden")
	}
	cmd := exec.CommandContext(ctx, exe, args...)
	cmd.Stdout = io.Discard
	cmd.Stderr = os.Stderr
	runErr := cmd.Run()
	data, err := os.ReadFile(detail)
	if err != nil {
		// No detail file: the child died before it had a result.
		return nil, fmt.Errorf("%s (seed %d): %v", workload, seed, runErr)
	}
	os.Remove(detail)
	var d runDetail
	if err := json.Unmarshal(data, &d); err != nil {
		return nil, fmt.Errorf("%s: %w", workload, err)
	}
	return &d, nil
}

// printSummary prints every end-to-end metric of every workload: median,
// quartiles and sample count.
func (doc *allDoc) printSummary(w io.Writer) {
	fmt.Fprintf(w, "\n== summary  commit %s  %s  nproc %d  seeds %v  (host time; sim_* count simulated IOs; the model is unvalidated in absolute terms)\n",
		doc.Commit, doc.GoVersion, doc.NProc, doc.Seeds)
	tw := tabwriter.NewWriter(w, 0, 8, 2, ' ', 0)
	fmt.Fprintln(tw, "  workload\tmetric\tmedian\tq1\tq3\tunit\truns\tjobs/run")
	for _, wl := range workloads {
		wd := doc.Workloads[wl.name]
		if wd == nil {
			continue
		}
		for _, def := range endToEnd {
			xs := wd.EndToEnd[def.name]
			q1, q3 := quartiles(xs)
			fmt.Fprintf(tw, "  %s\t%s\t%.5g\t%.5g\t%.5g\t%s\t%d\t%d\n",
				wl.name, def.name, median(xs), q1, q3, def.unit, len(xs), wd.Jobs)
		}
		fmt.Fprintf(tw, "  %s\tfailed jobs\t%d of %d\t\t\t\t\t\n", wl.name, wd.Failed, wd.Attempted)
	}
	tw.Flush()
}

// writeGolden rewrites golden/seed42.json from this run.
func (doc *allDoc) writeGolden() error {
	g := goldenFile{Seed: goldenSeed, Workloads: make(map[string]*goldenWorkload)}
	for name, wd := range doc.Workloads {
		g.Workloads[name] = &goldenWorkload{Digests: wd.Digests, OpCounts: wd.OpCounts}
	}
	return writeJSON(goldenPath, g)
}
