package main

import (
	"context"
	"fmt"
	"io"
	"runtime"
	"sort"
	"syscall"
	"text/tabwriter"
	"time"
)

// defaultSeconds is BENCHMARK.json's run_seconds.
const defaultSeconds = 18

// metricDef names a metric, its unit and which direction is better.
type metricDef struct {
	name   string
	unit   string
	better string // "higher" or "lower"
	// bound is the share of the parent's median by which an end-to-end
	// metric may worsen before a change counts as a regression.
	bound float64
}

// endToEnd are the bounded metrics, measured with tracing off, the same six
// on every workload. Host time everywhere: only a name starting with "sim"
// is about simulated time. Failed jobs are reported beside them, as
// attempted/failed, and any failure fails the run.
//
// The bounds are what the 2-core reference box can resolve, not what one
// would wish for: its speed moves by a tenth to a third between runs
// whatever the run length (README.md, "How steady the numbers are"). Every
// metric that is a time is therefore divided by the run's host speed index
// (hostspeed.go), and still carries the widest bound the benchmark contract
// allows.
// The allocation count repeats exactly at one seed and to about 2 % across
// seeds (memoright's plan is a few percent longer or shorter at some).
var endToEnd = []metricDef{
	{"sim_mios_per_s", "Mio/s", "higher", 0.25},
	{"job_p50_ms", "ms", "lower", 0.25},
	{"cpu_s_per_mio", "s/Mio", "lower", 0.25},
	{"alloc_mb_per_mio", "MB/Mio", "lower", 0.10},
	{"peak_rss_mb", "MB", "lower", 0.25},
	{"setup_s", "s", "lower", 0.25},
}

// runConfig parameterizes one run of one workload.
type runConfig struct {
	seed        int64
	seconds     int
	traced      bool
	sz          sizes
	spansOut    string
	checkGolden bool
	// skipDrivers leaves the drivers stage out of a traced run (the smoke
	// tests time the harness, not the layers).
	skipDrivers bool
}

// namedMetric is a metric value in report order.
type namedMetric struct {
	def   metricDef
	value float64
}

// runResult is everything one run found.
type runResult struct {
	workload string
	cfg      runConfig
	nproc    int

	attempted int
	failed    int
	failures  []string // the first few, for the log

	goldenOK  bool
	goldenMsg []string

	metrics []namedMetric

	digests  map[string]string // kind name -> sim_digest of its warm-up job
	opCounts map[string]int64  // traced run: exact counts of the traced phase
	jobsMS   []float64         // wall time of every measured job
	tailPct  int

	attribution []attrRow

	// Untraced run: the host speed index of the measured phase and of the
	// set-ups, and the time metrics as the clock read them, before they
	// were divided by it.
	hostIndex, setupHostIndex float64
	raw                       map[string]float64

	phaseWall time.Duration // the measured (or traced) phase
	totalWall time.Duration // the whole run
}

func (r *runResult) add(def metricDef, v float64) {
	r.metrics = append(r.metrics, namedMetric{def, v})
}

func (r *runResult) line() runLine {
	m := make(map[string]metric, len(r.metrics))
	for _, nm := range r.metrics {
		m[nm.def.name] = metric{Value: nm.value, Unit: nm.def.unit}
	}
	return runLine{
		Correct:   r.failed == 0 && r.goldenOK,
		Attempted: r.attempted,
		Failed:    r.failed,
		Metrics:   m,
	}
}

// runDetail is what -detail writes: the run line plus what the all-workloads
// report and -update-golden need.
type runDetail struct {
	Workload string            `json:"workload"`
	Seed     int64             `json:"seed"`
	Seconds  int               `json:"seconds"`
	Traced   bool              `json:"traced"`
	NProc    int               `json:"nproc"`
	Jobs     int               `json:"jobs"`
	TailPct  int               `json:"tail_percentile,omitempty"`
	Line     runLine           `json:"result"`
	Digests  map[string]string `json:"sim_digest"`
	OpCounts map[string]int64  `json:"op_counts,omitempty"`
	JobsMS   []float64         `json:"job_ms"`
	// HostIndex divides the time metrics of an untraced run (phase,
	// set-ups); Raw holds them as the clock read them.
	HostIndex []float64          `json:"host_speed_index,omitempty"`
	Raw       map[string]float64 `json:"as_clocked,omitempty"`
	Failures  []string           `json:"failures,omitempty"`
	Golden    []string           `json:"golden_mismatch,omitempty"`
}

func (r *runResult) detail() runDetail {
	d := runDetail{
		Workload: r.workload, Seed: r.cfg.seed, Seconds: r.cfg.seconds, Traced: r.cfg.traced,
		NProc: r.nproc, Jobs: len(r.jobsMS), TailPct: r.tailPct, Line: r.line(),
		Digests: r.digests, OpCounts: r.opCounts, JobsMS: r.jobsMS,
		Failures: r.failures, Golden: r.goldenMsg, Raw: r.raw,
	}
	if r.raw != nil {
		d.HostIndex = []float64{r.hostIndex, r.setupHostIndex}
	}
	return d
}

func (r *runResult) printTable(w io.Writer) {
	mode := "tracing off"
	if r.cfg.traced {
		mode = "drivers + traced run"
	}
	fmt.Fprintf(w, "== %s  seed %d  %s  nproc %d  jobs %d  failed %d/%d  phase %.1f s  run %.1f s\n",
		r.workload, r.cfg.seed, mode, r.nproc, len(r.jobsMS), r.failed, r.attempted,
		r.phaseWall.Seconds(), r.totalWall.Seconds())
	tw := tabwriter.NewWriter(w, 0, 8, 2, ' ', 0)
	for _, nm := range r.metrics {
		fmt.Fprintf(tw, "  %s\t%.10g\t%s\t(%s is better)\n", nm.def.name, nm.value, nm.def.unit, nm.def.better)
	}
	tw.Flush()
	if r.raw != nil {
		fmt.Fprintf(w, "  host speed index %.4f during the phase, %.4f during the set-ups (1 = the quiet reference box; above, slower); as the clock read them:",
			r.hostIndex, r.setupHostIndex)
		for _, name := range sortedKeys(r.raw) {
			fmt.Fprintf(w, "  %s %.6g", name, r.raw[name])
		}
		fmt.Fprintln(w)
	}
	if len(r.attribution) > 0 {
		fmt.Fprintln(w, "  where a traced job's wall time goes (mean per job; parallel-region layers divided by the worker count):")
		tw = tabwriter.NewWriter(w, 0, 8, 2, ' ', 0)
		for _, row := range r.attribution {
			fmt.Fprintf(tw, "    %s\t%.4f s\t%5.1f %%\n", row.layer, row.seconds, 100*row.share)
		}
		tw.Flush()
	}
	for _, f := range r.failures {
		fmt.Fprintln(w, "  FAILED:", f)
	}
	for _, g := range r.goldenMsg {
		fmt.Fprintln(w, "  GOLDEN MISMATCH:", g)
	}
}

// note records a failed job.
func (r *runResult) note(kind string, job int, why string) {
	r.failed++
	if len(r.failures) < 8 {
		r.failures = append(r.failures, fmt.Sprintf("%s job %d: %s", kind, job, why))
	}
}

// count adds a phase's jobs to attempted/failed, checking each against the
// kind's warm-up result.
func (r *runResult) count(p phase, kinds []kind, ref []jobResult) {
	for i := range p.outcomes {
		o := &p.outcomes[i]
		r.attempted++
		if why := o.failure(ref[o.kind]); why != "" {
			r.note(kinds[o.kind].name(), i, why)
		}
	}
}

// peakRSS returns the process's peak resident set in MB (10^6 bytes).
func peakRSS() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return float64(ru.Maxrss) * 1024 / 1e6 // Linux reports KiB
}

// runOne runs one workload once: set-up, warm-up, then either the measured
// phase with tracing off, or the traced run and the drivers.
func runOne(ctx context.Context, w *workloadDef, cfg runConfig) (*runResult, error) {
	started := time.Now()
	r := &runResult{
		workload: w.name, cfg: cfg, nproc: runtime.GOMAXPROCS(0), goldenOK: true,
		digests: make(map[string]string),
	}
	kinds := w.kinds()

	// The untraced run samples the host's speed around every set-up and
	// between the blocks of the measured phase (hostspeed.go). The traced
	// run's numbers have no bound and stay as measured.
	var host *hostSpeed
	var duringSetups, duringPhase hostSamples
	sampleSetups := func() {}
	if !cfg.traced {
		var err error
		if host, err = newHostSpeed(r.nproc); err != nil {
			return nil, err
		}
		defer host.close()
		sampleSetups = func() { host.sample(&duringSetups) }
	}

	sampleSetups()
	e, took, err := w.setUp(cfg.seed, cfg.sz, kinds)
	if err != nil {
		return nil, err
	}
	defer e.close()
	sampleSetups()
	setups := []float64{took.Seconds()}

	// One untimed warm-up job per kind fixes what every later job of the
	// kind must reproduce.
	ref := make([]jobResult, len(kinds))
	for i, k := range kinds {
		var err error
		if ref[i], err = k.run(ctx, e, nil); err != nil {
			return nil, fmt.Errorf("%s: warm-up %s: %w", w.name, k.name(), err)
		}
		r.digests[k.name()] = ref[i].digest
	}
	if w.warmJobs != nil {
		warm := w.runPhase(ctx, e, kinds, w.warmJobs(cfg.sz), false, time.Time{}, nil)
		r.count(warm, kinds, ref)
	}

	if cfg.traced {
		if err := r.tracedRun(ctx, w, e, kinds, ref); err != nil {
			return nil, err
		}
	} else {
		jobs := w.rounds(cfg.seconds) * len(kinds)
		p := w.runPhase(ctx, e, kinds, jobs, false, time.Time{}, func() { host.sample(&duringPhase) })
		r.count(p, kinds, ref)
		// The kernels' tables were resident before the first set-up and
		// still are: the peak without them is the peak less their size.
		rss := peakRSS() - host.residentMB()
		// setup_s is a median over several set-ups. The others run now,
		// into scratch directories of their own, so that the peak memory
		// read above is that of one set-up and the jobs.
		for range w.setupRepeats - 1 {
			again, took, err := w.setUp(cfg.seed, cfg.sz, w.kinds())
			if err != nil {
				return nil, err
			}
			again.close()
			sampleSetups()
			setups = append(setups, took.Seconds())
		}
		r.hostIndex, r.setupHostIndex = duringPhase.index(), duringSetups.index()
		r.endToEnd(p, ref, rss, median(setups))
		r.phaseWall = p.wall
	}
	r.totalWall = time.Since(started)
	if cfg.checkGolden {
		r.checkGolden()
	}
	return r, nil
}

// endToEnd computes the bounded metrics of a measured phase. Every one that
// is a time is divided by the host speed index of the stretch it was
// measured in, so it reads in seconds of the quiet reference box.
func (r *runResult) endToEnd(p phase, ref []jobResult, rssMB, setupS float64) {
	var ios int64
	byKind := make([][]float64, len(ref))
	for i := range p.outcomes {
		o := &p.outcomes[i]
		// A job that failed still cost its time; it simulated what its
		// kind's warm-up did, or it would not be comparable at all.
		ios += ref[o.kind].ios
		ms := float64(o.wall) / 1e6
		r.jobsMS = append(r.jobsMS, ms)
		byKind[o.kind] = append(byKind[o.kind], ms)
	}
	// The median job, kind by kind, averaged over the kinds: the median of
	// the pooled jobs would sit inside one kind's cluster and never see a
	// change to the others.
	var p50 float64
	for _, ms := range byKind {
		p50 += median(ms) / float64(len(byKind))
	}
	mio := float64(ios) / 1e6
	r.raw = map[string]float64{
		"sim_mios_per_s": mio / p.wall.Seconds(),
		"job_p50_ms":     p50,
		"cpu_s_per_mio":  p.cpu.Seconds() / mio,
		"setup_s":        setupS,
	}
	values := map[string]float64{
		"sim_mios_per_s":   r.raw["sim_mios_per_s"] * r.hostIndex,
		"job_p50_ms":       r.raw["job_p50_ms"] / r.hostIndex,
		"cpu_s_per_mio":    r.raw["cpu_s_per_mio"] / r.hostIndex,
		"alloc_mb_per_mio": float64(p.alloc) / 1e6 / mio,
		"peak_rss_mb":      rssMB,
		"setup_s":          r.raw["setup_s"] / r.setupHostIndex,
	}
	for _, def := range endToEnd {
		r.add(def, values[def.name])
	}
	_, r.tailPct = tail(r.jobsMS)
}

// sortedKeys returns m's keys in order.
func sortedKeys[V any](m map[string]V) []string {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}
