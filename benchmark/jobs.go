package main

import (
	"bytes"
	"context"
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"errors"
	"fmt"
	"hash"
	"io"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strings"
	"syscall"
	"time"

	"uflip/internal/api"
	"uflip/internal/client"
	"uflip/internal/core"
	"uflip/internal/device"
	"uflip/internal/engine"
	"uflip/internal/methodology"
	"uflip/internal/paperexp"
	"uflip/internal/profile"
	"uflip/internal/report"
	"uflip/internal/server"
	"uflip/internal/statestore"
	"uflip/internal/trace"
	"uflip/internal/workload"
)

// sizes scales the jobs. The benchmark runs fullSizes; the tests run the
// same code at smokeSizes.
type sizes struct {
	planCapacity int64
	planIOCount  int
	planMicros   string // comma-separated; empty means all nine

	replayCapacity int64 // per array member
	replayTarget   int64
	replayOps      int
	replaySegment  int

	serveCapacity int64
	serveIOCount  int
	serveOps      int
	serveSegment  int
	serveKeep     int // finished jobs the daemon retains (`uflip serve -keep`)
}

// micros returns the plan jobs' micro-benchmark selection.
func (s sizes) micros() []string {
	if s.planMicros == "" {
		return nil
	}
	return strings.Split(s.planMicros, ",")
}

var fullSizes = sizes{
	planCapacity: 1 << 30, planIOCount: 1024,
	replayCapacity: 128 << 20, replayTarget: 128 << 20, replayOps: 1_000_000, replaySegment: 12_500,
	serveCapacity: 64 << 20, serveIOCount: 64, serveOps: 20_000, serveSegment: 1000, serveKeep: 48,
}

var smokeSizes = sizes{
	planCapacity: 64 << 20, planIOCount: 64, planMicros: "Granularity",
	replayCapacity: 64 << 20, replayTarget: 32 << 20, replayOps: 2000, replaySegment: 500,
	serveCapacity: 64 << 20, serveIOCount: 64, serveOps: 2000, serveSegment: 500, serveKeep: 2,
}

// replaySpec is the device replay-read runs against: an unarmed fault
// wrapper over a two-member stripe, so the device layer is used through
// CompositeDevice and FaultyDevice and not as a raw SimDevice.
const replaySpec = "faulty(stripe(2,memoright,memoright),seed=7)"

// env is what one set-up of a workload leaves behind for its jobs.
type env struct {
	seed  int64
	nproc int
	sz    sizes
	dir   string // scratch directory of this set-up

	store *statestore.Store

	utrPath string // replay-read: the trace file

	srv       *server.Server // serve-small: the in-process daemon
	ts        *httptest.Server
	cl        *client.Client
	traceHash string
}

// close stops the daemon, if any, and removes the scratch directory.
func (e *env) close() {
	if e.ts != nil {
		e.ts.Close()
	}
	if e.srv != nil {
		e.srv.Close()
	}
	os.RemoveAll(e.dir)
}

// jobResult is what one job reports about the simulation it ran.
type jobResult struct {
	// digest is the job's sim_digest: SHA-256 over the run IDs and every
	// response time as int64 nanoseconds, in result order.
	digest   string
	ios      int64         // response times recorded
	simTotal time.Duration // sum of the runs' simulated totals
	retries  int64
}

// kind is one distinct job of a workload. prepare is the kind's share of
// the timed set-up; run executes one job, with spans when jt is not nil.
// The first run after prepare is the untimed warm-up whose result every
// later job of the kind must reproduce.
type kind interface {
	name() string
	prepare(e *env) error
	run(ctx context.Context, e *env, jt *jobTrace) (jobResult, error)
}

// digester builds a sim_digest.
type digester struct {
	h   hash.Hash
	buf [8]byte
	res jobResult
}

func newDigester() *digester { return &digester{h: sha256.New()} }

func (d *digester) add(id string, rts []time.Duration, total time.Duration, retries int64) {
	io.WriteString(d.h, id)
	d.h.Write([]byte{0})
	for _, rt := range rts {
		binary.LittleEndian.PutUint64(d.buf[:], uint64(rt))
		d.h.Write(d.buf[:])
	}
	d.res.ios += int64(len(rts))
	d.res.simTotal += total
	d.res.retries += retries
}

func (d *digester) result() jobResult {
	d.res.digest = hex.EncodeToString(d.h.Sum(nil))
	return d.res
}

func planResult(res *methodology.Results) jobResult {
	d := newDigester()
	for _, r := range res.Results {
		d.add(r.Exp.ID(), r.Run.RTs, r.Run.Total, r.Run.Faults.Retries)
	}
	return d.result()
}

func recordsResult(records []trace.RunRecord) jobResult {
	d := newDigester()
	for i := range records {
		r := &records[i]
		d.add(r.ID, r.ResponseTimes(), time.Duration(r.TotalSeconds*float64(time.Second)), r.Retries)
	}
	return d.result()
}

// cpuTime returns the process's user+system CPU time so far.
func cpuTime() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// tracedMaster is the interposed stack of a kind, for traced runs only:
// enforced live during set-up, because the snapshot code cannot see through
// interposers, and cloned where the untraced pipeline loads from the store.
type tracedMaster struct {
	col    *collector
	master *tracedDevice
	at     time.Duration // end of state enforcement
}

func (m *tracedMaster) build(spec string, capacity, seed int64) error {
	m.col = &collector{}
	var err error
	if m.master, err = buildTracedDevice(spec, capacity, m.col); err != nil {
		return err
	}
	m.at, err = methodology.EnforceRandomState(m.master, seed)
	return err
}

// planKind is one full run of the uFLIP methodology against one device:
// what `uflip -device KEY -statedir DIR -out DIR` does.
type planKind struct {
	key string
	tracedMaster
}

func (k *planKind) name() string { return "plan/" + k.key }

func (k *planKind) cfg(e *env) paperexp.Config {
	return paperexp.Config{Capacity: e.sz.planCapacity, Seed: e.seed, IOCount: e.sz.planIOCount, Store: e.store}
}

func (k *planKind) prepare(e *env) error {
	_, _, _, err := paperexp.PrepareCached(k.key, k.cfg(e))
	return err
}

func (k *planKind) prepareTraced(e *env) error {
	return k.build(k.key, e.sz.planCapacity, e.seed)
}

func (k *planKind) run(ctx context.Context, e *env, jt *jobTrace) (jobResult, error) {
	if jt != nil {
		return k.runTraced(ctx, e, jt)
	}
	out, err := paperexp.RunBenchmark(ctx, k.key, k.cfg(e), paperexp.BenchmarkRequest{Micros: e.sz.micros(), Workers: e.nproc})
	if err != nil {
		return jobResult{}, err
	}
	records := paperexp.Records(out.Results)
	if err := trace.WriteSummaryCSV(io.Discard, records); err != nil {
		return jobResult{}, err
	}
	if err := report.PlanSection(io.Discard, out.Micros, out.Results, core.StandardDefaults().IOSize); err != nil {
		return jobResult{}, err
	}
	return planResult(out.Results), nil
}

// loadPlain times statestore.Load into an un-interposed device of the same
// key — the load the untraced pipeline performs where the traced one
// clones its live-enforced master.
func loadPlain(e *env, jt *jobTrace, root int, spec string, cfg paperexp.Config) error {
	return jt.timed("statestore.load", root, func() error {
		dev, err := profile.BuildDevice(spec, cfg.Capacity)
		if err != nil {
			return err
		}
		_, hit, err := e.store.Load(paperexp.StateKey(spec, cfg), dev)
		jt.loads++
		if hit {
			jt.hits++
		}
		return err
	})
}

// runTraced is paperexp.RunBenchmark taken apart so that every stage gets a
// span and the stack carries interposers. Its sim_digest equalling the
// untraced job's is the proof that it is the same computation.
func (k *planKind) runTraced(ctx context.Context, e *env, jt *jobTrace) (jobResult, error) {
	cfg := k.cfg(e)
	root := jt.begin("job", -1)
	defer jt.end(root)
	k.col.reset()

	// The untraced job loads the state twice: into the device it measures
	// phases on, and into the engine's master.
	for range 2 {
		if err := loadPlain(e, jt, root, k.key, cfg); err != nil {
			return jobResult{}, err
		}
	}
	var probe device.Device
	_ = jt.timed("bench.probe_clone", root, func() error {
		probe = k.master.CloneDevice()
		return nil
	})

	d := core.StandardDefaults()
	d.IOCount, d.Seed, d.RandomTarget = cfg.IOCount, cfg.Seed, probe.Capacity()/2
	var phases *methodology.PhaseReport
	err := jt.timed("methodology.phases", root, func() (err error) {
		phases, err = methodology.MeasurePhases(probe, d, 4*cfg.IOCount, k.at+5*time.Second)
		return err
	})
	if err != nil {
		return jobResult{}, err
	}
	var pause *methodology.PauseReport
	err = jt.timed("methodology.pause", root, func() (err error) {
		pause, err = methodology.MeasurePause(probe, d, phases.End+5*time.Second)
		return err
	})
	if err != nil {
		return jobResult{}, err
	}

	micros, err := paperexp.SelectMicros(e.sz.micros(), d, probe.Capacity())
	if err != nil {
		return jobResult{}, err
	}
	var exps []core.Experiment
	for _, mb := range micros {
		exps = append(exps, mb.Experiments...)
	}
	plan := methodology.BuildPlan(exps, probe.Capacity(), pause.RecommendedPause, phases)
	plan.Device = k.key

	k.col.setRegion(regionShard)
	exec := jt.begin("engine.execute", root)
	factory := tracedFactory(engine.CloningFactory(func() (device.Cloneable, time.Duration, error) {
		return k.master, k.at + pause.RecommendedPause, nil
	}), jt, exec)
	cpu := cpuTime()
	results, err := engine.ExecutePlan(ctx, plan, factory, engine.Options{Workers: e.nproc, Seed: cfg.Seed})
	jt.execCPU = cpuTime() - cpu
	jt.end(exec)
	if err != nil {
		return jobResult{}, err
	}
	jt.totals = k.col.totals()

	var records []trace.RunRecord
	_ = jt.timed("render.records", root, func() error {
		records = paperexp.Records(results)
		return nil
	})
	if err := jt.timed("render.csv", root, func() error {
		return trace.WriteSummaryCSV(io.Discard, records)
	}); err != nil {
		return jobResult{}, err
	}
	if err := jt.timed("render.report", root, func() error {
		return report.PlanSection(io.Discard, micros, results, core.StandardDefaults().IOSize)
	}); err != nil {
		return jobResult{}, err
	}
	return planResult(results), nil
}

// replayKind replays the trace file written at set-up: what
// `uflip workload -trace FILE.utr -device SPEC -statedir DIR -out DIR` does.
type replayKind struct {
	tracedMaster
}

func (k *replayKind) name() string { return "replay/" + replaySpec }

func (k *replayKind) cfg(e *env) paperexp.Config {
	return paperexp.Config{Capacity: e.sz.replayCapacity, Seed: e.seed, Pause: time.Second, Store: e.store}
}

func (k *replayKind) prepare(e *env) error {
	if _, _, _, err := paperexp.PrepareCached(replaySpec, k.cfg(e)); err != nil {
		return err
	}
	ops, err := workload.OLTP{
		PageSize:     8 * 1024,
		TargetSize:   e.sz.replayTarget,
		ReadFraction: 0.9,
		Count:        e.sz.replayOps,
		Seed:         e.seed,
	}.Generate()
	if err != nil {
		return err
	}
	e.utrPath = filepath.Join(e.dir, "replay.utr")
	return workload.SaveUTR(e.utrPath, ops)
}

func (k *replayKind) prepareTraced(e *env) error {
	return k.build(replaySpec, e.sz.replayCapacity, e.seed)
}

func (k *replayKind) run(ctx context.Context, e *env, jt *jobTrace) (jobResult, error) {
	cfg := k.cfg(e)
	root := -1
	// span runs fn, inside a span of the job when tracing is on.
	span := func(name string, fn func() error) error {
		if jt == nil {
			return fn()
		}
		return jt.timed(name, root, fn)
	}
	if jt != nil {
		root = jt.begin("job", -1)
		defer jt.end(root)
		k.col.reset()
	}

	var utr *workload.UTRSource
	if err := span("trace.open_scan", func() (err error) {
		utr, err = workload.OpenUTRFile(e.utrPath)
		return err
	}); err != nil {
		return jobResult{}, err
	}
	defer utr.Close()
	utr.SetLabel("replay")

	var src workload.Source = utr
	factory := paperexp.ShardFactory(replaySpec, cfg)
	exec := -1
	var cpu time.Duration
	if jt != nil {
		// The untraced job's engine master loads the state once.
		if err := loadPlain(e, jt, root, replaySpec, cfg); err != nil {
			return jobResult{}, err
		}
		k.col.setRegion(regionShard)
		exec = jt.begin("engine.execute", root)
		src = tracedSource{Source: utr, jt: jt, parent: exec}
		factory = tracedFactory(engine.CloningFactory(func() (device.Cloneable, time.Duration, error) {
			return k.master, k.at + cfg.Pause, nil
		}), jt, exec)
		cpu = cpuTime()
	}
	res, err := workload.ReplaySource(ctx, src, factory, workload.Options{
		SegmentOps: e.sz.replaySegment,
		Workers:    e.nproc,
		Seed:       cfg.Seed,
	})
	if jt != nil {
		jt.execCPU = cpuTime() - cpu
		jt.end(exec)
		jt.totals = k.col.totals()
	}
	if err != nil {
		return jobResult{}, err
	}

	var records []trace.RunRecord
	_ = span("render.records", func() error {
		records = paperexp.WorkloadRecords(res)
		return nil
	})
	if err := span("render.csv", func() error { return trace.WriteSummaryCSV(io.Discard, records) }); err != nil {
		return jobResult{}, err
	}
	if err := span("render.json", func() error { return trace.WriteJSON(io.Discard, records) }); err != nil {
		return jobResult{}, err
	}
	if err := span("render.report", func() error { return report.WorkloadSection(io.Discard, res) }); err != nil {
		return jobResult{}, err
	}
	d := newDigester()
	for i, run := range res.Segments {
		d.add(records[i].ID, run.RTs, run.Total, run.Faults.Retries)
	}
	return d.result(), nil
}

// serveKind is one request against the in-process daemon, through
// internal/client as `uflip submit` does: Submit, Events to the terminal
// event, then CSV.
type serveKind struct {
	label string
	req   func(e *env) api.JobRequest

	// Fixed by the warm-up job, which runs alone before the clients start:
	// its CSV, and the sim_digest and simulated counts of its result
	// records. Later jobs fetch only the CSV; one that matches byte for byte
	// reproduces the warm-up's records.
	csv  []byte
	warm jobResult
}

func (k *serveKind) name() string { return "serve/" + k.label }

// prepare enforces the device state cold into the daemon's state store, so
// the timed set-up carries it and every job's load is a hit.
func (k *serveKind) prepare(e *env) error {
	req := k.req(e)
	_, _, _, err := paperexp.PrepareCached(req.Device, paperexp.Config{Capacity: req.Capacity, Seed: req.Seed, Store: e.store})
	return err
}

func servePlan(e *env) api.JobRequest {
	return api.JobRequest{
		Kind: "plan", Device: "memoright", Capacity: e.sz.serveCapacity, Seed: e.seed,
		IOCount: e.sz.serveIOCount, Micros: []string{"Granularity", "Locality"},
	}
}

func serveReplay(e *env) api.JobRequest {
	return api.JobRequest{
		Kind: "workload", Device: "kingston-dthx", Capacity: e.sz.serveCapacity, Seed: e.seed,
		Workload: &api.WorkloadRequest{TraceHash: e.traceHash, SegmentOps: e.sz.serveSegment, WindowOps: 256},
	}
}

func (k *serveKind) run(ctx context.Context, e *env, jt *jobTrace) (jobResult, error) {
	root := -1
	if jt != nil {
		root = jt.begin("job", -1)
		defer jt.end(root)
	}
	begin := time.Now()
	st, err := e.cl.Submit(ctx, k.req(e))
	admitted := time.Now()
	if err != nil {
		var ae *client.APIError
		if jt != nil && errors.As(err, &ae) && (ae.Status == 429 || ae.Status == 503) {
			jt.refused++
		}
		return jobResult{}, err
	}
	var last api.Event
	events := 0
	if err := e.cl.Events(ctx, st.ID, 0, func(ev api.Event) { last, events = ev, events+1 }); err != nil {
		return jobResult{}, err
	}
	streamed := time.Now()
	if last.Type != api.EventDone {
		return jobResult{}, fmt.Errorf("job %s ended %s: %s", st.ID, last.Type, last.Error)
	}
	csv, err := e.cl.CSV(ctx, st.ID)
	fetched := time.Now()
	if err != nil {
		return jobResult{}, err
	}
	if jt != nil {
		jt.add("server.admit", root, begin, admitted)
		jt.add("server.events", root, admitted, streamed)
		jt.add("server.fetch", root, streamed, fetched)
		jt.events += events
		// The daemon's own timestamps, the only view inside it.
		if js, err := e.cl.Status(ctx, st.ID); err == nil {
			jt.queueWait = js.Started.Sub(js.Submitted)
			jt.daemonRun = js.Finished.Sub(js.Started)
		}
	}

	if k.csv == nil {
		// Warm-up: fix the reference from the full result records.
		records, err := e.cl.ResultRecords(ctx, st.ID)
		if err != nil {
			return jobResult{}, err
		}
		k.warm, k.csv = recordsResult(records), csv
		return k.warm, nil
	}
	res := k.warm
	if !bytes.Equal(csv, k.csv) {
		sum := sha256.Sum256(csv)
		res.digest = "csv:" + hex.EncodeToString(sum[:])
	}
	return res, nil
}
