// Package uflip is a from-scratch Go reproduction of "uFLIP: Understanding
// Flash IO Patterns" (Bouganim, Jónsson, Bonnet, CIDR 2009): the uFLIP
// benchmark (IO patterns, nine micro-benchmarks), its benchmarking
// methodology (device state enforcement, the start-up/running two-phase
// model, pause determination, benchmark plans), and a full flash device
// simulator (NAND chips, flash translation layers, write buffers,
// interconnect) calibrated to the paper's eleven devices.
//
// The module is named uflip and has no external dependencies; build and
// test with "go build ./... && go test ./...", or try
// "go run ./cmd/uflip -device memoright" for a full benchmark run.
// Benchmark plans execute through the parallel engine (internal/engine):
// deterministic shards on private simulated devices across a worker pool,
// selected with the uflip command's -parallel flag (-parallel 1 is one
// worker, 256 the most; any worker count produces identical results).
// Every fan-out, the engine's included, is internal/par's Each (indexes
// handed out in order, the first error stops them) or Ordered (work into
// caller-owned slots, emitted in index order): neither starts a goroutine
// at one worker or returns while one it started still runs.
//
// Performance: the IO pipeline is batch-first. device.Device exposes
// SubmitBatch(at, ios, done) next to the per-IO Submit: callers hand over
// a slice of IOs plus a reused done scratch slice (absolute submission
// times, or ChainNext/ChainAfter to chain each IO on its predecessor's
// completion) and the device services the whole batch in one virtual
// call with zero allocations. A batch is a calling convention over the
// per-IO Submit, not a second service path: every device runs it through
// the one loop device.SerialSubmitBatch, which a device fuzz target pins
// against a test-local per-IO reference. Above the device there is one
// loop too, device.Drive: the pattern executor (closed loop and parallel
// processes), the workload replayer and state enforcement each hand it
// batches of at most 128 IOs, their submission times encoded in a window
// of the caller's response-time array, and Drive submits them under the
// retry policy and leaves each IO's response time in its slot. Below the
// device the
// flash layer is run-granular: a device's flash is one block table (an
// ftl.Array over a single flash.Chip spanning every block; the chip count
// only sizes it) of one geometry, declared once as ftl constants (2 KiB
// pages, 64 to a block; the write cache tracks 4 KiB lines, 32 to a region,
// so a region's dirty lines are one word), pages are programmed in order and erased a block at a time
// (Section 2.1), so a block's program cursor is the only page state the chip
// keeps — a page is programmed exactly when it lies below the cursor — and
// flash.Chip.ProgramRun/ReadRun program or read n consecutive pages with one
// validation plus cursor arithmetic, all or nothing, leaving the counters
// exactly as n single-page calls would. Both FTLs issue one run per block
// write, merge copy, log append or same-block stretch of a read; the
// single-page methods are the n = 1 case of the same code, and a fuzz target
// compares every run against the previous per-page chip, kept as a test-only
// reference model. On top of that, state is data: the flash, every
// translation layer and the simulated devices each run on one plain state
// struct beside an immutable configuration, with one copy routine and one
// validator. ResetFrom
// overwrites a device in place with another's state (copy the configuration,
// copy the state, rederive what follows from them), Clone() is that into a
// fresh value, a snapshot is the copy into a tree of fresh structs, a restore
// validates the tree and then copies it in, and Audit runs the validators on
// a live stack — so the engine enforces the paper's well-defined device state
// (Section 4.1)
// once per (profile, capacity, seed) master and gives every shard that
// state instead of replaying the enforcement IOs: a worker's finished
// shard device is reset from the master for its next shard, so a job
// allocates one device stack per worker, not one per run; tests pin that
// path byte-identical to cloning and to rebuilding per shard. The hot path
// is allocation-free in steady state (free blocks and reclamation
// candidates sit in one bitset of blocks per erase count, so the least-worn
// pops in constant time; map bookkeeping runs on a fixed ring; both
// SimDevice.Submit and the 128-IO SubmitBatch are pinned at 0 allocs/op),
// and stats.Percentiles derives any number of quantiles by histogram
// selection: a few O(n) passes that only read the series, no copy of it.
// A trace replay's passes around that run at memory speed: the .utr reader
// and writer checksum a 64 KiB chunk at a time, and trace.WriteJSON prints
// the per-IO series from each duration's digits, byte-identical to
// encoding/json; on a long replay it encodes the series, and ReplaySource
// summarizes the windows, on every core through internal/par.
// Profile any run with the uflip command's -cpuprofile/-memprofile flags;
// measure the simulator's own speed with the repository benchmark
// ("bash benchmark/run.sh", repeated runs with spread, declared in
// BENCHMARK.json) and compare two commits with
// "go run ./benchmark compare A.json B.json".
//
// Beyond the paper's micro-benchmarks, the workload subsystem
// (internal/workload, surfaced as "uflip workload") drives the simulated
// devices with application-shaped workloads: synthetic generators — an
// OLTP-style random page read/write mix (-kind oltp), log-structured
// append streams (-kind append), Zipfian hot/cold access (-kind zipf) and
// bursty arrival phases (-kind bursty) — plus a block-trace replayer. A
// block trace is one stream of one record type (trace.BlockOp, aliased as
// workload.Op) in two encodings: a simple CSV (offset,size,mode,gap_us;
// header optional, '#' comments, gaps stored losslessly) and the binary
// .utr form; each has one streaming reader and one writer, chosen by
// workload.NewOpReader, which sniffs a stream, and workload.NewOpWriter;
// a whole in-memory stream is saved as .utr by trace.WriteUTR, and
// workload.OpenTrace opens a .utr replay source straight from the file.
// Streams are pure functions of their
// configuration and seed; replays split into fixed segments that execute
// on private devices across the worker pool and merge in stream order, so
// results are byte-identical for any -parallel value. Long replays report
// windowed summaries (internal/stats) so drift over time stays visible.
//
// Composite device arrays (internal/device.CompositeDevice) extend the
// paper's single-device study to multi-device deployments: stripe (RAID-0
// with configurable chunk size, chunk-crossing IOs split and coalesce per
// member), mirror (RAID-1, writes fan out to all members, reads go to the
// member with the fewest outstanding IOs) and concat layouts over any mix
// of simulated members, each member behind a bounded host-side queue whose
// depth couples the members (a full queue stalls the array's dispatcher).
// Arrays are fully deterministic and Clone()-able, so the engine shards
// them exactly like single devices. Every -device flag accepts an array
// spec such as "stripe(2,mtron,mtron)" or "stripe(4,mtron,chunk=64k,qd=8)"
// (capacity applies per member), and "uflip array" sweeps the four
// baselines over layout x member count x queue depth into a Table-3-style
// grid (byte-identical for any -parallel value).
//
// Enforced device states persist across processes through the state store
// (internal/statestore, surfaced as the -statedir flag on every uflip
// command): the first run of a (device spec, capacity, seed) combination
// enforces the Section 4.1 state and saves the whole stack's serialized
// form to disk — chip state, FTL maps, free-pool and LRU layouts, cache
// buffers, pipeline clocks; indexes that follow from the rest, like the
// candidate queue, are rebuilt — and every later run loads it back instead of
// replaying the fill, with results pinned byte-identical either way.
// Files are content-addressed by a SHA-256 of the canonical key and carry
// a format version and payload CRC, so corrupted or truncated caches fail
// loudly instead of mis-loading. On top of the store, "uflip serve"
// (internal/server) runs the simulator as a long-lived experiment daemon:
// plan, workload and array-sweep jobs submitted as JSON over HTTP run
// through internal/job — Normalize, then Run, the function the local
// commands call in-process on the request their flags describe, so results
// are byte-identical by construction (and pinned end to end by the tests of
// cmd/uflip) — with a bounded job queue, configurable per-job
// parallelism, per-job cancellation, and one state store shared by all
// jobs — each device state is enforced at most once, ever. With -jobdir a
// job is four files — <id>.jsonl (the run records, as "uflip -out" writes
// them), .csv, .report and, last, the <id>.json record that commits them —
// written, like state files, by trace.WriteAtomic (temp, fsync, rename).
//
// Fault injection (internal/device.FaultyDevice, spec syntax
// "faulty(mtron,readerr=1e-4,spike=200us@0.01,seed=7)", accepted by every
// -device flag and nestable into array members) wraps any device with a
// deterministic fault schedule — a pure function of seed and op index:
// per-op read/write media-error probabilities, explicit failing op
// indexes, sticky bad offsets, latency spikes, submission stalls, and a
// whole-device death point. Faults surface as typed errors (ErrMediaRead,
// ErrMediaWrite, ErrDeviceGone) inside a BatchError that keeps the batch
// contract intact, and the stack above rides them out: device.Drive
// resubmits failed tails through SubmitBatchRetry with deterministic
// simulated-time backoff, 4 retries from 200 µs (fault
// and retry counts land in every summary CSV and report), mirror arrays
// route around members that die mid-run, the daemon's -job-timeout
// watchdog fails stuck jobs with a typed SSE event, the client reconnects
// dropped event streams with jittered backoff, and corrupted state-cache
// files are quarantined and re-enforced instead of mis-loading. Zero-rate
// wrapping is pinned byte-identical to the raw device, and armed
// schedules are pinned byte-identical at any worker count — fault
// injection is an experiment variable, not noise.
//
// A differential and fuzz test layer guards the simulator: 1-member arrays
// are pinned byte-identical to their raw member over the full
// micro-benchmark suite and the workload generators; OLTP/Zipf replays hold
// every translation stack to its chips' operation counts and to a clone
// taken half-way, and two stateful fuzz targets drive each FTL, bare and
// cached, beside a twin that is never reset or restored (the simulator is
// timing-only: no chip stores payload bytes, since no reported time depends
// on them); and native go fuzz targets (make fuzz-smoke) cover the
// block-trace CSV, result CSV and array-spec parsers and the two batch
// primitives (SubmitBatch, the chip run operations) with committed seed
// corpora.
//
// The paper's tables and figures are a job kind of their own ("uflip paper
// -exp table3", or -exp all; `uflip submit paper` and the daemon run the same
// job), and the plans behind them are the one the uflip command runs
// (paperexp.RunBenchmark): Table 3, Figures 6-8 and the Section 5.2 sweeps
// are views of its plan's results, so a Table 3 row equals the means in
// uflip's CSV for the same device, capacity and seed.
//
// The implementation lives under internal/; see README.md for the layout,
// cmd/ for the executables, example_test.go in this directory for runnable
// walk-throughs checked by go test, and bench_test.go for the ablation
// benchmarks of the simulator's design choices; benchmark/ measures how fast
// all of it runs.
package uflip
