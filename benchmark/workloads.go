package main

import (
	"bytes"
	"context"
	"fmt"
	"math"
	"net/http/httptest"
	"os"
	"path/filepath"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"uflip/internal/client"
	"uflip/internal/server"
	"uflip/internal/statestore"
	"uflip/internal/workload"
)

// workloadDef is one workload of the benchmark. A round is one job of each
// kind; every phase runs whole rounds, so the mix of kinds never changes.
type workloadDef struct {
	name string
	why  string
	// kinds builds fresh job kinds (they carry per-run reference results).
	kinds func() []kind
	// setup is the workload's share of the timed set-up that is not tied to
	// one kind: the state store, the trace, the daemon.
	setup func(e *env) error
	// clients is how many callers submit jobs, each waiting for its reply
	// before sending the next (closed loop); 0 means nproc.
	clients int
	// roundsPerSecond sizes the measured phase: it runs
	// max(1, round(seconds x roundsPerSecond)) rounds. The constant was
	// measured once on the 2-core reference box and is frozen, so the work
	// of a run is a function of -seconds alone, never of how fast the code
	// under test happens to be.
	roundsPerSecond float64
	// tracedRounds is the constant size of the traced phase; the golden op
	// counts are counts of exactly this many rounds.
	tracedRounds int
	// setupRepeats is how many times the timed set-up runs; setup_s is the
	// median.
	setupRepeats int
	// blockJobs is how many jobs of the measured phase run between two
	// samples of the host's speed (hostspeed.go).
	blockJobs int
	// warmJobs, when set, is how many untimed jobs follow the per-kind
	// warm-up jobs before anything is measured, for a workload whose program
	// keeps state from job to job and has to reach its steady state first.
	warmJobs func(sz sizes) int
}

func openStore(e *env) (err error) {
	e.store, err = statestore.Open(filepath.Join(e.dir, "state"))
	return err
}

// startDaemon starts the in-process daemon the way `uflip serve` configures
// it, over the state store the set-up fills, and uploads the replay trace.
func startDaemon(e *env) error {
	if err := openStore(e); err != nil {
		return err
	}
	ops, err := workload.OLTP{
		PageSize:     8 * 1024,
		TargetSize:   e.sz.serveCapacity / 2,
		ReadFraction: 0.7,
		Count:        e.sz.serveOps,
		Seed:         e.seed,
	}.Generate()
	if err != nil {
		return err
	}
	var utr bytes.Buffer
	if err := workload.WriteUTR(&utr, ops); err != nil {
		return err
	}
	e.srv, err = server.New(server.Config{
		StateDir:        e.store.Dir(),
		JobDir:          filepath.Join(e.dir, "jobs"),
		Workers:         e.nproc,
		DefaultParallel: 1,
		KeepJobs:        e.sz.serveKeep,
	})
	if err != nil {
		return err
	}
	e.ts = httptest.NewServer(e.srv.Handler())
	e.cl = &client.Client{BaseURL: e.ts.URL, HTTPClient: e.ts.Client()}
	info, err := e.cl.UploadTrace(context.Background(), utr.Bytes())
	e.traceHash = info.Hash
	return err
}

func planKinds(keys ...string) func() []kind {
	return func() []kind {
		ks := make([]kind, len(keys))
		for i, key := range keys {
			ks[i] = &planKind{key: key}
		}
		return ks
	}
}

// workloads are the four workloads of the benchmark, in report order. The
// names are fixed: later issues cite them.
var workloads = []*workloadDef{
	{
		name:  "plan-page",
		why:   "nine-micro plan on PageFTL-under-WriteCache SSDs (memoright, mtron, samsung): write-heavy, ~60% of host time in cache flush, GC and per-page flash loops",
		kinds: planKinds("memoright", "mtron", "samsung"),
		setup: openStore, clients: 1, blockJobs: 1, roundsPerSecond: 0.4, tracedRounds: 1, setupRepeats: 7,
	},
	{
		name:  "plan-block",
		why:   "same plan on BlockFTL devices (kingston-dti bare, transcend-ssd16 under a WriteCache): log-block merges instead of GC; a PageFTL-only change must be flat here",
		kinds: planKinds("kingston-dti", "transcend-ssd16"),
		setup: openStore, clients: 1, blockJobs: 1, roundsPerSecond: 0.27, tracedRounds: 1, setupRepeats: 7,
	},
	{
		name:  "replay-read",
		why:   "1M-op 90%-read .utr replay on faulty(stripe(2,...)): trace scan, segment decode, percentiles and CSV/JSON encoding; bypasses the FTL write path",
		kinds: func() []kind { return []kind{&replayKind{}} },
		setup: openStore, clients: 1, blockJobs: 1, roundsPerSecond: 1.25, tracedRounds: 3, setupRepeats: 7,
	},
	{
		name: "serve-small",
		why:  "small plan and replay jobs through the in-process daemon over HTTP: admission, job-record fsync, state load, clone and CSV render dominate",
		kinds: func() []kind {
			return []kind{
				&serveKind{label: "plan", req: servePlan},
				&serveKind{label: "replay", req: serveReplay},
			}
		},
		setup: startDaemon, clients: 0, blockJobs: 20, roundsPerSecond: 6, tracedRounds: 30, setupRepeats: 9,
		// A daemon is one long-lived heap. Until it holds as many finished
		// jobs as it retains, every job grows the heap, and first-touch page
		// faults — a fifth of the CPU time then, and the part of it that
		// depends most on the host — are what a run would measure. Past the
		// bound the oldest job is evicted for every one that finishes.
		warmJobs: func(sz sizes) int { return sz.serveKeep + sz.serveKeep/2 },
	},
}

func workloadByName(name string) (*workloadDef, error) {
	for _, w := range workloads {
		if w.name == name {
			return w, nil
		}
	}
	return nil, fmt.Errorf("unknown workload %q", name)
}

// rounds returns the size of the measured phase for a run of the given
// length.
func (w *workloadDef) rounds(seconds int) int {
	return max(1, int(math.Round(float64(seconds)*w.roundsPerSecond)))
}

// setUp runs the timed set-up once into a fresh scratch directory.
func (w *workloadDef) setUp(seed int64, sz sizes, kinds []kind) (*env, time.Duration, error) {
	dir, err := os.MkdirTemp("", "uflip-bench-"+w.name+"-")
	if err != nil {
		return nil, 0, err
	}
	e := &env{seed: seed, nproc: runtime.GOMAXPROCS(0), sz: sz, dir: dir}
	start := time.Now()
	err = w.setup(e)
	for _, k := range kinds {
		if err != nil {
			break
		}
		err = k.prepare(e)
	}
	took := time.Since(start)
	if err != nil {
		e.close()
		return nil, 0, fmt.Errorf("%s: set-up: %w", w.name, err)
	}
	return e, took, nil
}

// outcome is one job as its caller saw it.
type outcome struct {
	kind   int
	wall   time.Duration
	result jobResult
	err    error
	trace  *jobTrace // nil when tracing is off
}

// failure explains why the job counts as failed, or returns "".
func (o *outcome) failure(ref jobResult) string {
	switch {
	case o.err != nil:
		return o.err.Error()
	case o.result.digest != ref.digest:
		return fmt.Sprintf("sim_digest %s, want %s", o.result.digest, ref.digest)
	}
	return ""
}

// phase is one closed-loop pass over a fixed number of jobs. Its wall time,
// CPU time and allocation are those of its blocks, without whatever ran
// between them.
type phase struct {
	outcomes []outcome
	wall     time.Duration
	cpu      time.Duration
	alloc    uint64 // bytes of Go heap allocated
}

// runPhase runs jobs jobs, kind i%len(kinds) for job i, from the
// workload's clients. Each client submits its next job when its previous
// one has finished. With between set, the phase is cut into blocks of
// w.blockJobs jobs: the clients finish a block, between runs — before the
// first block and after every block — and the next block starts.
func (w *workloadDef) runPhase(ctx context.Context, e *env, kinds []kind, jobs int, traced bool, epoch time.Time, between func()) phase {
	clients := w.clients
	if clients <= 0 {
		clients = e.nproc
	}
	p := phase{outcomes: make([]outcome, jobs)}
	block := jobs
	if between != nil {
		block = w.blockJobs
		between()
	}
	for lo := 0; lo < jobs; lo += block {
		hi := min(lo+block, jobs)
		var ms runtime.MemStats
		runtime.ReadMemStats(&ms)
		alloc, cpu, start := ms.TotalAlloc, cpuTime(), time.Now()
		var next atomic.Int64
		next.Store(int64(lo))
		var wg sync.WaitGroup
		for range clients {
			wg.Add(1)
			go func() {
				defer wg.Done()
				for {
					i := int(next.Add(1)) - 1
					if i >= hi {
						return
					}
					o := &p.outcomes[i]
					o.kind = i % len(kinds)
					if traced {
						o.trace = newJobTrace(i, epoch)
					}
					if clients == 1 {
						// These jobs stand for CLI invocations, each a process
						// of its own with an empty heap; without this, when the
						// collector next runs — and with it the peak memory —
						// depends on what the previous job left behind.
						runtime.GC()
					}
					begin := time.Now()
					o.result, o.err = kinds[o.kind].run(ctx, e, o.trace)
					o.wall = time.Since(begin)
				}
			}()
		}
		wg.Wait()
		p.wall += time.Since(start)
		p.cpu += cpuTime() - cpu
		runtime.ReadMemStats(&ms)
		p.alloc += ms.TotalAlloc - alloc
		if between != nil {
			between()
		}
	}
	return p
}
