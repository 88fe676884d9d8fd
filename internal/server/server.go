// Package server is the uFLIP experiment daemon behind `uflip serve`: a
// long-running HTTP service with a bounded job queue that accepts plan,
// workload, array-sweep and paper requests (JSON in), runs them through the
// existing engine at configurable parallelism with per-job cancellation,
// and serves the results back as JSON, CSV and human-readable reports.
//
// The API is versioned under /v1 and speaks the shared wire types of
// internal/api, including a typed error envelope on every non-2xx response
// of a route. Three production capabilities sit on top:
//
//   - Streaming progress: GET /v1/jobs/{id}/events serves the job's
//     lifecycle as server-sent events with monotonic IDs; a client that
//     reconnects with Last-Event-ID resumes without losing an event.
//   - Durable jobs: with a job directory configured, every submission is
//     persisted, and a done job's CSV, report and run records go into one
//     binary results file (<id>.results, the series streamed as varints) with
//     atomic fsync+rename before the record that says it finished — a
//     restarted daemon serves byte-identical results and re-runs every job
//     with no such record. A job's durable record is the job itself: the
//     queue entry embeds it and adds only its event log and cancel function;
//     its run records leave memory once <id>.results holds them, and the
//     memory their series took serves its worker's next job, which runs on
//     the same scratch and writes through the same results buffer.
//   - Admission control and trace upload: per-tenant (X-API-Key) token
//     bucket rate limits and queue quotas guard the bounded queue with
//     typed 429/503 envelopes — a tenant's jobs waiting to run count against
//     its quota, its running jobs do not — and POST /v1/traces accepts
//     bounded-size block-trace CSVs that workload jobs reference by content
//     hash; the sources of the last four traces replayed stay open.
//
// Every job runs through job.Run, the function the local commands call
// in-process, on the request job.Normalize accepted at submission — so a
// job's results are the bytes of the equivalent CLI invocation by
// construction. The daemon itself only queues, observes (the runner's
// observers become the job's event stream), persists and serves. All
// jobs share one persistent state store (when configured): the first job
// needing a (device, capacity, seed) state enforces and saves it, and the
// daemon keeps the device it prepared (paperexp.Prepared: the enforced
// master, and per calibration a plan's phase and pause reports), so every
// later job — concurrent or not — copies its shards from that master and
// skips the fill, the load and the measurements; a later process loads the
// state from disk.
package server

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"io/fs"
	"net/http"
	"os"
	"strconv"
	"strings"
	"sync"
	"time"

	"uflip/internal/api"
	"uflip/internal/core"
	runner "uflip/internal/job" // "job" is this package's queue entry
	"uflip/internal/methodology"
	"uflip/internal/paperexp"
	"uflip/internal/server/events"
	"uflip/internal/statestore"
	"uflip/internal/trace"
	"uflip/internal/workload"
)

// Config tunes the daemon.
type Config struct {
	// StateDir is the persistent state-store directory shared by all jobs,
	// whose devices the daemon also keeps prepared in memory; empty
	// disables both (every job enforces live).
	StateDir string
	// JobDir is the durable-job directory: submissions and finished-job
	// records and results persist there (atomic fsync+rename) and uploaded
	// traces live under its traces/ subdirectory. Empty keeps jobs and
	// traces in memory only — a restart loses them.
	JobDir string
	// QueueSize bounds jobs waiting to run; submissions beyond it are
	// rejected with 503 (<= 0: 64).
	QueueSize int
	// Workers is the number of jobs executed concurrently (<= 0: 2). Each
	// job additionally parallelizes internally over its own engine pool.
	Workers int
	// DefaultParallel is the per-job engine worker count used when a
	// request does not set one (<= 0: GOMAXPROCS). New refuses one above
	// profile.MaxParallel, the ceiling a request's own count is held to.
	DefaultParallel int
	// KeepJobs bounds the finished (done/failed/canceled) jobs retained, so a
	// long-running daemon does not grow without bound; the oldest finished
	// jobs are evicted first, from memory and from JobDir, but none within a
	// moment of finishing (<= 0: 256). A retained job keeps its CSV, report
	// and events in memory, and its run records only until JobDir holds them.
	KeepJobs int
	// RatePerSec is the per-tenant submission rate limit in jobs/second;
	// <= 0 disables rate limiting. Tenants are X-API-Key header values.
	RatePerSec float64
	// Burst is the per-tenant token-bucket depth (<= 0: RatePerSec rounded
	// down, at least 1).
	Burst int
	// TenantQueue bounds one tenant's jobs waiting in the queue; <= 0
	// leaves only the global QueueSize bound.
	TenantQueue int
	// MaxTraceBytes bounds an uploaded block-trace CSV (<= 0: 8 MiB).
	MaxTraceBytes int64
	// JobTimeout bounds one job's wall-clock execution; a job still running
	// when it expires is killed and reported failed (with a typed "failed"
	// event naming the timeout), not canceled — cancellation is reserved for
	// explicit DELETE and shutdown. <= 0 disables the watchdog.
	JobTimeout time.Duration
}

// withDefaults returns the config with every documented <= 0 default
// resolved. New stores it, so the daemon reads its fields directly.
func (c Config) withDefaults() Config {
	if c.QueueSize <= 0 {
		c.QueueSize = 64
	}
	if c.Workers <= 0 {
		c.Workers = 2
	}
	if c.KeepJobs <= 0 {
		c.KeepJobs = 256
	}
	if c.Burst <= 0 {
		c.Burst = 1
		if c.RatePerSec >= 1 {
			c.Burst = int(c.RatePerSec)
		}
	}
	if c.MaxTraceBytes <= 0 {
		c.MaxTraceBytes = 8 << 20
	}
	return c
}

// job is a queue entry: its durable record, which the server lock guards,
// plus what is not persisted in it — the event log (persisted as the
// record's Events, which stay empty in memory) and the cancel function of a
// running job. The heap keeps the record's Records only while the job
// directory does not.
type job struct {
	jobRecord
	log    *events.Log
	cancel context.CancelFunc
	// readers counts the /result handlers encoding Records from memory.
	readers int
}

// emit appends a job-stamped event to the job's stream.
func (j *job) emit(e api.Event) {
	e.Job = j.ID
	j.log.Append(e)
}

// record is the job's durable form: its run records go to <id>.results, not
// into the record. The caller must either hold the server lock or own the
// job (its running worker goroutine).
func (j *job) record() *jobRecord {
	rec := j.jobRecord
	rec.Events = j.log.Snapshot()
	rec.Records = nil
	return &rec
}

// Server is the experiment daemon. Create with New, expose via Handler,
// stop with Close.
type Server struct {
	cfg      Config
	store    *statestore.Store
	prepared *paperexp.Prepared // nil without Config.StateDir
	jobsdir  *jobStore          // nil without Config.JobDir
	traces   *traceStore
	now      func() time.Time // injectable for admission tests

	baseCtx context.Context
	stop    context.CancelFunc

	// The queue is the jobs whose status is queued, oldest first in order:
	// a worker's claim, a cancel or shutdown takes one out, under mu.
	mu      sync.Mutex
	cond    *sync.Cond // signals workers that a job was queued (or closed)
	jobs    map[string]*job
	order   []string
	tenants map[string]*tenantState
	nextID  int
	closed  bool
	wg      sync.WaitGroup
	workers []*workerState // the worker replaces its own series under mu
}

// workerState is what a daemon worker keeps across the jobs it runs: the
// run state they execute on and the memory their results files are written
// through.
type workerState struct {
	run     core.RunState
	results resultsWriter
}

// New builds the daemon, recovers any persisted jobs and uploaded traces
// from Config.JobDir, and starts its job workers. Jobs that were queued or
// running when the previous process died are re-queued — execution is
// deterministic, so re-running serves the results the lost process would
// have. A Config.DefaultParallel above profile.MaxParallel is refused, with
// job.Normalize's message for a request, before anything is opened or
// started.
func New(cfg Config) (*Server, error) {
	if err := runner.CheckParallel(cfg.DefaultParallel); err != nil {
		return nil, err
	}
	var store *statestore.Store
	var prepared *paperexp.Prepared
	if cfg.StateDir != "" {
		var err error
		if store, err = statestore.Open(cfg.StateDir); err != nil {
			return nil, err
		}
		prepared = new(paperexp.Prepared)
	}
	traces, err := openTraceStore(cfg.JobDir)
	if err != nil {
		return nil, err
	}
	var jobsdir *jobStore
	if cfg.JobDir != "" {
		if jobsdir, err = openJobStore(cfg.JobDir); err != nil {
			return nil, err
		}
	}
	ctx, stop := context.WithCancel(context.Background())
	s := &Server{
		cfg:      cfg.withDefaults(),
		store:    store,
		prepared: prepared,
		jobsdir:  jobsdir,
		traces:   traces,
		now:      time.Now,
		baseCtx:  ctx,
		stop:     stop,
		jobs:     make(map[string]*job),
		tenants:  make(map[string]*tenantState),
	}
	s.cond = sync.NewCond(&s.mu)
	if jobsdir != nil {
		if err := s.loadJobs(); err != nil {
			stop()
			return nil, err
		}
	}
	s.workers = make([]*workerState, s.cfg.Workers)
	for w := range s.workers {
		s.workers[w] = &workerState{run: core.RunState{Series: new(core.Series)}}
		s.wg.Add(1)
		go s.worker(w)
	}
	return s, nil
}

// loadJobs restores persisted jobs into memory before the workers start:
// finished jobs with their CSV, report, run count and complete event history;
// interrupted jobs (queued or running at the crash) back onto the queue.
func (s *Server) loadJobs() error {
	recs, err := s.jobsdir.load()
	if err != nil {
		return err
	}
	for _, rec := range recs {
		j := &job{jobRecord: *rec}
		s.nextID = max(s.nextID, idNum(j.ID))
		switch j.Status {
		case api.StatusDone, api.StatusFailed, api.StatusCanceled:
			j.log = events.Restore(j.Events)
		default:
			// An older daemon may have left a default to execution; a
			// request that no longer validates at all fails when it runs.
			_ = runner.Normalize(&j.Req)
			j.Status = api.StatusQueued
			j.Error = ""
			j.Started = time.Time{}
			j.log = events.NewLog()
			j.emit(api.Event{Type: api.EventQueued, Detail: "re-queued after daemon restart"})
		}
		j.Events = nil // the log serves the events from here on
		s.jobs[j.ID] = j
		s.order = append(s.order, j.ID)
	}
	s.evictLocked()
	return nil
}

// idNum extracts the sequence number of a "j-%06d" job ID, 0 if it has none.
func idNum(id string) int {
	n, _ := strconv.Atoi(strings.TrimPrefix(id, "j-"))
	return n
}

// worker runs claimed jobs one after another on its state. Once a job's run
// records were persisted, left the heap and are read by no /result handler,
// their series memory serves the next job; otherwise the job keeps it and
// the worker starts a fresh series (always without a job directory).
func (s *Server) worker(w int) {
	defer s.wg.Done()
	st := s.workers[w]
	for {
		j, ctx := s.claim()
		if j == nil {
			return
		}
		s.runJob(ctx, j, st)
		s.mu.Lock() // runRecords counts a reader in under it
		if j.Records == nil && j.readers == 0 {
			st.run.Series.Reset()
		} else {
			st.run.Series = new(core.Series)
		}
		s.mu.Unlock()
	}
}

// claim waits for a queued job and marks the oldest one running, in the
// critical section that found it: no other worker, cancel or shutdown sees
// it queued after that. It returns the job with its context, which the job's
// cancel function and timeout end, or nil once the daemon is closed.
func (s *Server) claim() (*job, context.Context) {
	s.mu.Lock()
	defer s.mu.Unlock()
	for !s.closed {
		for _, id := range s.order {
			j := s.jobs[id]
			if j.Status != api.StatusQueued {
				continue
			}
			var ctx context.Context
			if t := s.cfg.JobTimeout; t > 0 {
				// The watchdog rides the context the executors and the device
				// retry loops check; its cause makes the death a failure.
				ctx, j.cancel = context.WithTimeoutCause(s.baseCtx, t, errJobTimeout)
			} else {
				ctx, j.cancel = context.WithCancel(s.baseCtx)
			}
			j.Status = api.StatusRunning
			j.Started = s.now()
			return j, ctx
		}
		s.cond.Wait()
	}
	return nil, nil
}

// queued counts the jobs waiting to run, in all and of one tenant. Callers
// hold s.mu.
func (s *Server) queued(tenant string) (all, mine int) {
	for _, j := range s.jobs {
		if j.Status == api.StatusQueued {
			all++
			if j.Tenant == tenant {
				mine++
			}
		}
	}
	return all, mine
}

// Close rejects new submissions, cancels queued and running jobs, waits for
// the workers to drain and closes the trace sources it kept. Persisted records of unfinished jobs keep their
// queued status, so a daemon restarted on the same job directory re-queues
// and completes them.
func (s *Server) Close() {
	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		return
	}
	s.closed = true
	now := s.now()
	var drained []*job
	for _, id := range s.order {
		if j := s.jobs[id]; j.Status == api.StatusQueued {
			j.Status = api.StatusCanceled
			j.Finished = now
			drained = append(drained, j)
		}
	}
	s.mu.Unlock()
	for _, j := range drained {
		j.emit(api.Event{Type: api.EventCanceled, Detail: "daemon shutting down"})
		j.log.Close()
	}
	s.stop()
	s.cond.Broadcast()
	s.wg.Wait()
	s.traces.drop()
}

// Handler returns the HTTP API. Every route lives under /v1:
//
//	GET    /v1/healthz          liveness + queue counters
//	POST   /v1/jobs             submit a job (api.JobRequest JSON)
//	GET    /v1/jobs             list jobs
//	GET    /v1/jobs/{id}        job status
//	DELETE /v1/jobs/{id}        cancel a job
//	GET    /v1/jobs/{id}/events SSE progress stream (Last-Event-ID resume)
//	GET    /v1/jobs/{id}/result results as JSON (records or grid rows)
//	GET    /v1/jobs/{id}/csv    summary CSV (identical to the CLI's -out file)
//	GET    /v1/jobs/{id}/report human-readable report
//	POST   /v1/traces           upload a block-trace CSV (bounded size)
//	GET    /v1/traces           list uploaded traces
//	GET    /v1/traces/{hash}    fetch an uploaded trace CSV
//
// Non-2xx responses carry the typed error envelope
// {"error":{"code","message"}} (api.ErrorEnvelope).
func (s *Server) Handler() http.Handler {
	mux := http.NewServeMux()
	handle := func(method, path string, h http.HandlerFunc) {
		mux.HandleFunc(method+" /"+api.Version+path, h)
	}
	handle("GET", "/healthz", s.handleHealth)
	handle("POST", "/jobs", s.handleSubmit)
	handle("GET", "/jobs", s.handleList)
	handle("GET", "/jobs/{id}", s.handleStatus)
	handle("DELETE", "/jobs/{id}", s.handleCancel)
	handle("GET", "/jobs/{id}/events", s.handleEvents)
	handle("GET", "/jobs/{id}/result", s.handleResult)
	handle("GET", "/jobs/{id}/csv", s.handleCSV)
	handle("GET", "/jobs/{id}/report", s.handleReport)
	handle("POST", "/traces", s.handleTraceUpload)
	handle("GET", "/traces", s.handleTraceList)
	handle("GET", "/traces/{hash}", s.handleTraceGet)
	return mux
}

func writeJSON(w http.ResponseWriter, code int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(code)
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	_ = enc.Encode(v)
}

// writeError emits the typed error envelope every non-2xx response uses.
func writeError(w http.ResponseWriter, status int, code api.ErrorCode, format string, args ...any) {
	writeJSON(w, status, api.ErrorEnvelope{Err: api.Error{Code: code, Message: fmt.Sprintf(format, args...)}})
}

func (s *Server) handleHealth(w http.ResponseWriter, r *http.Request) {
	s.mu.Lock()
	counts := map[string]int{}
	for _, j := range s.jobs {
		counts[j.Status]++
	}
	s.mu.Unlock()
	writeJSON(w, http.StatusOK, map[string]any{
		"status":     "ok",
		"api":        api.Version,
		"jobs":       counts,
		"queue_size": s.cfg.QueueSize,
		"workers":    s.cfg.Workers,
		"state_dir":  s.cfg.StateDir,
		"job_dir":    s.cfg.JobDir,
	})
}

// validate normalizes a request as every surface does and checks that the
// trace it names, if any, has been uploaded here.
func (s *Server) validate(req *api.JobRequest) error {
	if err := runner.Normalize(req); err != nil {
		return err
	}
	if w := req.Workload; req.Kind == "workload" && w.Kind == "trace" {
		if w.TraceHash == "" {
			return fmt.Errorf("trace workloads need a trace_hash (upload via POST /%s/traces)", api.Version)
		}
		if !s.traces.contains(w.TraceHash) {
			return fmt.Errorf("unknown trace %q (upload it via POST /%s/traces first)", w.TraceHash, api.Version)
		}
	}
	return nil
}

func (s *Server) handleSubmit(w http.ResponseWriter, r *http.Request) {
	var req api.JobRequest
	dec := json.NewDecoder(r.Body)
	dec.DisallowUnknownFields()
	if err := dec.Decode(&req); err != nil {
		writeError(w, http.StatusBadRequest, api.CodeBadRequest, "bad request body: %v", err)
		return
	}
	if err := s.validate(&req); err != nil {
		writeError(w, http.StatusBadRequest, api.CodeBadRequest, "invalid job: %v", err)
		return
	}
	tenant := r.Header.Get(api.KeyHeader)
	// Closed check, admission control, queue bound and registration happen
	// under one lock, so a rejected submission never leaves a dangling
	// jobs/order entry, which would count as queued.
	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		writeError(w, http.StatusServiceUnavailable, api.CodeShuttingDown, "server is shutting down")
		return
	}
	all, mine := s.queued(tenant)
	if all >= s.cfg.QueueSize {
		s.mu.Unlock()
		writeError(w, http.StatusServiceUnavailable, api.CodeQueueFull, "job queue is full (%d queued)", s.cfg.QueueSize)
		return
	}
	switch s.tenant(tenant).admit(s, mine) {
	case "rate":
		s.mu.Unlock()
		writeError(w, http.StatusTooManyRequests, api.CodeRateLimited,
			"tenant submission rate exceeded (%.3g jobs/s, burst %d)", s.cfg.RatePerSec, s.cfg.Burst)
		return
	case "quota":
		s.mu.Unlock()
		writeError(w, http.StatusTooManyRequests, api.CodeQuotaExceeded,
			"tenant queue quota exceeded (%d jobs queued)", s.cfg.TenantQueue)
		return
	}
	s.nextID++
	j := &job{jobRecord: jobRecord{
		ID:        fmt.Sprintf("j-%06d", s.nextID),
		Tenant:    tenant,
		Req:       req,
		Status:    api.StatusQueued,
		Submitted: s.now(),
	}, log: events.NewLog()}
	j.emit(api.Event{Type: api.EventQueued})
	if s.jobsdir != nil {
		// Durability before acceptance: a 202 means the job survives a
		// crash, so a submission that cannot be persisted is refused whole.
		if err := s.jobsdir.saveRecord(j.record()); err != nil {
			s.nextID--
			s.mu.Unlock()
			writeError(w, http.StatusInternalServerError, api.CodeInternal, "persist job: %v", err)
			return
		}
	}
	s.jobs[j.ID] = j
	s.order = append(s.order, j.ID)
	st := j.jobStatus()
	s.mu.Unlock()
	s.cond.Signal()
	writeJSON(w, http.StatusAccepted, st)
}

// jobStatus is the job's status view, the body of GET /v1/jobs/{id}. Callers
// hold the server lock.
func (j *job) jobStatus() api.JobStatus {
	runs := j.runs
	if j.Req.Kind == "array" {
		runs = len(j.Rows)
	}
	return api.JobStatus{
		ID:        j.ID,
		Kind:      j.Req.Kind,
		Device:    j.Req.Device,
		Tenant:    j.Tenant,
		Status:    j.Status,
		Error:     j.Error,
		Submitted: j.Submitted,
		Started:   j.Started,
		Finished:  j.Finished,
		Runs:      runs,
	}
}

func (s *Server) lookup(w http.ResponseWriter, r *http.Request) *job {
	s.mu.Lock()
	j := s.jobs[r.PathValue("id")]
	s.mu.Unlock()
	if j == nil {
		writeError(w, http.StatusNotFound, api.CodeNotFound, "unknown job %q", r.PathValue("id"))
	}
	return j
}

func (s *Server) handleList(w http.ResponseWriter, r *http.Request) {
	s.mu.Lock()
	out := make([]api.JobStatus, 0, len(s.order))
	for _, id := range s.order {
		out = append(out, s.jobs[id].jobStatus())
	}
	s.mu.Unlock()
	writeJSON(w, http.StatusOK, api.JobList{Jobs: out})
}

func (s *Server) handleStatus(w http.ResponseWriter, r *http.Request) {
	if j := s.lookup(w, r); j != nil {
		s.mu.Lock()
		st := j.jobStatus()
		s.mu.Unlock()
		writeJSON(w, http.StatusOK, st)
	}
}

func (s *Server) handleCancel(w http.ResponseWriter, r *http.Request) {
	j := s.lookup(w, r)
	if j == nil {
		return
	}
	s.mu.Lock()
	canceledQueued := false
	switch j.Status {
	case api.StatusQueued:
		j.Status = api.StatusCanceled
		j.Finished = s.now()
		canceledQueued = true
		s.evictLocked()
	case api.StatusRunning:
		j.cancel()
	}
	st := j.jobStatus()
	s.mu.Unlock()
	if canceledQueued {
		j.emit(api.Event{Type: api.EventCanceled, Detail: "canceled while queued"})
		j.log.Close()
		s.persistFinished(j, nil) // no results file: the job never ran
	}
	writeJSON(w, http.StatusOK, st)
}

// handleEvents streams the job's progress as server-sent events. Event IDs
// are the monotonic per-job sequence; a reconnecting client passes the
// standard Last-Event-ID header (or ?after=N) and resumes exactly after the
// last event it saw. The stream ends after a terminal event (done, failed,
// canceled).
func (s *Server) handleEvents(w http.ResponseWriter, r *http.Request) {
	j := s.lookup(w, r)
	if j == nil {
		return
	}
	after := int64(0)
	raw := r.Header.Get("Last-Event-ID")
	if raw == "" {
		raw = r.URL.Query().Get("after")
	}
	if raw != "" {
		n, err := strconv.ParseInt(raw, 10, 64)
		if err != nil || n < 0 {
			writeError(w, http.StatusBadRequest, api.CodeBadRequest, "bad Last-Event-ID %q", raw)
			return
		}
		after = n
	}
	fl, ok := w.(http.Flusher)
	if !ok {
		writeError(w, http.StatusInternalServerError, api.CodeInternal, "response writer cannot stream")
		return
	}
	w.Header().Set("Content-Type", "text/event-stream")
	w.Header().Set("Cache-Control", "no-cache")
	w.WriteHeader(http.StatusOK)
	fl.Flush()
	for {
		ev, ok, err := j.log.Next(r.Context(), after)
		if err != nil || !ok {
			return // client gone, or history complete with no terminal event
		}
		after = ev.ID
		data, err := json.Marshal(ev)
		if err != nil {
			return
		}
		if _, err := fmt.Fprintf(w, "id: %d\nevent: %s\ndata: %s\n\n", ev.ID, ev.Type, data); err != nil {
			return
		}
		fl.Flush()
		if ev.Terminal() {
			return
		}
	}
}

// finished returns the job if it completed successfully, writing the
// appropriate error response otherwise.
func (s *Server) finished(w http.ResponseWriter, r *http.Request) *job {
	j := s.lookup(w, r)
	if j == nil {
		return nil
	}
	s.mu.Lock()
	status, errText := j.Status, j.Error
	s.mu.Unlock()
	switch status {
	case api.StatusDone:
		return j
	case api.StatusFailed:
		writeError(w, http.StatusInternalServerError, api.CodeJobFailed, "job failed: %s", errText)
	case api.StatusCanceled:
		writeError(w, http.StatusGone, api.CodeCanceled, "job was canceled")
	default:
		writeError(w, http.StatusConflict, api.CodeNotReady, "job is %s; results are not ready", status)
	}
	return nil
}

func (s *Server) handleResult(w http.ResponseWriter, r *http.Request) {
	j := s.finished(w, r)
	if j == nil {
		return
	}
	switch {
	case j.Req.Kind == "array":
		writeJSON(w, http.StatusOK, j.Rows)
	case !j.hasRunRecords():
		writeError(w, http.StatusNotFound, api.CodeNotFound, "%s jobs have no result records; fetch /report", j.Req.Kind)
	default:
		recs, heap, ok := s.runRecords(w, j)
		if ok {
			writeJSON(w, http.StatusOK, recs)
		}
		if heap {
			s.mu.Lock()
			j.readers--
			s.mu.Unlock()
		}
	}
}

// runRecords returns a done plan or workload job's run records: from memory
// while they are the only copy — heap, and the caller is then counted among
// the job's readers until it leaves — else read back from the job directory.
// ok is false once it has written an error: 404 not_found for a job evicted
// since its lookup, as for one evicted before.
func (s *Server) runRecords(w http.ResponseWriter, j *job) (recs []trace.RunRecord, heap, ok bool) {
	s.mu.Lock()
	recs = j.Records
	if recs != nil {
		j.readers++
	}
	s.mu.Unlock()
	if recs != nil || s.jobsdir == nil {
		return recs, recs != nil, true
	}
	rec, err := s.jobsdir.read(j.ID)
	if err != nil {
		status, code := http.StatusInternalServerError, api.CodeInternal
		if errors.Is(err, fs.ErrNotExist) {
			status, code = http.StatusNotFound, api.CodeNotFound
		}
		writeError(w, status, code, "job %s: %v", j.ID, err)
		return nil, false, false
	}
	return rec.Records, false, true
}

func (s *Server) handleCSV(w http.ResponseWriter, r *http.Request) {
	j := s.finished(w, r)
	if j == nil {
		return
	}
	if !j.hasRunRecords() {
		writeError(w, http.StatusNotFound, api.CodeNotFound, "%s jobs have no CSV; fetch /report", j.Req.Kind)
		return
	}
	w.Header().Set("Content-Type", "text/csv")
	_, _ = w.Write(j.csv)
}

func (s *Server) handleReport(w http.ResponseWriter, r *http.Request) {
	j := s.finished(w, r)
	if j == nil {
		return
	}
	w.Header().Set("Content-Type", "text/plain; charset=utf-8")
	_, _ = w.Write(j.report)
}

// handleTraceUpload accepts a block trace (bounded size; the CSV form or
// the binary .utr form, sniffed from the content), validating it record by
// record while the bytes stream to the content-addressed store — the body
// is never buffered whole. Workload jobs then reference the trace by hash.
func (s *Server) handleTraceUpload(w http.ResponseWriter, r *http.Request) {
	limit := s.cfg.MaxTraceBytes
	defer r.Body.Close()
	info, err := s.traces.ingest(http.MaxBytesReader(w, r.Body, limit))
	if err != nil {
		var tooLarge *http.MaxBytesError
		switch {
		case errors.As(err, &tooLarge):
			writeError(w, http.StatusRequestEntityTooLarge, api.CodeTooLarge,
				"trace exceeds the %d-byte upload bound", limit)
		case errors.Is(err, errBadTrace):
			writeError(w, http.StatusBadRequest, api.CodeBadRequest, "%v", err)
		default:
			writeError(w, http.StatusInternalServerError, api.CodeInternal, "store trace: %v", err)
		}
		return
	}
	writeJSON(w, http.StatusCreated, info)
}

func (s *Server) handleTraceList(w http.ResponseWriter, r *http.Request) {
	writeJSON(w, http.StatusOK, api.TraceList{Traces: s.traces.list()})
}

func (s *Server) handleTraceGet(w http.ResponseWriter, r *http.Request) {
	hash := r.PathValue("hash")
	h, ok, err := s.traces.open(hash)
	if err != nil {
		writeError(w, http.StatusInternalServerError, api.CodeInternal, "open trace: %v", err)
		return
	}
	if !ok {
		writeError(w, http.StatusNotFound, api.CodeNotFound, "unknown trace %q", hash)
		return
	}
	defer h.Close()
	if h.Info.Format == workload.TraceFormatUTR {
		w.Header().Set("Content-Type", "application/octet-stream")
	} else {
		w.Header().Set("Content-Type", "text/csv")
	}
	w.Header().Set("Content-Length", strconv.FormatInt(h.Size, 10))
	_, _ = io.Copy(w, io.NewSectionReader(h, 0, h.Size))
}

// persistFinished writes the job's results file through rw and — last — its
// final record to the job directory, then drops the run records from memory.
// Persistence failures are reported on stderr but do not undo a completed
// job: the results remain servable from memory; on disk the job stays
// queued, so a restart re-runs it.
func (s *Server) persistFinished(j *job, rw *resultsWriter) {
	if s.jobsdir == nil {
		return
	}
	if err := s.jobsdir.saveFinished(j.record(), j.Records, rw); err != nil {
		fmt.Fprintln(os.Stderr, "uflip serve:", err)
		return
	}
	s.mu.Lock()
	j.Records = nil
	s.mu.Unlock()
}

// errJobTimeout is the cancellation cause the per-job watchdog installs;
// runJob distinguishes it from an explicit DELETE via context.Cause.
var errJobTimeout = errors.New("job exceeded the configured timeout")

// runJob executes one claimed job on its worker goroutine and state.
func (s *Server) runJob(ctx context.Context, j *job, ws *workerState) {
	defer j.cancel()
	j.emit(api.Event{Type: api.EventRunning})

	err := s.execute(ctx, j, &ws.run)

	s.mu.Lock()
	j.Finished = s.now()
	shutdown := s.baseCtx.Err() != nil
	switch {
	case err == nil:
		j.Status = api.StatusDone
	case context.Cause(ctx) == errJobTimeout:
		// Checked before the cancellation case: a timeout also trips ctx.Err,
		// but it is the daemon killing a wedged job, not the user changing
		// their mind — clients must see a failure, not a cancellation.
		j.Status = api.StatusFailed
		j.Error = fmt.Sprintf("%v after %v", errJobTimeout, s.cfg.JobTimeout)
	case ctx.Err() != nil && !shutdown:
		j.Status = api.StatusCanceled
		j.Error = err.Error()
	default:
		j.Status = api.StatusFailed
		j.Error = err.Error()
	}
	st := j.jobStatus()
	s.mu.Unlock()

	switch st.Status {
	case api.StatusDone:
		j.emit(api.Event{Type: api.EventDone, Runs: st.Runs})
	case api.StatusCanceled:
		j.emit(api.Event{Type: api.EventCanceled, Detail: "canceled while running"})
	default:
		j.emit(api.Event{Type: api.EventFailed, Error: st.Error})
	}
	j.log.Close()
	if !shutdown {
		// A shutdown-interrupted job is deliberately NOT persisted in its
		// terminal state: its durable record still says queued, so the next
		// daemon on this job directory re-queues and completes it.
		s.persistFinished(j, &ws.results)
	}

	s.mu.Lock()
	s.evictLocked()
	s.mu.Unlock()
}

// evictGrace is how long past its finish a job outlives the retention bound.
// A retained job holds a few tens of KB of heap with a job directory: its
// series memory went back to its worker's run state, and what it ran from —
// plan, trace source, scratch, results buffer — the daemon keeps, not the
// job. Without a job directory it holds 1.6 MB more for a serve-small plan's
// 200,704 response times.
// At the benchmark's ~50 jobs/s 100 ms is about five extra jobs; a local
// fetch after the done event takes a few ms.
const evictGrace = 100 * time.Millisecond

// evictLocked drops the oldest finished jobs beyond the retention bound —
// result records, artifacts and durable files included — so a long-running
// daemon's memory and job directory stay bounded. Queued and running jobs
// are never evicted, and neither is a job that finished less than evictGrace
// ago: its submitter has just read the terminal event and is fetching the
// results. Such a job goes with the first finish after its grace. Callers hold
// s.mu.
func (s *Server) evictLocked() {
	finished := 0
	for _, j := range s.jobs {
		switch j.Status {
		case api.StatusDone, api.StatusFailed, api.StatusCanceled:
			finished++
		}
	}
	now := s.now()
	for i := 0; finished > s.cfg.KeepJobs && i < len(s.order); {
		j := s.jobs[s.order[i]]
		switch j.Status {
		case api.StatusDone, api.StatusFailed, api.StatusCanceled:
			if now.Sub(j.Finished) < evictGrace {
				i++
				continue
			}
			delete(s.jobs, j.ID)
			s.order = append(s.order[:i], s.order[i+1:]...)
			if s.jobsdir != nil {
				s.jobsdir.remove(j.ID)
			}
			finished--
		default:
			i++
		}
	}
}

// execute runs the job through the shared runner on the worker's run
// state, the runner's observers mapped onto the job's event stream. The
// report and the summary CSV are the runner's renders, each made once: the
// bytes served, the bytes persisted and the bytes a restarted daemon serves
// are the same buffers.
func (s *Server) execute(ctx context.Context, j *job, run *core.RunState) error {
	stage := func(name, detail string, total int) {
		j.emit(api.Event{Type: api.EventStage, Stage: name, Detail: detail, Total: total})
	}
	env := runner.Env{
		Store:    s.store,
		Prepared: s.prepared,
		State:    run,
		Progress: func(done, total int, desc string) {
			j.emit(api.Event{Type: api.EventProgress, Done: done, Total: total, Detail: desc})
		},
		Stages: paperexp.Stages{
			EnforcingState: func(capacity int64) {
				stage(api.StageEnforcingState, fmt.Sprintf("enforcing random state over %d MB", capacity>>20), 0)
			},
			StateEnforced: func(at time.Duration, hit bool) {
				detail := fmt.Sprintf("state enforced in %v of device time", at.Round(time.Second))
				if hit {
					detail = fmt.Sprintf("state cache hit (%v of device time), fill skipped", at.Round(time.Second))
				}
				stage(api.StageStateEnforced, detail, 0)
			},
			PhasesMeasured: func(*methodology.PhaseReport) {
				stage(api.StagePhasesMeasured, "start-up and running phases measured", 0)
			},
			PauseMeasured: func(p *methodology.PauseReport) {
				stage(api.StagePauseMeasured, fmt.Sprintf("pause between runs: %v", p.RecommendedPause), 0)
			},
			PlanBuilt: func(plan methodology.Plan, workers int) {
				runs := len(plan.Runs)
				stage(api.StagePlanBuilt, fmt.Sprintf("plan: %d runs on %d workers", runs, workers), runs)
			},
		},
	}
	if w := j.Req.Workload; j.Req.Kind == "workload" && w.TraceHash != "" {
		k, err := s.traces.source(w.TraceHash)
		if err != nil {
			return err
		}
		defer s.traces.release(k)
		env.Source = k.src
	}
	// The default worker count fills a copy: the job's record keeps the
	// request as submitted.
	req := j.Req
	if req.Parallel <= 0 {
		req.Parallel = s.cfg.DefaultParallel
	}
	out, err := runner.Run(ctx, req, env)
	if err != nil {
		return err
	}
	s.mu.Lock()
	j.Records, j.Rows, j.csv, j.report = out.Records, out.Rows, out.CSV, out.Report
	j.runs = len(out.Records)
	s.mu.Unlock()
	return nil
}
