// Package server is the uFLIP experiment daemon behind `uflip serve`: a
// long-running HTTP service with a bounded job queue that accepts plan,
// workload and array-sweep requests (JSON in), runs them through the
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
//     persisted, and a finished job's run records (<id>.jsonl, streamed by
//     trace.WriteJSON), CSV and report are written with atomic fsync+rename
//     before the record that says it finished — a restarted daemon serves
//     byte-identical results and re-runs every job with no such record.
//   - Admission control and trace upload: per-tenant (X-API-Key) token
//     bucket rate limits and queue quotas guard the bounded queue with
//     typed 429/503 envelopes, and POST /v1/traces accepts bounded-size
//     block-trace CSVs that workload jobs reference by content hash.
//
// Every job runs through job.Run, the function the local commands call
// in-process, on the request job.Normalize accepted at submission — so a
// job's results are the bytes of the equivalent CLI invocation by
// construction. The daemon itself only queues, observes (the runner's
// observers become the job's event stream), persists and serves. All
// jobs share one persistent state store (when configured): the first job
// needing a (device, capacity, seed) state enforces and saves it, every
// later job — concurrent or in a later process — loads it from disk and
// skips the fill.
package server

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"os"
	"strconv"
	"strings"
	"sync"
	"time"

	"uflip/internal/api"
	runner "uflip/internal/job" // "job" is this package's queue entry
	"uflip/internal/methodology"
	"uflip/internal/paperexp"
	"uflip/internal/report"
	"uflip/internal/server/events"
	"uflip/internal/statestore"
	"uflip/internal/trace"
	"uflip/internal/workload"
)

// Aliases into the shared wire-type package, kept so existing callers (and
// the pre-/v1 import surface) keep compiling; internal/api is the source of
// truth both the server and the Go client build against.
type (
	JobRequest      = api.JobRequest
	WorkloadRequest = api.WorkloadRequest
	ArrayRequest    = api.ArrayRequest
	JobStatus       = api.JobStatus
)

// Job statuses.
const (
	StatusQueued   = api.StatusQueued
	StatusRunning  = api.StatusRunning
	StatusDone     = api.StatusDone
	StatusFailed   = api.StatusFailed
	StatusCanceled = api.StatusCanceled
)

// Config tunes the daemon.
type Config struct {
	// StateDir is the persistent state-store directory shared by all jobs;
	// empty disables the store (every job enforces live).
	StateDir string
	// JobDir is the durable-job directory: submissions and finished-job
	// records/artifacts persist there (atomic fsync+rename) and uploaded
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
	// request does not set one (<= 0: GOMAXPROCS).
	DefaultParallel int
	// KeepJobs bounds the finished (done/failed/canceled) jobs retained —
	// results included — so a long-running daemon does not grow without
	// bound; the oldest finished jobs are evicted first, from memory and
	// from JobDir, but none within a moment of finishing (<= 0: 256).
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

func (c Config) queueSize() int {
	if c.QueueSize <= 0 {
		return 64
	}
	return c.QueueSize
}

func (c Config) workers() int {
	if c.Workers <= 0 {
		return 2
	}
	return c.Workers
}

func (c Config) keepJobs() int {
	if c.KeepJobs <= 0 {
		return 256
	}
	return c.KeepJobs
}

func (c Config) burst() int {
	if c.Burst > 0 {
		return c.Burst
	}
	if c.RatePerSec >= 1 {
		return int(c.RatePerSec)
	}
	return 1
}

func (c Config) maxTraceBytes() int64 {
	if c.MaxTraceBytes <= 0 {
		return 8 << 20
	}
	return c.MaxTraceBytes
}

type job struct {
	id     string
	tenant string
	req    JobRequest
	log    *events.Log

	status    string
	errText   string
	submitted time.Time
	started   time.Time
	finished  time.Time
	cancel    context.CancelFunc

	records []trace.RunRecord // plan and workload results
	rows    []report.ArrayRow // array results
	csv     []byte            // summary CSV, rendered once at completion
	report  []byte            // human-readable report
}

// emit appends a job-stamped event to the job's stream.
func (j *job) emit(e api.Event) {
	e.Job = j.id
	j.log.Append(e)
}

// record is the job's durable form. The caller must either hold the server
// lock or own the job (its running worker goroutine).
func (j *job) record() *jobRecord {
	return &jobRecord{
		ID:        j.id,
		Tenant:    j.tenant,
		Req:       j.req,
		Status:    j.status,
		Error:     j.errText,
		Submitted: j.submitted,
		Started:   j.started,
		Finished:  j.finished,
		Events:    j.log.Snapshot(),
		Rows:      j.rows,
	}
}

// Server is the experiment daemon. Create with New, expose via Handler,
// stop with Close.
type Server struct {
	cfg     Config
	store   *statestore.Store
	jobsdir *jobStore // nil without Config.JobDir
	traces  *traceStore
	now     func() time.Time // injectable for admission tests

	baseCtx context.Context
	stop    context.CancelFunc

	mu      sync.Mutex
	cond    *sync.Cond // signals workers that pending grew (or closed)
	jobs    map[string]*job
	order   []string
	tenants map[string]*tenantState
	nextID  int
	closed  bool

	// pending is the bounded submission queue, guarded by mu. A slice (not
	// a channel) so canceling a queued job frees its slot immediately.
	pending []*job
	wg      sync.WaitGroup
}

// New builds the daemon, recovers any persisted jobs and uploaded traces
// from Config.JobDir, and starts its job workers. Jobs that were queued or
// running when the previous process died are re-queued — execution is
// deterministic, so re-running serves the results the lost process would
// have.
func New(cfg Config) (*Server, error) {
	var store *statestore.Store
	if cfg.StateDir != "" {
		var err error
		if store, err = statestore.Open(cfg.StateDir); err != nil {
			return nil, err
		}
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
		cfg:     cfg,
		store:   store,
		jobsdir: jobsdir,
		traces:  traces,
		now:     time.Now,
		baseCtx: ctx,
		stop:    stop,
		jobs:    make(map[string]*job),
		tenants: make(map[string]*tenantState),
	}
	s.cond = sync.NewCond(&s.mu)
	if jobsdir != nil {
		if err := s.loadJobs(); err != nil {
			stop()
			return nil, err
		}
	}
	for i := 0; i < cfg.workers(); i++ {
		s.wg.Add(1)
		go s.worker()
	}
	return s, nil
}

// loadJobs restores persisted jobs into memory before the workers start:
// finished jobs with their results, artifacts and complete event history;
// interrupted jobs (queued or running at the crash) back onto the queue.
func (s *Server) loadJobs() error {
	recs, err := s.jobsdir.load()
	if err != nil {
		return err
	}
	for _, rec := range recs {
		j := &job{
			id:        rec.ID,
			tenant:    rec.Tenant,
			req:       rec.Req,
			status:    rec.Status,
			errText:   rec.Error,
			submitted: rec.Submitted,
			started:   rec.Started,
			finished:  rec.Finished,
		}
		if n, ok := idNum(rec.ID); ok && n > s.nextID {
			s.nextID = n
		}
		switch rec.Status {
		case StatusDone, StatusFailed, StatusCanceled:
			j.log = events.Restore(rec.Events)
			j.records = rec.Records
			j.rows = rec.Rows
			j.csv = s.jobsdir.artifact(rec.ID, ".csv")
			j.report = s.jobsdir.artifact(rec.ID, ".report")
		default:
			// An older daemon may have left a default to execution; a
			// request that no longer validates at all fails when it runs.
			_ = runner.Normalize(&j.req)
			j.status = StatusQueued
			j.errText = ""
			j.started = time.Time{}
			j.log = events.NewLog()
			j.emit(api.Event{Type: api.EventQueued, Detail: "re-queued after daemon restart"})
			s.pending = append(s.pending, j)
			s.tenant(j.tenant).queued++
		}
		s.jobs[j.id] = j
		s.order = append(s.order, j.id)
	}
	s.evictLocked()
	return nil
}

// idNum extracts the sequence number of a "j-%06d" job ID.
func idNum(id string) (int, bool) {
	n, err := strconv.Atoi(strings.TrimPrefix(id, "j-"))
	if err != nil {
		return 0, false
	}
	return n, true
}

func (s *Server) worker() {
	defer s.wg.Done()
	s.mu.Lock()
	for {
		for len(s.pending) == 0 && !s.closed {
			s.cond.Wait()
		}
		if len(s.pending) == 0 {
			s.mu.Unlock()
			return
		}
		j := s.pending[0]
		s.pending = s.pending[1:]
		// The job leaves the queue here, whatever happens next, so this is
		// where its slot stops counting against the tenant's queue quota.
		s.tenant(j.tenant).queued--
		s.mu.Unlock()
		s.runJob(j)
		s.mu.Lock()
	}
}

// Close rejects new submissions, cancels queued and running jobs and waits
// for the workers to drain. Persisted records of unfinished jobs keep their
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
	drained := s.pending
	s.pending = nil
	for _, j := range drained {
		j.status = StatusCanceled
		j.finished = now
		s.tenant(j.tenant).queued--
	}
	s.mu.Unlock()
	for _, j := range drained {
		j.emit(api.Event{Type: api.EventCanceled, Detail: "daemon shutting down"})
		j.log.Close()
	}
	s.stop()
	s.cond.Broadcast()
	s.wg.Wait()
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
		counts[j.status]++
	}
	s.mu.Unlock()
	writeJSON(w, http.StatusOK, map[string]any{
		"status":     "ok",
		"api":        api.Version,
		"jobs":       counts,
		"queue_size": s.cfg.queueSize(),
		"workers":    s.cfg.workers(),
		"state_dir":  s.cfg.StateDir,
		"job_dir":    s.cfg.JobDir,
	})
}

// validate normalizes a request as every surface does and checks that the
// trace it names, if any, has been uploaded here.
func (s *Server) validate(req *JobRequest) error {
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
	var req JobRequest
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
	// jobs/order entry or a consumed quota slot.
	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		writeError(w, http.StatusServiceUnavailable, api.CodeShuttingDown, "server is shutting down")
		return
	}
	if len(s.pending) >= s.cfg.queueSize() {
		s.mu.Unlock()
		writeError(w, http.StatusServiceUnavailable, api.CodeQueueFull, "job queue is full (%d queued)", s.cfg.queueSize())
		return
	}
	t := s.tenant(tenant)
	switch t.admit(s) {
	case "rate":
		s.mu.Unlock()
		writeError(w, http.StatusTooManyRequests, api.CodeRateLimited,
			"tenant submission rate exceeded (%.3g jobs/s, burst %d)", s.cfg.RatePerSec, s.cfg.burst())
		return
	case "quota":
		s.mu.Unlock()
		writeError(w, http.StatusTooManyRequests, api.CodeQuotaExceeded,
			"tenant queue quota exceeded (%d jobs queued)", s.cfg.TenantQueue)
		return
	}
	s.nextID++
	j := &job{
		id:        fmt.Sprintf("j-%06d", s.nextID),
		tenant:    tenant,
		req:       req,
		log:       events.NewLog(),
		status:    StatusQueued,
		submitted: s.now(),
	}
	j.emit(api.Event{Type: api.EventQueued})
	if s.jobsdir != nil {
		// Durability before acceptance: a 202 means the job survives a
		// crash, so a submission that cannot be persisted is refused whole.
		if err := s.jobsdir.saveRecord(j.record()); err != nil {
			s.nextID--
			t.queued-- // admit consumed nothing besides a token
			s.mu.Unlock()
			writeError(w, http.StatusInternalServerError, api.CodeInternal, "persist job: %v", err)
			return
		}
	}
	s.jobs[j.id] = j
	s.order = append(s.order, j.id)
	s.pending = append(s.pending, j)
	t.queued++
	st := s.statusOfLocked(j)
	s.mu.Unlock()
	s.cond.Signal()
	writeJSON(w, http.StatusAccepted, st)
}

func (s *Server) statusOf(j *job) JobStatus {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.statusOfLocked(j)
}

func (s *Server) statusOfLocked(j *job) JobStatus {
	runs := len(j.records)
	if j.req.Kind == "array" {
		runs = len(j.rows)
	}
	return JobStatus{
		ID:        j.id,
		Kind:      j.req.Kind,
		Device:    j.req.Device,
		Tenant:    j.tenant,
		Status:    j.status,
		Error:     j.errText,
		Submitted: j.submitted,
		Started:   j.started,
		Finished:  j.finished,
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
	out := make([]JobStatus, 0, len(s.order))
	for _, id := range s.order {
		out = append(out, s.statusOfLocked(s.jobs[id]))
	}
	s.mu.Unlock()
	writeJSON(w, http.StatusOK, api.JobList{Jobs: out})
}

func (s *Server) handleStatus(w http.ResponseWriter, r *http.Request) {
	if j := s.lookup(w, r); j != nil {
		writeJSON(w, http.StatusOK, s.statusOf(j))
	}
}

func (s *Server) handleCancel(w http.ResponseWriter, r *http.Request) {
	j := s.lookup(w, r)
	if j == nil {
		return
	}
	s.mu.Lock()
	canceledQueued := false
	switch j.status {
	case StatusQueued:
		j.status = StatusCanceled
		j.finished = s.now()
		canceledQueued = true
		// Free the queue slot immediately: later submissions must not be
		// rejected on account of jobs that will never run.
		for i, p := range s.pending {
			if p == j {
				s.pending = append(s.pending[:i], s.pending[i+1:]...)
				s.tenant(j.tenant).queued--
				break
			}
		}
		s.evictLocked()
	case StatusRunning:
		if j.cancel != nil {
			j.cancel()
		}
	}
	st := s.statusOfLocked(j)
	s.mu.Unlock()
	if canceledQueued {
		j.emit(api.Event{Type: api.EventCanceled, Detail: "canceled while queued"})
		j.log.Close()
		s.persistFinished(j)
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
	status, errText := j.status, j.errText
	s.mu.Unlock()
	switch status {
	case StatusDone:
		return j
	case StatusFailed:
		writeError(w, http.StatusInternalServerError, api.CodeJobFailed, "job failed: %s", errText)
	case StatusCanceled:
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
	if j.req.Kind == "array" {
		writeJSON(w, http.StatusOK, j.rows)
		return
	}
	writeJSON(w, http.StatusOK, j.records)
}

func (s *Server) handleCSV(w http.ResponseWriter, r *http.Request) {
	j := s.finished(w, r)
	if j == nil {
		return
	}
	if j.req.Kind == "array" {
		writeError(w, http.StatusNotFound, api.CodeNotFound, "array jobs have no CSV; fetch /result or /report")
		return
	}
	csv := j.csv
	if csv == nil {
		// Restored job whose CSV artifact is missing: re-render from the
		// persisted records (the render is a pure function of them).
		var buf bytes.Buffer
		if err := trace.WriteSummaryCSV(&buf, j.records); err != nil {
			writeError(w, http.StatusInternalServerError, api.CodeInternal, "render csv: %v", err)
			return
		}
		csv = buf.Bytes()
	}
	w.Header().Set("Content-Type", "text/csv")
	_, _ = w.Write(csv)
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
	limit := s.cfg.maxTraceBytes()
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

// persistFinished writes the job's run records, artifacts and — last — its
// final record to the job directory. Persistence failures are reported on
// stderr but do not undo a completed job: the results remain servable from
// memory; on disk the job stays queued, so a restart re-runs it.
func (s *Server) persistFinished(j *job) {
	if s.jobsdir == nil {
		return
	}
	if err := s.jobsdir.saveFinished(j.record(), j.records, j.csv, j.report); err != nil {
		fmt.Fprintln(os.Stderr, "uflip serve:", err)
	}
}

// errJobTimeout is the cancellation cause the per-job watchdog installs;
// runJob distinguishes it from an explicit DELETE via context.Cause.
var errJobTimeout = errors.New("job exceeded the configured timeout")

// runJob executes one job on a worker goroutine.
func (s *Server) runJob(j *job) {
	s.mu.Lock()
	if j.status != StatusQueued {
		s.mu.Unlock()
		return // canceled while queued
	}
	ctx, cancel := context.WithCancel(s.baseCtx)
	if t := s.cfg.JobTimeout; t > 0 {
		// The watchdog rides the same context the executors (and the device
		// retry loops under them) already check, so a wedged job dies at the
		// next submission attempt; the cause tells the status switch below
		// that this death is a failure, not a cancellation.
		var cancelTimeout context.CancelFunc
		ctx, cancelTimeout = context.WithTimeoutCause(ctx, t, errJobTimeout)
		defer cancelTimeout()
	}
	j.status = StatusRunning
	j.started = s.now()
	j.cancel = cancel
	s.mu.Unlock()
	defer cancel()
	j.emit(api.Event{Type: api.EventRunning})

	err := s.execute(ctx, j)

	s.mu.Lock()
	j.finished = s.now()
	shutdown := s.baseCtx.Err() != nil
	switch {
	case err == nil:
		j.status = StatusDone
	case context.Cause(ctx) == errJobTimeout:
		// Checked before the cancellation case: a timeout also trips ctx.Err,
		// but it is the daemon killing a wedged job, not the user changing
		// their mind — clients must see a failure, not a cancellation.
		j.status = StatusFailed
		j.errText = fmt.Sprintf("%v after %v", errJobTimeout, s.cfg.JobTimeout)
	case ctx.Err() != nil && !shutdown:
		j.status = StatusCanceled
		j.errText = err.Error()
	default:
		j.status = StatusFailed
		j.errText = err.Error()
	}
	status, errText, runs := j.status, j.errText, len(j.records)
	if j.req.Kind == "array" {
		runs = len(j.rows)
	}
	s.mu.Unlock()

	switch status {
	case StatusDone:
		j.emit(api.Event{Type: api.EventDone, Runs: runs})
	case StatusCanceled:
		j.emit(api.Event{Type: api.EventCanceled, Detail: "canceled while running"})
	default:
		j.emit(api.Event{Type: api.EventFailed, Error: errText})
	}
	j.log.Close()
	if !shutdown {
		// A shutdown-interrupted job is deliberately NOT persisted in its
		// terminal state: its durable record still says queued, so the next
		// daemon on this job directory re-queues and completes it.
		s.persistFinished(j)
	}

	s.mu.Lock()
	s.evictLocked()
	s.mu.Unlock()
}

// evictGrace is how long past its finish a job outlives the retention bound.
// Each retained job costs about 1.9 MB of heap at the benchmark's ~50 jobs/s
// (serve-small peak RSS 117 -> ~208 MB for 48 more retained jobs), so 100 ms
// is about five extra jobs; a local fetch after the done event takes a few ms.
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
		switch j.status {
		case StatusDone, StatusFailed, StatusCanceled:
			finished++
		}
	}
	keep := s.cfg.keepJobs()
	now := s.now()
	for i := 0; finished > keep && i < len(s.order); {
		j := s.jobs[s.order[i]]
		switch j.status {
		case StatusDone, StatusFailed, StatusCanceled:
			if now.Sub(j.finished) < evictGrace {
				i++
				continue
			}
			delete(s.jobs, j.id)
			s.order = append(s.order[:i], s.order[i+1:]...)
			if s.jobsdir != nil {
				s.jobsdir.remove(j.id)
			}
			finished--
		default:
			i++
		}
	}
}

// execute runs the job through the shared runner, the runner's observers
// mapped onto the job's event stream. The report and the summary CSV are the
// runner's renders, each made once: the bytes served, the bytes persisted and
// the bytes a restarted daemon serves are the same buffers.
func (s *Server) execute(ctx context.Context, j *job) error {
	stage := func(name, detail string, total int) {
		j.emit(api.Event{Type: api.EventStage, Stage: name, Detail: detail, Total: total})
	}
	env := runner.Env{
		Store:   s.store,
		Workers: s.cfg.DefaultParallel,
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
				runs := len(plan.Steps) - plan.Resets
				stage(api.StagePlanBuilt, fmt.Sprintf("plan: %d runs on %d workers", runs, workers), runs)
			},
		},
	}
	if w := j.req.Workload; j.req.Kind == "workload" && w.TraceHash != "" {
		h, ok, err := s.traces.open(w.TraceHash)
		if err != nil {
			return err
		}
		if !ok {
			return fmt.Errorf("trace %s is no longer available", w.TraceHash)
		}
		defer h.Close()
		// Reports carry the head of the format-independent ops-hash (a hex
		// SHA-256), so the CSV and .utr uploads of one stream replay to
		// byte-identical results.
		if env.Source, err = workload.OpenTrace(h, h.Size, h.Info.OpsHash[:12]); err != nil {
			return err
		}
	}
	out, err := runner.Run(ctx, j.req, env)
	if err != nil {
		return err
	}
	s.mu.Lock()
	j.records, j.rows, j.csv, j.report = out.Records, out.Rows, out.CSV, out.Report
	s.mu.Unlock()
	return nil
}
