// Package api defines the wire types of the uflip experiment daemon's
// versioned /v1 HTTP API: job requests and statuses, the typed error
// envelope, server-sent progress events and trace-upload metadata. Both the
// server (internal/server) and the Go client (internal/client) build against
// these structs, so the two sides cannot drift — a request the client can
// express is by construction a request the server can decode, and vice
// versa. /v1 is the stable contract.
package api

import (
	"bytes"
	"encoding/json"
	"time"

	"uflip/internal/workload"
)

// Version is the API version prefix every stable route lives under.
const Version = "v1"

// KeyHeader is the header carrying the tenant API key. Requests without it
// belong to the anonymous tenant; quotas and rate limits apply per key.
const KeyHeader = "X-API-Key"

// ErrorCode is the machine-readable error class of a non-2xx response.
type ErrorCode string

// Error codes. The HTTP status narrows the transport semantics; the code
// names the precise failure so clients can branch without parsing messages.
const (
	// CodeBadRequest: the request body or parameters are invalid (400).
	CodeBadRequest ErrorCode = "bad_request"
	// CodeNotFound: no such job, trace or resource (404).
	CodeNotFound ErrorCode = "not_found"
	// CodeNotReady: the job has not finished; results are not ready (409).
	CodeNotReady ErrorCode = "not_ready"
	// CodeCanceled: the job was canceled; it will never have results (410).
	CodeCanceled ErrorCode = "canceled"
	// CodeJobFailed: the job ran and failed (500).
	CodeJobFailed ErrorCode = "job_failed"
	// CodeQueueFull: the daemon-wide job queue is at capacity (503).
	CodeQueueFull ErrorCode = "queue_full"
	// CodeQuotaExceeded: the tenant's queued-job quota is at capacity (429).
	CodeQuotaExceeded ErrorCode = "quota_exceeded"
	// CodeRateLimited: the tenant's submission token bucket is empty (429).
	CodeRateLimited ErrorCode = "rate_limited"
	// CodeShuttingDown: the daemon is draining and rejects new work (503).
	CodeShuttingDown ErrorCode = "shutting_down"
	// CodeTooLarge: an uploaded body exceeds the configured bound (413).
	CodeTooLarge ErrorCode = "payload_too_large"
	// CodeInternal: an unexpected server-side failure (500).
	CodeInternal ErrorCode = "internal"
)

// Error is the typed error every non-2xx response carries, wrapped in
// ErrorEnvelope. It implements the error interface so clients can surface
// it directly.
type Error struct {
	Code    ErrorCode `json:"code"`
	Message string    `json:"message"`
}

func (e *Error) Error() string { return string(e.Code) + ": " + e.Message }

// ErrorEnvelope is the JSON body of every non-2xx response:
// {"error":{"code":"...","message":"..."}}.
type ErrorEnvelope struct {
	Err Error `json:"error"`
}

// JobRequest is the JSON body of a job submission (POST /v1/jobs).
type JobRequest struct {
	// Kind selects the experiment: "plan" (the micro-benchmark plan),
	// "workload" (synthetic workload or uploaded-trace replay), "array"
	// (the composite array scenario sweep) or "paper" (tables and figures
	// of the paper's evaluation, rendered as text).
	Kind string `json:"kind"`
	// Device is the profile key or array spec (plan and workload kinds).
	Device string `json:"device,omitempty"`
	// Capacity is the simulated capacity in bytes, per member for array
	// specs and the array kind (0 = 1 GiB for every kind; the -capacity flag
	// of `uflip array`, local or submitted, defaults to 256 MiB and that of
	// `uflip paper` to 512 MiB, and each is sent).
	Capacity int64 `json:"capacity,omitempty"`
	// Seed is the random seed (0 = 42, the CLI default).
	Seed int64 `json:"seed,omitempty"`
	// IOCount is the base run length for plan and array kinds (0 = 1024).
	IOCount int `json:"iocount,omitempty"`
	// Micros selects micro-benchmarks for the plan kind (empty = all nine).
	Micros []string `json:"micros,omitempty"`
	// Experiments names the tables and figures a paper job renders, in
	// order ("all" = every one, paperexp.Experiments). A paper job takes no
	// IOCount: its plans run 1024 IOs.
	Experiments []string `json:"experiments,omitempty"`
	// Parallel is the per-job engine worker count (0 = server default).
	// Results are byte-identical for any value.
	Parallel int `json:"parallel,omitempty"`
	// Workload parameterizes the workload kind.
	Workload *WorkloadRequest `json:"workload,omitempty"`
	// Array parameterizes the array kind.
	Array *ArrayRequest `json:"array,omitempty"`
}

// WorkloadRequest parameterizes a workload job: the synthetic generator
// spec (or an uploaded trace referenced by content hash) plus replay
// segmentation. The job's top-level seed drives both the stream generation
// and the device state, exactly as the CLI does. Fields omitted from the
// JSON take the CLI flag defaults (read_fraction 0.7, streams 4, zipf_s
// 1.2, ops 2048, burst gap 100 ms, segment 512, ...) so the minimal request
// runs the same workload as the minimal CLI invocation; explicitly provided
// values — zeros included — are honored.
type WorkloadRequest struct {
	workload.Spec
	// TraceHash references a block trace previously uploaded via
	// POST /v1/traces by its content hash; when set, the job replays that
	// trace and the synthetic-generator fields are ignored (Kind must be
	// empty or "trace").
	TraceHash string `json:"trace_hash,omitempty"`
	// SegmentOps is the replay segmentation; it defines the shards, so
	// keep it fixed across runs meant to compare.
	SegmentOps int `json:"segment_ops,omitempty"`
	// WindowOps sizes the windowed summaries.
	WindowOps int `json:"window_ops,omitempty"`
}

// Defaults returns the one table of job defaults: the flags of the local
// commands and of `uflip submit` default to these values, UnmarshalJSON seeds
// an omitted workload field from them and job.Normalize fills a zero capacity,
// seed or iocount from them — an omitted value means the same everywhere.
func Defaults() JobRequest {
	return JobRequest{
		Capacity: 1 << 30,
		Seed:     42,
		IOCount:  1024,
		Workload: &WorkloadRequest{
			Spec: workload.Spec{
				Count:        2048,
				PageSize:     8 * 1024,
				IOSize:       32 * 1024,
				ReadFraction: 0.7,
				ZipfS:        1.2,
				Streams:      4,
				BurstOps:     32,
				BurstGap:     100 * time.Millisecond,
			},
			SegmentOps: 512,
			WindowOps:  256,
		},
	}
}

// UnmarshalJSON seeds the workload defaults before decoding, so an omitted
// field means "the CLI default" while an explicit zero stays expressible.
func (wr *WorkloadRequest) UnmarshalJSON(b []byte) error {
	type plain WorkloadRequest
	tmp := plain(*Defaults().Workload)
	dec := json.NewDecoder(bytes.NewReader(b))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&tmp); err != nil {
		return err
	}
	*wr = WorkloadRequest(tmp)
	return nil
}

// ArrayRequest parameterizes an array-sweep job.
type ArrayRequest struct {
	Member      string   `json:"member"`
	Layouts     []string `json:"layouts,omitempty"`
	Counts      []int    `json:"counts,omitempty"`
	QueueDepths []int    `json:"queue_depths,omitempty"`
	ChunkBytes  int64    `json:"chunk_bytes,omitempty"`
	Degree      int      `json:"degree,omitempty"`
}

// Job statuses.
const (
	StatusQueued   = "queued"
	StatusRunning  = "running"
	StatusDone     = "done"
	StatusFailed   = "failed"
	StatusCanceled = "canceled"
)

// JobStatus is the JSON view of a job.
type JobStatus struct {
	ID        string    `json:"id"`
	Kind      string    `json:"kind"`
	Device    string    `json:"device,omitempty"`
	Tenant    string    `json:"tenant,omitempty"`
	Status    string    `json:"status"`
	Error     string    `json:"error,omitempty"`
	Submitted time.Time `json:"submitted"`
	Started   time.Time `json:"started,omitzero"`
	Finished  time.Time `json:"finished,omitzero"`
	// Runs is the number of result records (plan/workload) or grid rows
	// (array) once the job is done.
	Runs int `json:"runs,omitempty"`
}

// JobList is the body of GET /v1/jobs.
type JobList struct {
	Jobs []JobStatus `json:"jobs"`
}

// Event types, in lifecycle order. done, failed and canceled are terminal:
// the event stream ends after emitting one of them.
const (
	EventQueued   = "queued"
	EventRunning  = "running"
	EventStage    = "stage"
	EventProgress = "progress"
	EventDone     = "done"
	EventFailed   = "failed"
	EventCanceled = "canceled"
)

// Stage names carried by EventStage events of plan jobs, in pipeline order.
const (
	StageEnforcingState = "enforcing_state"
	StageStateEnforced  = "state_enforced"
	StagePhasesMeasured = "phases_measured"
	StagePauseMeasured  = "pause_measured"
	StagePlanBuilt      = "plan_built"
)

// Event is one entry of a job's progress stream (GET /v1/jobs/{id}/events,
// served as text/event-stream). IDs are monotonic per job starting at 1 and
// double as SSE event IDs, so a client reconnecting with Last-Event-ID
// resumes exactly where it left off.
type Event struct {
	// ID is the monotonic per-job sequence number, starting at 1.
	ID int64 `json:"id"`
	// Type is one of the Event* constants.
	Type string `json:"type"`
	// Job is the job ID the event belongs to.
	Job string `json:"job"`
	// Stage names the pipeline stage for EventStage events.
	Stage string `json:"stage,omitempty"`
	// Detail is a human-readable elaboration of the event.
	Detail string `json:"detail,omitempty"`
	// Done and Total report run completion for EventProgress events.
	Done  int `json:"done,omitempty"`
	Total int `json:"total,omitempty"`
	// Runs is the final result count on EventDone, matching JobStatus.Runs
	// and the length of GET /v1/jobs/{id}/result.
	Runs int `json:"runs,omitempty"`
	// Error carries the failure text on EventFailed.
	Error string `json:"error,omitempty"`
}

// Terminal reports whether the event ends the job's stream.
func (e Event) Terminal() bool {
	switch e.Type {
	case EventDone, EventFailed, EventCanceled:
		return true
	}
	return false
}

// TraceInfo describes an uploaded block trace (POST /v1/traces response and
// GET /v1/traces entries).
type TraceInfo struct {
	// Hash is the hex SHA-256 of the uploaded bytes — the handle workload
	// jobs reference via WorkloadRequest.TraceHash.
	Hash string `json:"hash"`
	// Bytes is the raw upload size.
	Bytes int64 `json:"bytes"`
	// Ops is the number of IOs the trace holds.
	Ops int `json:"ops"`
	// Format is the uploaded representation: "csv" or "utr". Both replay
	// identically; the format only decides how the bytes are parsed.
	Format string `json:"format,omitempty"`
	// OpsHash is the hex SHA-256 of the op stream's canonical binary
	// record encoding — the format-independent identity of the trace, so
	// the CSV and .utr forms of one stream share it (and the reports
	// labeled by it), while their content Hashes differ.
	OpsHash string `json:"ops_hash,omitempty"`
}

// TraceList is the body of GET /v1/traces.
type TraceList struct {
	Traces []TraceInfo `json:"traces"`
}
