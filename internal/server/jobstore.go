package server

import (
	"encoding/json"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"time"

	"uflip/internal/api"
	"uflip/internal/report"
	"uflip/internal/trace"
)

// jobRecord is the durable form of a job, persisted to <jobdir>/jobs as
// <id>.json through trace.WriteAtomic, the temp+fsync+rename writer the
// state store uses too. A record is written at submission (status queued)
// and rewritten when the job finishes — after the run records (<id>.jsonl,
// the bytes trace.WriteJSON produces and `uflip -out` writes), the rendered
// CSV (<id>.csv) and the report (<id>.report), so the record that says done
// is the commit point: a restarted daemon serves finished results
// byte-identical to the process that computed them, and re-runs every job
// whose record still says queued over whatever files a crash left.
// Records is only ever read: records written before the run records moved
// out of <id>.json carry them inline.
type jobRecord struct {
	ID        string            `json:"id"`
	Tenant    string            `json:"tenant,omitempty"`
	Req       api.JobRequest    `json:"request"`
	Status    string            `json:"status"`
	Error     string            `json:"error,omitempty"`
	Submitted time.Time         `json:"submitted"`
	Started   time.Time         `json:"started,omitzero"`
	Finished  time.Time         `json:"finished,omitzero"`
	Events    []api.Event       `json:"events,omitempty"`
	Records   []trace.RunRecord `json:"records,omitempty"`
	Rows      []report.ArrayRow `json:"rows,omitempty"`
}

// hasRunRecords reports whether the job has an <id>.jsonl beside its record.
func (r *jobRecord) hasRunRecords() bool { return r.Status == StatusDone && r.Req.Kind != "array" }

// jobStore is the on-disk side of job durability: a directory of job
// records and their artifacts. All writes are atomic (fsync + rename); the
// in-memory Server remains the source of truth while running, the store is
// what a restart recovers from.
type jobStore struct {
	dir string // <jobdir>/jobs
}

// openJobStore opens the job directory and deletes the temporary files a
// crash mid-write left in it (megabytes each, now RT series stream through).
func openJobStore(jobdir string) (*jobStore, error) {
	dir := filepath.Join(jobdir, "jobs")
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, fmt.Errorf("server: job store: %w", err)
	}
	entries, err := os.ReadDir(dir)
	if err != nil {
		return nil, fmt.Errorf("server: job store: %w", err)
	}
	for _, e := range entries {
		if e.Type().IsRegular() && strings.HasPrefix(e.Name(), ".tmp-") {
			if err := os.Remove(filepath.Join(dir, e.Name())); err != nil {
				return nil, fmt.Errorf("server: job store: %w", err)
			}
		}
	}
	return &jobStore{dir: dir}, nil
}

func (st *jobStore) path(id, ext string) string {
	return filepath.Join(st.dir, id+ext)
}

// saveRecord persists the job record atomically.
func (st *jobStore) saveRecord(rec *jobRecord) error {
	data, err := json.MarshalIndent(rec, "", "  ")
	if err != nil {
		return fmt.Errorf("server: job store: encode %s: %w", rec.ID, err)
	}
	if err := trace.WriteFileAtomic(st.path(rec.ID, ".json"), data); err != nil {
		return fmt.Errorf("server: job store: write %s: %w", rec.ID, err)
	}
	return nil
}

// saveArtifact persists one rendered artifact (".csv" or ".report")
// atomically. A nil artifact (array jobs have no CSV) is skipped.
func (st *jobStore) saveArtifact(id, ext string, data []byte) error {
	if data == nil {
		return nil
	}
	if err := trace.WriteFileAtomic(st.path(id, ext), data); err != nil {
		return fmt.Errorf("server: job store: write %s%s: %w", id, ext, err)
	}
	return nil
}

// saveFinished persists a finished job: the run records of a done plan or
// workload job — streamed by the series encoder, never indented or buffered
// whole — and the rendered artifacts first, the record carrying the terminal
// status last. The first failure stops the sequence: on disk the job is done
// only once all it stands for is there, and until then a restart re-runs it.
func (st *jobStore) saveFinished(rec *jobRecord, records []trace.RunRecord, csv, report []byte) error {
	if rec.hasRunRecords() {
		err := trace.WriteAtomic(st.path(rec.ID, ".jsonl"), func(w io.Writer) error { return trace.WriteJSON(w, records) })
		if err != nil {
			return fmt.Errorf("server: job store: write %s.jsonl: %w", rec.ID, err)
		}
	}
	if err := st.saveArtifact(rec.ID, ".csv", csv); err != nil {
		return err
	}
	if err := st.saveArtifact(rec.ID, ".report", report); err != nil {
		return err
	}
	return st.saveRecord(rec)
}

// artifact reads a persisted artifact; a missing file returns nil.
func (st *jobStore) artifact(id, ext string) []byte {
	data, err := os.ReadFile(st.path(id, ext))
	if err != nil {
		return nil
	}
	return data
}

// remove deletes a job's files (eviction), the record first: a crash part
// way leaves orphans load ignores, never a done record without its files.
func (st *jobStore) remove(id string) {
	for _, ext := range []string{".json", ".jsonl", ".csv", ".report"} {
		os.Remove(st.path(id, ext))
	}
}

// load reads every persisted job record, sorted by ID (submission order —
// IDs are zero-padded sequence numbers), with the run records of done jobs
// from <id>.jsonl unless inline. Unreadable or corrupt records, a done job
// without run records included, fail loudly: a damaged job directory must be
// noticed, not silently skipped.
func (st *jobStore) load() ([]*jobRecord, error) {
	entries, err := os.ReadDir(st.dir)
	if err != nil {
		return nil, fmt.Errorf("server: job store: %w", err)
	}
	var recs []*jobRecord
	for _, e := range entries {
		name := e.Name()
		if e.IsDir() || !strings.HasSuffix(name, ".json") || strings.HasPrefix(name, ".tmp-") {
			continue
		}
		data, err := os.ReadFile(filepath.Join(st.dir, name))
		if err != nil {
			return nil, fmt.Errorf("server: job store: %w", err)
		}
		rec := &jobRecord{}
		if err := json.Unmarshal(data, rec); err != nil {
			return nil, fmt.Errorf("server: job store: decode %s: %w", name, err)
		}
		if rec.ID == "" || rec.ID+".json" != name {
			return nil, fmt.Errorf("server: job store: %s does not belong to job %q", name, rec.ID)
		}
		if rec.hasRunRecords() && rec.Records == nil {
			if rec.Records, err = trace.LoadJSON(st.path(rec.ID, ".jsonl")); err != nil {
				return nil, fmt.Errorf("server: job store: run records of done job %s: %w", rec.ID, err)
			}
		}
		recs = append(recs, rec)
	}
	sort.Slice(recs, func(i, j int) bool { return recs[i].ID < recs[j].ID })
	return recs, nil
}
