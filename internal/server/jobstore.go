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

	// runs is len(Records), kept when a persisted job's Records leave memory.
	runs int
}

// hasRunRecords reports whether the job has an <id>.jsonl beside its record:
// only a done plan or workload job does.
func (r *jobRecord) hasRunRecords() bool {
	return r.Status == api.StatusDone && (r.Req.Kind == "plan" || r.Req.Kind == "workload")
}

// jobStore is the on-disk side of job durability: a directory of job
// records and their artifacts. All writes are atomic (fsync + rename). The
// store is what a restart recovers from, and the only copy of a persisted
// job's run records; the in-memory Server holds the rest while running.
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
// atomically. A nil artifact (array and paper jobs have no CSV) is skipped.
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

// read reads job id's record and, for a done plan or workload job, its run
// records: from <id>.jsonl, or inline in an <id>.json written before they
// moved out: the one reader that load checks every job with and /result
// reads run records back with. Once the job is evicted, errors wrap
// fs.ErrNotExist.
func (st *jobStore) read(id string) (*jobRecord, error) {
	data, err := os.ReadFile(st.path(id, ".json"))
	if err != nil {
		return nil, fmt.Errorf("server: job store: %w", err)
	}
	rec := &jobRecord{}
	if err := json.Unmarshal(data, rec); err != nil {
		return nil, fmt.Errorf("server: job store: decode %s.json: %w", id, err)
	}
	if rec.ID == "" || rec.ID != id {
		return nil, fmt.Errorf("server: job store: %s.json does not belong to job %q", id, rec.ID)
	}
	if rec.hasRunRecords() && rec.Records == nil {
		if rec.Records, err = trace.LoadJSON(st.path(id, ".jsonl")); err != nil {
			return nil, fmt.Errorf("server: job store: run records of done job %s: %w", id, err)
		}
	}
	rec.runs = len(rec.Records)
	return rec, nil
}

// load reads every persisted job record in submission order — by the
// sequence number in its ID, which outgrows the zero padding at j-1000000 —
// with the run records of done jobs read, counted and dropped. Unreadable or
// corrupt records, a done job without run records included, fail loudly: a
// damaged job directory must be noticed, not silently skipped.
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
		rec, err := st.read(strings.TrimSuffix(name, ".json"))
		if err != nil {
			return nil, err
		}
		rec.Records = nil
		recs = append(recs, rec)
	}
	sort.SliceStable(recs, func(i, j int) bool { return idNum(recs[i].ID) < idNum(recs[j].ID) })
	return recs, nil
}
