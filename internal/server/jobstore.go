package server

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"io/fs"
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
// and rewritten when the job finishes — a done job's after its results file
// (<id>.results: the CSV, the report and the run records, see Results), so
// the record that says done is the commit point: a restarted daemon serves
// finished results byte-identical to the process that computed them, and
// re-runs every job whose record still says queued over whatever files a
// crash left. Records is only ever read: records written before the run
// records moved out of <id>.json carry them inline.
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

	// runs is the number of the job's run records.
	runs int
	// csv and report are the summary CSV and the report, rendered once at
	// completion and persisted in the results file.
	csv, report []byte
	// results is a done job's results file while no job directory holds it
	// (none configured, or its write failed): the only copy, never mutated.
	results []byte
}

// hasRunRecords reports whether the job has run records: only a done plan or
// workload job does.
func (r *jobRecord) hasRunRecords() bool {
	return r.Status == api.StatusDone && (r.Req.Kind == "plan" || r.Req.Kind == "workload")
}

// jobStore is the on-disk side of job durability: a directory of job
// records and their results files. All writes are atomic (fsync + rename). The
// store is what a restart recovers from, and the only copy of a persisted
// job's results file: the in-memory Server keeps its CSV, report and events,
// and /result reads the file back.
type jobStore struct {
	dir string // <jobdir>/jobs
}

// openJobStore opens the job directory and deletes the temporary files a
// crash mid-write left in it (up to megabytes each: a results file).
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

// jsonEncoder is memory JSON is encoded in, kept across the values: the
// encoding and the encoder's indent buffer.
type jsonEncoder struct {
	buf bytes.Buffer
	enc *json.Encoder
}

// encode returns v as json.MarshalIndent encodes it with prefix and indent,
// or as json.Marshal does with neither, valid until the next encode.
func (e *jsonEncoder) encode(v any, prefix, indent string) ([]byte, error) {
	if e.enc == nil {
		e.enc = json.NewEncoder(&e.buf)
	}
	e.enc.SetIndent(prefix, indent)
	e.buf.Reset()
	if err := e.enc.Encode(v); err != nil {
		return nil, err
	}
	return bytes.TrimSuffix(e.buf.Bytes(), []byte("\n")), nil // Encode ends a value with a newline
}

// saveRecord persists the job record atomically, encoded in re as
// json.MarshalIndent encodes it.
func (st *jobStore) saveRecord(rec *jobRecord, re *jsonEncoder) error {
	data, err := re.encode(rec, "", "  ")
	if err != nil {
		return fmt.Errorf("server: job store: encode %s: %w", rec.ID, err)
	}
	if err := trace.WriteFileAtomic(st.path(rec.ID, ".json"), data); err != nil {
		return fmt.Errorf("server: job store: write %s: %w", rec.ID, err)
	}
	return nil
}

// remove deletes a job's files (eviction), the record first: a crash part
// way leaves orphans load ignores, never a done record without its results.
// The last three are the results of a job an older daemon finished.
func (st *jobStore) remove(id string) {
	for _, ext := range []string{".json", ".results", ".jsonl", ".csv", ".report"} {
		os.Remove(st.path(id, ext))
	}
}

// read reads job id's record and, for a done job, its results: the one
// reader that load checks every job with, and /result reads an older
// daemon's run records with (a results file's it only counts). Once the job
// is evicted, errors wrap fs.ErrNotExist.
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
	if rec.Status == api.StatusDone {
		res, err := ReadResults(st.path(id, ".results"))
		switch {
		case err == nil:
			rec.runs, rec.csv, rec.report = len(res.Records), res.CSV, res.Report
		case errors.Is(err, fs.ErrNotExist):
			// An older daemon's job: its run records in <id>.jsonl, or inline
			// in <id>.json before that, beside <id>.csv and <id>.report.
			rec.csv, rec.report, err = st.legacyFile(id, ".csv"), st.legacyFile(id, ".report"), nil
			if rec.hasRunRecords() && rec.Records == nil {
				rec.Records, err = trace.LoadJSON(st.path(id, ".jsonl"))
			}
			rec.runs = len(rec.Records)
			if err == nil && rec.hasRunRecords() && rec.csv == nil {
				var buf bytes.Buffer // a pure function of the records
				err = trace.WriteSummaryCSV(&buf, rec.Records)
				rec.csv = buf.Bytes()
			}
		}
		if err != nil {
			return nil, fmt.Errorf("server: job store: results of done job %s: %w", id, err)
		}
	}
	return rec, nil
}

// legacyFile reads the CSV or report an older daemon wrote beside the
// record; a missing one is nil.
func (st *jobStore) legacyFile(id, ext string) []byte {
	data, err := os.ReadFile(st.path(id, ext))
	if err != nil {
		return nil
	}
	return data
}

// load reads every persisted job record in submission order — by the
// sequence number in its ID, which outgrows the zero padding at j-1000000 —
// with the results of done jobs read and checked, their run records counted
// and dropped. Unreadable or corrupt records and results files, a done job
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
