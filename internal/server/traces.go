package server

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"errors"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"slices"
	"sort"
	"strings"
	"sync"

	"uflip/internal/api"
	"uflip/internal/trace"
	"uflip/internal/workload"
)

// traceStore holds uploaded block traces — the CSV form or the binary .utr
// form, sniffed from the content — addressed by the hex SHA-256 of the raw
// uploaded bytes. Uploads are validated record by record while the bytes
// spool to their destination, so a max-size upload is never buffered in
// memory (let alone twice, as the old read-everything-then-parse path did).
// With a job directory configured the files persist under <jobdir>/traces
// (fsync+rename, like job records) and replays stream straight from disk;
// without one the raw bytes live in memory only. Either way an in-memory
// index serves lookups and listings. The replay sources of the last
// keptTraces traces replayed stay open, so a repeated replay opens and
// verifies nothing. A kept source holds its file open: no code path removes
// a stored trace, and one that did would drop the source first.
type traceStore struct {
	dir string // "" = memory only

	mu     sync.Mutex
	bodies map[string][]byte        // memory-only mode: hash -> raw bytes
	infos  map[string]api.TraceInfo // hash -> metadata
	kept   []*keptTrace             // the least recently replayed first
}

// keptTraces bounds the replay sources a traceStore keeps.
const keptTraces = 4

// keptTrace is one trace's replay source, shared by the replays running it.
type keptTrace struct {
	hash  string
	src   workload.Source
	h     *traceHandle
	users int // replays holding src, plus one while the store keeps it
}

// errBadTrace marks ingest failures caused by the uploaded content (parse
// or validation errors) rather than by the store itself.
var errBadTrace = errors.New("invalid trace")

// openTraceStore builds the store, reloading (and re-validating) any traces
// a previous process persisted. Corrupt files fail loudly, mirroring the
// state store: a damaged upload directory must never silently lose traces
// that jobs reference by hash.
func openTraceStore(jobdir string) (*traceStore, error) {
	ts := &traceStore{
		bodies: make(map[string][]byte),
		infos:  make(map[string]api.TraceInfo),
	}
	if jobdir == "" {
		return ts, nil
	}
	ts.dir = filepath.Join(jobdir, "traces")
	if err := os.MkdirAll(ts.dir, 0o755); err != nil {
		return nil, fmt.Errorf("server: trace store: %w", err)
	}
	entries, err := os.ReadDir(ts.dir)
	if err != nil {
		return nil, fmt.Errorf("server: trace store: %w", err)
	}
	for _, e := range entries {
		name := e.Name()
		ext := filepath.Ext(name)
		if e.IsDir() || (ext != ".csv" && ext != ".utr") || strings.HasPrefix(name, ".tmp-") {
			continue
		}
		f, err := os.Open(filepath.Join(ts.dir, name))
		if err != nil {
			return nil, fmt.Errorf("server: trace store: %w", err)
		}
		hasher := sha256.New()
		info, err := validateTrace(io.TeeReader(f, hasher))
		f.Close()
		if err != nil {
			return nil, fmt.Errorf("server: trace store: %s: %w", name, err)
		}
		info.Hash = hex.EncodeToString(hasher.Sum(nil))
		if st, err := e.Info(); err == nil {
			info.Bytes = st.Size()
		}
		if name != info.Hash+"."+info.Format {
			return nil, fmt.Errorf("server: trace store: %s does not match its content (hash %s, format %s)", name, info.Hash, info.Format)
		}
		ts.infos[info.Hash] = info
	}
	return ts, nil
}

// validateTrace streams r through the trace reader for its form (sniffed
// from the leading bytes) at O(chunk) memory, consuming it to EOF. It
// returns the op count, format and ops-hash; Hash and Bytes are left for
// the caller, which sees the raw byte stream.
func validateTrace(r io.Reader) (api.TraceInfo, error) {
	rd, format, err := workload.NewOpReader(r)
	if err != nil {
		return api.TraceInfo{}, fmt.Errorf("%w: %w", errBadTrace, err)
	}
	info := api.TraceInfo{Format: format}
	opsHasher := sha256.New()
	var rec [trace.UTRRecordSize]byte
	for rd.Scan() {
		// The ops-hash is over the canonical .utr record bytes of each op —
		// for a .utr upload its own record bytes again — so both forms hash
		// the same stream the same way.
		if err := trace.EncodeUTRRecord(&rec, rd.Op()); err != nil {
			return api.TraceInfo{}, fmt.Errorf("%w: %w", errBadTrace, err)
		}
		opsHasher.Write(rec[:])
		info.Ops++
	}
	if err := rd.Err(); err != nil {
		return api.TraceInfo{}, fmt.Errorf("%w: %w", errBadTrace, err)
	}
	info.OpsHash = hex.EncodeToString(opsHasher.Sum(nil))
	return info, nil
}

// countingWriter counts the bytes written through it.
type countingWriter struct {
	w io.Writer
	n int64
}

func (cw *countingWriter) Write(p []byte) (int, error) {
	n, err := cw.w.Write(p)
	cw.n += int64(n)
	return n, err
}

// ingest validates a trace upload while spooling its bytes to the store —
// a temporary file next to the final location when the store persists, a
// single in-memory buffer otherwise — and registers it content-addressed.
// Validation errors are wrapped in errBadTrace; errors from the underlying
// reader (including http.MaxBytesError) pass through the chain unwrapped.
// Re-uploading identical bytes is idempotent — same hash, same file.
func (ts *traceStore) ingest(r io.Reader) (api.TraceInfo, error) {
	hasher := sha256.New()
	var spool io.Writer
	var tmp *os.File
	var mem *bytes.Buffer
	if ts.dir != "" {
		var err error
		tmp, err = os.CreateTemp(ts.dir, ".tmp-*")
		if err != nil {
			return api.TraceInfo{}, fmt.Errorf("server: trace store: %w", err)
		}
		tmpName := tmp.Name()
		defer func() {
			// No-ops once the file was renamed into place.
			tmp.Close()
			os.Remove(tmpName)
		}()
		spool = tmp
	} else {
		mem = new(bytes.Buffer)
		spool = mem
	}
	cw := &countingWriter{w: io.MultiWriter(hasher, spool)}
	info, err := validateTrace(io.TeeReader(r, cw))
	if err != nil {
		return api.TraceInfo{}, err
	}
	info.Hash = hex.EncodeToString(hasher.Sum(nil))
	info.Bytes = cw.n

	ts.mu.Lock()
	defer ts.mu.Unlock()
	if old, ok := ts.infos[info.Hash]; ok {
		return old, nil
	}
	if ts.dir != "" {
		if err := tmp.Sync(); err != nil {
			return api.TraceInfo{}, fmt.Errorf("server: trace store: %w", err)
		}
		if err := tmp.Close(); err != nil {
			return api.TraceInfo{}, fmt.Errorf("server: trace store: %w", err)
		}
		if err := os.Rename(tmp.Name(), filepath.Join(ts.dir, info.Hash+"."+info.Format)); err != nil {
			return api.TraceInfo{}, fmt.Errorf("server: trace store: %w", err)
		}
	} else {
		ts.bodies[info.Hash] = mem.Bytes()
	}
	ts.infos[info.Hash] = info
	return info, nil
}

// traceHandle is an open random-access view of one stored trace.
type traceHandle struct {
	io.ReaderAt
	// Size is the raw byte length.
	Size int64
	// Info is the stored metadata.
	Info api.TraceInfo

	closer io.Closer
}

// Close releases the underlying file, if any.
func (h *traceHandle) Close() error {
	if h.closer == nil {
		return nil
	}
	return h.closer.Close()
}

// open returns random access to a stored trace's raw bytes: a positioned
// file read per access when the store persists (nothing buffered), the
// retained buffer in memory-only mode.
func (ts *traceStore) open(hash string) (*traceHandle, bool, error) {
	ts.mu.Lock()
	info, ok := ts.infos[hash]
	body := ts.bodies[hash]
	ts.mu.Unlock()
	if !ok {
		return nil, false, nil
	}
	if ts.dir == "" {
		return &traceHandle{ReaderAt: bytes.NewReader(body), Size: info.Bytes, Info: info}, true, nil
	}
	f, err := os.Open(filepath.Join(ts.dir, hash+"."+info.Format))
	if err != nil {
		return nil, true, fmt.Errorf("server: trace store: %w", err)
	}
	return &traceHandle{ReaderAt: f, Size: info.Bytes, Info: info, closer: f}, true, nil
}

// source returns trace hash's replay source for one replay, which releases
// it once it has returned: the kept one, or one opened through
// workload.OpenTrace and kept in place of the least recently replayed (two
// replays opening one trace at once each keep theirs). Reports carry the
// head of the format-independent ops-hash, so the CSV and .utr uploads of
// one stream replay to byte-identical results.
func (ts *traceStore) source(hash string) (*keptTrace, error) {
	ts.mu.Lock()
	for i, k := range ts.kept {
		if k.hash == hash {
			ts.kept = append(slices.Delete(ts.kept, i, i+1), k)
			k.users++
			ts.mu.Unlock()
			return k, nil
		}
	}
	ts.mu.Unlock()
	h, ok, err := ts.open(hash)
	if err != nil {
		return nil, err
	}
	if !ok {
		return nil, fmt.Errorf("trace %s is no longer available", hash)
	}
	src, err := workload.OpenTrace(h, h.Size, h.Info.OpsHash[:12])
	if err != nil {
		h.Close()
		return nil, err
	}
	k := &keptTrace{hash: hash, src: src, h: h, users: 2}
	var drop *keptTrace
	ts.mu.Lock()
	if ts.kept = append(ts.kept, k); len(ts.kept) > keptTraces {
		drop, ts.kept = ts.kept[0], ts.kept[1:]
	}
	ts.mu.Unlock()
	if drop != nil {
		ts.release(drop)
	}
	return k, nil
}

// drop releases every kept source.
func (ts *traceStore) drop() {
	ts.mu.Lock()
	kept := ts.kept
	ts.kept = nil
	ts.mu.Unlock()
	for _, k := range kept {
		ts.release(k)
	}
}

// release ends one use of k, a replay's or the store's; the last closes it.
func (ts *traceStore) release(k *keptTrace) {
	ts.mu.Lock()
	defer ts.mu.Unlock()
	if k.users--; k.users == 0 {
		k.h.Close()
	}
}

// contains reports whether the hash is uploaded.
func (ts *traceStore) contains(hash string) bool {
	ts.mu.Lock()
	defer ts.mu.Unlock()
	_, ok := ts.infos[hash]
	return ok
}

// list returns every uploaded trace's metadata, ordered by hash.
func (ts *traceStore) list() []api.TraceInfo {
	ts.mu.Lock()
	defer ts.mu.Unlock()
	out := make([]api.TraceInfo, 0, len(ts.infos))
	for _, info := range ts.infos {
		out = append(out, info)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Hash < out[j].Hash })
	return out
}
