package workload_test

import (
	"bytes"
	"context"
	"io"
	"math/rand"
	"os"
	"path/filepath"
	"reflect"
	"runtime"
	"strings"
	"testing"
	"time"

	"uflip/internal/device"
	"uflip/internal/engine"
	"uflip/internal/trace"
	"uflip/internal/workload"
)

func readFile(t *testing.T, path string) []byte {
	t.Helper()
	b, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	return b
}

// randomTraceOps builds a deterministic pseudo-random op stream within both
// formats' bounds, including the gap edge cases (0 and the shared ceiling).
func randomTraceOps(t *testing.T, n int, seed int64) []workload.Op {
	t.Helper()
	rng := rand.New(rand.NewSource(seed))
	ops := make([]workload.Op, n)
	for i := range ops {
		mode := device.Read
		if rng.Intn(2) == 1 {
			mode = device.Write
		}
		ops[i] = workload.Op{
			Gap: time.Duration(rng.Int63n(int64(time.Minute))),
			IO: device.IO{
				Mode: mode,
				Off:  rng.Int63n(1 << 40),
				Size: 1 + rng.Int63n(4<<20),
			},
		}
	}
	ops[0].Gap = 0
	if n > 1 {
		ops[1].Gap = trace.MaxUTRGap
	}
	return ops
}

var forms = []string{workload.TraceFormatCSV, workload.TraceFormatUTR}

// writeSeekBuffer is an in-memory io.WriteSeeker: the .utr writer's header
// patch without a file.
type writeSeekBuffer struct {
	buf []byte
	pos int
}

func (b *writeSeekBuffer) Write(p []byte) (int, error) {
	if need := b.pos + len(p); need > len(b.buf) {
		b.buf = append(b.buf, make([]byte, need-len(b.buf))...)
	}
	copy(b.buf[b.pos:], p)
	b.pos += len(p)
	return len(p), nil
}

func (b *writeSeekBuffer) Seek(off int64, whence int) (int64, error) {
	switch whence {
	case io.SeekStart:
		b.pos = int(off)
	case io.SeekCurrent:
		b.pos += int(off)
	case io.SeekEnd:
		b.pos = len(b.buf) + int(off)
	}
	return int64(b.pos), nil
}

// TestTraceFormatsLosslessRoundTrip is the one codec's property test: a
// random valid stream written by either form's writer comes back, through
// the sniffing reader, as the same ops under the right form's name; and
// ConvertTrace in all four directions emits exactly the bytes the writers
// emit, so csv -> utr -> csv and utr -> csv -> utr are byte-identical.
func TestTraceFormatsLosslessRoundTrip(t *testing.T) {
	for _, n := range []int{1, 2, 3000, trace.UTRChunkRecords + 1} {
		ops := randomTraceOps(t, n, int64(17+n))
		written := map[string][]byte{}
		for _, form := range forms {
			var ws writeSeekBuffer
			if err := workload.WriteOps(&ws, form, ops); err != nil {
				t.Fatalf("%d ops as %s: %v", n, form, err)
			}
			written[form] = ws.buf
			rd, sniffed, err := workload.NewOpReader(bytes.NewReader(ws.buf))
			if err != nil {
				t.Fatalf("%d ops as %s: %v", n, form, err)
			}
			if sniffed != form {
				t.Fatalf("%d ops written as %s sniffed as %s", n, form, sniffed)
			}
			var got []workload.Op
			for rd.Scan() {
				got = append(got, rd.Op())
			}
			if err := rd.Err(); err != nil {
				t.Fatalf("%d ops as %s: %v", n, form, err)
			}
			if !reflect.DeepEqual(got, ops) {
				t.Fatalf("%d ops drifted across the %s round trip", n, form)
			}
		}
		// The count-known .utr writer and the streaming one agree.
		var plain bytes.Buffer
		if err := workload.WriteUTR(&plain, ops); err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(plain.Bytes(), written[workload.TraceFormatUTR]) {
			t.Fatalf("%d ops: WriteUTR differs from the streaming .utr writer", n)
		}
		for _, from := range forms {
			for _, to := range forms {
				var ws writeSeekBuffer
				got, err := workload.ConvertTrace(bytes.NewReader(written[from]), &ws, to)
				if err != nil || got != n {
					t.Fatalf("%d ops %s -> %s: n=%d err=%v", n, from, to, got, err)
				}
				if !bytes.Equal(ws.buf, written[to]) {
					t.Fatalf("%d ops %s -> %s: converted bytes differ from the %s writer's", n, from, to, to)
				}
			}
		}
	}
}

// TestWritersRejectUnknownMode: a mode that is neither read nor write has no
// encoding in either form, and both writers say which record carried it (the
// CSV writer would have printed it as W, the .utr writer stored it as read).
func TestWritersRejectUnknownMode(t *testing.T) {
	ops := randomTraceOps(t, 5, 3)
	ops[3].IO.Mode = device.Mode(2)
	for form, want := range map[string]string{
		workload.TraceFormatCSV: "workload: trace row 3: mode 2 (want R or W)",
		workload.TraceFormatUTR: "trace: utr record: mode 2 (want 0 or 1) (record 3)",
	} {
		var ws writeSeekBuffer
		if got := errString(workload.WriteOps(&ws, form, ops)); got != want {
			t.Errorf("%s writer: got %q, want %q", form, got, want)
		}
	}
	if got, want := errString(workload.WriteUTR(io.Discard, ops)), "trace: utr record: mode 2 (want 0 or 1) (record 3)"; got != want {
		t.Errorf("WriteUTR: got %q, want %q", got, want)
	}
}

// TestConvertTraceFileStreams pins the `uflip trace convert` engine: the
// streaming file converter must emit exactly what the slice-based writers
// emit, in both directions, sniffing the input format from content. The
// output may be the input: the trace is converted beside the path and renamed
// over it, so converting in place keeps the trace, and a conversion that
// fails leaves the path as it was.
func TestConvertTraceFileStreams(t *testing.T) {
	ops := randomTraceOps(t, 500, 23)
	dir := t.TempDir()
	csvPath := filepath.Join(dir, "t.csv")
	utrPath := filepath.Join(dir, "t.utr")
	backPath := filepath.Join(dir, "back.csv")
	if err := workload.SaveOps(csvPath, ops); err != nil {
		t.Fatal(err)
	}
	if n, err := workload.ConvertTraceFile(csvPath, utrPath, workload.FormatForPath(utrPath)); err != nil || n != len(ops) {
		t.Fatalf("csv -> utr: n=%d err=%v", n, err)
	}
	var wantUTR bytes.Buffer
	if err := workload.WriteUTR(&wantUTR, ops); err != nil {
		t.Fatal(err)
	}
	gotUTR := readFile(t, utrPath)
	if !bytes.Equal(gotUTR, wantUTR.Bytes()) {
		t.Fatal("streamed utr conversion differs from WriteUTR")
	}
	if n, err := workload.ConvertTraceFile(utrPath, backPath, workload.FormatForPath(backPath)); err != nil || n != len(ops) {
		t.Fatalf("utr -> csv: n=%d err=%v", n, err)
	}
	wantCSV := readFile(t, csvPath)
	if !bytes.Equal(readFile(t, backPath), wantCSV) {
		t.Fatal("csv -> utr -> csv via ConvertTraceFile is not byte-identical")
	}

	// In place: csv -> csv, then csv -> utr -> csv, all on the one path.
	for _, step := range []struct {
		form string
		want []byte
	}{
		{workload.TraceFormatCSV, wantCSV},
		{workload.TraceFormatUTR, wantUTR.Bytes()},
		{workload.TraceFormatCSV, wantCSV},
	} {
		if n, err := workload.ConvertTraceFile(backPath, backPath, step.form); err != nil || n != len(ops) {
			t.Fatalf("in place -> %s: n=%d err=%v", step.form, n, err)
		}
		if !bytes.Equal(readFile(t, backPath), step.want) {
			t.Fatalf("in place -> %s: the path does not hold the converted trace", step.form)
		}
	}
	if st, err := os.Stat(backPath); err != nil || st.Mode().Perm() != 0o644 {
		t.Fatalf("converted trace has mode %v (err %v), want 0644", st.Mode().Perm(), err)
	}

	// A conversion that fails mid-stream leaves the old output's bytes, for
	// either output form, and no temporary file beside it.
	badPath := filepath.Join(dir, "bad.csv")
	if err := os.WriteFile(badPath, []byte("offset,size,mode,gap_us\n0,512,R,0\n512,512,W,1\n1024,512,X,2\n"), 0o644); err != nil {
		t.Fatal(err)
	}
	for _, out := range []string{backPath, utrPath} {
		before := readFile(t, out)
		_, err := workload.ConvertTraceFile(badPath, out, workload.FormatForPath(out))
		if got, want := errString(err), `workload: trace line 4: mode "X" (want R or W)`; got != want {
			t.Fatalf("bad row into %s: got %q, want %q", out, got, want)
		}
		if !bytes.Equal(readFile(t, out), before) {
			t.Fatalf("failed conversion changed %s", out)
		}
	}
	if _, err := workload.ConvertTraceFile(badPath, badPath, workload.TraceFormatUTR); err == nil {
		t.Fatal("bad trace converted in place")
	}
	// A trace of no IOs converts to neither form.
	for _, form := range forms {
		var ws writeSeekBuffer
		if _, err := workload.ConvertTrace(strings.NewReader("offset,size,mode,gap_us\n"), &ws, form); errString(err) != "workload: trace holds no IOs" {
			t.Fatalf("empty trace -> %s: %v", form, err)
		}
	}
	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	if len(entries) != 4 {
		t.Fatalf("directory holds %d entries after the failed conversions, want the 4 traces", len(entries))
	}
}

// TestGapBoundsAgree pins the two formats to one gap ceiling: the CSV bound
// in microseconds converts exactly to the utr bound in nanoseconds, and a
// gap at the bound survives the CSV write -> parse path exactly.
func TestGapBoundsAgree(t *testing.T) {
	if got := time.Duration(workload.MaxGapUS * 1e3); got != trace.MaxUTRGap {
		t.Fatalf("MaxGapUS converts to %d ns, utr bound is %d ns", got, trace.MaxUTRGap)
	}
	var buf bytes.Buffer
	atBound := []workload.Op{{Gap: trace.MaxUTRGap, IO: device.IO{Mode: device.Read, Size: 512}}}
	if err := workload.WriteTrace(&buf, atBound); err != nil {
		t.Fatal(err)
	}
	ops, err := workload.ReadOps(bytes.NewReader(buf.Bytes()))
	if err != nil {
		t.Fatalf("gap at the shared bound rejected by the CSV parser: %v", err)
	}
	if ops[0].Gap != trace.MaxUTRGap {
		t.Fatalf("bound gap drifted to %d ns across the CSV round trip", ops[0].Gap)
	}
	over := []workload.Op{{Gap: trace.MaxUTRGap + time.Microsecond, IO: device.IO{Mode: device.Read, Size: 512}}}
	if err := workload.WriteUTR(io.Discard, over); err == nil {
		t.Fatal("utr writer accepted a gap past the shared bound")
	}
}

// TestUTRSourceSegments pins OpenUTRFile against the in-memory stream: same
// length, same ops in every segment window, same report name as the
// slice-backed Trace generator.
func TestUTRSourceSegments(t *testing.T) {
	// Long enough that windows start, end and straddle the edges of the
	// bounded read window Segment decodes through.
	const chunk, total = trace.UTRChunkRecords, 3*trace.UTRChunkRecords + 7
	ops := randomTraceOps(t, total, 5)
	path := filepath.Join(t.TempDir(), "seg.utr")
	if err := workload.SaveUTR(path, ops); err != nil {
		t.Fatal(err)
	}
	src, err := workload.OpenUTRFile(path)
	if err != nil {
		t.Fatal(err)
	}
	defer src.Close()
	src.SetLabel("seg")
	if src.Len() != len(ops) {
		t.Fatalf("Len = %d, want %d", src.Len(), len(ops))
	}
	if want := (workload.Trace{Label: "seg"}).Name(); src.Name() != want {
		t.Fatalf("Name = %q, want %q", src.Name(), want)
	}
	// One decode buffer serves every window in turn, growing and shrinking,
	// as a replay worker's does.
	var buf workload.SegmentBuf
	for _, win := range [][2]int{
		{0, 1}, {0, 333}, {333, 333}, {666, 334}, {total - 1, 1}, {0, total},
		{0, chunk}, {0, chunk + 1}, {chunk - 1, 2}, {5, 2*chunk + 3}, {chunk, 2 * chunk},
	} {
		got, err := src.Segment(win[0], win[1])
		if err != nil {
			t.Fatalf("Segment(%d,%d): %v", win[0], win[1], err)
		}
		if !reflect.DeepEqual(got, ops[win[0]:win[0]+win[1]]) {
			t.Fatalf("Segment(%d,%d) differs from the stream", win[0], win[1])
		}
		got, err = src.SegmentInto(&buf, win[0], win[1])
		if err != nil {
			t.Fatalf("SegmentInto(%d,%d): %v", win[0], win[1], err)
		}
		if !reflect.DeepEqual(got, ops[win[0]:win[0]+win[1]]) {
			t.Fatalf("SegmentInto(%d,%d) through a reused buffer differs from the stream", win[0], win[1])
		}
	}
	for _, bad := range [][2]int{{-1, 2}, {0, 0}, {total - 1, 2}, {total, 1}} {
		if _, err := src.Segment(bad[0], bad[1]); err == nil {
			t.Fatalf("Segment(%d,%d): accepted, want an error", bad[0], bad[1])
		}
	}
}

// TestNewUTRSourceErrors pins what opening a damaged trace reports, and in
// which order: the header's error, then a size that disagrees with the
// header's count, then the first bad record, then the checksum.
func TestNewUTRSourceErrors(t *testing.T) {
	var b bytes.Buffer
	if err := workload.WriteUTR(&b, randomTraceOps(t, 40, 9)); err != nil {
		t.Fatal(err)
	}
	data := b.Bytes()
	mutate := func(f func(b []byte)) []byte {
		b := bytes.Clone(data)
		f(b)
		return b
	}
	badRecord := func(b []byte) { b[trace.UTRHeaderSize+3*trace.UTRRecordSize+28] = 1 }
	for _, c := range []struct {
		name string
		b    []byte
		want string
	}{
		{"pristine", data, ""},
		{"empty", nil, "trace: utr header truncated: EOF"},
		{"bad magic", mutate(func(b []byte) { b[0] = 'x' }), "trace: not a utr trace (bad magic)"},
		{"bad record", mutate(badRecord), "trace: utr record: reserved field is 0x1, want 0 (record 3)"},
		{"bad record, truncated", mutate(badRecord)[:len(data)-1], "workload: utr trace is 1311 bytes, want 1312 for 40 records"},
		{"bad record, trailing byte", append(mutate(badRecord), 0), "workload: utr trace is 1313 bytes, want 1312 for 40 records"},
		{"bad record and checksum", mutate(func(b []byte) { badRecord(b); b[24] ^= 1 }), "trace: utr record: reserved field is 0x1, want 0 (record 3)"},
	} {
		_, err := workload.NewUTRSource(bytes.NewReader(c.b), int64(len(c.b)), "")
		if got := errString(err); got != c.want {
			t.Errorf("%s:\n got %q\nwant %q", c.name, got, c.want)
		}
	}
	flipped := mutate(func(b []byte) { b[trace.UTRHeaderSize+8] ^= 2 })
	if _, err := workload.NewUTRSource(bytes.NewReader(flipped), int64(len(flipped)), ""); err == nil || !strings.HasPrefix(err.Error(), "trace: utr payload CRC mismatch") {
		t.Errorf("flipped payload bit: %v, want a CRC mismatch", err)
	}
}

func errString(err error) string {
	if err == nil {
		return ""
	}
	return err.Error()
}

// TestReplayUTRAllocs pins what a .utr replay allocates per op: two words
// (the stream-order response times and the selection copy) plus one decode
// buffer per worker — not a fresh op slice per segment, per-run submit
// times, a merged series and a selection copy on top, which was 70 B/op.
func TestReplayUTRAllocs(t *testing.T) {
	const total, segOps = 200_000, 10_000
	ops, err := workload.OLTP{PageSize: 8192, TargetSize: 1 << 30, ReadFraction: 0.9, Count: total, Seed: 3}.Generate()
	if err != nil {
		t.Fatal(err)
	}
	var b bytes.Buffer
	if err := workload.WriteUTR(&b, ops); err != nil {
		t.Fatal(err)
	}
	src, err := workload.NewUTRSource(bytes.NewReader(b.Bytes()), int64(b.Len()), "allocs")
	if err != nil {
		t.Fatal(err)
	}
	factory := func(engine.Shard) (device.Device, time.Duration, error) {
		return device.NewMemDevice("mem", 1<<30, time.Microsecond, time.Microsecond), 0, nil
	}
	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	res, err := workload.ReplaySource(context.Background(), src, factory, workload.Options{SegmentOps: segOps, Workers: 2})
	runtime.ReadMemStats(&m1)
	if err != nil {
		t.Fatal(err)
	}
	if perOp := float64(m1.TotalAlloc-m0.TotalAlloc) / total; perOp > 48 {
		t.Fatalf("a %d-op .utr replay allocated %.1f B/op, want <= 48", res.Ops, perOp)
	}
}

// TestReplayUTRMatchesCSV is the tentpole equivalence pin: replaying a
// stream from its .utr file (streaming segments) produces a Result deeply
// equal to replaying the materialized ops, at 1 and 4 workers.
func TestReplayUTRMatchesCSV(t *testing.T) {
	gen := workload.OLTP{
		PageSize: 8 * 1024, TargetSize: testCapacity / 2,
		ReadFraction: 0.6, Count: 600, Seed: 11,
	}
	ops, err := gen.Generate()
	if err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(t.TempDir(), "replay.utr")
	if err := workload.SaveUTR(path, ops); err != nil {
		t.Fatal(err)
	}
	factory := testFactory(t)
	name := (workload.Trace{Label: "replay"}).Name()
	for _, workers := range []int{1, 4} {
		opts := workload.Options{SegmentOps: 150, Workers: workers, Seed: 3}
		direct, err := workload.ReplayParallel(context.Background(), name, ops, factory, opts)
		if err != nil {
			t.Fatal(err)
		}
		src, err := workload.OpenUTRFile(path)
		if err != nil {
			t.Fatal(err)
		}
		src.SetLabel("replay")
		streamed, err := workload.ReplaySource(context.Background(), src, factory, opts)
		src.Close()
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(direct, streamed) {
			t.Fatalf("workers=%d: utr-streamed replay differs from the in-memory replay", workers)
		}
	}
}
