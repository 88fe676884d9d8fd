package trace_test

import (
	"bytes"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"runtime"
	"strings"
	"testing"

	"uflip/internal/trace"
)

// streamUTR writes ops through the streaming writer, UTRWriter: the bytes
// and the error WriteUTR must reproduce.
func streamUTR(ops []trace.BlockOp) ([]byte, error) {
	var ws writeSeekBuffer
	uw, err := trace.NewUTRWriter(&ws)
	if err != nil {
		return nil, err
	}
	for _, op := range ops {
		if err := uw.Write(op); err != nil {
			return nil, err
		}
	}
	return ws.buf, uw.Close()
}

// writeUTRFile writes ops with WriteUTR into a fresh file, the one-pass
// placeholder-header path, and reads the file back.
func writeUTRFile(t *testing.T, ops []trace.BlockOp) ([]byte, error) {
	t.Helper()
	f, err := os.Create(filepath.Join(t.TempDir(), "t.utr"))
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	if err := trace.WriteUTR(f, ops); err != nil {
		return nil, err
	}
	return os.ReadFile(f.Name())
}

// writeUTRPipe writes ops with WriteUTR into a pipe: an *os.File whose Seek
// fails, so it takes the checksum-first path.
func writeUTRPipe(t *testing.T, ops []trace.BlockOp) ([]byte, error) {
	t.Helper()
	r, w, err := os.Pipe()
	if err != nil {
		t.Fatal(err)
	}
	defer r.Close()
	got := make(chan []byte)
	go func() {
		b, _ := io.ReadAll(r)
		got <- b
	}()
	err = trace.WriteUTR(w, ops)
	w.Close()
	return <-got, err
}

// seekDiscard is a seekable sink that keeps nothing.
type seekDiscard struct{ pos, end int64 }

func (s *seekDiscard) Write(p []byte) (int, error) {
	s.pos += int64(len(p))
	s.end = max(s.end, s.pos)
	return len(p), nil
}

func (s *seekDiscard) Seek(off int64, whence int) (int64, error) {
	switch whence {
	case io.SeekStart:
		s.pos = off
	case io.SeekCurrent:
		s.pos += off
	case io.SeekEnd:
		s.pos = s.end + off
	}
	return s.pos, nil
}

// TestWriteUTRMatchesStreamingWriter: the in-memory writer emits the
// streaming writer's bytes and errors serially and on every CPU, around the
// chunk and parallel thresholds, through the one-pass header patch (a file)
// and the checksum-first pass (a bytes.Buffer, a pipe); and it holds the
// same memory for a long trace as for a short one.
func TestWriteUTRMatchesStreamingWriter(t *testing.T) {
	const chunk = trace.UTRChunkRecords
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(0))
	for _, n := range []int{1, chunk - 1, chunk, chunk + 1, 32*chunk - 1, 32*chunk + 7, 40 * chunk, 300_000} {
		ops := randomBlockOps(n, uint64(n))
		want, err := streamUTR(ops)
		if err != nil {
			t.Fatal(err)
		}
		for _, procs := range []int{1, 4} {
			runtime.GOMAXPROCS(procs)
			got, err := writeUTRFile(t, ops)
			if err != nil || !bytes.Equal(got, want) {
				t.Errorf("%d ops, GOMAXPROCS %d, to a file: %v, or the bytes differ from UTRWriter's", n, procs, err)
			}
			var b bytes.Buffer
			if err := trace.WriteUTR(&b, ops); err != nil || !bytes.Equal(b.Bytes(), want) {
				t.Errorf("%d ops, GOMAXPROCS %d, to a bytes.Buffer: %v, or the bytes differ from UTRWriter's", n, procs, err)
			}
			if got, err := writeUTRPipe(t, ops); err != nil || !bytes.Equal(got, want) {
				t.Errorf("%d ops, GOMAXPROCS %d, to a pipe: %v, or the bytes differ from UTRWriter's", n, procs, err)
			}
		}
	}

	// Bad ops in two rounds, or in two chunks of one round (at four workers
	// a round is eight chunks): the lower index fails the write, with
	// UTRWriter's text, whichever worker finishes first.
	ops := randomBlockOps(300_000, 5)
	for _, bad := range [][2]int{{3*chunk + 100, 20*chunk + 7}, {9*chunk + 1, 10 * chunk}, {17 * chunk, 140*chunk + 3}} {
		planted := append([]trace.BlockOp(nil), ops...)
		planted[bad[0]].IO.Size = 0
		planted[bad[1]].IO.Mode = 7
		_, wantErr := streamUTR(planted)
		if want := fmt.Sprintf("(record %d)", bad[0]); !strings.HasSuffix(errText(wantErr), want) {
			t.Fatalf("UTRWriter reports %v, want a failure at %s", wantErr, want)
		}
		for _, procs := range []int{1, 4} {
			runtime.GOMAXPROCS(procs)
			if _, err := writeUTRFile(t, planted); errText(err) != errText(wantErr) {
				t.Errorf("bad ops at %v, GOMAXPROCS %d, to a file:\n got %s\nwant %s", bad, procs, errText(err), errText(wantErr))
			}
			if err := trace.WriteUTR(io.Discard, planted); errText(err) != errText(wantErr) {
				t.Errorf("bad ops at %v, GOMAXPROCS %d, to io.Discard:\n got %s\nwant %s", bad, procs, errText(err), errText(wantErr))
			}
		}
	}

	// Allocations: the buffers of a call, not of a trace. At two CPUs both
	// lengths run on two workers (100k ops is 49 chunks, enough for three).
	runtime.GOMAXPROCS(2)
	long := randomBlockOps(1_000_000, 9)
	allocs := func(ops []trace.BlockOp, w io.Writer) (objects, size uint64) {
		var m0, m1 runtime.MemStats
		runtime.ReadMemStats(&m0)
		if err := trace.WriteUTR(w, ops); err != nil {
			t.Fatal(err)
		}
		runtime.ReadMemStats(&m1)
		return m1.Mallocs - m0.Mallocs, m1.TotalAlloc - m0.TotalAlloc
	}
	for name, sink := range map[string]func() io.Writer{
		"seekable": func() io.Writer { return new(seekDiscard) },
		"plain":    func() io.Writer { return io.Discard },
	} {
		shortN, shortB := allocs(long[:100_000], sink())
		longN, longB := allocs(long, sink())
		if longN > shortN+8 || longB > shortB+16<<10 {
			t.Errorf("%s sink: 100k ops allocate %d objects / %d bytes, 1M ops %d / %d", name, shortN, shortB, longN, longB)
		}
	}
}
