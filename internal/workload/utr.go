package workload

import (
	"fmt"
	"io"
	"os"

	"uflip/internal/trace"
)

// This file is the replay side of the binary .utr trace format
// (internal/trace/utr.go): a random-access Source that lets ReplaySource
// replay multi-GB traces at O(segment) memory. A .utr record decodes straight
// into an Op (the trace package's record type is this package's), and the
// streaming readers and writers of both forms meet in trace.go.

// WriteUTR writes ops as a complete .utr trace to any io.Writer
// (trace.WriteUTR): the record count is known up front, so unlike
// NewOpWriter's .utr writer it needs no seeking.
func WriteUTR(w io.Writer, ops []Op) error { return trace.WriteUTR(w, ops) }

// UTRSource replays a .utr trace straight from an io.ReaderAt — a file or
// an in-memory byte slice — materializing only the segment each engine job
// asks for. Opening a source validates the whole trace once (header, every
// record, payload CRC) in a streaming pass, so replay never meets a corrupt
// record halfway through; after that, segments are decoded with concurrent
// positioned reads (os.File.ReadAt is safe across goroutines).
type UTRSource struct {
	ra     io.ReaderAt
	count  int
	label  string
	closer io.Closer
}

// NewUTRSource validates the .utr trace stored in ra (size bytes long) and
// returns a segment-addressable source. label names the trace in reports,
// as the label passed to OpenTrace does for a CSV trace. Validation is complete
// before it returns — header, size, every record, payload CRC, with the
// scanner's errors (trace.VerifyUTR) — and a long trace is validated on
// every CPU, so ra must allow concurrent ReadAt calls.
func NewUTRSource(ra io.ReaderAt, size int64, label string) (*UTRSource, error) {
	count, err := trace.VerifyUTR(ra, size)
	// Once the header has parsed (count > 0), a size that disagrees with it
	// is reported as such, ahead of whatever the records then look like.
	if want := int64(trace.UTRHeaderSize) + int64(count)*trace.UTRRecordSize; count > 0 && size != want {
		return nil, fmt.Errorf("workload: utr trace is %d bytes, want %d for %d records", size, want, count)
	}
	if err != nil {
		return nil, err
	}
	return &UTRSource{ra: ra, count: count, label: label}, nil
}

// OpenUTRFile opens and validates a .utr file as a replay source. The file
// stays open for the source's lifetime; Close releases it.
func OpenUTRFile(path string) (*UTRSource, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, fmt.Errorf("workload: %w", err)
	}
	st, err := f.Stat()
	if err != nil {
		f.Close()
		return nil, fmt.Errorf("workload: %w", err)
	}
	src, err := NewUTRSource(f, st.Size(), "")
	if err != nil {
		f.Close()
		return nil, fmt.Errorf("%w (%s)", err, path)
	}
	src.closer = f
	return src, nil
}

// SetLabel names the trace in reports.
func (u *UTRSource) SetLabel(label string) { u.label = label }

// Name labels the workload as OpenTrace labels a CSV trace, so a stream
// replayed from either format produces identical reports.
func (u *UTRSource) Name() string { return TraceName(u.label) }

// Len returns the record count declared by the trace header.
func (u *UTRSource) Len() int { return u.count }

// Segment decodes records [start, start+n) into a fresh slice.
func (u *UTRSource) Segment(start, n int) ([]Op, error) {
	return u.SegmentInto(new(SegmentBuf), start, n)
}

// SegmentInto implements SegmentDecoder: records [start, start+n) are
// decoded into buf with positioned reads through one bounded window, so a
// segment costs nothing once buf has grown to the replay's segment size.
func (u *UTRSource) SegmentInto(buf *SegmentBuf, start, n int) ([]Op, error) {
	if start < 0 || n <= 0 || start > u.count-n {
		return nil, fmt.Errorf("workload: utr segment [%d:%d) outside %d records", start, start+n, u.count)
	}
	if cap(buf.ops) < n {
		buf.ops = make([]Op, n)
		buf.raw = make([]byte, min(n, trace.UTRChunkRecords)*trace.UTRRecordSize)
	}
	ops := buf.ops[:n]
	off := int64(trace.UTRHeaderSize) + int64(start)*trace.UTRRecordSize
	for done := 0; done < n; {
		window := buf.raw[:min(n-done, trace.UTRChunkRecords)*trace.UTRRecordSize]
		if _, err := u.ra.ReadAt(window, off); err != nil {
			return nil, fmt.Errorf("workload: utr read: %w", err)
		}
		off += int64(len(window))
		for ; len(window) > 0; window = window[trace.UTRRecordSize:] {
			var err error
			if ops[done], err = trace.DecodeUTRRecord(window[:trace.UTRRecordSize]); err != nil {
				return nil, fmt.Errorf("%w (record %d)", err, start+done)
			}
			done++
		}
	}
	return ops, nil
}

// Close releases the underlying file, if the source owns one.
func (u *UTRSource) Close() error {
	if u.closer == nil {
		return nil
	}
	c := u.closer
	u.closer = nil
	return c.Close()
}
