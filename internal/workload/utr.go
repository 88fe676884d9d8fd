package workload

import (
	"bufio"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"strings"

	"uflip/internal/device"
	"uflip/internal/trace"
)

// This file adapts the binary .utr trace format (internal/trace/utr.go) to
// the workload layer: Op <-> trace.BlockOp conversion, whole-slice and
// streaming writers, and a random-access Source that lets ReplaySource
// replay multi-GB traces at O(segment) memory.

// opFromBlock converts one decoded .utr record to an Op.
func opFromBlock(b trace.BlockOp) Op {
	mode := device.Read
	if b.Write {
		mode = device.Write
	}
	return Op{Gap: b.Gap, IO: device.IO{Mode: mode, Off: b.Off, Size: b.Size}}
}

// blockFromOp converts one Op to its .utr record form.
func blockFromOp(op Op) trace.BlockOp {
	return trace.BlockOp{
		Off:   op.IO.Off,
		Size:  op.IO.Size,
		Gap:   op.Gap,
		Write: op.IO.Mode == device.Write,
	}
}

// UTRRecord encodes op into its canonical .utr record bytes — the encoding
// the server hashes to give a trace a format-independent identity.
func UTRRecord(dst *[trace.UTRRecordSize]byte, op Op) error {
	return trace.EncodeUTRRecord(dst, blockFromOp(op))
}

// WriteUTR writes ops as a complete .utr trace.
func WriteUTR(w io.Writer, ops []Op) error {
	blocks := make([]trace.BlockOp, len(ops))
	for i, op := range ops {
		blocks[i] = blockFromOp(op)
	}
	return trace.WriteUTR(w, blocks)
}

// ReadUTR parses a complete .utr trace into ops.
func ReadUTR(r io.Reader) ([]Op, error) {
	sc, err := trace.NewScanner(r)
	if err != nil {
		return nil, err
	}
	out := make([]Op, 0, sc.Count())
	for sc.Scan() {
		out = append(out, opFromBlock(sc.Op()))
	}
	if err := sc.Err(); err != nil {
		return nil, err
	}
	return out, nil
}

// SaveUTR writes ops to a .utr file, creating parent directories.
func SaveUTR(path string, ops []Op) error {
	f, err := trace.Create(path)
	if err != nil {
		return fmt.Errorf("workload: %w", err)
	}
	uw, err := trace.NewUTRWriter(f)
	if err != nil {
		f.Close()
		return err
	}
	for _, op := range ops {
		if err := uw.Write(blockFromOp(op)); err != nil {
			f.Close()
			return err
		}
	}
	if err := uw.Close(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// SaveTraceAuto writes ops in the format the path's extension names:
// .utr gets the binary form, everything else the CSV form.
func SaveTraceAuto(path string, ops []Op) error {
	if FormatForPath(path) == TraceFormatUTR {
		return SaveUTR(path, ops)
	}
	return SaveTrace(path, ops)
}

// FormatForPath picks the trace format a path's extension names: .utr is
// binary, everything else CSV.
func FormatForPath(path string) string {
	if strings.EqualFold(filepath.Ext(path), ".utr") {
		return TraceFormatUTR
	}
	return TraceFormatCSV
}

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
// as Trace.Label does for the slice-backed path. Validation is complete
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

// Name labels the workload, matching the slice-backed Trace generator so a
// stream replayed from either format produces identical reports.
func (u *UTRSource) Name() string { return Trace{Label: u.label}.Name() }

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
			b, err := trace.DecodeUTRRecord(window[:trace.UTRRecordSize])
			if err != nil {
				return nil, fmt.Errorf("%w (record %d)", err, start+done)
			}
			ops[done] = opFromBlock(b)
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

// ConvertTrace streams a trace from r to w, converting between formats. The
// input format is sniffed from the first bytes; format selects the output
// (TraceFormatCSV or TraceFormatUTR). Memory stays O(1) in the trace length
// in every direction; w must be an io.WriteSeeker when converting to .utr
// from CSV, whose record count is only known at the end. CSV output is the
// canonical form WriteTrace emits, so CSV -> utr -> CSV is byte-identical
// for canonical files. Returns the number of records converted.
func ConvertTrace(r io.Reader, w io.Writer, format string) (int, error) {
	br := bufio.NewReaderSize(r, 1<<16)
	head, err := br.Peek(len(trace.UTRMagic))
	if err != nil && err != io.EOF {
		return 0, fmt.Errorf("workload: %w", err)
	}
	var next func() (Op, bool, error)
	if SniffTraceFormat(head) == TraceFormatUTR {
		sc, err := trace.NewScanner(br)
		if err != nil {
			return 0, err
		}
		next = func() (Op, bool, error) {
			if !sc.Scan() {
				return Op{}, false, sc.Err()
			}
			return opFromBlock(sc.Op()), true, nil
		}
	} else {
		ts := NewTraceScanner(br)
		next = func() (Op, bool, error) {
			if !ts.Scan() {
				return Op{}, false, ts.Err()
			}
			return ts.Op(), true, nil
		}
	}
	var write func(Op) error
	var finish func() error
	switch format {
	case TraceFormatUTR:
		ws, ok := w.(io.WriteSeeker)
		if !ok {
			return 0, fmt.Errorf("workload: utr output needs an io.WriteSeeker")
		}
		uw, err := trace.NewUTRWriter(ws)
		if err != nil {
			return 0, err
		}
		write = func(op Op) error { return uw.Write(blockFromOp(op)) }
		finish = uw.Close
	case TraceFormatCSV:
		tw, err := NewTraceWriter(w)
		if err != nil {
			return 0, err
		}
		write = tw.Write
		finish = tw.Flush
	default:
		return 0, fmt.Errorf("workload: unknown trace format %q", format)
	}
	n := 0
	for {
		op, ok, err := next()
		if err != nil {
			return n, err
		}
		if !ok {
			break
		}
		if err := write(op); err != nil {
			return n, err
		}
		n++
	}
	if n == 0 {
		return 0, fmt.Errorf("workload: trace holds no IOs")
	}
	return n, finish()
}

// ConvertTraceFile converts a trace file to format at outPath, streaming at
// O(1) memory. The input format is sniffed from the file content.
func ConvertTraceFile(inPath, outPath, format string) (int, error) {
	in, err := os.Open(inPath)
	if err != nil {
		return 0, fmt.Errorf("workload: %w", err)
	}
	defer in.Close()
	out, err := trace.Create(outPath)
	if err != nil {
		return 0, fmt.Errorf("workload: %w", err)
	}
	n, err := ConvertTrace(in, out, format)
	if err != nil {
		out.Close()
		os.Remove(outPath)
		return 0, err
	}
	if err := out.Close(); err != nil {
		return 0, fmt.Errorf("workload: %w", err)
	}
	return n, nil
}
