package workload

import (
	"bufio"
	"encoding/csv"
	"errors"
	"fmt"
	"io"
	"math"
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"time"

	"uflip/internal/device"
	"uflip/internal/trace"
)

// The block-trace CSV format is one IO per row:
//
//	offset,size,mode,gap_us
//	4096,8192,R,0
//	131072,32768,W,120.5
//
// offset and size are bytes (integers), mode is R or W (case-insensitive),
// and gap_us is the inter-arrival gap in microseconds since the previous
// submission (a float; 0 means back-to-back). The header row is optional and
// lines starting with '#' are comments. Gaps are written with the shortest
// decimal representation that parses back to the same float, so a
// write -> read -> write cycle is byte-stable.
//
// The binary .utr form of the same stream is internal/trace/utr.go. Both
// forms carry the one record type, Op, and meet in exactly two functions at
// the bottom of this file: NewOpReader sniffs a stream and returns the form's
// scanner, NewOpWriter returns the named form's writer. Everything that
// reads, writes, saves, loads, converts or validates a trace is written once
// over those two, so the forms convert losslessly in both directions.

// traceHeader is the canonical header row WriteTrace emits.
var traceHeader = []string{"offset", "size", "mode", "gap_us"}

// MaxGapUS bounds the inter-arrival gap a trace row may carry (~6.5 days).
// Beyond it the microseconds-to-nanoseconds float round trip can drift by a
// nanosecond, which would break the byte-stability guarantee; a larger gap
// in a block trace is nonsense anyway.
const MaxGapUS = float64((int64(1) << 49) / 1e3)

// TraceWriter streams ops into the block-trace CSV format one at a time, so
// converters and capture tools never hold more than one row in memory.
type TraceWriter struct {
	cw   *csv.Writer
	row  [4]string
	rows int
}

// NewTraceWriter writes the canonical header row and returns a writer.
func NewTraceWriter(w io.Writer) (*TraceWriter, error) {
	cw := csv.NewWriter(w)
	if err := cw.Write(traceHeader); err != nil {
		return nil, fmt.Errorf("workload: %w", err)
	}
	return &TraceWriter{cw: cw}, nil
}

// Write appends one op as a CSV row. A mode that is neither read nor write
// has no row to be written as.
func (tw *TraceWriter) Write(op Op) error {
	if op.IO.Mode != device.Read && op.IO.Mode != device.Write {
		return fmt.Errorf("workload: trace row %d: mode %d (want R or W)", tw.rows, op.IO.Mode)
	}
	tw.rows++
	tw.row[0] = strconv.FormatInt(op.IO.Off, 10)
	tw.row[1] = strconv.FormatInt(op.IO.Size, 10)
	tw.row[2] = op.IO.Mode.String()
	tw.row[3] = strconv.FormatFloat(float64(op.Gap)/1e3, 'g', -1, 64)
	if err := tw.cw.Write(tw.row[:]); err != nil {
		return fmt.Errorf("workload: %w", err)
	}
	return nil
}

// Close drains buffered rows and reports any deferred write error. The
// underlying writer is not closed; that stays with the caller.
func (tw *TraceWriter) Close() error {
	tw.cw.Flush()
	if err := tw.cw.Error(); err != nil {
		return fmt.Errorf("workload: %w", err)
	}
	return nil
}

// WriteTrace writes ops in the block-trace CSV format.
func WriteTrace(w io.Writer, ops []Op) error { return WriteOps(w, TraceFormatCSV, ops) }

// TraceScanner streams ops out of a block-trace CSV one row at a time at
// O(1) memory; a trace with no IOs is an error. Errors carry the actual 1-based file line (comments and the
// optional header included), not the data-row index.
type TraceScanner struct {
	cr    *csv.Reader
	op    Op
	err   error
	count int
	first bool
}

// NewTraceScanner returns a scanner over the CSV rows of r.
func NewTraceScanner(r io.Reader) *TraceScanner {
	cr := csv.NewReader(r)
	cr.Comment = '#'
	cr.FieldsPerRecord = len(traceHeader)
	cr.ReuseRecord = true
	return &TraceScanner{cr: cr, first: true}
}

// Scan advances to the next op. It returns false at the end of the trace or
// on the first error; Err tells the two apart.
func (ts *TraceScanner) Scan() bool {
	if ts.err != nil {
		return false
	}
	for {
		rec, err := ts.cr.Read()
		if err == io.EOF {
			// As a .utr header declaring no records is rejected: an empty
			// trace is also what a torn write leaves behind.
			if ts.count == 0 {
				ts.err = fmt.Errorf("workload: trace holds no IOs")
			}
			return false
		}
		if err != nil {
			// csv.ParseError already names the real file line.
			ts.err = fmt.Errorf("workload: trace: %w", err)
			return false
		}
		if ts.first {
			ts.first = false
			if strings.EqualFold(strings.TrimSpace(rec[0]), traceHeader[0]) {
				continue // optional header
			}
		}
		op, err := parseTraceRow(rec)
		if err != nil {
			line, _ := ts.cr.FieldPos(0)
			ts.err = fmt.Errorf("workload: trace line %d: %w", line, err)
			return false
		}
		ts.op = op
		ts.count++
		return true
	}
}

// Op returns the op read by the last successful Scan.
func (ts *TraceScanner) Op() Op { return ts.op }

// Err returns the first error the scanner hit, or nil.
func (ts *TraceScanner) Err() error { return ts.err }

func parseTraceRow(rec []string) (Op, error) {
	var op Op
	off, err := strconv.ParseInt(strings.TrimSpace(rec[0]), 10, 64)
	if err != nil {
		return op, fmt.Errorf("offset: %w", err)
	}
	size, err := strconv.ParseInt(strings.TrimSpace(rec[1]), 10, 64)
	if err != nil {
		return op, fmt.Errorf("size: %w", err)
	}
	var mode device.Mode
	switch strings.ToUpper(strings.TrimSpace(rec[2])) {
	case "R":
		mode = device.Read
	case "W":
		mode = device.Write
	default:
		return op, fmt.Errorf("mode %q (want R or W)", rec[2])
	}
	gapUS, err := strconv.ParseFloat(strings.TrimSpace(rec[3]), 64)
	if err != nil {
		return op, fmt.Errorf("gap_us: %w", err)
	}
	switch {
	case off < 0:
		return op, fmt.Errorf("offset %d must be non-negative", off)
	case size <= 0:
		return op, fmt.Errorf("size %d must be positive", size)
	case gapUS < 0 || math.IsNaN(gapUS) || math.IsInf(gapUS, 0):
		return op, fmt.Errorf("gap_us %v must be a non-negative finite number", gapUS)
	case gapUS > MaxGapUS:
		// Beyond this the us -> ns -> us float round trip is no longer
		// exact (and a Duration conversion would eventually overflow).
		return op, fmt.Errorf("gap_us %v exceeds the %v bound", gapUS, MaxGapUS)
	}
	op.IO = device.IO{Mode: mode, Off: off, Size: size}
	op.Gap = time.Duration(math.Round(gapUS * 1e3))
	return op, nil
}

// TraceFormatCSV and TraceFormatUTR name the two on-disk trace formats.
const (
	TraceFormatCSV = "csv"
	TraceFormatUTR = "utr"
)

// FormatForPath picks the trace format a path's extension names: .utr is
// binary, everything else CSV.
func FormatForPath(path string) string {
	if strings.EqualFold(filepath.Ext(path), ".utr") {
		return TraceFormatUTR
	}
	return TraceFormatCSV
}

// OpReader streams the ops of a block trace in either form: Scan advances to
// the next op and returns false at the end of the trace or on the first
// error, which Err tells apart. *TraceScanner and *trace.Scanner are the two.
type OpReader interface {
	Scan() bool
	Op() Op
	Err() error
}

// OpWriter streams ops into a block trace in either form. Close completes
// the trace (drains the CSV rows, patches the .utr header) and leaves the
// underlying writer open. *TraceWriter and *trace.UTRWriter are the two.
type OpWriter interface {
	Write(Op) error
	Close() error
}

// NewOpReader returns the reader of the block trace in r and the name of the
// form it is in, sniffed from the leading bytes: the .utr magic selects the
// binary form, anything else is CSV (which has no magic of its own).
func NewOpReader(r io.Reader) (OpReader, string, error) {
	br := bufio.NewReaderSize(r, 1<<16)
	head, err := br.Peek(len(trace.UTRMagic))
	if err != nil && err != io.EOF {
		return nil, "", fmt.Errorf("workload: %w", err)
	}
	if !trace.IsUTR(head) {
		return NewTraceScanner(br), TraceFormatCSV, nil
	}
	sc, err := trace.NewScanner(br)
	if err != nil {
		return nil, "", err
	}
	return sc, TraceFormatUTR, nil
}

// NewOpWriter returns the writer of the named form over w. The .utr form
// patches its record count into the header on Close, so its w must be an
// io.WriteSeeker.
func NewOpWriter(w io.Writer, format string) (OpWriter, error) {
	switch format {
	case TraceFormatCSV:
		return NewTraceWriter(w)
	case TraceFormatUTR:
		ws, ok := w.(io.WriteSeeker)
		if !ok {
			return nil, fmt.Errorf("workload: utr output needs an io.WriteSeeker")
		}
		return trace.NewUTRWriter(ws)
	}
	return nil, fmt.Errorf("workload: unknown trace format %q", format)
}

// ReadOps parses a whole block trace, in either form, into memory. Every
// record is validated as the form's scanner validates it (CSV errors report
// the 1-based file line of the offending row; either form rejects a trace
// with no IOs).
func ReadOps(r io.Reader) ([]Op, error) {
	rd, _, err := NewOpReader(r)
	if err != nil {
		return nil, err
	}
	var out []Op
	for rd.Scan() {
		out = append(out, rd.Op())
	}
	if err := rd.Err(); err != nil {
		return nil, err
	}
	return out, nil
}

// WriteOps writes ops as a complete block trace in the named form. The
// .utr form is trace.WriteUTR's, which takes any io.Writer.
func WriteOps(w io.Writer, format string, ops []Op) error {
	if format == TraceFormatUTR {
		return trace.WriteUTR(w, ops)
	}
	wr, err := NewOpWriter(w, format)
	if err != nil {
		return err
	}
	for _, op := range ops {
		if err := wr.Write(op); err != nil {
			return err
		}
	}
	return wr.Close()
}

// SaveOps writes ops to a file in the form the path's extension names,
// creating parent directories. It is a plain create-write-close: the atomic
// temp+fsync+rename is ConvertTraceFile's, whose output may be its input.
func SaveOps(path string, ops []Op) error { return saveOps(path, FormatForPath(path), ops) }

// SaveUTR writes ops to a .utr file, creating parent directories.
func SaveUTR(path string, ops []Op) error { return saveOps(path, TraceFormatUTR, ops) }

func saveOps(path, format string, ops []Op) error {
	f, err := trace.Create(path)
	if err != nil {
		return fmt.Errorf("workload: %w", err)
	}
	if err := WriteOps(f, format, ops); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// ConvertTrace streams a trace from r to w, converting between forms. The
// input form is sniffed from the first bytes; format selects the output
// (TraceFormatCSV or TraceFormatUTR). Memory stays O(1) in the trace length
// in every direction; w must be an io.WriteSeeker when the output is .utr.
// CSV output is the canonical form WriteTrace emits, so CSV -> utr -> CSV is
// byte-identical for canonical files. Returns the number of records
// converted.
func ConvertTrace(r io.Reader, w io.Writer, format string) (int, error) {
	rd, _, err := NewOpReader(r)
	if err != nil {
		return 0, err
	}
	wr, err := NewOpWriter(w, format)
	if err != nil {
		return 0, err
	}
	n := 0
	for rd.Scan() {
		if err := wr.Write(rd.Op()); err != nil {
			return n, err
		}
		n++
	}
	if err := rd.Err(); err != nil {
		return n, err
	}
	return n, wr.Close()
}

// ConvertTraceFile converts a trace file to format at outPath, streaming at
// O(1) memory. The input form is sniffed from the file content. The output
// is written beside outPath and renamed into place once complete
// (trace.WriteAtomic), so outPath may be inPath, a conversion that fails
// leaves whatever outPath held, and no reader ever sees a .utr still
// carrying its placeholder header.
func ConvertTraceFile(inPath, outPath, format string) (int, error) {
	in, err := os.Open(inPath)
	if err != nil {
		return 0, fmt.Errorf("workload: %w", err)
	}
	defer in.Close()
	var n int
	var convErr error
	err = trace.WriteAtomic(outPath, func(w io.Writer) error {
		// The temporary file is private to its owner; a trace gets the mode
		// os.Create would have given it.
		if err := w.(*os.File).Chmod(0o644); err != nil {
			return err
		}
		n, convErr = ConvertTrace(in, w, format)
		return convErr
	})
	if convErr != nil {
		return 0, convErr
	}
	if err != nil {
		return 0, fmt.Errorf("workload: %w", err)
	}
	return n, nil
}

// OpenTrace returns the replay source of the block trace stored in ra (size
// bytes long), whichever form it is in. It tests the magic itself, where every
// other reader goes through NewOpReader, because the .utr form is not read
// here: it is validated and then decoded segment by segment straight from ra
// (NewUTRSource), which needs the io.ReaderAt. A CSV trace is parsed whole.
// label names the trace in reports, so one stream replayed from either form
// reports identically.
func OpenTrace(ra io.ReaderAt, size int64, label string) (Source, error) {
	head := make([]byte, len(trace.UTRMagic))
	n, err := ra.ReadAt(head, 0)
	if err != nil && !errors.Is(err, io.EOF) {
		return nil, fmt.Errorf("workload: %w", err)
	}
	if trace.IsUTR(head[:n]) {
		return NewUTRSource(ra, size, label)
	}
	ops, err := ReadOps(io.NewSectionReader(ra, 0, size))
	if err != nil {
		return nil, err
	}
	return OpsSource(TraceName(label), ops), nil
}

// TraceName labels a replayed trace in reports; label is typically the file
// name, and a stream replayed from either form is labelled the same.
func TraceName(label string) string {
	if label == "" {
		return "trace"
	}
	return "trace(" + label + ")"
}
