package workload

import (
	"encoding/csv"
	"errors"
	"fmt"
	"io"
	"math"
	"os"
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
// The binary .utr form of the same stream lives in utr.go; the two formats
// convert losslessly in both directions.

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
	cw  *csv.Writer
	row [4]string
}

// NewTraceWriter writes the canonical header row and returns a writer.
func NewTraceWriter(w io.Writer) (*TraceWriter, error) {
	cw := csv.NewWriter(w)
	if err := cw.Write(traceHeader); err != nil {
		return nil, fmt.Errorf("workload: %w", err)
	}
	return &TraceWriter{cw: cw}, nil
}

// Write appends one op as a CSV row.
func (tw *TraceWriter) Write(op Op) error {
	tw.row[0] = strconv.FormatInt(op.IO.Off, 10)
	tw.row[1] = strconv.FormatInt(op.IO.Size, 10)
	tw.row[2] = op.IO.Mode.String()
	tw.row[3] = strconv.FormatFloat(float64(op.Gap)/1e3, 'g', -1, 64)
	if err := tw.cw.Write(tw.row[:]); err != nil {
		return fmt.Errorf("workload: %w", err)
	}
	return nil
}

// Flush drains buffered rows and reports any deferred write error.
func (tw *TraceWriter) Flush() error {
	tw.cw.Flush()
	if err := tw.cw.Error(); err != nil {
		return fmt.Errorf("workload: %w", err)
	}
	return nil
}

// WriteTrace writes ops in the block-trace CSV format.
func WriteTrace(w io.Writer, ops []Op) error {
	tw, err := NewTraceWriter(w)
	if err != nil {
		return err
	}
	for _, op := range ops {
		if err := tw.Write(op); err != nil {
			return err
		}
	}
	return tw.Flush()
}

// TraceScanner streams ops out of a block-trace CSV one row at a time at
// O(1) memory. Errors carry the actual 1-based file line (comments and the
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

// Count returns the number of ops scanned so far.
func (ts *TraceScanner) Count() int { return ts.count }

// Err returns the first error the scanner hit, or nil.
func (ts *TraceScanner) Err() error { return ts.err }

// ReadTrace parses a block-trace CSV into ops. The header row is optional,
// '#' lines are comments, and every data row is validated (non-negative
// offset and gap, positive size, R/W mode). Errors report the 1-based file
// line of the offending row.
func ReadTrace(r io.Reader) ([]Op, error) {
	ts := NewTraceScanner(r)
	var out []Op
	for ts.Scan() {
		out = append(out, ts.Op())
	}
	if err := ts.Err(); err != nil {
		return nil, err
	}
	if len(out) == 0 {
		return nil, fmt.Errorf("workload: trace holds no IOs")
	}
	return out, nil
}

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

// SaveTrace writes ops to a file, creating parent directories.
func SaveTrace(path string, ops []Op) error {
	f, err := trace.Create(path)
	if err != nil {
		return fmt.Errorf("workload: %w", err)
	}
	if err := WriteTrace(f, ops); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// LoadTrace reads a block-trace CSV from a file.
func LoadTrace(path string) ([]Op, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, fmt.Errorf("workload: %w", err)
	}
	defer f.Close()
	return ReadTrace(f)
}

// TraceFormatCSV and TraceFormatUTR name the two on-disk trace formats.
const (
	TraceFormatCSV = "csv"
	TraceFormatUTR = "utr"
)

// SniffTraceFormat classifies the first bytes of a trace stream by the .utr
// magic: anything else is treated as CSV (which has no magic of its own).
func SniffTraceFormat(head []byte) string {
	if trace.IsUTR(head) {
		return TraceFormatUTR
	}
	return TraceFormatCSV
}

// OpenTrace returns the replay source of the block trace stored in ra (size
// bytes long), whichever form it is in: the content is sniffed, a .utr trace
// is validated and then decoded segment by segment straight from ra
// (NewUTRSource), a CSV trace is parsed whole. label names the trace in
// reports, so one stream replayed from either form reports identically.
func OpenTrace(ra io.ReaderAt, size int64, label string) (Source, error) {
	head := make([]byte, len(trace.UTRMagic))
	n, err := ra.ReadAt(head, 0)
	if err != nil && !errors.Is(err, io.EOF) {
		return nil, fmt.Errorf("workload: %w", err)
	}
	if SniffTraceFormat(head[:n]) == TraceFormatUTR {
		return NewUTRSource(ra, size, label)
	}
	ops, err := ReadTrace(io.NewSectionReader(ra, 0, size))
	if err != nil {
		return nil, err
	}
	return OpsSource(Trace{Label: label}.Name(), ops), nil
}

// Trace adapts a parsed op stream to the Generator interface so replayed
// traces flow through the same reporting path as synthetic workloads.
type Trace struct {
	// Label names the trace in reports (e.g. the file name).
	Label string
	// Ops is the parsed stream.
	Ops []Op
}

// Name labels the workload.
func (t Trace) Name() string {
	if t.Label == "" {
		return "trace"
	}
	return "trace(" + t.Label + ")"
}

// Generate returns the parsed stream.
func (t Trace) Generate() ([]Op, error) {
	if len(t.Ops) == 0 {
		return nil, fmt.Errorf("workload: trace holds no IOs")
	}
	return t.Ops, nil
}
