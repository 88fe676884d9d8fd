// Package trace records uFLIP benchmark results — per-IO response times and
// per-run summaries — and round-trips them through JSON and CSV, the formats
// the paper's FlashIO tool and the uflip.org result repository use.
package trace

import (
	"bytes"
	"encoding/csv"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"os"
	"path/filepath"
	"strconv"
	"time"

	"uflip/internal/stats"
)

// RunRecord is the serializable form of one benchmark run.
type RunRecord struct {
	// ID is the experiment identifier (e.g. "Granularity/SW/IOSize=32768").
	ID string `json:"id"`
	// Device names the device measured.
	Device string `json:"device"`
	// Micro, Base, Param and Value echo the experiment definition.
	Micro string `json:"micro,omitempty"`
	Base  string `json:"base,omitempty"`
	Param string `json:"param,omitempty"`
	Value int64  `json:"value,omitempty"`
	// IOIgnore is the warm-up prefix excluded from Summary.
	IOIgnore int `json:"io_ignore"`
	// Summary covers the running phase.
	Summary stats.Summary `json:"summary"`
	// TotalSeconds is the end-to-end run duration.
	TotalSeconds float64 `json:"total_seconds"`
	// Faults and Retries count the device faults observed during the run
	// and the resubmissions spent recovering from them (zero on a healthy
	// device).
	Faults  int64 `json:"faults,omitempty"`
	Retries int64 `json:"retries,omitempty"`
	// RTs holds per-IO response times in seconds (optional: summaries
	// alone are much smaller).
	RTs []float64 `json:"rts,omitempty"`
}

// ResponseTimes converts the stored per-IO series back to durations. The
// stored seconds are rounded (not truncated) to the nearest nanosecond so a
// duration survives SetResponseTimes -> ResponseTimes unchanged.
func (r *RunRecord) ResponseTimes() []time.Duration {
	out := make([]time.Duration, len(r.RTs))
	for i, s := range r.RTs {
		out[i] = time.Duration(math.Round(s * float64(time.Second)))
	}
	return out
}

// SetResponseTimes stores a per-IO series.
func (r *RunRecord) SetResponseTimes(rts []time.Duration) {
	r.RTs = make([]float64, len(rts))
	for i, d := range rts {
		r.RTs[i] = d.Seconds()
	}
}

// WriteJSON writes records as newline-delimited JSON, byte-identical to
// encoding/json's rendering of each RunRecord. Everything but the per-IO
// series goes through encoding/json; the series, a million floats on a long
// replay, is appended by appendJSONFloat with no reflection and no shortest-
// float search for the whole-nanosecond values it holds. On error the output
// written so far is incomplete.
func WriteJSON(w io.Writer, records []RunRecord) error {
	const flushAt = 60 << 10
	buf := make([]byte, 0, 64<<10)
	flush := func() error {
		_, err := w.Write(buf)
		buf = buf[:0]
		return err
	}
	var head bytes.Buffer
	enc := json.NewEncoder(&head)
	var rec RunRecord
	for i := range records {
		rec = records[i]
		rts := rec.RTs
		rec.RTs = nil
		head.Reset()
		if err := enc.Encode(&rec); err != nil {
			return fmt.Errorf("trace: encode record %d: %w", i, err)
		}
		line := head.Bytes()
		if len(rts) > 0 {
			// "rts" is the record's last field: reopen the object the
			// encoder closed with "}\n" and append the array to it.
			buf = append(buf, line[:len(line)-2]...)
			buf = append(buf, `,"rts":[`...)
			for k, v := range rts {
				if k > 0 {
					buf = append(buf, ',')
				}
				var err error
				if buf, err = appendJSONFloat(buf, v); err != nil {
					return fmt.Errorf("trace: encode record %d: %w", i, err)
				}
				if len(buf) >= flushAt {
					if err := flush(); err != nil {
						return err
					}
				}
			}
			line = []byte("]}\n")
		}
		buf = append(buf, line...)
		if len(buf) >= flushAt {
			if err := flush(); err != nil {
				return err
			}
		}
	}
	return flush()
}

// appendJSONFloat appends v exactly as encoding/json encodes a float64:
// the shortest decimal that parses back to v, in 'f' form, or in 'e' form
// with a trimmed exponent below 1e-6 and from 1e21; NaN and the infinities
// return json's UnsupportedValueError.
//
// Response times are Duration.Seconds() values — whole nanoseconds over 1e9
// — and for those the digits come from the integer. With ns the integer
// nearest v×1e9, below 1e15, float64(ns)/1e9 == v says the decimal ns×10⁻⁹
// rounds to v; it has at most 15 significant digits, and no two decimals
// that short share a float64 (10¹⁵ < 2⁵²), so it is the only one within v's
// rounding interval and therefore the shortest — what strconv's search
// would have found.
func appendJSONFloat(b []byte, v float64) ([]byte, error) {
	const digitPairs = "00010203040506070809" + "10111213141516171819" +
		"20212223242526272829" + "30313233343536373839" + "40414243444546474849" +
		"50515253545556575859" + "60616263646566676869" + "70717273747576777879" +
		"80818283848586878889" + "90919293949596979899"
	if v >= 1e-6 && v < 1e6 {
		if ns := uint64(float64(v*1e9) + 0.5); float64(ns)/1e9 == v { // the product rounded, never fused
			whole, frac := ns/1e9, uint32(ns%1e9)
			if whole < 10 {
				b = append(b, byte('0'+whole))
			} else {
				b = strconv.AppendUint(b, whole, 10)
			}
			if frac == 0 {
				return b, nil
			}
			// ".fffffffff", two digits at a time from the right, then
			// without its trailing zeros.
			d := [10]byte{0: '.'}
			for i := 8; i > 0; i -= 2 {
				pair := frac % 100 * 2
				d[i], d[i+1] = digitPairs[pair], digitPairs[pair+1]
				frac /= 100
			}
			d[1] = byte('0' + frac)
			b = append(b, d[:]...)
			n := len(b)
			for b[n-1] == '0' {
				n--
			}
			return b[:n], nil
		}
	}
	if math.IsInf(v, 0) || math.IsNaN(v) {
		_, err := json.Marshal(v)
		return b, err
	}
	format := byte('f')
	if abs := math.Abs(v); abs != 0 && (abs < 1e-6 || abs >= 1e21) {
		format = 'e'
	}
	b = strconv.AppendFloat(b, v, format, -1, 64)
	if n := len(b); format == 'e' && n >= 4 && b[n-4] == 'e' && b[n-3] == '-' && b[n-2] == '0' {
		// e-09 to e-9, as json cleans it up
		b[n-2] = b[n-1]
		b = b[:n-1]
	}
	return b, nil
}

// ReadJSON reads newline-delimited JSON records.
func ReadJSON(r io.Reader) ([]RunRecord, error) {
	dec := json.NewDecoder(r)
	var out []RunRecord
	for {
		var rec RunRecord
		if err := dec.Decode(&rec); err == io.EOF {
			return out, nil
		} else if err != nil {
			return nil, fmt.Errorf("trace: decode record %d: %w", len(out), err)
		}
		out = append(out, rec)
	}
}

// Create opens path for writing like os.Create but first creates any missing
// parent directories, so result files can land in fresh output trees without
// the caller pre-creating them.
func Create(path string) (*os.File, error) {
	if dir := filepath.Dir(path); dir != "." && dir != "" {
		if err := os.MkdirAll(dir, 0o755); err != nil {
			return nil, err
		}
	}
	return os.Create(path)
}

// WriteAtomic writes a file with the crash discipline durable artifacts
// need: write streams the content into a temporary file (.tmp-*) in the
// destination directory, which is fsynced to stable storage and only then
// renamed into place. A reader therefore observes either the previous content
// or the complete new content — never a torn write; if write fails or panics,
// or a later step fails, the temporary file is removed and path is untouched,
// and a crash leaves at worst a stray temporary file. Missing parent
// directories are created. The writer handed to write is the temporary
// *os.File itself (mode 0600), so a format that patches its header can seek.
func WriteAtomic(path string, write func(io.Writer) error) error {
	dir := filepath.Dir(path)
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	tmp, err := os.CreateTemp(dir, ".tmp-*")
	if err != nil {
		return err
	}
	// No-ops after the rename; the clean-up on every error and on a panic.
	defer os.Remove(tmp.Name())
	defer tmp.Close()
	if err := write(tmp); err != nil {
		return err
	}
	if err := tmp.Sync(); err != nil {
		return err
	}
	if err := tmp.Close(); err != nil {
		return err
	}
	return os.Rename(tmp.Name(), path)
}

// WriteFileAtomic is WriteAtomic for content already in memory.
func WriteFileAtomic(path string, data []byte) error {
	return WriteAtomic(path, func(w io.Writer) error {
		_, err := w.Write(data)
		return err
	})
}

// SaveJSON writes records to a file, creating parent directories; a write
// error that only surfaces at close is returned.
func SaveJSON(path string, records []RunRecord) error {
	f, err := Create(path)
	if err != nil {
		return fmt.Errorf("trace: %w", err)
	}
	if err := WriteJSON(f, records); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// LoadJSON reads records from a file.
func LoadJSON(path string) ([]RunRecord, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, fmt.Errorf("trace: %w", err)
	}
	defer f.Close()
	return ReadJSON(f)
}

// lossless formats a float so that parsing the text back yields the exact
// same float64: the shortest decimal representation that round-trips.
// Fixed-precision formatting (the previous 'f'/4 format) dropped digits, so
// a write -> read -> write cycle drifted the stored times.
func lossless(v float64) string { return strconv.FormatFloat(v, 'g', -1, 64) }

// summaryHeader is the column layout of the summary CSV. Times are stored in
// seconds at full precision; multiply by 1e3 for the milliseconds the paper
// reports.
var summaryHeader = []string{"id", "device", "micro", "base", "param", "value", "n", "min_s", "max_s", "mean_s", "stddev_s", "total_s", "faults", "retries"}

// WriteSummaryCSV writes one row per run: id, device, micro, base, param,
// value, n, min, max, mean, stddev, total (times in seconds, formatted
// losslessly so write -> read -> write is byte-stable), faults, retries.
func WriteSummaryCSV(w io.Writer, records []RunRecord) error {
	cw := csv.NewWriter(w)
	if err := cw.Write(summaryHeader); err != nil {
		return fmt.Errorf("trace: %w", err)
	}
	for i := range records {
		r := &records[i]
		row := []string{
			r.ID, r.Device, r.Micro, r.Base, r.Param,
			strconv.FormatInt(r.Value, 10),
			strconv.FormatInt(r.Summary.N, 10),
			lossless(r.Summary.Min), lossless(r.Summary.Max), lossless(r.Summary.Mean), lossless(r.Summary.StdDev),
			lossless(r.TotalSeconds),
			strconv.FormatInt(r.Faults, 10),
			strconv.FormatInt(r.Retries, 10),
		}
		if err := cw.Write(row); err != nil {
			return fmt.Errorf("trace: %w", err)
		}
	}
	cw.Flush()
	return cw.Error()
}

// ReadSummaryCSV parses the output of WriteSummaryCSV back into summary-only
// records (the per-IO series is not part of the summary CSV).
func ReadSummaryCSV(r io.Reader) ([]RunRecord, error) {
	cr := csv.NewReader(r)
	rows, err := cr.ReadAll()
	if err != nil {
		return nil, fmt.Errorf("trace: %w", err)
	}
	if len(rows) == 0 {
		return nil, fmt.Errorf("trace: summary CSV is empty")
	}
	// The full header must match: older files stored milliseconds under
	// *_ms columns, and accepting them here would silently misread every
	// time by a factor of 1000.
	if len(rows[0]) != len(summaryHeader) {
		return nil, fmt.Errorf("trace: unexpected summary CSV header %v", rows[0])
	}
	for i, h := range summaryHeader {
		if rows[0][i] != h {
			return nil, fmt.Errorf("trace: unexpected summary CSV header %v (column %d is %q, want %q)", rows[0], i, rows[0][i], h)
		}
	}
	out := make([]RunRecord, 0, len(rows)-1)
	for i, row := range rows[1:] {
		if len(row) != len(summaryHeader) {
			return nil, fmt.Errorf("trace: summary row %d has %d columns, want %d", i+1, len(row), len(summaryHeader))
		}
		var rec RunRecord
		rec.ID, rec.Device, rec.Micro, rec.Base, rec.Param = row[0], row[1], row[2], row[3], row[4]
		fields := []struct {
			name string
			text string
			dst  *float64
		}{
			{"min_s", row[7], &rec.Summary.Min},
			{"max_s", row[8], &rec.Summary.Max},
			{"mean_s", row[9], &rec.Summary.Mean},
			{"stddev_s", row[10], &rec.Summary.StdDev},
			{"total_s", row[11], &rec.TotalSeconds},
		}
		if rec.Value, err = strconv.ParseInt(row[5], 10, 64); err != nil {
			return nil, fmt.Errorf("trace: summary row %d value: %w", i+1, err)
		}
		if rec.Summary.N, err = strconv.ParseInt(row[6], 10, 64); err != nil {
			return nil, fmt.Errorf("trace: summary row %d n: %w", i+1, err)
		}
		if rec.Faults, err = strconv.ParseInt(row[12], 10, 64); err != nil {
			return nil, fmt.Errorf("trace: summary row %d faults: %w", i+1, err)
		}
		if rec.Retries, err = strconv.ParseInt(row[13], 10, 64); err != nil {
			return nil, fmt.Errorf("trace: summary row %d retries: %w", i+1, err)
		}
		for _, f := range fields {
			if *f.dst, err = strconv.ParseFloat(f.text, 64); err != nil {
				return nil, fmt.Errorf("trace: summary row %d %s: %w", i+1, f.name, err)
			}
		}
		out = append(out, rec)
	}
	return out, nil
}

// WriteRTSeriesCSV writes a per-IO series: io_number, rt_s — the raw data
// behind Figures 3, 4 and 5, in seconds at full precision.
func WriteRTSeriesCSV(w io.Writer, rts []time.Duration) error {
	cw := csv.NewWriter(w)
	if err := cw.Write([]string{"io", "rt_s"}); err != nil {
		return fmt.Errorf("trace: %w", err)
	}
	for i, rt := range rts {
		if err := cw.Write([]string{strconv.Itoa(i), lossless(rt.Seconds())}); err != nil {
			return fmt.Errorf("trace: %w", err)
		}
	}
	cw.Flush()
	return cw.Error()
}

// MaxRTSeconds bounds the response time an RT-series row may carry
// (~6.5 days). Beyond it the seconds-to-nanoseconds float round trip can
// drift, which would break the byte-stability guarantee; a larger per-IO
// response time in a benchmark result is nonsense anyway.
const MaxRTSeconds = float64(int64(1)<<49) / 1e9

// ReadRTSeriesCSV parses the output of WriteRTSeriesCSV back into durations,
// rounding each value to the nearest nanosecond. Values must be finite,
// non-negative and at most MaxRTSeconds.
func ReadRTSeriesCSV(r io.Reader) ([]time.Duration, error) {
	cr := csv.NewReader(r)
	rows, err := cr.ReadAll()
	if err != nil {
		return nil, fmt.Errorf("trace: %w", err)
	}
	// Require the exact header: an older io,rt_ms file read as seconds
	// would inflate every duration by a factor of 1000.
	if len(rows) == 0 {
		return nil, fmt.Errorf("trace: RT series CSV is empty")
	}
	if len(rows[0]) != 2 || rows[0][0] != "io" || rows[0][1] != "rt_s" {
		return nil, fmt.Errorf("trace: unexpected RT series CSV header %v (want io,rt_s)", rows[0])
	}
	out := make([]time.Duration, 0, len(rows)-1)
	for i, row := range rows[1:] {
		s, err := strconv.ParseFloat(row[1], 64)
		if err != nil {
			return nil, fmt.Errorf("trace: RT series row %d: %w", i+1, err)
		}
		if math.IsNaN(s) || s < 0 || s > MaxRTSeconds {
			return nil, fmt.Errorf("trace: RT series row %d: %v outside [0, %v]", i+1, s, MaxRTSeconds)
		}
		out = append(out, time.Duration(math.Round(s*float64(time.Second))))
	}
	return out, nil
}
