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
	"runtime"
	"strconv"
	"sync"
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
	// RTs holds per-IO response times (optional: summaries alone are much
	// smaller).
	RTs RTSeries `json:"rts,omitempty"`
}

// RTSeries is a per-IO response-time series: durations in memory, as the
// executors measure them, and seconds in JSON. A record made from a run holds
// the run's own series, not a copy of it.
type RTSeries []time.Duration

// MarshalJSON writes the series as encoding/json writes the []float64 of its
// seconds.
func (s RTSeries) MarshalJSON() ([]byte, error) {
	b := appendRTs([]byte{'['}, s)
	if len(s) > 0 {
		b = b[:len(b)-1] // the comma after the last value
	}
	return append(b, ']'), nil
}

// UnmarshalJSON reads an array of seconds, rounding each to the nearest
// nanosecond — the inverse of MarshalJSON. As in an RT-series CSV, a value
// must lie in [0, MaxRTSeconds].
func (s *RTSeries) UnmarshalJSON(b []byte) error {
	var secs []float64
	if err := json.Unmarshal(b, &secs); err != nil {
		return err
	}
	if secs == nil {
		*s = nil
		return nil
	}
	out := make(RTSeries, len(secs))
	for i, v := range secs {
		if v < 0 || v > MaxRTSeconds {
			return fmt.Errorf("trace: response time %v outside [0, %v]", v, MaxRTSeconds)
		}
		out[i] = time.Duration(math.Round(v * float64(time.Second)))
	}
	*s = out
	return nil
}

// ResponseTimes returns the per-IO series.
func (r *RunRecord) ResponseTimes() []time.Duration { return r.RTs }

// A parallel WriteJSON encodes the series jsonChunkRTs values (about 25 KB
// of a replay's JSON) at a time, and only records holding jsonParallelRTs
// values in all: below that — a plan of two micro-benchmarks at -iocount
// 64 (200,704 values), a 20,000-op replay — the goroutines and their
// buffers would cost more than they save.
// maxRTBytes bounds one value appendRTs writes, comma included (a
// Duration's seconds spell to at most 19 bytes).
const (
	jsonChunkRTs    = 2048
	jsonParallelRTs = 1 << 18
	maxRTBytes      = 24
)

// WriteJSON writes records as newline-delimited JSON, byte-identical to
// encoding/json's rendering of each RunRecord. Everything but the per-IO
// series goes through encoding/json; the series, a million values on a long
// replay, is appended by appendRTs — the bytes RTSeries.MarshalJSON writes.
// From jsonParallelRTs values in all, and with GOMAXPROCS above one, the
// series are encoded in chunks on GOMAXPROCS goroutines, two buffers each,
// and written in stream order by the caller; otherwise no goroutine starts.
// The bytes do not depend on how many goroutines encode them. On the first
// error nothing more is written, no goroutine outlives the call, and the
// output written so far is incomplete.
func WriteJSON(w io.Writer, records []RunRecord) error {
	workers, total := runtime.GOMAXPROCS(0), 0
	for i := range records {
		total += len(records[i].RTs)
	}
	// Chunk k of the stream comes encoded on ready[k%workers], and its
	// buffer goes back on free[k%workers].
	var ready, free []chan []byte
	if workers > 1 && total >= jsonParallelRTs {
		ready, free = make([]chan []byte, workers), make([]chan []byte, workers)
		quit := make(chan struct{})
		var wg sync.WaitGroup
		for g := range workers {
			ready[g], free[g] = make(chan []byte, 2), make(chan []byte, 2)
			// 16 bytes a value is more than a replay's values average; a
			// buffer that needs more grows once, not per chunk.
			free[g] <- make([]byte, 0, 16*jsonChunkRTs)
			free[g] <- make([]byte, 0, 16*jsonChunkRTs)
			wg.Add(1)
			go func() {
				defer wg.Done()
				encodeChunks(records, g, workers, ready[g], free[g], quit)
			}()
		}
		defer wg.Wait()
		defer close(quit)
	}
	const flushAt = 60 << 10
	buf := make([]byte, 0, 64<<10)
	flush := func() error {
		if len(buf) == 0 {
			return nil
		}
		_, err := w.Write(buf)
		buf = buf[:0]
		return err
	}
	var head bytes.Buffer
	enc := json.NewEncoder(&head)
	var rec RunRecord
	chunk := 0
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
			// encoder closed with "}\n" and append the array to it. Every
			// value comes with a comma after it; the last one is dropped.
			buf = append(buf, line[:len(line)-2]...)
			buf = append(buf, `,"rts":[`...)
			for ; ready != nil && len(rts) > 0; chunk++ {
				b := <-ready[chunk%workers]
				if rts = rts[min(len(rts), jsonChunkRTs):]; len(rts) == 0 {
					b = b[:len(b)-1]
				}
				if err := flush(); err != nil {
					return err
				}
				if _, err := w.Write(b); err != nil {
					return err
				}
				free[chunk%workers] <- b
			}
			for len(rts) > 0 {
				if len(buf) >= flushAt {
					if err := flush(); err != nil {
						return err
					}
				}
				n := min(len(rts), (cap(buf)-len(buf))/maxRTBytes)
				if buf, rts = appendRTs(buf, rts[:n]), rts[n:]; len(rts) == 0 {
					buf = buf[:len(buf)-1]
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

// encodeChunks is goroutine g of workers encoding the series of records:
// of the stream's chunks of jsonChunkRTs values, it encodes every one whose
// index is g modulo workers, in order, into a buffer from free, and sends it
// on ready. It returns after its last chunk, or once quit is closed.
func encodeChunks(records []RunRecord, g, workers int, ready chan<- []byte, free <-chan []byte, quit <-chan struct{}) {
	k := 0
	for i := range records {
		for rts := records[i].RTs; len(rts) > 0; k++ {
			n := min(len(rts), jsonChunkRTs)
			if k%workers == g {
				select {
				case b := <-free:
					ready <- appendRTs(b[:0], rts[:n]) // room for both buffers
				case <-quit:
					return
				}
			}
			rts = rts[n:]
		}
	}
}

// appendRTs is the series encoder: it appends every response time of rts
// to b as encoding/json spells its seconds, each followed by a comma.
//
//uflint:hotpath
func appendRTs(b []byte, rts []time.Duration) []byte {
	for _, d := range rts {
		b = append(appendRT(b, d), ',')
	}
	return b
}

// appendRT appends d.Seconds() as encoding/json spells it. From 1 µs (json's
// 'f' form) to 1 s, Seconds is the quotient d/1e9; to 10⁶ s, it often
// rounds to it too. Then the decimal d×10⁻⁹ rounds to the value, and having
// at most 15 significant digits (10¹⁵ < 2⁵²) it is the only decimal that
// short to do so: the shortest, printed from d's digits. The rest — values
// an ulp off the quotient, and everything out of range — take
// appendJSONFloat.
func appendRT(b []byte, d time.Duration) []byte {
	const digitPairs = "00010203040506070809" + "10111213141516171819" +
		"20212223242526272829" + "30313233343536373839" + "40414243444546474849" +
		"50515253545556575859" + "60616263646566676869" + "70717273747576777879" +
		"80818283848586878889" + "90919293949596979899"
	if d < 1e3 || d >= 1e15 || d >= 1e9 && float64(d)/1e9 != d.Seconds() {
		b, _ = appendJSONFloat(b, d.Seconds()) // finite: never an error
		return b
	}
	whole, frac := uint64(d/1e9), uint32(d%1e9)
	if whole < 10 {
		b = append(b, byte('0'+whole))
	} else {
		b = strconv.AppendUint(b, whole, 10)
	}
	if frac == 0 {
		return b
	}
	// ".fffffffff", two digits at a time from the right, written in place
	// (a fifth faster than filling an array and appending it), then without
	// its trailing zeros.
	b = append(b, ".fffffffff"...)
	n := len(b)
	f := b[n-10 : n : n]
	for i := 8; i > 0; i -= 2 {
		pair := frac % 100 * 2
		f[i], f[i+1] = digitPairs[pair], digitPairs[pair+1]
		frac /= 100
	}
	f[1] = byte('0' + frac)
	for b[n-1] == '0' {
		n--
	}
	return b[:n]
}

// appendJSONFloat appends v exactly as encoding/json encodes a float64:
// the shortest decimal that parses back to v, in 'f' form, or in 'e' form
// with a trimmed exponent below 1e-6 and from 1e21; NaN and the infinities
// return json's UnsupportedValueError.
func appendJSONFloat(b []byte, v float64) ([]byte, error) {
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
