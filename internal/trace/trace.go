// Package trace records uFLIP benchmark results — per-IO response times and
// per-run summaries — and round-trips them through JSON and CSV, the formats
// the paper's FlashIO tool and the uflip.org result repository use.
package trace

import (
	"encoding/csv"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"os"
	"path/filepath"
	"slices"
	"sort"
	"strconv"
	"strings"
	"time"
	"unicode"
	"unicode/utf8"

	"uflip/internal/par"
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
// seconds, into one allocation sized from len(s): every value appendRT
// spells from its digits takes at most 16 bytes, and a comma.
func (s RTSeries) MarshalJSON() ([]byte, error) {
	b := appendRTs(append(make([]byte, 0, 2+17*len(s)), '['), s)
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

// WriteJSON encodes the series jsonChunkRTs values (about 25 KB of a
// replay's JSON) at a time, and on more than one worker only for records
// holding jsonParallelRTs values in all: below that — a plan of two
// micro-benchmarks at -iocount 64 (200,704 values), a 20,000-op replay —
// the goroutines and their buffers would cost more than they save.
const (
	jsonChunkRTs    = 2048
	jsonParallelRTs = 1 << 18
)

// WriteJSON writes records as newline-delimited JSON, byte-identical to
// encoding/json's rendering of each RunRecord. Everything but the per-IO
// series goes through encoding/json; the series, a million values on a long
// replay, is appended by appendRTs — the bytes RTSeries.MarshalJSON writes.
// The stream is cut into chunks, a record's head with the first jsonChunkRTs
// values of its series, then jsonChunkRTs values at a time, which
// par.Ordered encodes into slots while the caller writes them in stream
// order: from jsonParallelRTs values in all on a worker per CPU, below that
// on the caller alone. The bytes do not depend on the worker count. On the
// first error nothing more is written, no goroutine outlives the call, and
// the output written so far is incomplete.
func WriteJSON(w io.Writer, records []RunRecord) error {
	// Record r's chunks are first[r] to first[r+1]-1 of the stream.
	first := make([]int, len(records)+1)
	total := 0
	for r := range records {
		n := len(records[r].RTs)
		first[r+1] = first[r] + max(1, (n+jsonChunkRTs-1)/jsonChunkRTs)
		total += n
	}
	// At one worker its one slot is also the output buffer, written out from
	// 40 KiB on; at more, two slots a worker, each written out when emitted.
	workers, flushAt, slots := 1, 40<<10, []jsonChunk{{buf: make([]byte, 0, 64<<10)}}
	if total >= jsonParallelRTs {
		workers, flushAt = par.Workers(0), 0
		slots = make([]jsonChunk, 2*workers)
	}
	err := par.Ordered(first[len(records)], workers, len(slots), func(s, k int) error {
		r := sort.Search(len(records), func(r int) bool { return first[r+1] > k })
		return slots[s].encode(records, r, (k-first[r])*jsonChunkRTs)
	}, func(s, _ int) error {
		return slots[s].flush(w, flushAt)
	})
	if err != nil {
		return err
	}
	return slots[0].flush(w, 1)
}

// jsonChunk is one chunk of WriteJSON's stream being encoded: its bytes, and
// the encoder and record copy that spell a record's head into them.
type jsonChunk struct {
	buf []byte
	enc *json.Encoder
	rec RunRecord
}

func (c *jsonChunk) Write(p []byte) (int, error) {
	c.buf = append(c.buf, p...)
	return len(p), nil
}

// flush writes the chunk's bytes to w and empties it, once it holds at
// least at bytes.
func (c *jsonChunk) flush(w io.Writer, at int) error {
	if len(c.buf) < at {
		return nil
	}
	_, err := w.Write(c.buf)
	c.buf = c.buf[:0]
	return err
}

// encode appends to c the chunk of records[r] whose values start at lo of
// its series, led by the record's head when lo is 0.
func (c *jsonChunk) encode(records []RunRecord, r, lo int) error {
	if c.enc == nil {
		// 16 bytes a value is more than a replay's values average; a
		// buffer that needs more grows once, not per chunk.
		c.enc, c.buf = json.NewEncoder(c), slices.Grow(c.buf, 16*jsonChunkRTs)
	}
	rts := records[r].RTs
	if lo == 0 {
		c.rec = records[r]
		c.rec.RTs = nil
		if err := c.enc.Encode(&c.rec); err != nil {
			return fmt.Errorf("trace: encode record %d: %w", r, err)
		}
		if len(rts) == 0 {
			return nil
		}
		// "rts" is the record's last field: reopen the object the encoder
		// closed with "}\n" and open the array in it.
		c.buf = append(c.buf[:len(c.buf)-2], `,"rts":[`...)
	}
	// Every value comes with a comma after it; the last one is dropped.
	if c.buf = appendRTs(c.buf, rts[lo:min(lo+jsonChunkRTs, len(rts))]); lo+jsonChunkRTs >= len(rts) {
		c.buf = append(c.buf[:len(c.buf)-1], "]}\n"...)
	}
	return nil
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
// losslessly so write -> read -> write is byte-stable), faults, retries — the
// bytes encoding/csv writes, appended to one buffer: w's own when w lends it
// (AvailableBuffer), so a kept bytes.Buffer makes no allocation, and written
// at once; else one of 5 KiB, written whenever it holds 4 KiB.
func WriteSummaryCSV(w io.Writer, records []RunRecord) error {
	var b []byte
	lender, _ := w.(interface{ AvailableBuffer() []byte })
	if lender != nil {
		b = lender.AvailableBuffer()
	} else {
		b = make([]byte, 0, 5<<10)
	}
	for k, h := range summaryHeader {
		if k > 0 {
			b = append(b, ',')
		}
		b = append(b, h...)
	}
	for i := range records {
		r := &records[i]
		b = appendCSVField(append(b, '\n'), r.ID)
		for _, f := range [...]string{r.Device, r.Micro, r.Base, r.Param} {
			b = appendCSVField(append(b, ','), f)
		}
		for _, v := range [...]int64{r.Value, r.Summary.N} {
			b = strconv.AppendInt(append(b, ','), v, 10)
		}
		for _, v := range [...]float64{r.Summary.Min, r.Summary.Max, r.Summary.Mean, r.Summary.StdDev, r.TotalSeconds} {
			b = strconv.AppendFloat(append(b, ','), v, 'g', -1, 64)
		}
		for _, v := range [...]int64{r.Faults, r.Retries} {
			b = strconv.AppendInt(append(b, ','), v, 10)
		}
		if lender == nil && len(b) >= 4<<10 {
			if _, err := w.Write(b); err != nil {
				return fmt.Errorf("trace: %w", err)
			}
			b = b[:0]
		}
	}
	if _, err := w.Write(append(b, '\n')); err != nil {
		return fmt.Errorf("trace: %w", err)
	}
	return nil
}

// appendCSVField appends f as csv.Writer writes a field: quoted, its quotes
// doubled, when it is `\.`, holds a comma, a quote, CR or LF, or starts with
// a space.
func appendCSVField(b []byte, f string) []byte {
	if r, _ := utf8.DecodeRuneInString(f); f != `\.` && !strings.ContainsAny(f, ",\"\r\n") && !unicode.IsSpace(r) {
		return append(b, f...)
	}
	return append(append(append(b, '"'), strings.ReplaceAll(f, `"`, `""`)...), '"')
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
