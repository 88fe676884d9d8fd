package trace

import (
	"bytes"
	"encoding/csv"
	"fmt"
	"io"
	"math"
	"reflect"
	"strconv"
	"testing"
	"time"

	"uflip/internal/stats"
)

// FuzzReadSummaryCSV checks that the summary-CSV parser never panics and
// that accepted input reaches a byte-stable canonical form after one
// write/read cycle (the first cycle may canonicalize float spellings and
// CSV line-ending normalizations; after that, write -> read -> write must be
// a fixed point).
func FuzzReadSummaryCSV(f *testing.F) {
	header := "id,device,micro,base,param,value,n,min_s,max_s,mean_s,stddev_s,total_s,faults,retries\n"
	for _, seed := range []string{
		header + "Granularity/SW/IOSize=32768,mtron,Granularity,SW,IOSize,32768,1024,0.0001,0.01,0.0005,0.0002,1.5,0,0\n",
		header + "a,b,c,d,e,0,0,0,0,0,0,0,0,0\n",
		header + "\"quo,ted\",b,c,d,e,1,2,NaN,+Inf,-0,1e-300,0.25,3,7\n",
		header,
		"wrong,header\n1,2\n",
		header + "a,b,c,d,e,notanint,0,0,0,0,0,0,0,0\n",
	} {
		f.Add([]byte(seed))
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		recs, err := readSummaryCSV(bytes.NewReader(data))
		if err != nil {
			return
		}
		var b1 bytes.Buffer
		if err := WriteSummaryCSV(&b1, recs); err != nil {
			t.Fatalf("write accepted records: %v", err)
		}
		recs2, err := readSummaryCSV(bytes.NewReader(b1.Bytes()))
		if err != nil {
			t.Fatalf("reread written summary: %v", err)
		}
		var b2 bytes.Buffer
		if err := WriteSummaryCSV(&b2, recs2); err != nil {
			t.Fatal(err)
		}
		recs3, err := readSummaryCSV(bytes.NewReader(b2.Bytes()))
		if err != nil {
			t.Fatalf("reread canonical summary: %v", err)
		}
		var b3 bytes.Buffer
		if err := WriteSummaryCSV(&b3, recs3); err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(b2.Bytes(), b3.Bytes()) {
			t.Fatal("summary CSV does not reach a byte-stable canonical form")
		}
	})
}

// FuzzReadRTSeriesCSV checks that the per-IO series parser never panics and
// that accepted series round-trip losslessly: the MaxRTSeconds bound makes
// the seconds float round trip provably exact, so one write/read cycle is
// already the identity.
func FuzzReadRTSeriesCSV(f *testing.F) {
	for _, seed := range []string{
		"io,rt_s\n0,0.0001\n1,0.01\n",
		"io,rt_s\n",
		"io,rt_s\n0,NaN\n",
		"io,rt_s\n0,-1\n",
		"io,rt_s\n0,1e300\n",
		"io,rt_ms\n0,1\n",
		"io,rt_s\n0,5.5e5\n",
	} {
		f.Add([]byte(seed))
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		rts, err := readRTSeriesCSV(bytes.NewReader(data))
		if err != nil {
			return
		}
		for i, rt := range rts {
			if rt < 0 {
				t.Fatalf("accepted negative response time at row %d: %v", i, rt)
			}
		}
		var b1 bytes.Buffer
		if err := WriteRTSeriesCSV(&b1, rts); err != nil {
			t.Fatalf("write accepted series: %v", err)
		}
		rts2, err := readRTSeriesCSV(bytes.NewReader(b1.Bytes()))
		if err != nil {
			t.Fatalf("reread written series: %v", err)
		}
		if !reflect.DeepEqual(rts, rts2) {
			t.Fatal("RT series round trip drifts")
		}
		var b2 bytes.Buffer
		if err := WriteRTSeriesCSV(&b2, rts2); err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(b1.Bytes(), b2.Bytes()) {
			t.Fatal("written RT series is not byte-stable")
		}
	})
}

// readSummaryCSV parses the output of WriteSummaryCSV back into summary-only
// records (the per-IO series is not part of the summary CSV). It is the
// oracle of the writer's losslessness; no program reads a summary CSV back.
func readSummaryCSV(r io.Reader) ([]RunRecord, error) {
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

// readRTSeriesCSV parses the output of WriteRTSeriesCSV back into durations,
// rounding each value to the nearest nanosecond. Values must be finite,
// non-negative and at most MaxRTSeconds.
func readRTSeriesCSV(r io.Reader) ([]time.Duration, error) {
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

// writeSummaryCSVEncoding is WriteSummaryCSV as it was written over
// encoding/csv, kept as the oracle of the bytes the appending writer gives.
func writeSummaryCSVEncoding(w io.Writer, records []RunRecord) error {
	cw := csv.NewWriter(w)
	if err := cw.Write(summaryHeader); err != nil {
		return err
	}
	g := func(v float64) string { return strconv.FormatFloat(v, 'g', -1, 64) }
	for _, r := range records {
		if err := cw.Write([]string{
			r.ID, r.Device, r.Micro, r.Base, r.Param,
			strconv.FormatInt(r.Value, 10), strconv.FormatInt(r.Summary.N, 10),
			g(r.Summary.Min), g(r.Summary.Max), g(r.Summary.Mean), g(r.Summary.StdDev), g(r.TotalSeconds),
			strconv.FormatInt(r.Faults, 10), strconv.FormatInt(r.Retries, 10),
		}); err != nil {
			return err
		}
	}
	cw.Flush()
	return cw.Error()
}

// onlyWriter hides every method of its writer but Write.
type onlyWriter struct{ w io.Writer }

func (o onlyWriter) Write(p []byte) (int, error) { return o.w.Write(p) }

// FuzzSummaryCSVMatchesEncodingCSV: for any records, WriteSummaryCSV gives
// the bytes encoding/csv gives, into a writer that lends its buffer and into
// one that does not (rows enough to flush its own buffer more than once).
func FuzzSummaryCSVMatchesEncodingCSV(f *testing.F) {
	f.Add("Granularity/SW/IOSize=32768", "faulty(stripe(2,mtron,mtron),seed=1)", "Granularity", "SW", "IOSize", int64(32768), int64(1024), 1e-4, 0.01, 5e-4, 2e-4, 1.5, int64(0), int64(0), uint8(1))
	f.Add(`say "hi"`, "line\nbreak", "cr\rhere", " leading", "", int64(-1), int64(0), math.NaN(), math.Inf(1), math.Copysign(0, -1), 1e-300, 0.25, int64(3), int64(7), uint8(80))
	f.Add(`\.`, "\t", " nbsp", `"`, ",", int64(math.MaxInt64), int64(math.MinInt64), math.Inf(-1), 1e21, 123456.789, 5e-324, 1e308, int64(-5), int64(9), uint8(3))
	f.Fuzz(func(t *testing.T, id, dev, micro, base, param string, value, n int64, lo, hi, mean, sd, total float64, faults, retries int64, rows uint8) {
		rec := RunRecord{ID: id, Device: dev, Micro: micro, Base: base, Param: param, Value: value,
			Summary:      stats.Summary{N: n, Min: lo, Max: hi, Mean: mean, StdDev: sd},
			TotalSeconds: total, Faults: faults, Retries: retries}
		records := make([]RunRecord, int(rows)%100)
		for i := range records {
			records[i] = rec
			records[i].ID += strconv.Itoa(i)
		}
		var want bytes.Buffer
		if err := writeSummaryCSVEncoding(&want, records); err != nil {
			t.Fatal(err)
		}
		lent, own := new(bytes.Buffer), new(bytes.Buffer)
		for _, w := range []io.Writer{lent, onlyWriter{own}} {
			if err := WriteSummaryCSV(w, records); err != nil {
				t.Fatal(err)
			}
		}
		for _, got := range []*bytes.Buffer{lent, own} {
			if !bytes.Equal(got.Bytes(), want.Bytes()) {
				t.Fatalf("WriteSummaryCSV wrote\n%q\nencoding/csv\n%q", got.Bytes(), want.Bytes())
			}
		}
	})
}
