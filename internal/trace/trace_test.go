package trace

import (
	"bytes"
	"fmt"
	"math/rand"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"uflip/internal/stats"
)

func sampleRecords() []RunRecord {
	r1 := RunRecord{
		ID: "Granularity/SW/IOSize=32768", Device: "memoright",
		Micro: "Granularity", Base: "SW", Param: "IOSize", Value: 32768,
		IOIgnore:     16,
		Summary:      stats.Summary{N: 100, Min: 0.0003, Max: 0.01, Mean: 0.0005, StdDev: 0.0001},
		TotalSeconds: 1.5,
	}
	r1.RTs = RTSeries{time.Millisecond, 2 * time.Millisecond}
	r2 := RunRecord{ID: "baseline/RR", Device: "mtron", Summary: stats.Summary{N: 5, Mean: 0.001}}
	return []RunRecord{r1, r2}
}

func TestJSONRoundTrip(t *testing.T) {
	records := sampleRecords()
	var buf bytes.Buffer
	if err := WriteJSON(&buf, records); err != nil {
		t.Fatal(err)
	}
	got, err := ReadJSON(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != 2 {
		t.Fatalf("round trip lost records: %d", len(got))
	}
	if got[0].ID != records[0].ID || got[0].Value != 32768 || got[0].Summary != records[0].Summary {
		t.Fatalf("record mismatch: %+v", got[0])
	}
	rts := got[0].ResponseTimes()
	if len(rts) != 2 || rts[0] != time.Millisecond || rts[1] != 2*time.Millisecond {
		t.Fatalf("response times %v", rts)
	}
	if len(got[1].RTs) != 0 {
		t.Fatal("summary-only record grew a series")
	}
}

func TestSaveLoadJSON(t *testing.T) {
	path := filepath.Join(t.TempDir(), "sub", "results.jsonl")
	if err := SaveJSON(path, sampleRecords()); err != nil {
		t.Fatal(err)
	}
	got, err := LoadJSON(path)
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != 2 {
		t.Fatalf("loaded %d records", len(got))
	}
	if _, err := LoadJSON(filepath.Join(t.TempDir(), "missing.jsonl")); err == nil {
		t.Fatal("missing file loaded")
	}
}

func TestSummaryCSV(t *testing.T) {
	var buf bytes.Buffer
	if err := WriteSummaryCSV(&buf, sampleRecords()); err != nil {
		t.Fatal(err)
	}
	lines := strings.Split(strings.TrimSpace(buf.String()), "\n")
	if len(lines) != 3 {
		t.Fatalf("CSV has %d lines, want header + 2", len(lines))
	}
	if !strings.HasPrefix(lines[0], "id,device,micro") {
		t.Fatalf("header = %q", lines[0])
	}
	// Times are stored in seconds at full precision.
	if !strings.Contains(lines[1], ",0.0005,") {
		t.Fatalf("mean not stored losslessly in seconds: %q", lines[1])
	}
}

func TestRTSeriesCSV(t *testing.T) {
	var buf bytes.Buffer
	if err := WriteRTSeriesCSV(&buf, []time.Duration{time.Millisecond, 250 * time.Microsecond}); err != nil {
		t.Fatal(err)
	}
	lines := strings.Split(strings.TrimSpace(buf.String()), "\n")
	if len(lines) != 3 {
		t.Fatalf("series CSV lines = %d", len(lines))
	}
	if lines[1] != "0,0.001" || lines[2] != "1,0.00025" {
		t.Fatalf("series rows: %v", lines[1:])
	}
}

// TestResponseTimesRoundTrip pins the identity of a series through JSON:
// the seconds written must round (not truncate) back to the original
// nanosecond durations, and a second write must be byte-identical.
func TestResponseTimesRoundTrip(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	rts := []time.Duration{
		1, 7, 999, // sub-microsecond corner cases
		time.Microsecond + 1,
		333 * time.Microsecond,
		time.Millisecond,
		27*time.Millisecond + 123456,
		time.Second + 1,
		90 * time.Minute,
		time.Duration(MaxRTSeconds * 1e9),
	}
	for i := 0; i < 1000; i++ {
		rts = append(rts, time.Duration(rng.Int63n(int64(2*time.Hour))))
	}
	var rec RunRecord
	rec.RTs = rts
	var first bytes.Buffer
	if err := WriteJSON(&first, []RunRecord{rec}); err != nil {
		t.Fatal(err)
	}
	back, err := ReadJSON(bytes.NewReader(first.Bytes()))
	if err != nil {
		t.Fatal(err)
	}
	got := back[0].ResponseTimes()
	if len(got) != len(rts) {
		t.Fatalf("round trip changed length: %d -> %d", len(rts), len(got))
	}
	for i := range rts {
		if got[i] != rts[i] {
			t.Fatalf("rt %d drifted: %v -> %v (%+d ns)", i, rts[i], got[i], got[i]-rts[i])
		}
	}
	var second bytes.Buffer
	if err := WriteJSON(&second, back); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(first.Bytes(), second.Bytes()) {
		t.Fatal("JSON write -> read -> write is not byte-stable")
	}
}

// TestSummaryCSVRoundTrip verifies write -> read recovers the exact floats
// and that a second write is byte-identical to the first (fuzz-style over
// random values).
func TestSummaryCSVRoundTrip(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	records := sampleRecords()
	for i := 0; i < 200; i++ {
		records = append(records, RunRecord{
			ID:     fmt.Sprintf("fuzz/%d", i),
			Device: "memoright",
			Value:  rng.Int63n(1 << 20),
			Summary: stats.Summary{
				N:      rng.Int63n(1 << 20),
				Min:    rng.Float64() * 1e-3,
				Max:    rng.Float64() * 10,
				Mean:   rng.ExpFloat64() * 1e-3,
				StdDev: rng.Float64(),
			},
			TotalSeconds: rng.Float64() * 1e4,
		})
	}
	var first bytes.Buffer
	if err := WriteSummaryCSV(&first, records); err != nil {
		t.Fatal(err)
	}
	got, err := readSummaryCSV(bytes.NewReader(first.Bytes()))
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != len(records) {
		t.Fatalf("read %d records, wrote %d", len(got), len(records))
	}
	for i := range records {
		if got[i].Summary != records[i].Summary || got[i].TotalSeconds != records[i].TotalSeconds {
			t.Fatalf("record %d floats drifted:\nwrote %+v total=%v\nread  %+v total=%v",
				i, records[i].Summary, records[i].TotalSeconds, got[i].Summary, got[i].TotalSeconds)
		}
	}
	var second bytes.Buffer
	if err := WriteSummaryCSV(&second, got); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(first.Bytes(), second.Bytes()) {
		t.Fatal("write -> read -> write is not byte-stable")
	}
}

// TestReadCSVRejectsLegacyHeaders pins that files written by the old
// millisecond-column format are rejected loudly instead of being parsed as
// seconds (a silent 1000x unit error).
func TestReadCSVRejectsLegacyHeaders(t *testing.T) {
	legacySummary := "id,device,micro,base,param,value,n,min_ms,max_ms,mean_ms,stddev_ms,total_s\n" +
		"x,memoright,,,,0,1,0.5,0.5,0.5,0,1.0\n"
	if _, err := readSummaryCSV(strings.NewReader(legacySummary)); err == nil {
		t.Fatal("legacy ms summary CSV accepted")
	}
	legacySeries := "io,rt_ms\n0,0.5\n"
	if _, err := readRTSeriesCSV(strings.NewReader(legacySeries)); err == nil {
		t.Fatal("legacy ms RT series CSV accepted")
	}
}

// TestRTSeriesCSVRoundTrip does the same for the per-IO series CSV.
func TestRTSeriesCSVRoundTrip(t *testing.T) {
	rng := rand.New(rand.NewSource(13))
	rts := make([]time.Duration, 2000)
	for i := range rts {
		rts[i] = time.Duration(rng.Int63n(int64(time.Minute)))
	}
	var first bytes.Buffer
	if err := WriteRTSeriesCSV(&first, rts); err != nil {
		t.Fatal(err)
	}
	got, err := readRTSeriesCSV(bytes.NewReader(first.Bytes()))
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != len(rts) {
		t.Fatalf("read %d samples, wrote %d", len(got), len(rts))
	}
	for i := range rts {
		if got[i] != rts[i] {
			t.Fatalf("sample %d drifted: %v -> %v", i, rts[i], got[i])
		}
	}
	var second bytes.Buffer
	if err := WriteRTSeriesCSV(&second, got); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(first.Bytes(), second.Bytes()) {
		t.Fatal("RT series write -> read -> write is not byte-stable")
	}
}

func TestReadJSONMalformed(t *testing.T) {
	if _, err := ReadJSON(strings.NewReader("{not json")); err == nil {
		t.Fatal("malformed JSON accepted")
	}
	// A response time is read as in an RT-series CSV: in [0, MaxRTSeconds].
	for _, rts := range []string{`[-0.001]`, `[1e300]`, `[0.001,"x"]`} {
		if _, err := ReadJSON(strings.NewReader(`{"id":"x","device":"d","rts":` + rts + "}\n")); err == nil {
			t.Errorf("rts %s accepted", rts)
		}
	}
}
