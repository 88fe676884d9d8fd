package trace

import (
	"bufio"
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"math/rand"
	"strings"
	"testing"
	"time"

	"uflip/internal/stats"
)

// floatRecord is a RunRecord with its series as the []float64 of its
// seconds, the form the format was first written in; its RTs hides the
// embedded one.
type floatRecord struct {
	RunRecord
	RTs []float64 `json:"rts,omitempty"`
}

// writeJSONReference is WriteJSON as it was before the per-IO series got its
// own float appender — every record, series included, through encoding/json
// as a floatRecord — kept as the oracle the differential tests below compare
// bytes against.
func writeJSONReference(w io.Writer, records []RunRecord) error {
	bw := bufio.NewWriter(w)
	enc := json.NewEncoder(bw)
	for i := range records {
		rec := floatRecord{RunRecord: records[i]}
		for _, d := range records[i].RTs {
			rec.RTs = append(rec.RTs, d.Seconds())
		}
		if err := enc.Encode(&rec); err != nil {
			return fmt.Errorf("trace: encode record %d: %w", i, err)
		}
	}
	return bw.Flush()
}

// sameLines fails the test, naming the first differing line, unless got is
// want.
func sameLines(t *testing.T, what string, got, want []byte) {
	t.Helper()
	if bytes.Equal(got, want) {
		return
	}
	gl, wl := strings.Split(string(got), "\n"), strings.Split(string(want), "\n")
	for i := range min(len(gl), len(wl)) {
		if gl[i] != wl[i] {
			t.Fatalf("%s: line %d differs from encoding/json:\n got %.300s\nwant %.300s", what, i, gl[i], wl[i])
		}
	}
	t.Fatalf("%s: %d lines, encoding/json writes %d", what, len(gl), len(wl))
}

// checkJSONFloat holds appendJSONFloat to encoding/json on one value: same
// bytes, or the same error.
func checkJSONFloat(t *testing.T, v float64) {
	t.Helper()
	want, wantErr := json.Marshal(v)
	got, gotErr := appendJSONFloat([]byte("x"), v)
	if wantErr != nil || gotErr != nil {
		if wantErr == nil || gotErr == nil || wantErr.Error() != gotErr.Error() {
			t.Fatalf("%v (bits %#x): error %v, encoding/json gives %v", v, math.Float64bits(v), gotErr, wantErr)
		}
		return
	}
	if string(got) != "x"+string(want) {
		t.Fatalf("%v (bits %#x): appended %q after \"x\", encoding/json gives %q", v, math.Float64bits(v), got, want)
	}
}

// checkJSONDuration checks the values a whole-nanosecond duration turns into
// on its way to a record: Duration.Seconds, and the plain quotient.
func checkJSONDuration(t *testing.T, ns int64) {
	t.Helper()
	checkJSONFloat(t, time.Duration(ns).Seconds())
	checkJSONFloat(t, float64(ns)/1e9)
}

// maxFuzzNS bounds the durations the differential tests draw: the format's
// own ceiling on a stored response time.
const maxFuzzNS = int64(1) << 49

func TestJSONFloatMatchesEncodingJSON(t *testing.T) {
	for _, v := range []float64{
		0, math.Copysign(0, -1), 1, -1, 0.5, 2, 1e-6, 0.000001234, 9.99e-7, 1e-7, 1.5e-9, 5e-324,
		999999.999999999, 1e6, 1e6 - 1e-9, 123456.789, 1e15, 1e20, 1e21, 1.7976931348623157e308,
		0.1, 0.2, 0.30000000000000004, 1.0 / 3, 100e-6, 0.000125, 0.00012500000000000003,
		math.NaN(), math.Inf(1), math.Inf(-1), math.Nextafter(1e-6, 0), math.Nextafter(1e6, 0),
	} {
		checkJSONFloat(t, v)
		checkJSONFloat(t, -v)
	}
	for _, ns := range []int64{0, 1, 999, 1000, 1001, 123456, 1e9 - 1, 1e9, 1e9 + 1, 1e15 - 1, 1e15, maxFuzzNS - 1, maxFuzzNS} {
		checkJSONDuration(t, ns)
	}
	rng := rand.New(rand.NewSource(7))
	for range 200_000 {
		checkJSONFloat(t, math.Float64frombits(rng.Uint64()))
		checkJSONDuration(t, rng.Int63n(maxFuzzNS+1))
		// Mostly what a replay holds: microseconds to seconds.
		checkJSONDuration(t, rng.Int63n(int64(2*time.Second)))
	}
}

// FuzzJSONFloatMatchesEncodingJSON lets the fuzzer look for a float64 that
// appendJSONFloat spells differently from encoding/json: any bit pattern
// (NaN and the infinities must come back as json's error), and any
// whole-nanosecond duration up to 2^49 ns, both as Duration.Seconds and as
// the plain quotient.
func FuzzJSONFloatMatchesEncodingJSON(f *testing.F) {
	f.Add(math.Float64bits(0.000125), int64(125_000))
	f.Add(math.Float64bits(1e-6), int64(999))
	f.Add(math.Float64bits(1e21), int64(1e9+1))
	f.Add(math.Float64bits(math.NaN()), maxFuzzNS)
	f.Add(math.Float64bits(math.Inf(-1)), int64(0))
	f.Add(math.Float64bits(999999.999999999), int64(1e15-1))
	f.Fuzz(func(t *testing.T, bits uint64, ns int64) {
		checkJSONFloat(t, math.Float64frombits(bits))
		if ns < 0 {
			ns = -(ns + 1)
		}
		checkJSONDuration(t, ns%(maxFuzzNS+1))
	})
}

// TestWriteJSONByteIdentical: the record head still goes through
// encoding/json and the series is spliced in behind it, so the whole line
// must be what encoding/json alone writes — for IDs json escapes, records
// with and without a series, series long enough to cross the writer's flush
// threshold, and values on both sides of the appender's fast path.
func TestWriteJSONByteIdentical(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	long := make([]time.Duration, 30_000)
	for i := range long {
		long[i] = time.Duration(rng.Int63n(int64(3 * time.Second)))
	}
	records := sampleRecords()
	records = append(records,
		RunRecord{ID: `a<b>&"c"\d` + " /é/日本/\x00\x7f", Device: "faulty(stripe(2,memoright,memoright),seed=7)", RTs: RTSeries{125 * time.Microsecond}},
		RunRecord{ID: "empty-series", Device: "d", RTs: RTSeries{}},
		RunRecord{ID: "edge-values", Device: "d", RTs: RTSeries{0, 1, 999, 1000, time.Millisecond, time.Second, 1500 * time.Millisecond,
			24 * time.Hour, 1e15 - 1, 1e15, time.Duration(maxFuzzNS), math.MaxInt64, -125 * time.Microsecond}},
		RunRecord{ID: "all-fields", Device: "d", Micro: "m", Base: "b", Param: "p", Value: -4, IOIgnore: 7,
			Summary: stats.Summary{N: 3, Min: 1e-7, Max: 2.5, Mean: 1.0 / 3, StdDev: 1e-21}, TotalSeconds: 12.000000001, Faults: 2, Retries: 9, RTs: RTSeries{500 * time.Millisecond}},
	)
	records = append(records, RunRecord{ID: "long", Device: "d", RTs: long}, RunRecord{ID: "after-long", Device: "d"})

	var want, got, marshaled bytes.Buffer
	if err := writeJSONReference(&want, records); err != nil {
		t.Fatal(err)
	}
	if err := WriteJSON(&got, records); err != nil {
		t.Fatal(err)
	}
	sameLines(t, "WriteJSON", got.Bytes(), want.Bytes())
	// encoding/json on the records themselves (the server's result route)
	// goes through RTSeries.MarshalJSON.
	enc := json.NewEncoder(&marshaled)
	for i := range records {
		if err := enc.Encode(&records[i]); err != nil {
			t.Fatal(err)
		}
	}
	sameLines(t, "RTSeries.MarshalJSON", marshaled.Bytes(), want.Bytes())

	// A value json cannot encode fails with json's error. Only the summary
	// can hold one: a series is whole nanoseconds.
	for _, bad := range []RunRecord{
		{ID: "nan-summary", Summary: stats.Summary{Mean: math.NaN()}, RTs: RTSeries{500 * time.Millisecond}},
	} {
		in := []RunRecord{records[0], bad}
		wantErr := writeJSONReference(io.Discard, in)
		gotErr := WriteJSON(io.Discard, in)
		if wantErr == nil || gotErr == nil || gotErr.Error() != wantErr.Error() {
			t.Errorf("%s: error %v, encoding/json gives %v", bad.ID, gotErr, wantErr)
		}
	}
}

// BenchmarkWriteJSON times the per-IO series of one long replay segment.
func BenchmarkWriteJSON(b *testing.B) {
	rng := rand.New(rand.NewSource(1))
	rts := make([]time.Duration, 100_000)
	for i := range rts {
		rts[i] = time.Duration(50_000 + rng.Int63n(int64(2*time.Millisecond)))
	}
	records := []RunRecord{{ID: "replay[0:100000]", Device: "d", RTs: rts}}
	for b.Loop() {
		if err := WriteJSON(io.Discard, records); err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N)/float64(len(rts)), "ns/rt")
}
