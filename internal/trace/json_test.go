package trace

import (
	"bufio"
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math"
	"math/rand"
	"runtime"
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

// checkAppendRT holds appendRT to appendJSONFloat of the duration's
// seconds, the float round trip it skips where it can.
func checkAppendRT(t *testing.T, d time.Duration) {
	t.Helper()
	want, _ := appendJSONFloat([]byte("x"), d.Seconds())
	if got := appendRT([]byte("x"), d); string(got) != string(want) {
		t.Fatalf("%d ns: appendRT wrote %q, the float round trip %q", int64(d), got, want)
	}
}

// TestAppendRTBoundaries: the edges of appendRT's integer spellings — below
// 1 µs json switches to 'e' form, from 1 s Seconds may be an ulp off the
// quotient, from 10⁶ s the digits are no longer the integer's — spelled as
// encoding/json spells the seconds.
func TestAppendRTBoundaries(t *testing.T) {
	for _, c := range []struct {
		ns   int64
		want string
	}{
		{0, "0"}, {-1, "-1e-9"}, {-125_000, "-0.000125"}, {999, "9.99e-7"}, {1000, "0.000001"},
		{1e9 - 1, "0.999999999"}, {1e9, "1"}, {1e9 + 1, "1.000000001"},
		{1e15 - 1, "999999.999999999"}, {1e15, "1000000"}, {math.MinInt64, "-9223372036.854776"},
	} {
		d := time.Duration(c.ns)
		checkAppendRT(t, d)
		if got := string(appendRT(nil, d)); got != c.want {
			t.Errorf("%d ns: appendRT wrote %q, want %q", c.ns, got, c.want)
		}
		if spelled, _ := json.Marshal(d.Seconds()); string(spelled) != c.want {
			t.Errorf("%d ns: encoding/json writes %s, the table says %q", c.ns, spelled, c.want)
		}
	}
}

// FuzzAppendRTMatchesFloat lets the fuzzer look for a duration appendRT
// spells differently from appendJSONFloat(d.Seconds()), which
// FuzzJSONFloatMatchesEncodingJSON holds to encoding/json.
func FuzzAppendRTMatchesFloat(f *testing.F) {
	for _, ns := range []int64{0, -1, 999, 1000, 1e9 - 1, 1e9, 1e9 + 1, 1_234_567_891, 1e15 - 1, 1e15, maxFuzzNS, math.MaxInt64} {
		f.Add(ns)
	}
	f.Fuzz(func(t *testing.T, ns int64) {
		checkAppendRT(t, time.Duration(ns))
	})
}

// randomRTs returns n response times from 0 to 3 s.
func randomRTs(rng *rand.Rand, n int) RTSeries {
	rts := make(RTSeries, n)
	for i := range rts {
		rts[i] = time.Duration(rng.Int63n(int64(3 * time.Second)))
	}
	return rts
}

// TestWriteJSONByteIdentical: the record head still goes through
// encoding/json and the series is spliced in behind it, so the whole line
// must be what encoding/json alone writes — for IDs json escapes, records
// with and without a series, series long enough to cross the writer's flush
// threshold, values on both sides of the appender's fast path, and series
// one value either side of one and two encoding chunks and many ragged
// chunks long, with empty series first, between them and last. The total
// is above the parallel threshold, so at GOMAXPROCS 4 the series are
// encoded in chunks on several goroutines, and at 1 on the caller alone.
func TestWriteJSONByteIdentical(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	records := []RunRecord{{ID: "first-no-series", Device: "d"}}
	records = append(records, sampleRecords()...)
	records = append(records,
		RunRecord{ID: `a<b>&"c"\d` + " /é/日本/\x00\x7f", Device: "faulty(stripe(2,memoright,memoright),seed=7)", RTs: RTSeries{125 * time.Microsecond}},
		RunRecord{ID: "empty-series", Device: "d", RTs: RTSeries{}},
		RunRecord{ID: "edge-values", Device: "d", RTs: RTSeries{0, 1, 999, 1000, time.Millisecond, time.Second, 1500 * time.Millisecond,
			24 * time.Hour, 1e15 - 1, 1e15, time.Duration(maxFuzzNS), math.MaxInt64, -125 * time.Microsecond}},
		RunRecord{ID: "all-fields", Device: "d", Micro: "m", Base: "b", Param: "p", Value: -4, IOIgnore: 7,
			Summary: stats.Summary{N: 3, Min: 1e-7, Max: 2.5, Mean: 1.0 / 3, StdDev: 1e-21}, TotalSeconds: 12.000000001, Faults: 2, Retries: 9, RTs: RTSeries{500 * time.Millisecond}},
	)
	for _, n := range []int{jsonChunkRTs - 1, jsonChunkRTs, jsonChunkRTs + 1, 2*jsonChunkRTs - 1, 2 * jsonChunkRTs, 2*jsonChunkRTs + 1, jsonParallelRTs + 7_777} {
		records = append(records,
			RunRecord{ID: fmt.Sprintf("long-%d", n), Device: "d", RTs: randomRTs(rng, n)},
			RunRecord{ID: "between", Device: "d", RTs: RTSeries{}})
	}
	records = append(records, RunRecord{ID: "last-no-series", Device: "d"})

	var want, marshaled bytes.Buffer
	if err := writeJSONReference(&want, records); err != nil {
		t.Fatal(err)
	}
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(0))
	for _, procs := range []int{1, 4} {
		runtime.GOMAXPROCS(procs)
		var got bytes.Buffer
		if err := WriteJSON(&got, records); err != nil {
			t.Fatal(err)
		}
		sameLines(t, fmt.Sprintf("WriteJSON at GOMAXPROCS %d", procs), got.Bytes(), want.Bytes())
	}
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

// failingWriter fails its k-th Write, and any Write after it; with k 0 it
// only counts them.
type failingWriter struct {
	k, writes int
	err       error
	late      bool // a Write came after the failing one
}

func (w *failingWriter) Write(p []byte) (int, error) {
	w.writes++
	switch {
	case w.k == 0 || w.writes < w.k:
		return len(p), nil
	case w.writes > w.k:
		w.late = true
	}
	return 0, w.err
}

// TestWriteJSONStopsAtFirstWriteError: whichever Write fails, on the
// parallel path and inline, its error is the one WriteJSON returns, no
// Write follows it, and every encoding goroutine has exited by the time
// WriteJSON returns.
func TestWriteJSONStopsAtFirstWriteError(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	records := []RunRecord{
		{ID: "a", Device: "d", RTs: randomRTs(rng, 3*jsonChunkRTs+5)},
		{ID: "b", Device: "d"},
		{ID: "c", Device: "d", RTs: randomRTs(rng, jsonParallelRTs)},
		{ID: "d", Device: "d", RTs: randomRTs(rng, 17)},
	}
	boom := errors.New("boom")
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(0))
	for _, procs := range []int{1, 4} {
		runtime.GOMAXPROCS(procs)
		count := &failingWriter{}
		if err := WriteJSON(count, records); err != nil {
			t.Fatal(err)
		}
		for k := 1; k <= count.writes; k++ {
			before := runtime.NumGoroutine()
			w := &failingWriter{k: k, err: boom}
			if err := WriteJSON(w, records); err != boom {
				t.Fatalf("GOMAXPROCS %d, Write %d of %d fails: WriteJSON returned %v", procs, k, count.writes, err)
			}
			if w.late {
				t.Fatalf("GOMAXPROCS %d, Write %d of %d fails: WriteJSON wrote after it", procs, k, count.writes)
			}
			// A goroutine that has signalled its WaitGroup may take a moment
			// to be gone; one that still runs never is.
			for deadline := time.Now().Add(5 * time.Second); runtime.NumGoroutine() > before; {
				if time.Now().After(deadline) {
					t.Fatalf("GOMAXPROCS %d, Write %d fails: %d goroutines, %d before the call", procs, k, runtime.NumGoroutine(), before)
				}
				runtime.Gosched()
			}
		}
	}
}

// BenchmarkWriteJSON times the per-IO series of one long replay segment:
// values from 50 µs to 2 ms, and a replay's shape with 40 % of them from
// 1 s to 3 s, where Seconds is an ulp off the plain quotient for some.
func BenchmarkWriteJSON(b *testing.B) {
	for _, c := range []struct {
		name string
		rt   func(rng *rand.Rand) time.Duration
	}{
		{"sub-2ms", func(rng *rand.Rand) time.Duration {
			return time.Duration(50_000 + rng.Int63n(int64(2*time.Millisecond)))
		}},
		{"replay", func(rng *rand.Rand) time.Duration {
			if rng.Intn(10) < 4 {
				return time.Second + time.Duration(rng.Int63n(int64(2*time.Second)))
			}
			return time.Duration(50_000 + rng.Int63n(int64(time.Second)))
		}},
	} {
		b.Run(c.name, func(b *testing.B) {
			rng := rand.New(rand.NewSource(1))
			rts := make([]time.Duration, 100_000)
			for i := range rts {
				rts[i] = c.rt(rng)
			}
			records := []RunRecord{{ID: "replay[0:100000]", Device: "d", RTs: rts}}
			for b.Loop() {
				if err := WriteJSON(io.Discard, records); err != nil {
					b.Fatal(err)
				}
			}
			b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N)/float64(len(rts)), "ns/rt")
		})
	}
}
