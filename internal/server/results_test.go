package server

import (
	"bytes"
	"encoding/binary"
	"hash/crc32"
	"reflect"
	"strings"
	"testing"
	"time"

	"uflip/internal/stats"
	"uflip/internal/trace"
)

// sampleResults is a small done job's results: two runs, one of them without
// a series, and every response-time width up to maxRT.
func sampleResults() Results {
	return Results{
		CSV:    []byte("id,device\nA,mtron\n"),
		Report: []byte("report <&> \"quoted\"\n"),
		Records: []trace.RunRecord{
			{ID: "Order/SW", Device: "mtron", Micro: "Order", Summary: stats.Summary{N: 4, Min: 1e-7, Max: 0.25, Mean: 1.0 / 3, StdDev: 0.1}, TotalSeconds: 0.5,
				RTs: trace.RTSeries{0, 1, 127, 128, 100_000, time.Second, maxRT}},
			{ID: "Order/RW", Device: "mtron", IOIgnore: 3, Faults: 2, Retries: 1},
		},
	}
}

func encodeResults(t testing.TB, res Results) []byte {
	t.Helper()
	var buf bytes.Buffer
	if err := new(resultsWriter).write(&buf, res); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// seal frames body as a results file: the magic line before it, its
// checksum after it.
func seal(body []byte) []byte {
	data := append([]byte(resultsMagic), body...)
	return binary.BigEndian.AppendUint32(data, crc32.Checksum(data, castagnoli))
}

// sealed is a results file of the given sections and series, each series
// given as its raw varint bytes.
func sealed(csv, report, head string, series ...[]byte) []byte {
	var body []byte
	for _, s := range []string{csv, report, head} {
		body = binary.AppendUvarint(body, uint64(len(s)))
		body = append(body, s...)
	}
	for _, s := range series {
		body = append(body, s...)
	}
	return seal(body)
}

func TestResultsRoundTrip(t *testing.T) {
	want := sampleResults()
	data := encodeResults(t, want)
	got, err := decodeResults(data)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("decoded %+v, want %+v", got, want)
	}
	if again := encodeResults(t, got); !bytes.Equal(again, data) {
		t.Fatal("re-encoding the decoded results changed the bytes")
	}
	// Array and paper jobs: no records, no CSV.
	empty := Results{Report: []byte("paper\n")}
	if got, err := decodeResults(encodeResults(t, empty)); err != nil || !reflect.DeepEqual(got, empty) {
		t.Fatalf("a results file without records decoded to %+v, %v", got, err)
	}
}

func TestWriteResultsRefusesUnreadableRT(t *testing.T) {
	for _, d := range []time.Duration{-1, maxRT + 1} {
		res := sampleResults()
		res.Records[0].RTs = trace.RTSeries{5, d}
		if err := new(resultsWriter).write(new(bytes.Buffer), res); err == nil || !strings.Contains(err.Error(), "outside") {
			t.Errorf("response time %d: write returned %v, want an out-of-range error", d, err)
		}
	}
}

// TestDamagedResultsRefused: every damage the checksum cannot see, and the
// damage it can, fails the decode, and nothing allocates by a count the
// bytes left cannot hold.
func TestDamagedResultsRefused(t *testing.T) {
	valid := encodeResults(t, sampleResults())
	const head = `[{"id":"A","device":"d","io_ignore":0,"summary":{"n":0,"min":0,"max":0,"mean":0,"stddev":0},"total_seconds":0}]`
	huge := binary.AppendUvarint(nil, 1<<60)
	cases := map[string]struct {
		data []byte
		want string
	}{
		"empty":           {nil, "not a results file"},
		"other magic":     {append([]byte("uflip-results 2\n"), valid[len(resultsMagic):]...), "not a results file"},
		"truncated":       {valid[:len(valid)-1], "checksum"},
		"appended":        {append(bytes.Clone(valid), 0), "checksum"},
		"huge section":    {seal(huge), "beyond"},
		"huge series":     {sealed("", "", head, huge), "beyond"},
		"overlong varint": {sealed("", "", head, []byte{0x80, 0x80, 0x80, 0x80, 0x80, 0x80, 0x80, 0x80, 0x80, 0x80, 0x01}), "overlong"},
		"padded varint":   {sealed("", "", head, []byte{1, 0x85, 0x00}), "shortest"},
		"padded length":   {sealed("", "", head, []byte{0x81, 0x00, 5}), "shortest"},
		"RT above bound":  {sealed("", "", head, binary.AppendUvarint([]byte{1}, uint64(maxRT)+1)), "out of range"},
		"missing series":  {sealed("", "", head), "truncated"},
		"trailing bytes":  {sealed("", "", head, []byte{1, 5, 0}), "after the last series"},
		"series in head":  {sealed("", "", `[{"id":"A","rts":[0.5]}]`, []byte{0}), "holds the series"},
		"spaced head":     {sealed("", "", ` `+head, []byte{0}), "json.Marshal"},
		"no head":         {sealed("", "", ""), "decode head"},
	}
	for name, c := range cases {
		if _, err := decodeResults(c.data); err == nil || !strings.Contains(err.Error(), c.want) {
			t.Errorf("%s: decode returned %v, want an error containing %q", name, err, c.want)
		}
	}
	for i := range valid {
		flipped := bytes.Clone(valid)
		flipped[i] ^= 0x10
		if _, err := decodeResults(flipped); err == nil {
			t.Fatalf("a results file with byte %d flipped decoded", i)
		}
	}
	if got, err := decodeResults(sealed("", "", head, []byte{1, 5})); err != nil || got.Records[0].RTs[0] != 5 {
		t.Fatalf("the hand-sealed file every case above damages does not decode: %+v, %v", got, err)
	}
}

// FuzzReadResults: no input panics the decoder or allocates beyond the bytes
// it holds, and every input it accepts is the one encoding of what it
// decodes to. Each input is tried as it is and sealed as a results file
// body, so the fuzzer reaches past the magic line and the checksum.
func FuzzReadResults(f *testing.F) {
	valid := encodeResults(f, sampleResults())
	f.Add(valid)
	f.Add(valid[len(resultsMagic) : len(valid)-crc32.Size])
	f.Add(encodeResults(f, Results{Report: []byte("paper\n")}))
	f.Add([]byte{0, 0, 4, 'n', 'u', 'l', 'l'})
	f.Fuzz(func(t *testing.T, data []byte) {
		for _, in := range [][]byte{data, seal(data)} {
			res, err := decodeResults(in)
			if err != nil {
				continue
			}
			if again := encodeResults(t, res); !bytes.Equal(again, in) {
				t.Fatalf("accepted %q, which re-encodes to %q", in, again)
			}
		}
	})
}
