package workload_test

import (
	"bytes"
	"math/rand"
	"reflect"
	"strings"
	"testing"
	"time"

	"uflip/internal/device"
	"uflip/internal/workload"
)

// TestTraceCSVRoundTrip is the fuzz-style round-trip check: random ops
// survive write -> read exactly, and write -> read -> write is byte-stable.
func TestTraceCSVRoundTrip(t *testing.T) {
	rng := rand.New(rand.NewSource(41))
	ops := make([]workload.Op, 3000)
	for i := range ops {
		mode := device.Read
		if rng.Intn(2) == 1 {
			mode = device.Write
		}
		ops[i] = workload.Op{
			Gap: time.Duration(rng.Int63n(int64(time.Minute))),
			IO: device.IO{
				Mode: mode,
				Off:  rng.Int63n(1 << 40),
				Size: 512 * (1 + rng.Int63n(1024)),
			},
		}
	}
	var first bytes.Buffer
	if err := workload.WriteTrace(&first, ops); err != nil {
		t.Fatal(err)
	}
	got, err := workload.ReadOps(bytes.NewReader(first.Bytes()))
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, ops) {
		for i := range ops {
			if got[i] != ops[i] {
				t.Fatalf("op %d drifted: wrote %+v, read %+v", i, ops[i], got[i])
			}
		}
		t.Fatal("ops drifted")
	}
	var second bytes.Buffer
	if err := workload.WriteTrace(&second, got); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(first.Bytes(), second.Bytes()) {
		t.Fatal("trace write -> read -> write is not byte-stable")
	}
}

// TestTraceCSVHandEdited accepts the forgiving inputs a hand-written trace
// uses: comments, no header, lowercase modes, whitespace.
func TestTraceCSVHandEdited(t *testing.T) {
	in := strings.Join([]string{
		"# a hand-written trace",
		"4096,8192,r,0",
		"131072, 32768 ,W, 120.5",
	}, "\n")
	ops, err := workload.ReadOps(strings.NewReader(in))
	if err != nil {
		t.Fatal(err)
	}
	if len(ops) != 2 {
		t.Fatalf("parsed %d ops, want 2", len(ops))
	}
	if ops[0].IO.Mode != device.Read || ops[0].IO.Off != 4096 || ops[0].Gap != 0 {
		t.Fatalf("op 0 = %+v", ops[0])
	}
	if ops[1].IO.Mode != device.Write || ops[1].Gap != 120500*time.Nanosecond {
		t.Fatalf("op 1 = %+v", ops[1])
	}
}

func TestTraceCSVRejectsBadRows(t *testing.T) {
	bad := []string{
		"offset,size,mode,gap_us\n",           // header only: no IOs
		"abc,512,R,0\n",                       // bad offset
		"0,0,R,0\n",                           // zero size
		"0,512,X,0\n",                         // bad mode
		"0,512,R,-1\n",                        // negative gap
		"0,512,R,NaN\n",                       // non-finite gap
		"0,512,R,1e19\n",                      // gap overflows time.Duration
		"-4096,512,W,0\n",                     // negative offset
		"0,512,R\n",                           // missing column
		"offset,size,mode,gap_us\n0,512,R,x.", // bad gap number
	}
	for _, in := range bad {
		if _, err := workload.ReadOps(strings.NewReader(in)); err == nil {
			t.Fatalf("accepted bad trace %q", in)
		}
	}
}

// TestTraceErrorsReportFileLines: parse errors name the actual 1-based file
// line, counting comments and the optional header — not the data-row index,
// which drifts as soon as either is present.
func TestTraceErrorsReportFileLines(t *testing.T) {
	in := strings.Join([]string{
		"# synthetic trace",       // line 1
		"# second comment",        // line 2
		"offset,size,mode,gap_us", // line 3
		"4096,512,R,0",            // line 4
		"4096,512,X,0",            // line 5: bad mode
	}, "\n")
	_, err := workload.ReadOps(strings.NewReader(in))
	if err == nil {
		t.Fatal("bad row accepted")
	}
	if !strings.Contains(err.Error(), "line 5") {
		t.Fatalf("error %q does not name file line 5", err)
	}

	// CSV-structure errors (wrong field count) go through encoding/csv's
	// ParseError, which also carries the real line.
	in = "# comment\noffset,size,mode,gap_us\n4096,512,R,0\n4096,512\n"
	_, err = workload.ReadOps(strings.NewReader(in))
	if err == nil || !strings.Contains(err.Error(), "line 4") {
		t.Fatalf("error %q does not name file line 4", err)
	}
}

// TestTraceName: a trace is labelled by its label, or plainly without one.
func TestTraceName(t *testing.T) {
	if got := workload.TraceName("t.csv"); got != "trace(t.csv)" {
		t.Fatalf("name = %q", got)
	}
	if got := workload.TraceName(""); got != "trace" {
		t.Fatalf("unlabelled name = %q", got)
	}
}
