package workload

import (
	"bytes"
	"reflect"
	"testing"

	"uflip/internal/device"
	"uflip/internal/trace"
)

// FuzzReadTrace checks that the block-trace reader — the sniff and either
// form's parser behind it — never panics and that every accepted trace
// round-trips losslessly through the CSV form: write -> read gives back the
// same ops, and the written form is a byte-stable fixed point. The gap bound
// (MaxGapUS, the .utr form's MaxUTRGap) is what makes the microseconds float
// round trip provably exact.
func FuzzReadTrace(f *testing.F) {
	var utr bytes.Buffer
	if err := WriteUTR(&utr, []Op{
		{IO: device.IO{Mode: device.Write, Off: 4096, Size: 8192}},
		{Gap: 120500, IO: device.IO{Mode: device.Read, Off: 131072, Size: 32768}},
		{Gap: trace.MaxUTRGap, IO: device.IO{Mode: device.Read, Size: 512}},
	}); err != nil {
		f.Fatal(err)
	}
	f.Add(utr.Bytes())
	f.Add(utr.Bytes()[:trace.UTRHeaderSize+trace.UTRRecordSize+5]) // cut mid-record
	f.Add([]byte(trace.UTRMagic))                                  // the sniff's whole evidence
	f.Add([]byte(trace.UTRMagic + "\n4096,8192,R,0\n"))            // .utr by magic, CSV after it
	for _, seed := range []string{
		"offset,size,mode,gap_us\n4096,8192,R,0\n131072,32768,W,120.5\n",
		"0,512,r,0.001\n",
		"# comment\n4096,4096,W,1e3\n",
		"offset,size,mode,gap_us\n",
		"4096,8192,R,-1\n",
		"4096,8192,X,0\n",
		"4096,8192,R,1e300\n",
		"4096,0,R,0\n",
		"-1,512,W,0\n",
		"9223372036854775807,512,W,0\n",
	} {
		f.Add([]byte(seed))
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		ops, err := ReadOps(bytes.NewReader(data))
		if err != nil {
			return
		}
		for i, op := range ops {
			if op.IO.Off < 0 || op.IO.Size <= 0 || op.Gap < 0 {
				t.Fatalf("accepted invalid op %d: %+v", i, op)
			}
		}
		var b1 bytes.Buffer
		if err := WriteTrace(&b1, ops); err != nil {
			t.Fatalf("write accepted trace: %v", err)
		}
		ops2, err := ReadOps(bytes.NewReader(b1.Bytes()))
		if err != nil {
			t.Fatalf("reread written trace: %v", err)
		}
		if !reflect.DeepEqual(ops, ops2) {
			t.Fatalf("trace round trip drifts:\n %+v\n vs\n %+v", ops[:min(4, len(ops))], ops2[:min(4, len(ops2))])
		}
		var b2 bytes.Buffer
		if err := WriteTrace(&b2, ops2); err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(b1.Bytes(), b2.Bytes()) {
			t.Fatal("written trace is not byte-stable")
		}
	})
}
