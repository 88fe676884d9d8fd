package trace_test

import (
	"bytes"
	"encoding/binary"
	"math/rand/v2"
	"testing"
	"time"

	"uflip/internal/device"
	"uflip/internal/trace"
)

// randomBlockOps builds a deterministic pseudo-random op stream covering the
// field ranges the format must carry: zero and huge offsets, 1-byte and
// multi-MB sizes, zero and near-bound gaps, both directions.
func randomBlockOps(n int, seed uint64) []trace.BlockOp {
	rng := rand.New(rand.NewPCG(seed, 0))
	ops := make([]trace.BlockOp, n)
	for i := range ops {
		// The draws keep their order (offset, size, gap, mode): the stream is
		// what the committed fuzz corpora were cut from.
		ops[i].IO.Off = int64(rng.Uint64N(1 << 40))
		ops[i].IO.Size = 1 + int64(rng.Uint64N(4<<20))
		ops[i].Gap = time.Duration(rng.Uint64N(uint64(trace.MaxUTRGap) + 1))
		ops[i].IO.Mode = device.Mode(rng.Uint64N(2))
	}
	ops[0].IO.Off = 0
	ops[0].Gap = 0
	if n > 1 {
		ops[1].Gap = trace.MaxUTRGap
	}
	return ops
}

// encodeUTR renders ops as .utr bytes in memory.
func encodeUTR(ops []trace.BlockOp) ([]byte, error) {
	var b bytes.Buffer
	if err := trace.WriteUTR(&b, ops); err != nil {
		return nil, err
	}
	return b.Bytes(), nil
}

func TestUTRRoundTrip(t *testing.T) {
	ops := randomBlockOps(3000, 42)
	data, err := encodeUTR(ops)
	if err != nil {
		t.Fatal(err)
	}
	if want := trace.UTRHeaderSize + len(ops)*trace.UTRRecordSize; len(data) != want {
		t.Fatalf("encoded %d bytes, want %d", len(data), want)
	}
	got, err := scanAll(bytes.NewReader(data))
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != len(ops) {
		t.Fatalf("decoded %d ops, want %d", len(got), len(ops))
	}
	for i := range ops {
		if got[i] != ops[i] {
			t.Fatalf("op %d: got %+v, want %+v", i, got[i], ops[i])
		}
	}
	// Re-encoding the decoded stream must reproduce the bytes exactly: the
	// encoding is canonical.
	again, err := encodeUTR(got)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(again, data) {
		t.Fatal("re-encoded utr bytes differ from the original")
	}
}

// TestUTRWriterMatchesEncode pins the streaming seek-back writer to the
// two-pass encoder: both must produce identical files.
func TestUTRWriterMatchesEncode(t *testing.T) {
	ops := randomBlockOps(257, 7)
	want, err := encodeUTR(ops)
	if err != nil {
		t.Fatal(err)
	}
	var ws writeSeekBuffer
	uw, err := trace.NewUTRWriter(&ws)
	if err != nil {
		t.Fatal(err)
	}
	for _, op := range ops {
		if err := uw.Write(op); err != nil {
			t.Fatal(err)
		}
	}
	if err := uw.Close(); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(ws.buf, want) {
		t.Fatal("UTRWriter output differs from WriteUTR")
	}
}

// writeSeekBuffer is an in-memory io.WriteSeeker for writer tests.
type writeSeekBuffer struct {
	buf []byte
	pos int
}

func (b *writeSeekBuffer) Write(p []byte) (int, error) {
	if need := b.pos + len(p); need > len(b.buf) {
		b.buf = append(b.buf, make([]byte, need-len(b.buf))...)
	}
	copy(b.buf[b.pos:], p)
	b.pos += len(p)
	return len(p), nil
}

func (b *writeSeekBuffer) Seek(off int64, whence int) (int64, error) {
	switch whence {
	case 0:
		b.pos = int(off)
	case 1:
		b.pos += int(off)
	case 2:
		b.pos = len(b.buf) + int(off)
	}
	return int64(b.pos), nil
}

// TestUTRRejectsCorruption: every kind of damage — bad magic, wrong version,
// nonzero reserved fields, zero count, truncation, trailing garbage, flipped
// payload bits, invalid record fields — must fail loudly.
func TestUTRRejectsCorruption(t *testing.T) {
	ops := randomBlockOps(10, 3)
	data, err := encodeUTR(ops)
	if err != nil {
		t.Fatal(err)
	}
	mutate := func(f func(b []byte)) []byte {
		b := bytes.Clone(data)
		f(b)
		return b
	}
	cases := map[string][]byte{
		"bad magic":           mutate(func(b []byte) { b[0] = 'x' }),
		"bad version":         mutate(func(b []byte) { binary.LittleEndian.PutUint32(b[8:12], 99) }),
		"reserved header":     mutate(func(b []byte) { b[12] = 1 }),
		"zero count":          mutate(func(b []byte) { binary.LittleEndian.PutUint64(b[16:24], 0) }),
		"inflated count":      mutate(func(b []byte) { binary.LittleEndian.PutUint64(b[16:24], 11) }),
		"shrunk count":        mutate(func(b []byte) { binary.LittleEndian.PutUint64(b[16:24], 9) }),
		"flipped payload bit": mutate(func(b []byte) { b[trace.UTRHeaderSize+40] ^= 1 }),
		"bad mode":            mutate(func(b []byte) { binary.LittleEndian.PutUint32(b[trace.UTRHeaderSize+24:], 7) }),
		"reserved record":     mutate(func(b []byte) { b[trace.UTRHeaderSize+28] = 1 }),
		"truncated header":    data[:trace.UTRHeaderSize-3],
		"truncated record":    data[:len(data)-5],
		"trailing garbage":    append(bytes.Clone(data), 0),
		"empty":               nil,
	}
	for name, b := range cases {
		if _, err := scanAll(bytes.NewReader(b)); err == nil {
			t.Errorf("%s: accepted, want an error", name)
		}
	}
	// The untouched original still parses (the mutations above, not some
	// unrelated strictness, are what the parser rejects).
	if _, err := scanAll(bytes.NewReader(data)); err != nil {
		t.Fatalf("pristine trace rejected: %v", err)
	}
}

// TestScannerConstantMemory pins the O(batch) promise: scanning a trace
// allocates a fixed handful of objects (scanner + bufio), never per record.
func TestScannerConstantMemory(t *testing.T) {
	data, err := encodeUTR(randomBlockOps(10000, 9))
	if err != nil {
		t.Fatal(err)
	}
	allocs := testing.AllocsPerRun(5, func() {
		sc, err := trace.NewScanner(bytes.NewReader(data))
		if err != nil {
			t.Fatal(err)
		}
		n := 0
		for sc.Scan() {
			n++
		}
		if sc.Err() != nil || n != 10000 {
			t.Fatalf("scan: %d ops, err %v", n, sc.Err())
		}
	})
	if allocs > 8 {
		t.Fatalf("scanning 10k records allocated %v objects per run, want a constant handful", allocs)
	}
}

// FuzzReadUTR: arbitrary bytes must never panic the parser, and any input it
// accepts must re-encode to the identical bytes (the format has exactly one
// encoding per op stream).
func FuzzReadUTR(f *testing.F) {
	seed, err := encodeUTR(randomBlockOps(5, 1))
	if err != nil {
		f.Fatal(err)
	}
	f.Add(seed)
	single, err := encodeUTR([]trace.BlockOp{{Gap: 120500 * time.Nanosecond, IO: device.IO{Mode: device.Write, Off: 4096, Size: 8192}}})
	if err != nil {
		f.Fatal(err)
	}
	f.Add(single)
	f.Add(seed[:trace.UTRHeaderSize])      // header only, count > 0: truncated
	f.Add(seed[:trace.UTRHeaderSize+17])   // mid-record truncation
	f.Add(append(bytes.Clone(seed), 0, 1)) // trailing garbage
	f.Add([]byte(trace.UTRMagic))
	f.Add([]byte("offset,size,mode,gap_us\n4096,8192,R,0\n"))
	f.Fuzz(func(t *testing.T, data []byte) {
		// scanAll is NewScanner and a read-all loop: the whole-stream parse.
		ops, err := scanAll(bytes.NewReader(data))
		if err != nil {
			return
		}
		if len(ops) == 0 {
			t.Fatal("accepted a trace with no IOs")
		}
		again, err := encodeUTR(ops)
		if err != nil {
			t.Fatalf("accepted ops failed to re-encode: %v", err)
		}
		if !bytes.Equal(again, data) {
			t.Fatal("accepted utr bytes are not canonical: re-encode differs")
		}
	})
}
