package trace_test

import (
	"bufio"
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc64"
	"io"
	"runtime"
	"slices"
	"testing"

	"uflip/internal/trace"
)

// The reader and writer move records a chunk at a time. These tests hold
// them to the record-at-a-time code they replaced, kept below as the oracle,
// at every place a chunk edge could show: same bytes written, same records
// handed out before a failure, same error text.

// referenceEncode is the per-record writer: every record encoded and
// checksummed on its own.
func referenceEncode(t *testing.T, ops []trace.BlockOp) []byte {
	t.Helper()
	table := crc64.MakeTable(crc64.ECMA)
	out := make([]byte, trace.UTRHeaderSize, trace.UTRHeaderSize+len(ops)*trace.UTRRecordSize)
	var rec [trace.UTRRecordSize]byte
	var crc uint64
	for _, op := range ops {
		if err := trace.EncodeUTRRecord(&rec, op); err != nil {
			t.Fatal(err)
		}
		crc = crc64.Update(crc, table, rec[:])
		out = append(out, rec[:]...)
	}
	copy(out, trace.UTRMagic)
	binary.LittleEndian.PutUint32(out[8:12], trace.UTRVersion)
	binary.LittleEndian.PutUint64(out[16:24], uint64(len(ops)))
	binary.LittleEndian.PutUint64(out[24:32], crc)
	return out
}

// referenceScan is the per-record scanner: one 32-byte read, one CRC update
// and one decode per record. It returns the records it would have handed
// out and the error the scan would have ended with.
func referenceScan(r io.Reader) ([]trace.BlockOp, error) {
	br := bufio.NewReader(r)
	var hdr [trace.UTRHeaderSize]byte
	if _, err := io.ReadFull(br, hdr[:]); err != nil {
		return nil, fmt.Errorf("trace: utr header truncated: %w", err)
	}
	count, want, err := trace.ParseUTRHeader(hdr[:])
	if err != nil {
		return nil, err
	}
	table := crc64.MakeTable(crc64.ECMA)
	var ops []trace.BlockOp
	var buf [trace.UTRRecordSize]byte
	var crc uint64
	for len(ops) < count {
		if _, err := io.ReadFull(br, buf[:]); err != nil {
			if err == io.EOF || err == io.ErrUnexpectedEOF {
				return ops, fmt.Errorf("trace: utr trace truncated at record %d of %d", len(ops), count)
			}
			return ops, fmt.Errorf("trace: utr read: %w", err)
		}
		crc = crc64.Update(crc, table, buf[:])
		op, err := trace.DecodeUTRRecord(buf[:])
		if err != nil {
			return ops, fmt.Errorf("%w (record %d)", err, len(ops))
		}
		ops = append(ops, op)
	}
	if crc != want {
		return ops, fmt.Errorf("trace: utr payload CRC mismatch (file %#x, computed %#x)", want, crc)
	}
	if _, err := br.ReadByte(); err == nil {
		return ops, fmt.Errorf("trace: utr trace has trailing bytes after %d records", count)
	} else if err != io.EOF {
		return ops, fmt.Errorf("trace: utr read: %w", err)
	}
	return ops, nil
}

// scanAll drives the real Scanner the way referenceScan reports.
func scanAll(r io.Reader) ([]trace.BlockOp, error) {
	sc, err := trace.NewScanner(r)
	if err != nil {
		return nil, err
	}
	var ops []trace.BlockOp
	for sc.Scan() {
		ops = append(ops, sc.Op())
	}
	if sc.Scan() {
		return ops, errors.New("Scan returned true after returning false")
	}
	return ops, sc.Err()
}

func errText(err error) string {
	if err == nil {
		return "<nil>"
	}
	return err.Error()
}

// failingReader serves data and then fails with err instead of io.EOF.
type failingReader struct {
	data []byte
	err  error
}

func (f *failingReader) Read(p []byte) (int, error) {
	if len(f.data) == 0 {
		return 0, f.err
	}
	n := copy(p, f.data)
	f.data = f.data[n:]
	return n, nil
}

func TestUTRWriterChunkEdgesByteIdentical(t *testing.T) {
	const chunk = trace.UTRChunkRecords
	for _, n := range []int{1, chunk - 1, chunk, chunk + 1, 3*chunk + 7} {
		ops := randomBlockOps(n, uint64(n))
		want := referenceEncode(t, ops)
		got, err := encodeUTR(ops)
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(got, want) {
			t.Errorf("%d records: WriteUTR output differs from the per-record writer", n)
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
			t.Errorf("%d records: UTRWriter output differs from the per-record writer", n)
		}
	}
	// A rejected op is not written, and names its index in the slice form.
	ops := randomBlockOps(chunk+5, 1)
	ops[chunk+1].IO.Size = 0
	if err, want := trace.WriteUTR(io.Discard, ops), fmt.Sprintf("trace: utr record: size 0 must be positive (record %d)", chunk+1); errText(err) != want {
		t.Errorf("WriteUTR of a bad op: %v, want %s", err, want)
	}
}

func TestScannerChunkEdgesMatchPerRecordReader(t *testing.T) {
	const chunk = trace.UTRChunkRecords
	const n = 3*chunk + 7
	ops := randomBlockOps(n, 11)
	data := referenceEncode(t, ops)
	field := func(rec, off int) int { return trace.UTRHeaderSize + rec*trace.UTRRecordSize + off }
	mutate := func(f func(b []byte)) io.Reader {
		b := bytes.Clone(data)
		f(b)
		return bytes.NewReader(b)
	}

	type scanCase struct {
		name    string
		r       func() io.Reader
		records int    // handed out before the scan ends
		err     string // "" = whatever the per-record reader says, which must be an error
	}
	cases := []scanCase{
		{name: "pristine", r: func() io.Reader { return bytes.NewReader(data) }, records: n, err: "<nil>"},
		{name: "trailing byte", r: func() io.Reader { return bytes.NewReader(append(bytes.Clone(data), 0)) }, records: n,
			err: fmt.Sprintf("trace: utr trace has trailing bytes after %d records", n)},
		{name: "crc mismatch", r: func() io.Reader { return mutate(func(b []byte) { b[24] ^= 1 }) }, records: n},
		{name: "flipped payload bit", r: func() io.Reader { return mutate(func(b []byte) { b[field(chunk, 3)] ^= 4 }) }, records: n},
		{name: "truncated mid-record", r: func() io.Reader { return bytes.NewReader(data[:field(chunk+9, 17)]) }, records: chunk + 9,
			err: fmt.Sprintf("trace: utr trace truncated at record %d of %d", chunk+9, n)},
		{name: "truncated at a chunk edge", r: func() io.Reader { return bytes.NewReader(data[:field(2*chunk, 0)]) }, records: 2 * chunk,
			err: fmt.Sprintf("trace: utr trace truncated at record %d of %d", 2*chunk, n)},
		{name: "truncated after the header", r: func() io.Reader { return bytes.NewReader(data[:trace.UTRHeaderSize]) }, records: 0,
			err: fmt.Sprintf("trace: utr trace truncated at record 0 of %d", n)},
		{name: "read error mid-chunk", r: func() io.Reader { return &failingReader{data: data[:field(chunk+2, 5)], err: errors.New("boom")} },
			records: chunk + 2, err: "trace: utr read: boom"},
		{name: "read error for the end-of-trace probe", r: func() io.Reader { return &failingReader{data: data, err: errors.New("boom")} },
			records: n, err: "trace: utr read: boom"},
	}
	for _, rec := range []int{0, chunk - 1, chunk, n - 1} {
		cases = append(cases,
			scanCase{name: fmt.Sprintf("bad mode at %d", rec), records: rec,
				r: func() io.Reader {
					return mutate(func(b []byte) { binary.LittleEndian.PutUint32(b[field(rec, 24):], 7) })
				},
				err: fmt.Sprintf("trace: utr record: mode 7 (want 0 or 1) (record %d)", rec)},
			scanCase{name: fmt.Sprintf("reserved field at %d", rec), records: rec,
				r:   func() io.Reader { return mutate(func(b []byte) { b[field(rec, 28)] = 1 }) },
				err: fmt.Sprintf("trace: utr record: reserved field is 0x1, want 0 (record %d)", rec)},
			scanCase{name: fmt.Sprintf("negative offset at %d", rec), records: rec,
				r: func() io.Reader {
					return mutate(func(b []byte) { binary.LittleEndian.PutUint64(b[field(rec, 0):], 1<<63) })
				},
				err: fmt.Sprintf("trace: utr record: offset %d must be non-negative (record %d)", int64(-1<<63), rec)},
		)
	}
	for _, c := range cases {
		wantOps, wantErr := referenceScan(c.r())
		if len(wantOps) != c.records || (c.err != "" && errText(wantErr) != c.err) || (c.err == "" && wantErr == nil) {
			t.Fatalf("%s: the oracle gives %d records and %v, the case expects %d and %q", c.name, len(wantOps), wantErr, c.records, c.err)
		}
		gotOps, gotErr := scanAll(c.r())
		if !slices.Equal(gotOps, wantOps) {
			t.Errorf("%s: %d records handed out, the per-record reader hands out %d (or they differ)", c.name, len(gotOps), len(wantOps))
		}
		if errText(gotErr) != errText(wantErr) {
			t.Errorf("%s:\n got %s\nwant %s", c.name, errText(gotErr), errText(wantErr))
		}
	}

	// A one-record file is one short chunk.
	single := referenceEncode(t, ops[:1])
	for name, b := range map[string][]byte{
		"single":           single,
		"single truncated": single[:len(single)-1],
		"single trailing":  append(bytes.Clone(single), 9),
	} {
		wantOps, wantErr := referenceScan(bytes.NewReader(b))
		gotOps, gotErr := scanAll(bytes.NewReader(b))
		if !slices.Equal(gotOps, wantOps) || errText(gotErr) != errText(wantErr) {
			t.Errorf("%s: got %d records and %v, want %d and %v", name, len(gotOps), gotErr, len(wantOps), wantErr)
		}
	}
}

// TestScannerChunkBoundedByCap: the header's count sizes the chunk only up
// to the fixed cap, so a hostile count costs one chunk, not count×32 bytes.
func TestScannerChunkBoundedByCap(t *testing.T) {
	data := referenceEncode(t, randomBlockOps(3, 2))
	binary.LittleEndian.PutUint64(data[16:24], 1<<30) // fits a 32-bit int too
	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	sc, err := trace.NewScanner(bytes.NewReader(data))
	runtime.ReadMemStats(&m1)
	if err != nil {
		t.Fatal(err)
	}
	if grew := m1.TotalAlloc - m0.TotalAlloc; grew > 2*trace.UTRChunkRecords*trace.UTRRecordSize {
		t.Fatalf("NewScanner allocated %d bytes for a header claiming 2^30 records", grew)
	}
	n := 0
	for sc.Scan() {
		n++
	}
	if want := "trace: utr trace truncated at record 3 of 1073741824"; n != 3 || errText(sc.Err()) != want {
		t.Fatalf("%d records, %v; want 3 and %s", n, sc.Err(), want)
	}
}
