package trace_test

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc64"
	"io"
	"math/rand/v2"
	"slices"
	"testing"

	"uflip/internal/trace"
)

// VerifyUTR is the Scanner's verdict reached by positioned reads, possibly
// on several goroutines. These tests hold it to the Scanner — the one
// streaming reader, and the oracle here — over the same bytes: the same
// error text or nil, for every corruption class the scanner tests use and
// for random damage, at every split.

// failingReaderAt serves data and fails with err, not io.EOF, past its end.
type failingReaderAt struct {
	data []byte
	err  error
}

func (f failingReaderAt) ReadAt(p []byte, off int64) (int, error) {
	if off >= int64(len(f.data)) {
		return 0, f.err
	}
	n := copy(p, f.data[off:])
	if n < len(p) {
		return n, f.err
	}
	return n, nil
}

// verifySplits are the (maxParts, partChunks) pairs every case runs at: the
// calling goroutine alone, and splits down to one chunk per part.
var verifySplits = [][2]int{{1, 1}, {2, 1}, {3, 1}, {8, 1}, {2, 2}, {64, 1}}

// checkVerdicts compares VerifyUTR and every split of it with a full Scanner
// pass over the first size bytes of ra.
func checkVerdicts(t *testing.T, name string, ra io.ReaderAt, size int64) {
	t.Helper()
	_, wantErr := scanAll(io.NewSectionReader(ra, 0, size))
	want := errText(wantErr)
	if _, err := trace.VerifyUTR(ra, size); errText(err) != want {
		t.Errorf("%s: VerifyUTR\n got %s\nwant %s", name, errText(err), want)
	}
	for _, split := range verifySplits {
		count, err := trace.VerifyUTRParts(ra, size, split[0], split[1])
		if errText(err) != want {
			t.Errorf("%s: %d parts of >= %d chunks\n got %s\nwant %s", name, split[0], split[1], errText(err), want)
		}
		if err == nil && int64(count) != (size-trace.UTRHeaderSize)/trace.UTRRecordSize {
			t.Errorf("%s: accepted %d bytes as %d records", name, size, count)
		}
	}
}

func TestVerifyUTRMatchesScanner(t *testing.T) {
	const chunk = trace.UTRChunkRecords
	for _, n := range []int{1, chunk - 1, chunk, chunk + 1, 5*chunk + 777} {
		data := referenceEncode(t, randomBlockOps(n, uint64(n)))
		field := func(rec, off int) int { return trace.UTRHeaderSize + rec*trace.UTRRecordSize + off }
		mutate := func(f func(b []byte)) []byte {
			b := bytes.Clone(data)
			f(b)
			return b
		}
		cases := map[string][]byte{
			"pristine":                   data,
			"empty":                      nil,
			"bad magic":                  mutate(func(b []byte) { b[0] = 'x' }),
			"bad version":                mutate(func(b []byte) { binary.LittleEndian.PutUint32(b[8:12], 99) }),
			"reserved header":            mutate(func(b []byte) { b[12] = 1 }),
			"zero count":                 mutate(func(b []byte) { binary.LittleEndian.PutUint64(b[16:24], 0) }),
			"inflated count":             mutate(func(b []byte) { binary.LittleEndian.PutUint64(b[16:24], uint64(n+1)) }),
			"hostile count":              mutate(func(b []byte) { binary.LittleEndian.PutUint64(b[16:24], 1<<40) }),
			"implausible count":          mutate(func(b []byte) { binary.LittleEndian.PutUint64(b[16:24], 1<<62) }),
			"crc mismatch":               mutate(func(b []byte) { b[24] ^= 1 }),
			"truncated header":           data[:trace.UTRHeaderSize-3],
			"truncated after the header": data[:trace.UTRHeaderSize],
			"truncated mid-record":       data[:len(data)-5],
			"truncated last record":      data[:len(data)-trace.UTRRecordSize],
			"trailing byte":              append(bytes.Clone(data), 0),
			"trailing record":            append(bytes.Clone(data), data[trace.UTRHeaderSize:trace.UTRHeaderSize+trace.UTRRecordSize]...),
		}
		if n > 1 {
			cases["shrunk count"] = mutate(func(b []byte) { binary.LittleEndian.PutUint64(b[16:24], uint64(n-1)) })
			cases["truncated at a chunk edge"] = data[:field(n/chunk*chunk, 0)]
		}
		for _, rec := range []int{0, n / 2, chunk - 1, chunk, 4 * chunk, n - 1} {
			if rec >= n {
				continue
			}
			cases[fmt.Sprintf("flipped payload bit at %d", rec)] = mutate(func(b []byte) { b[field(rec, 3)] ^= 4 })
			cases[fmt.Sprintf("bad mode at %d", rec)] = mutate(func(b []byte) { binary.LittleEndian.PutUint32(b[field(rec, 24):], 7) })
			cases[fmt.Sprintf("reserved field at %d", rec)] = mutate(func(b []byte) { b[field(rec, 28)] = 1 })
			cases[fmt.Sprintf("negative offset at %d", rec)] = mutate(func(b []byte) { binary.LittleEndian.PutUint64(b[field(rec, 0):], 1<<63) })
			cases[fmt.Sprintf("zero size at %d", rec)] = mutate(func(b []byte) { binary.LittleEndian.PutUint64(b[field(rec, 8):], 0) })
			cases[fmt.Sprintf("gap past the bound at %d", rec)] = mutate(func(b []byte) {
				binary.LittleEndian.PutUint64(b[field(rec, 16):], uint64(trace.MaxUTRGap)+1)
			})
			// Precedence: the lowest bad record wins over a later one, a
			// truncation and the CRC mismatch both bring.
			cases[fmt.Sprintf("bad records at %d and the last, truncated", rec)] = mutate(func(b []byte) {
				b[field(rec, 28)] = 1
				b[field(n-1, 28)] = 2
			})[:len(data)-1]
		}
		for name, b := range cases {
			checkVerdicts(t, fmt.Sprintf("%d records, %s", n, name), bytes.NewReader(b), int64(len(b)))
		}

		// Random damage: byte flips, truncations, appended bytes.
		rng := rand.New(rand.NewPCG(uint64(n), 7))
		for i := 0; i < 60; i++ {
			b := bytes.Clone(data)
			for flips := 1 + rng.IntN(4); flips > 0 && i%3 != 2; flips-- {
				b[rng.IntN(len(b))] ^= byte(1 + rng.IntN(255))
			}
			switch i % 3 {
			case 1:
				b = b[:rng.IntN(len(b)+1)]
			case 2:
				b = append(b, make([]byte, 1+rng.IntN(40))...)
			}
			checkVerdicts(t, fmt.Sprintf("%d records, random damage %d", n, i), bytes.NewReader(b), int64(len(b)))
		}

		// A reader that fails instead of ending, and a size that overstates
		// what the reader holds.
		boom := errors.New("boom")
		checkVerdicts(t, fmt.Sprintf("%d records, read error mid-record", n), failingReaderAt{data[:field(n/2, 5)], boom}, int64(len(data)))
		checkVerdicts(t, fmt.Sprintf("%d records, read error at the end-of-trace probe", n), failingReaderAt{data, boom}, int64(len(data))+1)
		checkVerdicts(t, fmt.Sprintf("%d records, size past the reader's end", n), bytes.NewReader(data[:len(data)-7]), int64(len(data)))
		checkVerdicts(t, fmt.Sprintf("%d records, trailing size past the reader's end", n), bytes.NewReader(data), int64(len(data))+9)
	}
}

// TestVerifyUTRRawFieldBoundaries: the verifier checks a record's raw
// fields in place and decodes only one that fails. One record at each edge
// of those checks, first, mid-chunk and last in a trace of several chunks
// whose CRC is resealed over the change, gets the Scanner's verdict, the
// exact text DecodeUTRRecord gives it and its index, on one worker and on
// two; with a later bad record and a truncation behind it, it still wins.
func TestVerifyUTRRawFieldBoundaries(t *testing.T) {
	const n = 3*trace.UTRChunkRecords + 5
	data := referenceEncode(t, randomBlockOps(n, 11))
	put := func(b []byte, rec, off int, v uint64) {
		binary.LittleEndian.PutUint64(b[trace.UTRHeaderSize+rec*trace.UTRRecordSize+off:], v)
	}
	reseal := func(b []byte) []byte {
		binary.LittleEndian.PutUint64(b[24:32], crc64.Checksum(b[trace.UTRHeaderSize:], crc64.MakeTable(crc64.ECMA)))
		return b
	}
	boundaries := []struct {
		name  string
		set   func(b []byte, rec int)
		error string // DecodeUTRRecord's text, "" for a valid record
	}{
		{"mode 2, reserved zero", func(b []byte, rec int) { put(b, rec, 24, 2) }, "trace: utr record: mode 2 (want 0 or 1)"},
		{"mode 1, reserved nonzero", func(b []byte, rec int) { put(b, rec, 24, 1|1<<32) }, "trace: utr record: reserved field is 0x1, want 0"},
		{"mode 2, reserved nonzero", func(b []byte, rec int) { put(b, rec, 24, 2|1<<63) }, "trace: utr record: mode 2 (want 0 or 1)"},
		{"offset -1", func(b []byte, rec int) { put(b, rec, 0, ^uint64(0)) }, "trace: utr record: offset -1 must be non-negative"},
		{"offset -1, size 0", func(b []byte, rec int) { put(b, rec, 0, ^uint64(0)); put(b, rec, 8, 0) }, "trace: utr record: offset -1 must be non-negative"},
		{"size 0", func(b []byte, rec int) { put(b, rec, 8, 0) }, "trace: utr record: size 0 must be positive"},
		{"size -2^63", func(b []byte, rec int) { put(b, rec, 8, 1<<63) }, "trace: utr record: size -9223372036854775808 must be positive"},
		{"gap -1", func(b []byte, rec int) { put(b, rec, 16, ^uint64(0)) }, fmt.Sprintf("trace: utr record: gap -1ns outside [0, %v]", trace.MaxUTRGap)},
		{"gap MaxUTRGap", func(b []byte, rec int) { put(b, rec, 16, uint64(trace.MaxUTRGap)) }, ""},
		{"gap MaxUTRGap+1", func(b []byte, rec int) { put(b, rec, 16, uint64(trace.MaxUTRGap)+1) },
			fmt.Sprintf("trace: utr record: gap %v outside [0, %v]", trace.MaxUTRGap+1, trace.MaxUTRGap)},
	}
	for _, bd := range boundaries {
		for _, rec := range []int{0, trace.UTRChunkRecords + trace.UTRChunkRecords/2, n - 1} {
			b := bytes.Clone(data)
			bd.set(b, rec)
			reseal(b)
			want := "<nil>"
			if bd.error != "" {
				want = fmt.Sprintf("%s (record %d)", bd.error, rec)
			}
			cases := map[string][]byte{"alone": b}
			if rec < n-1 {
				later := bytes.Clone(b)
				put(later, n-1, 24, 3)
				cases["before a bad last record, truncated"] = reseal(later)[:len(later)-1]
			}
			for name, b := range cases {
				_, scanErr := scanAll(bytes.NewReader(b))
				if name == "alone" && errText(scanErr) != want {
					t.Fatalf("%s at %d: the scanner says %s, want %s", bd.name, rec, errText(scanErr), want)
				}
				for _, workers := range []int{1, 2} {
					if _, err := trace.VerifyUTRParts(bytes.NewReader(b), int64(len(b)), workers, 1); errText(err) != errText(scanErr) {
						t.Errorf("%s at %d, %s, %d workers:\n got %s\nwant %s", bd.name, rec, name, workers, errText(err), errText(scanErr))
					}
				}
			}
		}
	}
}

// TestVerifyUTRBoundedByBytes: a header claiming 2^30 records (32 GiB of
// them; the count still fits a 32-bit int) sizes nothing; the verdict is the
// scanner's truncation, at every split.
func TestVerifyUTRBoundedByBytes(t *testing.T) {
	data := referenceEncode(t, randomBlockOps(3, 2))
	binary.LittleEndian.PutUint64(data[16:24], 1<<30)
	const want = "trace: utr trace truncated at record 3 of 1073741824"
	if count, err := trace.VerifyUTR(bytes.NewReader(data), int64(len(data))); errText(err) != want || count != 1<<30 {
		t.Fatalf("count %d, %v; want 2^30 and %s", count, err, want)
	}
}

// splitCRC checksums data cut at the given ascending offsets part by part
// and folds the parts with the combine operator.
func splitCRC(data []byte, cuts []int) uint64 {
	table := crc64.MakeTable(crc64.ECMA)
	var crc uint64
	prev := 0
	for _, cut := range append(cuts, len(data)) {
		part := data[prev:cut]
		crc = trace.CRC64Combine(crc, crc64.Checksum(part, table), int64(len(part)))
		prev = cut
	}
	return crc
}

func TestCRC64CombineMatchesChecksum(t *testing.T) {
	table := crc64.MakeTable(crc64.ECMA)
	rng := rand.New(rand.NewPCG(64, 0))
	for _, size := range []int{0, 1, 7, 8, 63, 64, 65, 4096, 1<<16 + 3, 1 << 20} {
		data := make([]byte, size)
		for i := range data {
			data[i] = byte(rng.Uint32())
		}
		want := crc64.Checksum(data, table)
		for trial := 0; trial < 20; trial++ {
			// Up to four cuts, repeated and at the ends, so parts come empty.
			cuts := make([]int, rng.IntN(5))
			for i := range cuts {
				cuts[i] = rng.IntN(size + 1)
			}
			if trial == 0 {
				cuts = []int{0, 0, size, size}
			}
			slices.Sort(cuts)
			if got := splitCRC(data, cuts); got != want {
				t.Fatalf("%d bytes cut at %v: combined %#x, crc64.Checksum %#x", size, cuts, got, want)
			}
		}
	}
}

// FuzzCRC64Combine: the CRC of a concatenation from the CRCs of its two
// halves, for any bytes and any cut.
func FuzzCRC64Combine(f *testing.F) {
	f.Add([]byte(nil), uint16(0))
	f.Add([]byte("a"), uint16(0))
	f.Add([]byte("uFLIP: understanding flash IO patterns"), uint16(7))
	f.Add(bytes.Repeat([]byte{0}, 300), uint16(299))
	f.Add(bytes.Repeat([]byte{0xff, 1}, 4096), uint16(4097))
	f.Fuzz(func(t *testing.T, data []byte, cut uint16) {
		at := 0
		if len(data) > 0 {
			at = int(cut) % (len(data) + 1)
		}
		table := crc64.MakeTable(crc64.ECMA)
		if got, want := splitCRC(data, []int{at}), crc64.Checksum(data, table); got != want {
			t.Fatalf("%d bytes cut at %d: combined %#x, crc64.Checksum %#x", len(data), at, got, want)
		}
	})
}

// FuzzVerifyUTRMatchesScanner: mutated trace bytes get the same verdict and
// the same error text from the positioned-read verifier, split as finely as
// it goes, as from the Scanner.
func FuzzVerifyUTRMatchesScanner(f *testing.F) {
	small, err := encodeUTR(randomBlockOps(5, 1))
	if err != nil {
		f.Fatal(err)
	}
	long, err := encodeUTR(randomBlockOps(2*trace.UTRChunkRecords+9, 2))
	if err != nil {
		f.Fatal(err)
	}
	f.Add(small)
	f.Add(long)
	f.Add(small[:trace.UTRHeaderSize])
	f.Add(small[:trace.UTRHeaderSize+17])
	f.Add(append(bytes.Clone(small), 0, 1))
	f.Add(long[:len(long)-trace.UTRRecordSize-1])
	f.Add([]byte(trace.UTRMagic))
	f.Fuzz(func(t *testing.T, data []byte) {
		_, wantErr := scanAll(bytes.NewReader(data))
		for _, parts := range []int{1, 2, 3} {
			if _, err := trace.VerifyUTRParts(bytes.NewReader(data), int64(len(data)), parts, 1); errText(err) != errText(wantErr) {
				t.Fatalf("%d parts:\n got %s\nwant %s", parts, errText(err), errText(wantErr))
			}
		}
	})
}
