package trace

import (
	"encoding/binary"
	"fmt"
	"hash/crc64"
	"io"
	"math"
	"time"

	"uflip/internal/device"
)

// The uFLIP binary trace format (.utr) is the streaming counterpart of the
// block-trace CSV: a 32-byte header followed by fixed-width 32-byte records,
// one per IO. Fixed-width records make the file mmap-able and randomly
// addressable (record i lives at UTRHeaderSize + i*UTRRecordSize), and the
// header carries the record count up front so parallel replay can shard the
// stream deterministically without reading it.
//
// Header (little-endian):
//
//	[0:8)   magic "uFLIPtr\x01"
//	[8:12)  format version (currently 1)
//	[12:16) reserved, must be zero
//	[16:24) record count, must be positive
//	[24:32) CRC-64/ECMA of all record bytes
//
// Record (little-endian):
//
//	[0:8)   offset in bytes (int64, non-negative)
//	[8:16)  size in bytes (int64, positive)
//	[16:24) inter-arrival gap in nanoseconds (int64, 0..MaxUTRGap)
//	[24:28) mode: 0 = read, 1 = write
//	[28:32) reserved, must be zero
//
// Every field a valid writer can emit has exactly one encoding (reserved
// bytes are zero, mode is 0 or 1), so a parsed file re-encodes to the same
// bytes and utr -> CSV -> utr round trips are byte-identical within the CSV
// format's gap bound.

const (
	// UTRMagic is the 8-byte file magic every .utr file starts with.
	UTRMagic = "uFLIPtr\x01"
	// UTRVersion is the current format version.
	UTRVersion = 1
	// UTRHeaderSize is the fixed header length in bytes.
	UTRHeaderSize = 32
	// UTRRecordSize is the fixed per-record length in bytes.
	UTRRecordSize = 32
	// UTRChunkRecords is how many records readers and writers move, and
	// checksum, at a time: 64 KiB, long enough for crc64's slicing-by-8 path
	// (which needs 64 bytes) and short enough to stay in cache.
	UTRChunkRecords = 2048
)

// MaxUTRGap bounds the inter-arrival gap a record may carry (~6.5 days).
// It is exactly the CSV format's MaxGapUS bound (a whole number of
// microseconds, (1<<49)/1000) converted to nanoseconds, so every op that
// fits one format fits the other and cross-format round trips never clip.
const MaxUTRGap = time.Duration((int64(1) << 49) / 1000 * 1000)

// utrTable is the CRC-64/ECMA table shared by readers and writers.
var utrTable = crc64.MakeTable(crc64.ECMA)

// BlockOp is one record of a block trace, in either form: a single IO plus
// the gap between the previous submission and its own. It is the op every
// layer above shares (workload.Op is an alias), which is why this package
// imports device: device.IO is the request a device is handed, and device
// sits below everything that reads or writes a trace (it imports only the
// FTL and flash models), so one struct serves the codec, the generators and
// the replayer with no conversion between them.
type BlockOp struct {
	// Gap is the inter-arrival gap since the previous IO's submission.
	Gap time.Duration
	// IO is the request: mode, byte offset and length.
	IO device.IO
}

// IsUTR reports whether head (the first bytes of a stream) starts with the
// .utr magic. Callers sniffing a trace need at least len(UTRMagic) bytes.
func IsUTR(head []byte) bool {
	return len(head) >= len(UTRMagic) && string(head[:len(UTRMagic)]) == UTRMagic
}

// EncodeUTRRecord validates op and encodes it into dst. The encoding is
// canonical: equal ops always produce equal bytes.
func EncodeUTRRecord(dst *[UTRRecordSize]byte, op BlockOp) error {
	switch {
	case op.IO.Off < 0:
		return fmt.Errorf("trace: utr record: offset %d must be non-negative", op.IO.Off)
	case op.IO.Size <= 0:
		return fmt.Errorf("trace: utr record: size %d must be positive", op.IO.Size)
	case op.Gap < 0 || op.Gap > MaxUTRGap:
		return fmt.Errorf("trace: utr record: gap %v outside [0, %v]", op.Gap, MaxUTRGap)
	case op.IO.Mode != device.Read && op.IO.Mode != device.Write:
		return fmt.Errorf("trace: utr record: mode %d (want 0 or 1)", op.IO.Mode)
	}
	binary.LittleEndian.PutUint64(dst[0:8], uint64(op.IO.Off))
	binary.LittleEndian.PutUint64(dst[8:16], uint64(op.IO.Size))
	binary.LittleEndian.PutUint64(dst[16:24], uint64(op.Gap))
	binary.LittleEndian.PutUint32(dst[24:28], uint32(op.IO.Mode))
	binary.LittleEndian.PutUint32(dst[28:32], 0)
	return nil
}

// DecodeUTRRecord decodes and validates one 32-byte record.
func DecodeUTRRecord(b []byte) (BlockOp, error) {
	var op BlockOp
	if len(b) != UTRRecordSize {
		return op, fmt.Errorf("trace: utr record is %d bytes, want %d", len(b), UTRRecordSize)
	}
	op.IO.Off = int64(binary.LittleEndian.Uint64(b[0:8]))
	op.IO.Size = int64(binary.LittleEndian.Uint64(b[8:16]))
	op.Gap = time.Duration(binary.LittleEndian.Uint64(b[16:24]))
	switch mode := binary.LittleEndian.Uint32(b[24:28]); mode {
	case 0:
		op.IO.Mode = device.Read
	case 1:
		op.IO.Mode = device.Write
	default:
		return op, fmt.Errorf("trace: utr record: mode %d (want 0 or 1)", mode)
	}
	if rsv := binary.LittleEndian.Uint32(b[28:32]); rsv != 0 {
		return op, fmt.Errorf("trace: utr record: reserved field is %#x, want 0", rsv)
	}
	switch {
	case op.IO.Off < 0:
		return op, fmt.Errorf("trace: utr record: offset %d must be non-negative", op.IO.Off)
	case op.IO.Size <= 0:
		return op, fmt.Errorf("trace: utr record: size %d must be positive", op.IO.Size)
	case op.Gap < 0 || op.Gap > MaxUTRGap:
		return op, fmt.Errorf("trace: utr record: gap %v outside [0, %v]", op.Gap, MaxUTRGap)
	}
	return op, nil
}

// ParseUTRHeader validates the fixed header and returns the declared record
// count and payload CRC. b must hold at least UTRHeaderSize bytes.
func ParseUTRHeader(b []byte) (count int, crc uint64, err error) {
	if len(b) < UTRHeaderSize {
		return 0, 0, fmt.Errorf("trace: utr header truncated: %d bytes, want %d", len(b), UTRHeaderSize)
	}
	if !IsUTR(b) {
		return 0, 0, fmt.Errorf("trace: not a utr trace (bad magic)")
	}
	if v := binary.LittleEndian.Uint32(b[8:12]); v != UTRVersion {
		return 0, 0, fmt.Errorf("trace: utr version %d not supported (want %d)", v, UTRVersion)
	}
	if rsv := binary.LittleEndian.Uint32(b[12:16]); rsv != 0 {
		return 0, 0, fmt.Errorf("trace: utr header reserved field is %#x, want 0", rsv)
	}
	n := binary.LittleEndian.Uint64(b[16:24])
	if n == 0 {
		// A zero count is also what a torn write of the placeholder header
		// leaves behind, so it must fail loudly, like the empty-CSV case.
		return 0, 0, fmt.Errorf("trace: utr trace holds no IOs")
	}
	if n > uint64((math.MaxInt64-UTRHeaderSize)/UTRRecordSize) || n > math.MaxInt {
		return 0, 0, fmt.Errorf("trace: utr record count %d is implausible", n)
	}
	return int(n), binary.LittleEndian.Uint64(b[24:32]), nil
}

// putUTRHeader encodes the header for count records with payload CRC crc.
func putUTRHeader(dst *[UTRHeaderSize]byte, count uint64, crc uint64) {
	copy(dst[0:8], UTRMagic)
	binary.LittleEndian.PutUint32(dst[8:12], UTRVersion)
	binary.LittleEndian.PutUint32(dst[12:16], 0)
	binary.LittleEndian.PutUint64(dst[16:24], count)
	binary.LittleEndian.PutUint64(dst[24:32], crc)
}

// Scanner streams records out of a .utr trace one at a time at O(1) memory.
// The header is validated up front; records arrive through one fixed chunk
// (UTRChunkRecords of them, allocated once) and each is validated as it is
// handed out; the payload CRC is accumulated once per chunk and checked
// after the last record, so corruption anywhere in the file fails loudly
// without ever buffering the trace.
//
//	sc, err := trace.NewScanner(r)
//	for sc.Scan() {
//	    op := sc.Op()
//	    ...
//	}
//	err = sc.Err()
type Scanner struct {
	r       io.Reader
	count   int
	scanned int
	crc     uint64
	want    uint64
	op      BlockOp
	err     error
	done    bool
	// chunk[pos:end] holds the whole records read but not yet handed out;
	// readErr is what ended the last read early, reported once they are.
	chunk    []byte
	pos, end int
	readErr  error
}

// NewScanner reads and validates the .utr header from r and returns a
// scanner over its records. The scanner reads r in chunk-sized pieces
// itself; r needs no buffering of its own.
func NewScanner(r io.Reader) (*Scanner, error) {
	var hdr [UTRHeaderSize]byte
	if _, err := io.ReadFull(r, hdr[:]); err != nil {
		return nil, fmt.Errorf("trace: utr header truncated: %w", err)
	}
	count, want, err := ParseUTRHeader(hdr[:])
	if err != nil {
		return nil, err
	}
	// The chunk is sized by the header's count only up to the fixed cap: a
	// hostile header can claim any count.
	chunk := make([]byte, min(count, UTRChunkRecords)*UTRRecordSize)
	return &Scanner{r: r, count: count, want: want, chunk: chunk}, nil
}

// Count returns the record count declared by the header.
func (s *Scanner) Count() int { return s.count }

// Scan advances to the next record. It returns false at the end of the
// trace or on the first error; Err tells the two apart.
//
//uflint:hotpath
func (s *Scanner) Scan() bool {
	if s.pos == s.end && !s.fill() {
		return false
	}
	op, err := DecodeUTRRecord(s.chunk[s.pos : s.pos+UTRRecordSize])
	if err != nil {
		s.err = fmt.Errorf("%w (record %d)", err, s.scanned)
		s.end = s.pos // nothing left to hand out: later calls stop in fill
		return false
	}
	s.pos += UTRRecordSize
	s.op = op
	s.scanned++
	return true
}

// fill reads the next chunk of records, or settles how the scan ends: it
// returns false with Err set on truncation, a read error, a CRC mismatch or
// trailing bytes, and false with Err nil after a clean scan.
func (s *Scanner) fill() bool {
	switch {
	case s.done || s.err != nil:
		return false
	case s.readErr == io.EOF || s.readErr == io.ErrUnexpectedEOF:
		s.err = fmt.Errorf("trace: utr trace truncated at record %d of %d", s.scanned, s.count)
		return false
	case s.readErr != nil:
		s.err = fmt.Errorf("trace: utr read: %w", s.readErr)
		return false
	case s.scanned == s.count:
		s.done = true
		if s.crc != s.want {
			s.err = fmt.Errorf("trace: utr payload CRC mismatch (file %#x, computed %#x)", s.want, s.crc)
		} else if _, err := io.ReadFull(s.r, s.chunk[:1]); err == nil {
			s.err = fmt.Errorf("trace: utr trace has trailing bytes after %d records", s.count)
		} else if err != io.EOF {
			s.err = fmt.Errorf("trace: utr read: %w", err)
		}
		return false
	}
	want := min(s.count-s.scanned, UTRChunkRecords) * UTRRecordSize
	n, err := io.ReadFull(s.r, s.chunk[:want])
	// A short read still hands out every whole record it holds before the
	// scan fails, as a record-at-a-time reader would.
	s.readErr = err
	s.pos, s.end = 0, n-n%UTRRecordSize
	s.crc = crc64.Update(s.crc, utrTable, s.chunk[:s.end])
	// Not one whole record: go round again to report what cut the read short.
	return s.end > 0 || s.fill()
}

// Op returns the record read by the last successful Scan.
func (s *Scanner) Op() BlockOp { return s.op }

// Err returns the first error the scanner hit, or nil after a clean scan of
// the whole trace.
func (s *Scanner) Err() error { return s.err }

// UTRWriter streams records into a .utr trace. It writes a placeholder
// header, appends records as they arrive, and patches the real count and
// CRC into the header on Close — so writers that discover the record count
// as they go (CSV conversion, live capture) spend O(1) memory. Records are
// staged in one fixed chunk that is checksummed and written when full.
// Until Close succeeds the file carries a zero record count, which every
// reader rejects, so a torn write cannot be mistaken for a valid trace.
type UTRWriter struct {
	ws     io.WriteSeeker
	count  uint64
	crc    uint64
	chunk  []byte // staged records; cap is the fixed chunk size
	closed bool
}

// NewUTRWriter writes the placeholder header and returns a writer
// positioned at the first record.
func NewUTRWriter(ws io.WriteSeeker) (*UTRWriter, error) {
	var hdr [UTRHeaderSize]byte
	putUTRHeader(&hdr, 0, 0)
	if _, err := ws.Write(hdr[:]); err != nil {
		return nil, fmt.Errorf("trace: utr write: %w", err)
	}
	return &UTRWriter{ws: ws, chunk: make([]byte, 0, UTRChunkRecords*UTRRecordSize)}, nil
}

// Write validates op and appends its record.
func (u *UTRWriter) Write(op BlockOp) error {
	if u.closed {
		return fmt.Errorf("trace: utr write after Close")
	}
	if len(u.chunk) == cap(u.chunk) {
		if err := u.flush(); err != nil {
			return err
		}
	}
	n := len(u.chunk)
	if err := EncodeUTRRecord((*[UTRRecordSize]byte)(u.chunk[n:n+UTRRecordSize]), op); err != nil {
		return fmt.Errorf("%w (record %d)", err, u.count)
	}
	u.chunk = u.chunk[:n+UTRRecordSize]
	u.count++
	return nil
}

// flush checksums and writes the staged records.
func (u *UTRWriter) flush() error {
	u.crc = crc64.Update(u.crc, utrTable, u.chunk)
	if _, err := u.ws.Write(u.chunk); err != nil {
		return fmt.Errorf("trace: utr write: %w", err)
	}
	u.chunk = u.chunk[:0]
	return nil
}

// Close flushes the records and patches the final header in place. The
// underlying file is left positioned at the end of the trace and is not
// closed; that stays with the caller.
func (u *UTRWriter) Close() error {
	if u.closed {
		return nil
	}
	u.closed = true
	if u.count == 0 {
		return fmt.Errorf("trace: utr trace holds no IOs")
	}
	if err := u.flush(); err != nil {
		return err
	}
	var hdr [UTRHeaderSize]byte
	putUTRHeader(&hdr, u.count, u.crc)
	if _, err := u.ws.Seek(0, io.SeekStart); err != nil {
		return fmt.Errorf("trace: utr write: %w", err)
	}
	if _, err := u.ws.Write(hdr[:]); err != nil {
		return fmt.Errorf("trace: utr write: %w", err)
	}
	if _, err := u.ws.Seek(0, io.SeekEnd); err != nil {
		return fmt.Errorf("trace: utr write: %w", err)
	}
	return nil
}

// WriteUTR writes ops as a complete .utr trace to a plain io.Writer. The
// record count is known up front, so no seeking is needed: one validation
// pass computes the CRC, a second emits the bytes, both a chunk at a time.
func WriteUTR(w io.Writer, ops []BlockOp) error {
	if len(ops) == 0 {
		return fmt.Errorf("trace: utr trace holds no IOs")
	}
	chunk := make([]byte, min(len(ops), UTRChunkRecords)*UTRRecordSize)
	var crc uint64
	if err := encodeUTRChunks(ops, chunk, func(b []byte) error {
		crc = crc64.Update(crc, utrTable, b)
		return nil
	}); err != nil {
		return err
	}
	var hdr [UTRHeaderSize]byte
	putUTRHeader(&hdr, uint64(len(ops)), crc)
	if _, err := w.Write(hdr[:]); err != nil {
		return fmt.Errorf("trace: utr write: %w", err)
	}
	return encodeUTRChunks(ops, chunk, func(b []byte) error {
		if _, err := w.Write(b); err != nil {
			return fmt.Errorf("trace: utr write: %w", err)
		}
		return nil
	})
}

// encodeUTRChunks encodes ops into chunk, as many records at a time as it
// holds, and hands each filled stretch to emit.
func encodeUTRChunks(ops []BlockOp, chunk []byte, emit func([]byte) error) error {
	per := len(chunk) / UTRRecordSize
	for base := 0; base < len(ops); base += per {
		n := min(len(ops)-base, per)
		for i, op := range ops[base : base+n] {
			rec := (*[UTRRecordSize]byte)(chunk[i*UTRRecordSize : (i+1)*UTRRecordSize])
			if err := EncodeUTRRecord(rec, op); err != nil {
				return fmt.Errorf("%w (record %d)", err, base+i)
			}
		}
		if err := emit(chunk[:n*UTRRecordSize]); err != nil {
			return err
		}
	}
	return nil
}
