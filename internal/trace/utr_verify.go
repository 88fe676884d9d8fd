package trace

import (
	"context"
	"encoding/binary"
	"fmt"
	"io"

	"uflip/internal/par"
)

// verifyPartChunks is the least each worker of a verification or an
// in-memory write is given, in chunks (1 MiB of records): a trace shorter
// than two of them is verified, and written by WriteUTR, on the calling
// goroutine, where starting goroutines would cost more than they save.
const verifyPartChunks = 16

// VerifyUTR validates the .utr trace held in the first size bytes of ra —
// header, every record, payload CRC, nothing after the last record — with
// positioned reads, and returns the record count the header declares (valid
// whenever the header itself parsed, whatever the error). It reports exactly
// what NewScanner followed by a full Scan loop over the same bytes reports:
// the same checks, the same error text and the same precedence (the first bad
// record before a truncation, a truncation or bad record before a CRC
// mismatch, a CRC mismatch before trailing bytes). A long trace is read,
// validated and checksummed a chunk at a time on up to one worker per CPU by
// par.Each, each worker reading into its own buffer, and the chunk CRCs are
// folded in order; the lowest-index failure wins, so the verdict does not
// depend on the worker count. ra must allow concurrent ReadAt calls, as
// *os.File and bytes.Reader do.
func VerifyUTR(ra io.ReaderAt, size int64) (int, error) {
	return verifyUTR(ra, size, par.Workers(0), verifyPartChunks)
}

// verifyUTR is VerifyUTR on at most maxParts workers, each given at least
// partChunks chunks.
func verifyUTR(ra io.ReaderAt, size int64, maxParts, partChunks int) (int, error) {
	var hdr [UTRHeaderSize]byte
	if _, err := io.ReadFull(io.NewSectionReader(ra, 0, size), hdr[:]); err != nil {
		return 0, fmt.Errorf("trace: utr header truncated: %w", err)
	}
	count, want, err := ParseUTRHeader(hdr[:])
	if err != nil {
		return 0, err
	}
	// have is how many of the declared records the bytes hold whole; the
	// header's count sizes nothing until the bytes are seen to be there.
	have := int(min(int64(count), (size-UTRHeaderSize)/UTRRecordSize))
	// The whole chunks are verified on the workers, in any order, each
	// checksummed from zero into crcs — 8 bytes a 64 KiB chunk — and folded
	// in order once all are in; a short last chunk is verified after them
	// and checksummed on from their CRC. Each hands chunks out in order and
	// runs every chunk it hands out, so when chunk k fails every chunk before
	// it has been verified too, and the lowest failing chunk in errs is the
	// trace's first failure, whichever failed first in time.
	full := have / UTRChunkRecords
	workers := max(1, min(maxParts, full/partChunks))
	bufs := make([]utrChunk, workers)
	crcs := make([]uint64, full)
	errs := make([]error, full)
	par.Each(context.Background(), full, workers, func(_ context.Context, w, k int) error {
		errs[k] = bufs[w].verify(ra, k, have, count)
		crcs[k] = bufs[w].crc
		return errs[k]
	})
	for _, err := range errs {
		if err != nil {
			return count, err
		}
	}
	var crc uint64
	for _, c := range crcs {
		crc = crcChunkShift.apply(crc) ^ c
	}
	if full*UTRChunkRecords < have {
		if err := bufs[0].verify(ra, full, have, count); err != nil {
			return count, err
		}
		crc = bufs[0].fold(crc)
	}
	end := int64(UTRHeaderSize) + int64(count)*UTRRecordSize
	switch {
	case have < count:
		return count, fmt.Errorf("trace: utr trace truncated at record %d of %d", have, count)
	case crc != want:
		return count, fmt.Errorf("trace: utr payload CRC mismatch (file %#x, computed %#x)", want, crc)
	case size > end:
		var one [1]byte
		if n, err := ra.ReadAt(one[:], end); n == 1 {
			return count, fmt.Errorf("trace: utr trace has trailing bytes after %d records", count)
		} else if err != io.EOF {
			return count, fmt.Errorf("trace: utr read: %w", err)
		}
	}
	return count, nil
}

// verify reads chunk k of the first have records of a trace declaring count
// of them into c and validates every record in it, as Scanner does, and
// checksums it if it is full. A read that ends early still has every whole
// record it returned validated before it is reported. The fields are checked
// in place — one load of bytes [24:32) holds the mode and the reserved word,
// valid exactly when it is 0 or 1 — and DecodeUTRRecord runs only on a
// record that fails, for its error.
func (c *utrChunk) verify(ra io.ReaderAt, k, have, count int) error {
	first := k * UTRChunkRecords
	n := min(have-first, UTRChunkRecords) * UTRRecordSize
	if cap(c.buf) < n {
		c.buf = make([]byte, n)
	}
	got, readErr := ra.ReadAt(c.buf[:n], int64(UTRHeaderSize)+int64(first)*UTRRecordSize)
	if got == n {
		readErr = nil // ReadAt may report EOF with a full read
	}
	c.buf = c.buf[:got-got%UTRRecordSize]
	for i := 0; i < len(c.buf); i += UTRRecordSize {
		r := (*[UTRRecordSize]byte)(c.buf[i : i+UTRRecordSize])
		off := int64(binary.LittleEndian.Uint64(r[0:8]))
		size := int64(binary.LittleEndian.Uint64(r[8:16]))
		gap := binary.LittleEndian.Uint64(r[16:24]) // a negative gap is above the bound too
		if off < 0 || size <= 0 || gap > uint64(MaxUTRGap) || binary.LittleEndian.Uint64(r[24:32]) > 1 {
			if _, err := DecodeUTRRecord(r[:]); err != nil {
				return fmt.Errorf("%w (record %d)", err, first+i/UTRRecordSize)
			}
		}
	}
	switch readErr {
	case nil:
	case io.EOF, io.ErrUnexpectedEOF:
		return fmt.Errorf("trace: utr trace truncated at record %d of %d", first+len(c.buf)/UTRRecordSize, count)
	default:
		return fmt.Errorf("trace: utr read: %w", readErr)
	}
	if len(c.buf) == utrChunkBytes {
		c.crc = crcUpdate(0, c.buf)
	}
	return nil
}
