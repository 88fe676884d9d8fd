package trace

import (
	"fmt"
	"hash/crc64"
	"io"
	"runtime"
	"sync"
)

// verifyPartChunks is the least a part of a split verification covers, in
// chunks (1 MiB of records): a trace shorter than two of them is verified on
// the calling goroutine, where starting goroutines and building the CRC
// combine operator (~100 µs) would cost more than they save.
const verifyPartChunks = 16

// VerifyUTR validates the .utr trace held in the first size bytes of ra —
// header, every record, payload CRC, nothing after the last record — with
// positioned reads, and returns the record count the header declares (valid
// whenever the header itself parsed, whatever the error). It reports exactly
// what NewScanner followed by a full Scan loop over the same bytes reports:
// the same checks, the same error text and the same precedence (the first bad
// record before a truncation, a truncation or bad record before a CRC
// mismatch, a CRC mismatch before trailing bytes). A long trace is split into
// chunk-aligned parts validated and checksummed concurrently, one per CPU,
// and the parts' CRCs are folded with crc64Combine; the lowest-index failure
// wins, so the verdict does not depend on the split. ra must allow
// concurrent ReadAt calls, as *os.File and bytes.Reader do.
func VerifyUTR(ra io.ReaderAt, size int64) (int, error) {
	return verifyUTR(ra, size, runtime.GOMAXPROCS(0), verifyPartChunks)
}

// verifyUTR is VerifyUTR over at most maxParts parts of at least partChunks
// chunks each.
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
	chunks := (have + UTRChunkRecords - 1) / UTRChunkRecords
	parts := min(maxParts, chunks/partChunks)

	var crc uint64
	if parts <= 1 {
		if crc, err = verifyRecords(ra, 0, have, count); err != nil {
			return count, err
		}
	} else {
		perChunks := (chunks + parts - 1) / parts
		parts = (chunks + perChunks - 1) / perChunks // rounding up can leave fewer
		per := perChunks * UTRChunkRecords
		crcs := make([]uint64, parts)
		errs := make([]error, parts)
		var wg sync.WaitGroup
		for p := 0; p < parts; p++ {
			wg.Add(1)
			go func(p int) {
				defer wg.Done()
				first := p * per
				crcs[p], errs[p] = verifyRecords(ra, first, min(per, have-first), count)
			}(p)
		}
		wg.Wait()
		for p := 0; p < parts; p++ {
			if errs[p] != nil {
				return count, errs[p]
			}
			crc = crc64Combine(crc, crcs[p], int64(min(per, have-p*per))*UTRRecordSize)
		}
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

// verifyRecords decodes and validates records [first, first+n) of a trace
// declaring count of them, a chunk at a time as Scanner does, and returns the
// CRC-64 of their bytes. A read that ends early still has every whole record
// it returned validated before it is reported, as Scanner hands them out.
func verifyRecords(ra io.ReaderAt, first, n, count int) (uint64, error) {
	chunk := make([]byte, min(n, UTRChunkRecords)*UTRRecordSize)
	off := int64(UTRHeaderSize) + int64(first)*UTRRecordSize
	var crc uint64
	for rec, end := first, first+n; rec < end; {
		window := chunk[:min(end-rec, UTRChunkRecords)*UTRRecordSize]
		got, readErr := ra.ReadAt(window, off)
		if got == len(window) {
			readErr = nil // ReadAt may report EOF with a full read
		}
		window = window[:got-got%UTRRecordSize]
		off += int64(len(window))
		crc = crc64.Update(crc, utrTable, window)
		for ; len(window) > 0; window = window[UTRRecordSize:] {
			if _, err := DecodeUTRRecord(window[:UTRRecordSize]); err != nil {
				return 0, fmt.Errorf("%w (record %d)", err, rec)
			}
			rec++
		}
		switch readErr {
		case nil:
		case io.EOF, io.ErrUnexpectedEOF:
			return 0, fmt.Errorf("trace: utr trace truncated at record %d of %d", rec, count)
		default:
			return 0, fmt.Errorf("trace: utr read: %w", readErr)
		}
	}
	return crc, nil
}

// crc64Combine returns the CRC-64/ECMA of A‖B from crcA = crc(A), crcB =
// crc(B) and lenB = len(B), without the bytes: zlib's crc32_combine
// construction at 64 bits. Appending lenB zero bytes to A is a linear map of
// its CRC register over GF(2); the map for one zero bit is written down, and
// squared repeatedly to reach 8·lenB bits in O(log lenB) 64×64 matrix
// products; what B's own bytes add on top of zeros is crcB.
func crc64Combine(crcA, crcB uint64, lenB int64) uint64 {
	if lenB <= 0 {
		return crcA
	}
	var even, odd [64]uint64
	odd[0] = crc64.ECMA // one zero bit: shift right, feeding the polynomial back
	for n := 1; n < 64; n++ {
		odd[n] = 1 << (n - 1)
	}
	gf2Square(&even, &odd) // two zero bits
	gf2Square(&odd, &even) // four
	// Each squaring doubles the zeros the operator appends, starting at one
	// byte; apply the operators lenB's set bits select.
	for {
		gf2Square(&even, &odd)
		if lenB&1 != 0 {
			crcA = gf2Times(&even, crcA)
		}
		if lenB >>= 1; lenB == 0 {
			break
		}
		gf2Square(&odd, &even)
		if lenB&1 != 0 {
			crcA = gf2Times(&odd, crcA)
		}
		if lenB >>= 1; lenB == 0 {
			break
		}
	}
	return crcA ^ crcB
}

// gf2Times multiplies the GF(2) matrix mat (one column per word) by vec.
func gf2Times(mat *[64]uint64, vec uint64) uint64 {
	var sum uint64
	for n := 0; vec != 0; n, vec = n+1, vec>>1 {
		sum ^= mat[n] & -(vec & 1) // branch-free: the bits are as good as random
	}
	return sum
}

// gf2Square sets sq to mat·mat.
func gf2Square(sq, mat *[64]uint64) {
	for n := range sq {
		sq[n] = gf2Times(mat, mat[n])
	}
}
