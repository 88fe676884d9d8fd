package trace

import (
	"hash/crc64"
	"math/bits"
)

// The .utr payload CRC is CRC-64/ECMA as hash/crc64 computes it. Every
// reader and writer checksums through crcUpdate, which returns exactly
// crc64.Update(crc, utrTable, p) by one of two paths:
//
//   - On amd64 CPUs with PCLMULQDQ and SSE4.1, crcCLMUL
//     (utr_crc_amd64.s) folds 64-byte blocks with carry-less multiplies
//     and ends in a Barrett reduction; utr_crc_amd64.go derives its
//     constants from crc64.ECMA with the GF(2) helpers below.
//   - Everywhere else (386, arm64, amd64 without CLMUL), and for inputs
//     under 64 bytes, hash/crc64 itself.
//
// A table that appends one 64 KiB chunk of zeros to a CRC register folds the
// per-chunk CRCs of the parallel writer and verifier in order.

// utrChunkBytes is one full chunk of records.
const utrChunkBytes = UTRChunkRecords * UTRRecordSize

// crcChunkShift appends one chunk of zeros to a CRC register.
var crcChunkShift = makeZeroShift(utrChunkBytes)

// zeroShift appends a fixed run of zero bytes to a CRC register: the map is
// linear over GF(2), so it is the XOR of its images of the register's eight
// bytes, one table each.
type zeroShift [8][256]uint64

func (z *zeroShift) apply(x uint64) uint64 {
	return z[0][byte(x)] ^ z[1][byte(x>>8)] ^ z[2][byte(x>>16)] ^ z[3][byte(x>>24)] ^
		z[4][byte(x>>32)] ^ z[5][byte(x>>40)] ^ z[6][byte(x>>48)] ^ z[7][byte(x>>56)]
}

// makeZeroShift builds the table that appends n zero bytes, n a power of
// two: the operator of one zero bit squared up to 8n bits.
func makeZeroShift(n int) (z zeroShift) {
	var mat, sq [64]uint64
	oneZeroBit(&mat)
	for zeros := 1; zeros < 8*n; zeros *= 2 {
		gf2Square(&sq, &mat)
		mat = sq
	}
	for k := range z {
		for b := 1; b < 256; b++ {
			low := b & -b // b's lowest set bit: the column it selects
			z[k][b] = z[k][b&^low] ^ mat[8*k+bits.TrailingZeros(uint(low))]
		}
	}
	return z
}

// oneZeroBit sets mat to the operator of one zero bit: shift right, feeding
// the polynomial back.
func oneZeroBit(mat *[64]uint64) {
	mat[0] = crc64.ECMA
	for n := 1; n < 64; n++ {
		mat[n] = 1 << (n - 1)
	}
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
