package trace

import (
	"encoding/binary"
	"hash/crc64"
	"math/bits"
)

// The .utr payload CRC is CRC-64/ECMA as hash/crc64 computes it. Every
// reader and writer checksums through crcUpdate, which returns exactly
// crc64.Update(crc, utrTable, p) but keeps four slicing-by-8 dependency
// chains in flight instead of one: each 8 KiB block is cut into four 2 KiB
// lanes checksummed side by side, and the lanes are joined with a table
// that appends 2 KiB of zeros to a CRC register. The same construction,
// at 64 KiB, folds the per-chunk CRCs of the parallel writer and verifier
// in order.

const (
	// crcLaneBytes is one lane of the kernel; crcBlockBytes is the four
	// lanes it checksums at once.
	crcLaneBytes  = 2048
	crcBlockBytes = 4 * crcLaneBytes
	// utrChunkBytes is one full chunk of records.
	utrChunkBytes = UTRChunkRecords * UTRRecordSize
)

var (
	// crcSlice8 is the slicing-by-8 table of utrTable: crcSlice8[k][b] is
	// the register contribution of byte b followed by k zero bytes.
	crcSlice8 = makeSlice8(utrTable)
	// crcLaneShift appends one lane of zeros, crcChunkShift one chunk.
	crcLaneShift  = makeZeroShift(crcLaneBytes)
	crcChunkShift = makeZeroShift(utrChunkBytes)
)

// crcUpdate returns crc64.Update(crc, utrTable, p).
//
//uflint:hotpath
func crcUpdate(crc uint64, p []byte) uint64 {
	if len(p) >= crcBlockBytes {
		reg := ^crc // the register; hash/crc64 inverts on the way in and out
		for ; len(p) >= crcBlockBytes; p = p[crcBlockBytes:] {
			l0 := (*[crcLaneBytes]byte)(p[0*crcLaneBytes : 1*crcLaneBytes])
			l1 := (*[crcLaneBytes]byte)(p[1*crcLaneBytes : 2*crcLaneBytes])
			l2 := (*[crcLaneBytes]byte)(p[2*crcLaneBytes : 3*crcLaneBytes])
			l3 := (*[crcLaneBytes]byte)(p[3*crcLaneBytes : 4*crcLaneBytes])
			// The register update is linear, so lanes 1-3 start from zero
			// and are joined to lane 0's register below.
			a, b, c, d := reg, uint64(0), uint64(0), uint64(0)
			t := &crcSlice8
			for i := 0; i < crcLaneBytes; i += 8 {
				// slicing-by-8, written out: a call per word would not inline
				a ^= binary.LittleEndian.Uint64(l0[i : i+8])
				b ^= binary.LittleEndian.Uint64(l1[i : i+8])
				c ^= binary.LittleEndian.Uint64(l2[i : i+8])
				d ^= binary.LittleEndian.Uint64(l3[i : i+8])
				a = t[7][byte(a)] ^ t[6][byte(a>>8)] ^ t[5][byte(a>>16)] ^ t[4][byte(a>>24)] ^
					t[3][byte(a>>32)] ^ t[2][byte(a>>40)] ^ t[1][byte(a>>48)] ^ t[0][a>>56]
				b = t[7][byte(b)] ^ t[6][byte(b>>8)] ^ t[5][byte(b>>16)] ^ t[4][byte(b>>24)] ^
					t[3][byte(b>>32)] ^ t[2][byte(b>>40)] ^ t[1][byte(b>>48)] ^ t[0][b>>56]
				c = t[7][byte(c)] ^ t[6][byte(c>>8)] ^ t[5][byte(c>>16)] ^ t[4][byte(c>>24)] ^
					t[3][byte(c>>32)] ^ t[2][byte(c>>40)] ^ t[1][byte(c>>48)] ^ t[0][c>>56]
				d = t[7][byte(d)] ^ t[6][byte(d>>8)] ^ t[5][byte(d>>16)] ^ t[4][byte(d>>24)] ^
					t[3][byte(d>>32)] ^ t[2][byte(d>>40)] ^ t[1][byte(d>>48)] ^ t[0][d>>56]
			}
			reg = crcLaneShift.apply(crcLaneShift.apply(crcLaneShift.apply(a)^b)^c) ^ d
		}
		crc = ^reg
	}
	return crc64.Update(crc, utrTable, p)
}

func makeSlice8(tab *crc64.Table) (t [8][256]uint64) {
	t[0] = *tab
	for k := 1; k < 8; k++ {
		for b := range t[k] {
			prev := t[k-1][b]
			t[k][b] = tab[byte(prev)] ^ prev>>8
		}
	}
	return t
}

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
