package trace

import (
	"hash/crc64"
	"math/bits"
)

// crcUpdate returns crc64.Update(crc, utrTable, p): crcCLMUL on a CPU with
// PCLMULQDQ and SSE4.1, hash/crc64 on any other and for short inputs.
//
//uflint:hotpath
func crcUpdate(crc uint64, p []byte) uint64 {
	if haveCLMUL && len(p) >= crcCLMULMin {
		n := len(p) &^ 15 // the kernel takes whole 16-byte blocks
		crc, p = crcCLMUL(crc, p[:n], &crcKeys), p[n:]
	}
	return crc64.Update(crc, utrTable, p)
}

// haveCLMUL reports whether the CPU has the kernel's instructions: CPUID
// leaf 1 lists PCLMULQDQ (ECX bit 1) and SSE4.1 (ECX bit 19).
var haveCLMUL = cpuid1ECX()&(1<<1|1<<19) == 1<<1|1<<19

// crcCLMUL returns crc64.Update(crc, utrTable, p) for len(p) a multiple of
// 16 and at least crcCLMULMin, with k = &crcKeys. It is implemented in
// utr_crc_amd64.s.
//
//go:noescape
func crcCLMUL(crc uint64, p []byte, k *clmulKeys) uint64

// cpuid1ECX returns ECX of CPUID leaf 1, the feature bits.
func cpuid1ECX() uint32

// clmulKeys are the constants of the carry-less multiply kernel. Each is a
// polynomial in the register's bit-reflected form; x^n below means x^n mod
// P. A carry-less product of two reflected values is the reflected product
// times x, so a fold over d bits multiplies the high-degree half of a
// 128-bit block by x^(d+63) and the low-degree half by x^(d-1).
type clmulKeys struct {
	fold64 [2]uint64 // folds a block 64 bytes on: x^(512+63), x^(512-1)
	fold16 [2]uint64 // folds a block 16 bytes on: x^(128+63), x^(128-1)
	// barrett reduces 128 bits to the register: floor(x^128 / P) and P,
	// each without its x^64 term.
	barrett [2]uint64
}

// crcCLMULMin is the shortest input crcCLMUL takes: its four 16-byte
// accumulators.
const crcCLMULMin = 64

var crcKeys = clmulKeys{
	fold64:  [2]uint64{xPowMod(512 + 63), xPowMod(512 - 1)},
	fold16:  [2]uint64{xPowMod(128 + 63), xPowMod(128 - 1)},
	barrett: [2]uint64{barrettQuotient(), crc64.ECMA},
}

// xPowMod returns x^n mod P in the register's form, where the polynomial 1
// is the top bit: n zero bits appended to it.
func xPowMod(n int) uint64 {
	var mat [64]uint64
	oneZeroBit(&mat)
	v := uint64(1) << 63
	for ; n > 0; n-- {
		v = gf2Times(&mat, v)
	}
	return v
}

// barrettQuotient returns floor(x^128 / P) without its x^64 term, in the
// register's form, by long division: r holds degrees 64..127 of what is
// left of x^128 once x^64·P is taken away, bit i standing for x^(64+i).
func barrettQuotient() uint64 {
	p := bits.Reverse64(crc64.ECMA) // P without x^64, highest degree on top
	var q uint64
	r := p
	for d := 63; d >= 0; d-- {
		if r>>d&1 != 0 {
			q |= 1 << d
			r ^= 1<<d ^ p>>(64-d) // take away x^d·P
		}
	}
	return bits.Reverse64(q)
}
