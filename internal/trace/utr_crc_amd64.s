#include "textflag.h"

// CRC-64/ECMA by carry-less multiplication, after the PCLMULQDQ folding of
// hash/crc32's ieeeCLMUL (Intel, "Fast CRC Computation for Generic
// Polynomials Using PCLMULQDQ Instruction"), at 64 bits and with the
// constants in a clmulKeys the caller passes (utr_crc.go derives them).
// Each XMM accumulator holds 16 bytes as the register sees them: its low
// quadword is the high-degree half. A fold multiplies the low quadword by
// one key and the high quadword by the other, and XORs both products into
// the block the accumulator is moved onto.

// func crcCLMUL(crc uint64, p []byte, k *clmulKeys) uint64
TEXT ·crcCLMUL(SB), NOSPLIT, $0-48
	MOVQ crc+0(FP), AX
	NOTQ AX                         // hash/crc64 inverts on the way in
	MOVQ p_base+8(FP), SI
	MOVQ p_len+16(FP), CX
	MOVQ k+32(FP), DX

	// Four accumulators take the first 64 bytes; the register joins the
	// first of them.
	MOVOU (SI), X1
	MOVOU 16(SI), X2
	MOVOU 32(SI), X3
	MOVOU 48(SI), X4
	MOVQ  AX, X0
	PXOR  X0, X1
	ADDQ  $64, SI
	SUBQ  $64, CX
	CMPQ  CX, $64
	JB    fold4

	MOVOU 0(DX), X0 // fold64

loop64:
	MOVOA X1, X5
	MOVOA X2, X6
	MOVOA X3, X7
	MOVOA X4, X8

	PCLMULQDQ $0x00, X0, X1
	PCLMULQDQ $0x00, X0, X2
	PCLMULQDQ $0x00, X0, X3
	PCLMULQDQ $0x00, X0, X4

	MOVOU (SI), X11
	MOVOU 16(SI), X12
	MOVOU 32(SI), X13
	MOVOU 48(SI), X14

	PCLMULQDQ $0x11, X0, X5
	PCLMULQDQ $0x11, X0, X6
	PCLMULQDQ $0x11, X0, X7
	PCLMULQDQ $0x11, X0, X8

	PXOR X5, X1
	PXOR X6, X2
	PXOR X7, X3
	PXOR X8, X4

	PXOR X11, X1
	PXOR X12, X2
	PXOR X13, X3
	PXOR X14, X4

	ADDQ $64, SI
	SUBQ $64, CX
	CMPQ CX, $64
	JAE  loop64

	// Fold the four accumulators into X1, 16 bytes at a time.
fold4:
	MOVOU 16(DX), X0 // fold16

	MOVOA     X1, X5
	PCLMULQDQ $0x00, X0, X1
	PCLMULQDQ $0x11, X0, X5
	PXOR      X5, X1
	PXOR      X2, X1

	MOVOA     X1, X5
	PCLMULQDQ $0x00, X0, X1
	PCLMULQDQ $0x11, X0, X5
	PXOR      X5, X1
	PXOR      X3, X1

	MOVOA     X1, X5
	PCLMULQDQ $0x00, X0, X1
	PCLMULQDQ $0x11, X0, X5
	PXOR      X5, X1
	PXOR      X4, X1

	// The whole 16-byte blocks that remain.
	CMPQ CX, $16
	JB   reduce

loop16:
	MOVOU     (SI), X10
	MOVOA     X1, X5
	PCLMULQDQ $0x00, X0, X1
	PCLMULQDQ $0x11, X0, X5
	PXOR      X5, X1
	PXOR      X10, X1
	ADDQ      $16, SI
	SUBQ      $16, CX
	CMPQ      CX, $16
	JAE       loop16

reduce:
	// The register is X1 times x^64 mod P. Fold the high-degree half over
	// 64 bits (x^127 is fold16's high key): X1 becomes a 128-bit W whose
	// remainder mod P is the register.
	MOVOA     X1, X2
	PCLMULQDQ $0x10, X0, X1
	PSRLDQ    $8, X2
	PXOR      X2, X1

	// Barrett: q = W_hi + floor(W_hi·mu / x^64), register = W_lo + q·P mod
	// x^64. The products come out one bit low (times x), hence the shifts.
	MOVOU     32(DX), X0 // barrett: mu, P
	MOVOA     X1, X2
	PCLMULQDQ $0x00, X0, X2
	PSLLQ     $1, X2
	PXOR      X1, X2         // q in the low quadword
	PCLMULQDQ $0x10, X0, X2  // q·P
	MOVQ      X2, AX
	PEXTRQ    $1, X2, BX
	PEXTRQ    $1, X1, CX     // W_lo
	SHRQ      $63, AX
	SHLQ      $1, BX
	ORQ       BX, AX
	XORQ      CX, AX
	NOTQ      AX             // and out again
	MOVQ      AX, ret+40(FP)
	RET

// func cpuid1ECX() uint32
TEXT ·cpuid1ECX(SB), NOSPLIT, $0-4
	MOVL $1, AX
	XORL CX, CX
	CPUID
	MOVL CX, ret+0(FP)
	RET
