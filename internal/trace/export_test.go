package trace

// Unexported entry points the external test package drives directly.
var (
	VerifyUTRParts = verifyUTR
	CRC64Combine   = crc64Combine
)

// CRCPaths are the ways crcUpdate computes a CRC on this platform; each must
// equal crc64.Update. export_amd64_test.go adds the fallback to hash/crc64
// that amd64 takes without PCLMULQDQ.
var CRCPaths = []CRCPath{{"crcUpdate", crcUpdate}}

// CRCPath is one of crcUpdate's paths.
type CRCPath struct {
	Name   string
	Update func(crc uint64, p []byte) uint64
}

// crc64Combine returns the CRC-64/ECMA of A‖B from crcA = crc(A), crcB =
// crc(B) and lenB = len(B), without the bytes: zlib's crc32_combine
// construction at 64 bits. Appending lenB zero bytes to A is a linear map of
// its CRC register over GF(2); the map for one zero bit is written down, and
// squared repeatedly to reach 8·lenB bits in O(log lenB) 64×64 matrix
// products; what B's own bytes add on top of zeros is crcB. Building the
// operators costs ~75 µs a call. The tests fold split checksums with it; the
// product folds whole chunks through a zeroShift.
func crc64Combine(crcA, crcB uint64, lenB int64) uint64 {
	if lenB <= 0 {
		return crcA
	}
	var even, odd [64]uint64
	oneZeroBit(&odd)
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
