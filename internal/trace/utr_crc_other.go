//go:build !amd64

package trace

// haveCLMUL is false: the carry-less multiply kernel is amd64's alone.
const haveCLMUL = false

// crcUpdate returns crc64.Update(crc, utrTable, p) through the portable
// kernel, the only one off amd64.
//
//uflint:hotpath
func crcUpdate(crc uint64, p []byte) uint64 { return crcLanes(crc, p) }
