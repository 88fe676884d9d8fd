//go:build !amd64

package trace

import "hash/crc64"

// crcUpdate returns crc64.Update(crc, utrTable, p): off amd64 there is no
// other kernel.
//
//uflint:hotpath
func crcUpdate(crc uint64, p []byte) uint64 { return crc64.Update(crc, utrTable, p) }
