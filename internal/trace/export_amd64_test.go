package trace

// On a CPU with PCLMULQDQ, crcUpdate never takes its hash/crc64 branch for
// inputs of 64 bytes and more; this path switches the carry-less multiply
// kernel off around one call, so the tests run that branch on any CPU.
func init() {
	CRCPaths = append(CRCPaths, CRCPath{"crcUpdate without CLMUL", func(crc uint64, p []byte) uint64 {
		was := haveCLMUL
		haveCLMUL = false
		defer func() { haveCLMUL = was }()
		return crcUpdate(crc, p)
	}})
}
