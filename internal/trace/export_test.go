package trace

// Unexported entry points the external test package drives directly.
var (
	VerifyUTRParts = verifyUTR
	CRC64Combine   = crc64Combine
)
