package ftl

import "errors"

// The data plane threads host payload bytes through the translation stack so
// tests can verify end-to-end data integrity: a read after any sequence of
// writes, out-of-place block writes, merges, reclamations and cache flushes must
// return the last bytes written to each logical address. It exists alongside
// the timing model, not inside it: payload work uses only the chips' payload
// store (flash.WithDataStorage) and never emits Ops, so a stack driven
// through WriteData/ReadData performs exactly the same flash operations, at
// exactly the same cost, as one driven through Write/Read.
//
// The plane is enabled by building the flash array with
// flash.WithDataStorage; on a normal (timing-only) array WriteData and
// ReadData return ErrNoDataStorage. Plain Write calls on a data-enabled
// stack leave the covered bytes unspecified (later out-of-place writes still
// preserve whatever was stored); for integrity checking, drive every write through
// WriteData.
type DataPlane interface {
	// StoresData reports whether the stack's flash retains payloads.
	StoresData() bool
	// WriteData behaves exactly like Write(off, len(data)) and stores data.
	WriteData(off int64, data []byte) (Ops, error)
	// ReadData behaves exactly like Read(off, len(buf)) and fills buf with
	// the bytes a host read observes (zeros for never-written addresses).
	ReadData(off int64, buf []byte) (Ops, error)
}

// ErrNoDataStorage is returned by the data plane of a stack whose flash was
// built without payload storage.
var ErrNoDataStorage = errors.New("ftl: flash array does not store payload data")

// peeker is the internal side door of the data plane: fill buf with the
// current bytes at off without performing (or pricing) any flash operation.
// All three translation layers implement it; the cache uses its inner
// layer's peek to read-fill partially written lines.
type peeker interface {
	peekData(off int64, buf []byte)
}

// Compile-time checks: every translation layer offers the data plane.
var (
	_ DataPlane = (*PageFTL)(nil)
	_ DataPlane = (*BlockFTL)(nil)
	_ DataPlane = (*WriteCache)(nil)
	_ peeker    = (*PageFTL)(nil)
	_ peeker    = (*BlockFTL)(nil)
	_ peeker    = (*WriteCache)(nil)
)

// overlay copies the intersection of src (placed at srcOff) onto dst (placed
// at dstOff) in a shared coordinate space.
func overlay(dst []byte, dstOff int64, src []byte, srcOff int64) {
	s := srcOff
	if dstOff > s {
		s = dstOff
	}
	e := srcOff + int64(len(src))
	if de := dstOff + int64(len(dst)); de < e {
		e = de
	}
	if e > s {
		copy(dst[s-dstOff:e-dstOff], src[s-srcOff:e-srcOff])
	}
}
