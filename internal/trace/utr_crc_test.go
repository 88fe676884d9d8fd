package trace_test

import (
	"bytes"
	"hash/crc64"
	"math/rand/v2"
	"testing"

	"uflip/internal/trace"
)

var ecmaTable = crc64.MakeTable(crc64.ECMA)

// TestCRCMatchesStdlib: the four-lane kernel is crc64.Update, at every
// length around its 8 KiB blocks and 2 KiB lanes, for a zero and a nonzero
// initial CRC.
func TestCRCMatchesStdlib(t *testing.T) {
	data := make([]byte, 1<<20)
	rng := rand.New(rand.NewPCG(7, 7))
	for i := range data {
		data[i] = byte(rng.Uint32())
	}
	lengths := []int{len(data)}
	for n := 0; n <= 3*8192+130; n++ {
		if n < 130 || n%8192 < 130 || n%8192 > 8192-130 || n%2048 == 0 || n%997 == 0 {
			lengths = append(lengths, n)
		}
	}
	for _, n := range lengths {
		for _, init := range []uint64{0, 0x0123456789abcdef} {
			if got, want := trace.CRCUpdate(init, data[:n]), crc64.Update(init, ecmaTable, data[:n]); got != want {
				t.Fatalf("%d bytes from %#x: kernel %#x, crc64.Update %#x", n, init, got, want)
			}
		}
	}
}

// FuzzCRCMatchesStdlib: for any bytes, initial CRC and split point, the
// kernel equals crc64.Update on the whole input and when the input is fed
// to it in two pieces.
func FuzzCRCMatchesStdlib(f *testing.F) {
	f.Add([]byte(nil), uint64(0), uint32(0))
	f.Add([]byte("uFLIP: understanding flash IO patterns"), uint64(1), uint32(5))
	f.Add(bytes.Repeat([]byte{0xff}, 8192), uint64(0), uint32(8191))
	f.Add(bytes.Repeat([]byte{0, 1, 2, 3, 5, 8, 13}, 3000), ^uint64(0), uint32(2048))
	f.Add(bytes.Repeat([]byte("chunk"), 3300), uint64(42), uint32(2*8192+1))
	f.Fuzz(func(t *testing.T, data []byte, init uint64, split uint32) {
		want := crc64.Update(init, ecmaTable, data)
		if got := trace.CRCUpdate(init, data); got != want {
			t.Fatalf("%d bytes from %#x: kernel %#x, crc64.Update %#x", len(data), init, got, want)
		}
		at := int(split % uint32(len(data)+1))
		if got := trace.CRCUpdate(trace.CRCUpdate(init, data[:at]), data[at:]); got != want {
			t.Fatalf("%d bytes from %#x split at %d: kernel %#x, crc64.Update %#x", len(data), init, at, got, want)
		}
	})
}

func BenchmarkCRC(b *testing.B) {
	data := bytes.Repeat([]byte{1, 2, 3, 4, 5, 6, 7, 8, 9}, 65536/9+1)[:65536]
	b.Run("kernel", func(b *testing.B) {
		b.SetBytes(int64(len(data)))
		for b.Loop() {
			trace.CRCUpdate(0, data)
		}
	})
	b.Run("crc64", func(b *testing.B) {
		b.SetBytes(int64(len(data)))
		for b.Loop() {
			crc64.Update(0, ecmaTable, data)
		}
	})
}
