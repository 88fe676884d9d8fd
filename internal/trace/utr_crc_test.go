package trace_test

import (
	"bytes"
	"hash/crc64"
	"math/rand/v2"
	"testing"

	"uflip/internal/trace"
)

var ecmaTable = crc64.MakeTable(crc64.ECMA)

// TestCRCMatchesStdlib: every path of crcUpdate (on amd64, with and without
// the carry-less multiply kernel) is crc64.Update, at every length up to and
// around the kernel's 64- and 16-byte blocks, at scattered lengths beyond and
// at 1 MiB, for a zero and a nonzero initial CRC, from an aligned and an
// unaligned start.
func TestCRCMatchesStdlib(t *testing.T) {
	data := make([]byte, 1<<20+7)
	rng := rand.New(rand.NewPCG(7, 7))
	for i := range data {
		data[i] = byte(rng.Uint32())
	}
	lengths := []int{1 << 20}
	for n := 0; n <= 3*8192+130; n++ {
		if n < 300 || n%997 == 0 {
			lengths = append(lengths, n)
		}
	}
	for _, k := range trace.CRCPaths {
		for _, head := range []int{0, 7} {
			for _, n := range lengths {
				p := data[head : head+n]
				for _, init := range []uint64{0, 0x0123456789abcdef} {
					if got, want := k.Update(init, p), crc64.Update(init, ecmaTable, p); got != want {
						t.Fatalf("%s: %d bytes at +%d from %#x: %#x, crc64.Update %#x", k.Name, n, head, init, got, want)
					}
				}
			}
		}
	}
}

// FuzzCRCMatchesStdlib: for any bytes, initial CRC and split point, every
// path of crcUpdate equals crc64.Update on the whole input and when the input
// is fed to it in two pieces. The seeds after the first five cover 0 to 3 of
// the carry-less kernel's 64-byte blocks, with heads and tails that are not
// whole 16-byte blocks.
func FuzzCRCMatchesStdlib(f *testing.F) {
	f.Add([]byte(nil), uint64(0), uint32(0))
	f.Add([]byte("uFLIP: understanding flash IO patterns"), uint64(1), uint32(5))
	f.Add(bytes.Repeat([]byte{0xff}, 8192), uint64(0), uint32(8191))
	f.Add(bytes.Repeat([]byte{0, 1, 2, 3, 5, 8, 13}, 3000), ^uint64(0), uint32(2048))
	f.Add(bytes.Repeat([]byte("chunk"), 3300), uint64(42), uint32(2*8192+1))
	f.Add(bytes.Repeat([]byte{0x5a}, 63), uint64(3), uint32(0))
	f.Add(bytes.Repeat([]byte{0xa5, 0x3c}, 32), uint64(0), uint32(64))
	f.Add(bytes.Repeat([]byte("flash"), 25), ^uint64(0), uint32(9))
	f.Add(bytes.Repeat([]byte{1, 2, 3}, 64), uint64(1)<<63, uint32(3))
	f.Add(bytes.Repeat([]byte{0xc9, 0x6c}, 100), uint64(7), uint32(199))
	f.Fuzz(func(t *testing.T, data []byte, init uint64, split uint32) {
		want := crc64.Update(init, ecmaTable, data)
		at := int(split % uint32(len(data)+1))
		for _, k := range trace.CRCPaths {
			if got := k.Update(init, data); got != want {
				t.Fatalf("%s: %d bytes from %#x: %#x, crc64.Update %#x", k.Name, len(data), init, got, want)
			}
			if got := k.Update(k.Update(init, data[:at]), data[at:]); got != want {
				t.Fatalf("%s: %d bytes from %#x split at %d: %#x, crc64.Update %#x", k.Name, len(data), init, at, got, want)
			}
		}
	})
}

// BenchmarkCRCUpdate reports crcUpdate's speed over one 64 KiB chunk of
// records, in GB/s, beside hash/crc64's.
func BenchmarkCRCUpdate(b *testing.B) {
	data := bytes.Repeat([]byte{1, 2, 3, 4, 5, 6, 7, 8, 9}, 65536/9+1)[:65536]
	for _, k := range []trace.CRCPath{
		{Name: "crcUpdate", Update: trace.CRCPaths[0].Update},
		{Name: "crc64", Update: func(crc uint64, p []byte) uint64 { return crc64.Update(crc, ecmaTable, p) }},
	} {
		b.Run(k.Name, func(b *testing.B) {
			b.SetBytes(int64(len(data)))
			for b.Loop() {
				k.Update(0, data)
			}
			b.ReportMetric(float64(len(data))*float64(b.N)/b.Elapsed().Seconds()/1e9, "GB/s")
		})
	}
}
