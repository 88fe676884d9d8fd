package device

import (
	"math/rand/v2"
	"reflect"
	"testing"
)

// TestStripeSplitMatchesChunkWalk: split's stripe fragments, computed per
// member from its first and last chunk, equal those of the walk that visits
// every chunk and extends the member's previous fragment, kept here as the
// oracle, for random IOs over 1-5 members and several chunk sizes.
func TestStripeSplitMatchesChunkWalk(t *testing.T) {
	rng := rand.New(rand.NewPCG(49, 5))
	for n := 1; n <= 5; n++ {
		for _, cb := range []int64{512, 1536, 4096, DefaultChunkBytes} {
			d := &CompositeDevice{
				cfg:     compositeConfig{CompositeConfig: CompositeConfig{Layout: LayoutStripe, ChunkBytes: cb}},
				members: make([]Device, n),
			}
			for i := 0; i < 20000; i++ {
				// Byte-granular offsets and sizes from one byte to 3N+1 chunks.
				io := IO{Mode: Write, Off: rng.Int64N(int64(4*n) * cb), Size: 1 + rng.Int64N(int64(1+rng.IntN(3*n+1))*cb)}
				d.split(io)
				if want := stripeChunkWalk(io, n, cb); !reflect.DeepEqual(d.frags, want) {
					t.Fatalf("%d members, chunk %d, %+v: split %+v, chunk walk %+v", n, cb, io, d.frags, want)
				}
			}
		}
	}
}

// stripeChunkWalk is the stripe split as one step per chunk: each chunk's
// piece extends the member's fragment when it continues it, or else starts a
// new one.
func stripeChunkWalk(io IO, members int, chunk int64) []fragment {
	var frags []fragment
	n := int64(members)
	c0 := io.Off / chunk
	c1 := (io.Off + io.Size - 1) / chunk
	for c := c0; c <= c1; c++ {
		lo, hi := c*chunk, (c+1)*chunk
		s, e := io.Off, io.Off+io.Size
		if s < lo {
			s = lo
		}
		if e > hi {
			e = hi
		}
		m := int(c % n)
		moff := (c/n)*chunk + (s - lo)
		if k := len(frags) - 1; k >= 0 {
			merged := false
			for j := k; j >= 0 && j > k-members; j-- {
				if frags[j].member == m {
					if frags[j].off+frags[j].size == moff {
						frags[j].size += e - s
						merged = true
					}
					break
				}
			}
			if merged {
				continue
			}
		}
		frags = append(frags, fragment{member: m, off: moff, size: e - s})
	}
	return frags
}
