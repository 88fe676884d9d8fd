package main

import (
	"math"
	"sync"
	"syscall"
	"time"
	"unsafe"
)

// The reference box is a few cores of a shared host, and how fast it runs
// the same instructions moves by a tenth to a third over minutes, with the
// neighbours' load: longer than a run, so no statistic taken inside a run
// removes it (README.md, "How steady the numbers are"). What a run can do
// is measure the box while it measures the program. Between the blocks of
// the measured phase every processor runs three small fixed kernels that
// share nothing with the code under test; how long they take, against how
// long they take on the quiet reference box, is the run's host speed index,
// and every end-to-end metric that is a time is divided by it. A time
// reported by the benchmark is therefore in seconds of the quiet reference
// box, not of whatever the box happened to be during the run.

// hostKernel is one calibration kernel: a fixed number of dependent
// read-modify-writes at pseudo-random positions of a private table.
type hostKernel struct {
	name  string
	words int // table size, in 8-byte words (a power of two)
	ops   int
	// ref is the kernel's median wall time on the quiet 2-core reference
	// box, frozen: it only fixes the scale, so that the index reads 1 there.
	ref time.Duration
}

// hostKernels are a ladder of working-set sizes, because what the
// neighbours take away is cache and memory, not cycles: in a stretch where
// the plan jobs took 1.53 times as long, a register-bound loop run between
// them took 1.05 times as long and these 1.67, 1.26 and 1.23 times. 2 MiB is a core's second-level cache, 32 MiB
// a share of the last-level cache, 128 MiB is memory.
var hostKernels = []hostKernel{
	{"2MiB", 2 << 20 / 8, 1 << 19, 13 * time.Millisecond},
	{"32MiB", 32 << 20 / 8, 1 << 17, 18 * time.Millisecond},
	{"128MiB", 128 << 20 / 8, 1 << 17, 23 * time.Millisecond},
}

// hostBufWords is the size of one processor's table: the largest kernel's.
const hostBufWords = 128 << 20 / 8

// hostBuf is one processor's private table. It is mapped outside the Go
// heap: inside it, it would count as live heap and the collector would run
// less often for the program under test.
type hostBuf struct {
	raw   []byte
	table []uint64
	sink  uint64
}

func (b *hostBuf) run(k hostKernel) {
	x := uint64(88172645463325252)
	mask := uint64(k.words - 1)
	t := b.table
	for range k.ops {
		x ^= x << 13
		x ^= x >> 7
		x ^= x << 17
		j := (x + b.sink) & mask
		t[j] += x
		b.sink = t[j] & 7
	}
}

// hostSamples holds the wall times of the kernels, in seconds, kernel by
// kernel.
type hostSamples [][]float64

// index is the host speed index of the stretch the samples were taken in:
// the geometric mean, over the kernels, of the median sample against the
// kernel's reference time. Above 1 the box ran slower than the quiet
// reference box. Without samples it is 1.
func (s hostSamples) index() float64 {
	if len(s) == 0 {
		return 1
	}
	var sum float64
	for k, kern := range hostKernels {
		m := median(s[k])
		if m <= 0 {
			return 1
		}
		sum += math.Log(m / kern.ref.Seconds())
	}
	return math.Exp(sum / float64(len(hostKernels)))
}

// hostSpeed runs the kernels.
type hostSpeed struct {
	bufs []*hostBuf
}

// newHostSpeed maps and touches one table per processor.
func newHostSpeed(nproc int) (*hostSpeed, error) {
	h := &hostSpeed{}
	for range nproc {
		raw, err := syscall.Mmap(-1, 0, hostBufWords*8, syscall.PROT_READ|syscall.PROT_WRITE, syscall.MAP_ANON|syscall.MAP_PRIVATE)
		if err != nil {
			h.close()
			return nil, err
		}
		b := &hostBuf{raw: raw, table: unsafe.Slice((*uint64)(unsafe.Pointer(&raw[0])), hostBufWords)}
		for i := range b.table {
			b.table[i] = uint64(i)
		}
		h.bufs = append(h.bufs, b)
	}
	return h, nil
}

func (h *hostSpeed) close() {
	for _, b := range h.bufs {
		syscall.Munmap(b.raw)
	}
	h.bufs = nil
}

// residentMB is what the tables add to the process's resident set from
// newHostSpeed on, in MB (10^6 bytes).
func (h *hostSpeed) residentMB() float64 {
	return float64(len(h.bufs)) * hostBufWords * 8 / 1e6
}

// sample runs the kernels on all processors at a time, as the program under
// test uses them, and appends the wall time of each to into. It runs them
// twice and keeps the second pass: the first gives what the block left
// behind — write-back of the daemon's files, a collection still marking —
// time to finish, and brings processors that idled between requests back to
// speed. Without it the daemon's samples read a third to three quarters
// above the other workloads' on the same box, by an amount that depended
// on the job mix.
func (h *hostSpeed) sample(into *hostSamples) {
	if *into == nil {
		*into = make(hostSamples, len(hostKernels))
	}
	for _, keep := range []bool{false, true} {
		for k, kern := range hostKernels {
			start := time.Now()
			var wg sync.WaitGroup
			for _, b := range h.bufs {
				wg.Add(1)
				go func() {
					defer wg.Done()
					b.run(kern)
				}()
			}
			wg.Wait()
			if keep {
				(*into)[k] = append((*into)[k], time.Since(start).Seconds())
			}
		}
	}
}
