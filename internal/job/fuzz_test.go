package job_test

import (
	"bytes"
	"context"
	"fmt"
	"strings"
	"testing"

	"uflip/internal/api"
	"uflip/internal/core"
	"uflip/internal/job"
	"uflip/internal/profile"
)

// fuzzRequest decodes a fuzz input into a job request:
//   - kind%3 picks a plan, a synthetic workload or an array sweep;
//   - dev describes the device: bits 0-1 the layout (a plain profile, or
//     stripe, mirror, concat; an array sweep reads 0 as stripe), bits 2-3
//     the member count (1-3), bits 4-15 three 4-bit profile indexes, bit 16
//     a faulty(...) wrapper with latency spikes only, seeded by the bits
//     above it;
//   - sel picks up to two of the nine micro-benchmarks, one per byte (plan),
//     the workload kind (workload) or the queue depth (array);
//   - the capacity is the plan's span (IOCount IOs of 32 KiB) plus up to
//     256 MiB, sector multiple or not.
func fuzzRequest(kind uint8, dev uint32, sel uint16, iocount uint8, extra uint32, seed int64) api.JobRequest {
	keys := profile.Keys()
	n := 16 + int(iocount)%241
	req := api.JobRequest{
		IOCount:  n,
		Seed:     seed,
		Capacity: int64(n)*core.StandardDefaults().IOSize + int64(extra)%(256<<20+1),
	}
	member := func(i int) string { return keys[int(dev>>(4+4*i)&15)%len(keys)] }
	wrap := func(spec string) string {
		if dev>>16&1 == 0 {
			return spec
		}
		return fmt.Sprintf("faulty(%s,spike=1ms@0.05,seed=%d)", spec, dev>>17)
	}
	layout := []string{"stripe", "mirror", "concat"}[max(int(dev&3), 1)-1]
	count := 1 + int(dev>>2&3)%3
	switch kind % 3 {
	case 0, 1:
		spec := member(0)
		if dev&3 > 0 {
			members := make([]string, count)
			for i := range members {
				members[i] = member(i)
			}
			spec = fmt.Sprintf("%s(%s)", layout, strings.Join(members, ","))
		}
		req.Device = wrap(spec)
		if kind%3 == 1 {
			w := *api.Defaults().Workload
			w.Kind = []string{"oltp", "append", "zipf", "bursty"}[sel%4]
			w.Count = n
			w.SegmentOps = (n + 3) / 4
			req.Kind, req.Workload = "workload", &w
			break
		}
		all := core.AllMicrobenchmarks(core.StandardDefaults(), 1<<30)
		req.Kind, req.Micros = "plan", []string{all[int(sel&255)%len(all)].Name}
		if second := all[int(sel>>8)%len(all)].Name; second != req.Micros[0] {
			req.Micros = append(req.Micros, second)
		}
	default:
		req.Kind = "array"
		req.Array = &api.ArrayRequest{
			Member:      wrap(member(0)),
			Layouts:     []string{layout},
			Counts:      []int{count},
			QueueDepths: []int{1 + int(sel%2)*3},
		}
	}
	return req
}

// FuzzJobRequest holds the one validator to its promise: a request that
// job.Normalize accepts runs to the end — no range check inside the
// simulator may fail it — and renders the same report and CSV at one engine
// worker and at two.
func FuzzJobRequest(f *testing.F) {
	// The Order micro-benchmark ran past a 40,000,000-byte device.
	f.Add(uint8(0), uint32(5<<4), uint16(4|4<<8), uint8(48), uint32(40_000_000-64<<15), int64(42))
	// A concat member's write-back cache destaged past its FTL's capacity
	// during state enforcement.
	f.Add(uint8(2), uint32(3|1<<2|6<<4), uint16(0), uint8(48), uint32(50_000_000-64<<15), int64(42))
	// Granularity on concat(2,mtron): the pause probe read a member's tail,
	// which the cache had destaged past the FTL's capacity.
	f.Add(uint8(0), uint32(3|1<<2|6<<4|6<<8), uint16(0), uint8(48), uint32(40_000_000-64<<15), int64(42))
	f.Fuzz(func(t *testing.T, kind uint8, dev uint32, sel uint16, iocount uint8, extra uint32, seed int64) {
		req := fuzzRequest(kind, dev, sel, iocount, extra, seed)
		if err := job.Normalize(&req); err != nil {
			return
		}
		var outs []*job.Outcome
		for _, workers := range []int{1, 2} {
			req.Parallel = workers
			out, err := job.Run(context.Background(), req, job.Env{})
			if err != nil {
				t.Fatalf("%+v at %d workers: %v", req, workers, err)
			}
			outs = append(outs, out)
		}
		if !bytes.Equal(outs[0].Report, outs[1].Report) || !bytes.Equal(outs[0].CSV, outs[1].CSV) {
			t.Fatalf("%+v: one worker and two render different bytes", req)
		}
	})
}
