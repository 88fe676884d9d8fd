package main

import (
	"errors"
	"flag"
	"fmt"
	"strconv"
	"strings"

	"uflip/internal/api"
	"uflip/internal/job"
	"uflip/internal/profile"
	"uflip/internal/workload"
)

// kindText is the wording — and, for -capacity, the default — that differs
// by kind for a flag more than one kind has.
type kindText struct {
	device, capacity, seed, iocount, parallel, out string // flags of the job
	statedir, verbose                              string // flags of the local shell
	capacityDefault                                int64
}

var flagText = map[string]kindText{
	"plan": {
		device:          "device profile or array spec to benchmark, e.g. mtron or stripe(2,mtron,mtron) (see flashio -list)",
		capacity:        "simulated capacity in bytes, per member for array specs (scaled-down devices behave identically)",
		capacityDefault: api.Defaults().Capacity,
		seed:            "random seed",
		iocount:         "base run length before methodology scaling",
		parallel:        "worker count for plan execution (1 = sequential fallback; results are identical for any value)",
		out:             "directory for JSON/CSV results",
		statedir:        "persistent state-cache directory: enforced device states are saved there and later runs load them instead of re-filling (results are byte-identical)",
		verbose:         "log each run",
	},
	"workload": {
		device:          "device profile or array spec to replay against (see flashio -list)",
		capacity:        "simulated capacity in bytes, per member for array specs",
		capacityDefault: api.Defaults().Capacity,
		seed:            "random seed (stream generation and per-segment device state)",
		parallel:        "worker count (1 = sequential fallback; results are identical for any value)",
		out:             "directory for JSON/CSV replay results",
		statedir:        "persistent state-cache directory: segment devices load their enforced state instead of re-filling (results are byte-identical)",
		verbose:         "log each completed segment",
	},
	"array": {
		capacity:        "simulated capacity per member in bytes",
		capacityDefault: 256 << 20,
		seed:            "random seed",
		iocount:         "IOs per baseline run",
		parallel:        "worker count (1 = sequential fallback; the grid is identical for any value)",
		out:             "directory for the JSON grid",
		statedir:        "persistent state-cache directory: each combination's enforced master loads from it instead of re-filling (the grid is byte-identical)",
		verbose:         "log each completed run",
	},
}

// jobFlags is what registerJobFlags hands the shell that registered them.
type jobFlags struct {
	// request builds the normalized job request from the parsed flags.
	request func() (api.JobRequest, error)
	// out is -out ("" = write no result files); trace is -trace ("" = a
	// synthetic workload): the local shell opens it, the remote one uploads it.
	out, trace *string
}

// registerJobFlags registers on fs the flags that describe a job of the given
// kind — once, for the local command and `uflip submit` alike, so the two
// cannot disagree on a name, a default or a meaning. parallel is the default
// of -parallel, the one a surface owns: the CPU count here, 0 for the daemon's.
func registerJobFlags(fs *flag.FlagSet, kind string, parallel int) *jobFlags {
	d, text := api.Defaults(), flagText[kind]
	f := &jobFlags{out: fs.String("out", "", text.out), trace: new(string)}
	var (
		capacity = fs.Int64("capacity", text.capacityDefault, text.capacity)
		seed     = fs.Int64("seed", d.Seed, text.seed)
		workers  = fs.Int("parallel", parallel, text.parallel)
		device   *string
		iocount  *int
	)
	if kind != "array" {
		device = fs.String("device", "", text.device)
	}
	if kind != "workload" {
		iocount = fs.Int("iocount", d.IOCount, text.iocount)
	}
	// finish fills in what every kind has and normalizes.
	finish := func(req api.JobRequest) (api.JobRequest, error) {
		req.Kind, req.Capacity, req.Seed, req.Parallel = kind, *capacity, *seed, *workers
		if device != nil {
			if req.Device = *device; req.Device == "" {
				return req, errors.New("pass -device <profile>")
			}
		}
		if iocount != nil {
			req.IOCount = *iocount
		}
		return req, job.Normalize(&req)
	}
	switch kind {
	case "plan":
		micros := fs.String("micro", "", "comma-separated micro-benchmarks to run (default: all nine)")
		f.request = func() (api.JobRequest, error) {
			var req api.JobRequest
			if *micros != "" {
				req.Micros = strings.Split(*micros, ",")
			}
			return finish(req)
		}
	case "workload":
		w := d.Workload
		f.trace = fs.String("trace", "", "replay a block trace (CSV offset,size,mode,gap_us or binary .utr; detected by content) instead of a synthetic workload")
		var (
			wkind    = fs.String("kind", "oltp", "workload kind: oltp, append, zipf, bursty (or pass -trace)")
			ops      = fs.Int("ops", w.Count, "synthetic stream length in IOs")
			segment  = fs.Int("segment", w.SegmentOps, "ops per replay segment (fixed segmentation keeps parallel replay deterministic)")
			window   = fs.Int("window", w.WindowOps, "ios per windowed summary in the report")
			pageSize = fs.Int64("page", w.PageSize, "page size for oltp/zipf/bursty (bytes)")
			ioSize   = fs.Int64("iosize", w.IOSize, "append size for the append workload (bytes)")
			target   = fs.Int64("target", 0, "target area in bytes (default: half the capacity)")
			readFrac = fs.Float64("read-frac", w.ReadFraction, "read fraction for oltp/zipf/bursty, in [0,1]")
			streams  = fs.Int("streams", w.Streams, "concurrent append streams for the append workload")
			zipfS    = fs.Float64("zipf-s", w.ZipfS, "Zipf skew for the zipf workload (> 1)")
			think    = fs.Duration("think", w.Think, "inter-arrival gap between ops (0 = back-to-back)")
			burstOps = fs.Int("burst", w.BurstOps, "ops per burst for the bursty workload")
			burstGap = fs.Duration("burst-gap", w.BurstGap, "pause before each burst for the bursty workload")
		)
		f.request = func() (api.JobRequest, error) {
			kindName := *wkind
			if *f.trace != "" {
				kindName = "trace"
			}
			return finish(api.JobRequest{Workload: &api.WorkloadRequest{
				Spec: workload.Spec{
					Kind:         kindName,
					Count:        *ops,
					PageSize:     *pageSize,
					IOSize:       *ioSize,
					TargetSize:   max(*target, 0), // 0: Normalize takes half the capacity
					ReadFraction: *readFrac,
					ZipfS:        *zipfS,
					Streams:      *streams,
					Think:        *think,
					BurstOps:     *burstOps,
					BurstGap:     *burstGap,
				},
				SegmentOps: *segment,
				WindowOps:  *window,
			}})
		}
	case "array":
		var (
			member  = fs.String("member", "", "member device profile (see flashio -list)")
			layouts = fs.String("layouts", "stripe,mirror,concat", "comma-separated layouts to sweep")
			counts  = fs.String("counts", "1,2,4", "comma-separated member counts")
			qds     = fs.String("qd", "1,4", "comma-separated per-member queue depths")
			chunk   = fs.Int64("chunk", 0, "stripe chunk size in bytes (0 = default 128 KiB)")
			degree  = fs.Int("degree", 4, "concurrent processes per baseline (queue effects need > 1)")
		)
		f.request = func() (api.JobRequest, error) {
			a := &api.ArrayRequest{Member: *member, ChunkBytes: *chunk, Degree: *degree}
			req := api.JobRequest{Array: a}
			if a.Member == "" {
				return req, errors.New("pass -member <profile>")
			}
			for _, l := range strings.Split(*layouts, ",") {
				a.Layouts = append(a.Layouts, strings.TrimSpace(l))
			}
			var err error
			if a.Counts, err = parseInts(*counts, "counts", profile.MaxArrayMembers); err != nil {
				return req, err
			}
			if a.QueueDepths, err = parseInts(*qds, "qd", profile.MaxArrayQueueDepth); err != nil {
				return req, err
			}
			return finish(req)
		}
	}
	return f
}

func parseInts(csv, what string, max int) ([]int, error) {
	var out []int
	for _, s := range strings.Split(csv, ",") {
		n, err := strconv.Atoi(strings.TrimSpace(s))
		if err != nil || n < 1 || n > max {
			return nil, fmt.Errorf("bad -%s entry %q (want an integer in [1, %d])", what, s, max)
		}
		out = append(out, n)
	}
	return out, nil
}

// stem is the file-name stem of a job's result files: the device or member
// spec, an array spec's parentheses and commas replaced.
func stem(req api.JobRequest) string {
	key := req.Device
	if req.Kind == "array" {
		key = req.Array.Member
	}
	out := []rune(key)
	for i, r := range out {
		switch {
		case r >= 'a' && r <= 'z', r >= 'A' && r <= 'Z', r >= '0' && r <= '9', r == '-', r == '.', r == '_':
		default:
			out[i] = '_'
		}
	}
	return strings.Trim(string(out), "_")
}
