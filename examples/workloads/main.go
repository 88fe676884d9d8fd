// Workloads: drive a simulated flash device with application-shaped
// workloads instead of the paper's micro-benchmarks — an OLTP page mix, a
// log-structured append stream, Zipfian hot/cold access and a bursty phase
// pattern — then round-trip one of them through the block-trace CSV format
// and replay it in parallel, verifying the merged results are identical to
// the sequential replay.
package main

import (
	"context"
	"encoding/json"
	"fmt"
	"log"
	"os"
	"path/filepath"
	"time"

	"uflip/internal/paperexp"
	"uflip/internal/profile"
	"uflip/internal/report"
	"uflip/internal/workload"
)

const capacity = 64 << 20

func main() {
	prof, err := profile.ByKey("memoright")
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("device: %s\n\n", prof)

	// Every replay segment gets its own freshly built device with the
	// random state enforced from the segment's derived seed — the same
	// factory the benchmark engine uses.
	factory := paperexp.ShardFactory(prof.Key, paperexp.Config{
		Capacity: capacity, Seed: 42, Pause: time.Second,
	})

	// One representative instance of each synthetic generator.
	oltp := workload.OLTP{
		PageSize: 8 * 1024, TargetSize: capacity / 2,
		ReadFraction: 0.7, Count: 800, Seed: 42,
	}
	generators := []workload.Generator{
		oltp,
		workload.LogAppend{Streams: 4, IOSize: 32 * 1024, TargetSize: capacity / 2, Count: 800},
		workload.Zipfian{PageSize: 8 * 1024, TargetSize: capacity / 2, S: 1.3, ReadFraction: 0.5, Count: 800, Seed: 42},
		workload.Bursty{Inner: oltp, BurstOps: 32, Gap: 100 * time.Millisecond},
	}
	opts := workload.Options{SegmentOps: 200, Workers: 4, Seed: 42, WindowOps: 200}
	for _, g := range generators {
		res, err := workload.Generate(context.Background(), g, factory, opts)
		if err != nil {
			log.Fatal(err)
		}
		fmt.Printf("%-22s mean %6.3f ms  max %6.3f ms over %d IOs\n",
			g.Name(), res.Total.Mean*1e3, res.Total.Max*1e3, res.Ops)
	}

	// Round-trip the OLTP stream through the block-trace CSV format and
	// replay it sequentially and in parallel: byte-identical results.
	ops, err := oltp.Generate()
	if err != nil {
		log.Fatal(err)
	}
	path := filepath.Join(os.TempDir(), "uflip-example-trace.csv")
	if err := workload.SaveOps(path, ops); err != nil {
		log.Fatal(err)
	}
	defer os.Remove(path)
	loaded, err := workload.LoadOps(path)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("\ntrace round-trip via %s: %d IOs\n\n", path, len(loaded))

	sequential := opts
	sequential.Workers = 1
	seqRes, err := workload.ReplayParallel(context.Background(), "trace-replay", loaded, factory, sequential)
	if err != nil {
		log.Fatal(err)
	}
	parRes, err := workload.ReplayParallel(context.Background(), "trace-replay", loaded, factory, opts)
	if err != nil {
		log.Fatal(err)
	}
	a, _ := json.Marshal(seqRes)
	b, _ := json.Marshal(parRes)
	if string(a) != string(b) {
		log.Fatal("parallel replay diverged from sequential replay")
	}
	fmt.Printf("sequential and %d-worker replays are byte-identical\n\n", opts.Workers)
	if err := report.WorkloadSection(os.Stdout, parRes); err != nil {
		log.Fatal(err)
	}
}
