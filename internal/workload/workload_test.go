package workload_test

import (
	"context"
	"encoding/json"
	"math"
	"os"
	"reflect"
	"testing"
	"time"

	"uflip/internal/core"
	"uflip/internal/device"
	"uflip/internal/engine"
	"uflip/internal/methodology"
	"uflip/internal/profile"
	"uflip/internal/stats"
	"uflip/internal/workload"
)

const testCapacity = 32 << 20

// testGenerators builds one representative instance of every synthetic
// generator, sized to the test device.
func testGenerators(count int) []workload.Generator {
	return []workload.Generator{
		workload.OLTP{
			PageSize: 8 * 1024, TargetSize: testCapacity / 2,
			ReadFraction: 0.7, Count: count, Seed: 7,
		},
		workload.LogAppend{
			Streams: 4, IOSize: 32 * 1024, TargetSize: testCapacity / 2,
			Count: count,
		},
		workload.Zipfian{
			PageSize: 8 * 1024, TargetSize: testCapacity / 2,
			S: 1.3, ReadFraction: 0.5, Count: count, Seed: 7,
		},
		workload.Bursty{
			Inner: workload.OLTP{
				PageSize: 8 * 1024, TargetSize: testCapacity / 2,
				ReadFraction: 0.3, Count: count, Seed: 7,
			},
			BurstOps: 16, Gap: 10 * time.Millisecond,
		},
	}
}

// testFactory builds a fresh Memoright-profile device per segment with the
// segment-seeded random state enforced, mirroring production use.
func testFactory(t testing.TB) engine.DeviceFactory {
	t.Helper()
	prof, err := profile.ByKey("memoright")
	if err != nil {
		t.Fatal(err)
	}
	return func(s engine.Shard) (device.Device, time.Duration, error) {
		dev, err := prof.BuildWithCapacity(testCapacity)
		if err != nil {
			return nil, 0, err
		}
		end, err := methodology.EnforceRandomState(dev, s.Seed)
		if err != nil {
			return nil, 0, err
		}
		return dev, end + time.Second, nil
	}
}

// TestGeneratorDeterminism pins seeded determinism: the same configuration
// yields the identical op stream, and (for the randomized generators) a
// different seed yields a different one.
func TestGeneratorDeterminism(t *testing.T) {
	for _, g := range testGenerators(512) {
		a, err := g.Generate()
		if err != nil {
			t.Fatalf("%s: %v", g.Name(), err)
		}
		b, err := g.Generate()
		if err != nil {
			t.Fatalf("%s: %v", g.Name(), err)
		}
		if !reflect.DeepEqual(a, b) {
			t.Fatalf("%s: same config produced different streams", g.Name())
		}
		if len(a) != 512 {
			t.Fatalf("%s: stream length %d, want 512", g.Name(), len(a))
		}
	}
	// Different seeds decorrelate the randomized generators.
	a, _ := workload.OLTP{TargetSize: 1 << 20, Count: 64, Seed: 1}.Generate()
	b, _ := workload.OLTP{TargetSize: 1 << 20, Count: 64, Seed: 2}.Generate()
	if reflect.DeepEqual(a, b) {
		t.Fatal("OLTP streams identical across different seeds")
	}
	za, _ := workload.Zipfian{TargetSize: 1 << 20, Count: 64, Seed: 1}.Generate()
	zb, _ := workload.Zipfian{TargetSize: 1 << 20, Count: 64, Seed: 2}.Generate()
	if reflect.DeepEqual(za, zb) {
		t.Fatal("Zipfian streams identical across different seeds")
	}
}

// TestGeneratorsProduceValidOps checks stream invariants: ops stay inside
// the target, sizes and gaps are sane, and mixes contain both modes.
func TestGeneratorsProduceValidOps(t *testing.T) {
	for _, g := range testGenerators(512) {
		ops, err := g.Generate()
		if err != nil {
			t.Fatalf("%s: %v", g.Name(), err)
		}
		var reads, writes int
		for i, op := range ops {
			if op.IO.Off < 0 || op.IO.Off+op.IO.Size > testCapacity/2 {
				t.Fatalf("%s: op %d off=%d size=%d escapes the target", g.Name(), i, op.IO.Off, op.IO.Size)
			}
			if op.IO.Size <= 0 || op.Gap < 0 {
				t.Fatalf("%s: op %d invalid (size=%d gap=%v)", g.Name(), i, op.IO.Size, op.Gap)
			}
			if op.IO.Mode == device.Read {
				reads++
			} else {
				writes++
			}
		}
		if writes == 0 {
			t.Fatalf("%s: no writes in stream", g.Name())
		}
		_ = reads // append streams are legitimately write-only
	}
	// The OLTP mix respects ReadFraction roughly.
	ops, _ := workload.OLTP{TargetSize: 1 << 20, ReadFraction: 0.7, Count: 4096, Seed: 3}.Generate()
	reads := 0
	for _, op := range ops {
		if op.IO.Mode == device.Read {
			reads++
		}
	}
	if frac := float64(reads) / float64(len(ops)); frac < 0.65 || frac > 0.75 {
		t.Fatalf("OLTP read fraction %v, want ~0.7", frac)
	}
}

// sharedOps is a generator backed by a shared slice: Generate hands out the
// slice itself.
type sharedOps []workload.Op

func (s sharedOps) Name() string                     { return "shared" }
func (s sharedOps) Generate() ([]workload.Op, error) { return s, nil }

// TestBurstyDoesNotMutateInner pins that Bursty copies the inner stream: a
// generator backed by a shared slice keeps its own gaps.
func TestBurstyDoesNotMutateInner(t *testing.T) {
	orig := []workload.Op{
		{Gap: 5 * time.Microsecond, IO: device.IO{Mode: device.Read, Size: 512}},
		{Gap: 7 * time.Microsecond, IO: device.IO{Mode: device.Write, Off: 512, Size: 512}},
	}
	tr := sharedOps(orig)
	shaped, err := workload.Bursty{Inner: tr, BurstOps: 1, Gap: time.Second}.Generate()
	if err != nil {
		t.Fatal(err)
	}
	if shaped[0].Gap != time.Second || shaped[1].Gap != time.Second {
		t.Fatalf("bursty gaps not applied: %+v", shaped)
	}
	if orig[0].Gap != 5*time.Microsecond || orig[1].Gap != 7*time.Microsecond {
		t.Fatalf("Bursty mutated the inner trace: %+v", orig)
	}
	// An explicit zero gap means back-to-back bursts, not "use a default".
	flat, err := workload.Bursty{Inner: tr, BurstOps: 1, Gap: 0}.Generate()
	if err != nil {
		t.Fatal(err)
	}
	for i, op := range flat {
		if op.Gap != 0 {
			t.Fatalf("zero burst gap rewritten at op %d: %v", i, op.Gap)
		}
	}
}

// TestZipfianIsSkewed confirms the hot/cold shape: the most popular page
// absorbs far more than a uniform share of accesses.
func TestZipfianIsSkewed(t *testing.T) {
	ops, err := workload.Zipfian{
		PageSize: 4096, TargetSize: 1 << 20, S: 1.5, Count: 8192, Seed: 5,
	}.Generate()
	if err != nil {
		t.Fatal(err)
	}
	counts := map[int64]int{}
	for _, op := range ops {
		counts[op.IO.Off]++
	}
	max := 0
	for _, c := range counts {
		if c > max {
			max = c
		}
	}
	slots := (1 << 20) / 4096
	uniform := len(ops) / slots
	if max < 10*uniform {
		t.Fatalf("hottest page got %d accesses, uniform share is %d — not skewed", max, uniform)
	}
}

// replayOn replays ops on dev from virtual time at as one segment on the
// calling goroutine, and returns that segment's run.
func replayOn(dev device.Device, ops []workload.Op, at time.Duration) (*core.Run, error) {
	factory := func(engine.Shard) (device.Device, time.Duration, error) { return dev, at, nil }
	res, err := workload.ReplaySource(context.Background(), workload.OpsSource("replay", ops), factory, workload.Options{Workers: 1})
	if err != nil {
		return nil, err
	}
	return res.Segments[0], nil
}

// TestReplayOpenLoop verifies arrival-time semantics on a device with known
// costs: gaps advance the clock, and a busy device queues the request with
// the wait measured in the response time.
func TestReplayOpenLoop(t *testing.T) {
	dev := device.NewMemDevice("mem", 1<<20, time.Millisecond, time.Millisecond)
	ops := []workload.Op{
		{Gap: 0, IO: device.IO{Mode: device.Read, Off: 0, Size: 512}},
		{Gap: 10 * time.Millisecond, IO: device.IO{Mode: device.Read, Off: 512, Size: 512}},
		// Arrives immediately after the previous submission: the device is
		// still busy for 1 ms, so this op queues and its rt doubles.
		{Gap: 0, IO: device.IO{Mode: device.Read, Off: 1024, Size: 512}},
	}
	run, err := replayOn(dev, ops, 0)
	if err != nil {
		t.Fatal(err)
	}
	// Submissions at 0, 10 and 10 ms, read off the 1 ms device: op 1 finds it
	// idle only if its gap was honoured (submitted at 0 it would queue behind
	// op 0), and op 2 queues only if it arrived with op 1.
	wantRTs := []time.Duration{time.Millisecond, time.Millisecond, 2 * time.Millisecond}
	for i := range ops {
		if run.RTs[i] != wantRTs[i] {
			t.Fatalf("rt %d = %v, want %v", i, run.RTs[i], wantRTs[i])
		}
	}
	if run.Total != 12*time.Millisecond {
		t.Fatalf("total %v, want 12ms", run.Total)
	}
	if _, err := replayOn(dev, nil, 0); err == nil {
		t.Fatal("empty stream replayed")
	}
	if _, err := replayOn(dev, []workload.Op{{Gap: -1, IO: ops[0].IO}}, 0); err == nil {
		t.Fatal("negative gap accepted")
	}
}

// TestReplayParallelDeterministic is the subsystem's acceptance criterion:
// every synthetic generator and a trace replay produce byte-identical merged
// results for workers=1 versus workers=N.
func TestReplayParallelDeterministic(t *testing.T) {
	factory := testFactory(t)
	check := func(name string, ops []workload.Op) {
		t.Helper()
		var blobs [][]byte
		for _, workers := range []int{1, 4} {
			res, err := workload.ReplaySource(context.Background(), workload.OpsSource(name, ops), factory, workload.Options{
				SegmentOps: 96, Workers: workers, Seed: 17, WindowOps: 64,
			})
			if err != nil {
				t.Fatalf("%s workers=%d: %v", name, workers, err)
			}
			if res.Ops != len(ops) || res.Total.N != int64(len(ops)) {
				t.Fatalf("%s workers=%d: merged %d RTs over %d ops", name, workers, res.Total.N, len(ops))
			}
			if want := (len(ops) + 95) / 96; len(res.Segments) != want {
				t.Fatalf("%s workers=%d: %d segments, want %d of at most 96 ops", name, workers, len(res.Segments), want)
			}
			blob, err := json.Marshal(res)
			if err != nil {
				t.Fatal(err)
			}
			blobs = append(blobs, blob)
		}
		if string(blobs[0]) != string(blobs[1]) {
			t.Fatalf("%s: merged results differ between workers=1 and workers=4", name)
		}
	}
	for _, g := range testGenerators(384) {
		ops, err := g.Generate()
		if err != nil {
			t.Fatalf("%s: %v", g.Name(), err)
		}
		check(g.Name(), ops)
	}
}

// TestReplayWindowsMatchTwoPasses: a segment's job summarizes its run and
// the windows inside it in one pass, and the tail the windows that cross a
// segment boundary. Every segment's Summary, the windows and the total have
// the bits of summarizing the merged series on its own, for segments that
// are and are not whole windows, shorter and longer than one, at one worker
// and at two. A window of math.MaxInt ops is one window over every segment.
func TestReplayWindowsMatchTwoPasses(t *testing.T) {
	ops, err := testGenerators(1000)[3].Generate() // bursty: queueing varies the response times
	if err != nil {
		t.Fatal(err)
	}
	factory := func(engine.Shard) (device.Device, time.Duration, error) {
		return device.NewMemDevice("mem", testCapacity, 300*time.Microsecond, 700*time.Microsecond), 0, nil
	}
	for _, window := range []int{64, math.MaxInt} {
		for _, segOps := range []int{64, 128, 96, 100, 37, 5, len(ops) - 1, len(ops)} {
			for _, workers := range []int{1, 2} {
				res, err := workload.ReplaySource(context.Background(), workload.OpsSource("bursty", ops), factory, workload.Options{
					SegmentOps: segOps, Workers: workers, WindowOps: window,
				})
				if err != nil {
					t.Fatal(err)
				}
				var merged []time.Duration
				for _, run := range res.Segments {
					if want := stats.Summarize(run.RTs); run.Summary != want {
						t.Fatalf("window %d, segments of %d, %d workers: %s summarized as %+v, want %+v", window, segOps, workers, run.Name, run.Summary, want)
					}
					merged = append(merged, run.RTs...)
				}
				var windows []stats.Window
				for start := 0; start < len(merged); start += window {
					windows = append(windows, stats.Window{Start: int64(start), Summary: stats.Summarize(merged[start:min(start+window, len(merged))])})
				}
				if !reflect.DeepEqual(res.Windows, windows) {
					t.Fatalf("window %d, segments of %d, %d workers: windows differ from the merged series'", window, segOps, workers)
				}
				if want := stats.Summarize(merged); res.Total != want || len(merged) != len(ops) {
					t.Fatalf("window %d, segments of %d, %d workers: total %+v over %d RTs, want %+v over %d", window, segOps, workers, res.Total, len(merged), want, len(ops))
				}
			}
		}
	}
}

// TestGenerateViaTraceRoundTrip replays a generator stream directly and via
// a trace-file round-trip and requires identical results: the CSV format
// loses nothing the replay can observe.
func TestGenerateViaTraceRoundTrip(t *testing.T) {
	g := workload.Bursty{
		Inner: workload.OLTP{
			PageSize: 8 * 1024, TargetSize: testCapacity / 2,
			ReadFraction: 0.5, Count: 256, Seed: 23,
		},
		BurstOps: 16, Gap: 5 * time.Millisecond,
	}
	ops, err := g.Generate()
	if err != nil {
		t.Fatal(err)
	}
	path := t.TempDir() + "/trace.csv"
	if err := workload.SaveOps(path, ops); err != nil {
		t.Fatal(err)
	}
	f, err := os.Open(path)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	loaded, err := workload.ReadOps(f)
	if err != nil {
		t.Fatal(err)
	}
	factory := testFactory(t)
	opts := workload.Options{SegmentOps: 64, Workers: 2, Seed: 31}
	direct, err := workload.ReplaySource(context.Background(), workload.OpsSource("w", ops), factory, opts)
	if err != nil {
		t.Fatal(err)
	}
	viaTrace, err := workload.ReplaySource(context.Background(), workload.OpsSource("w", loaded), factory, opts)
	if err != nil {
		t.Fatal(err)
	}
	a, _ := json.Marshal(direct)
	b, _ := json.Marshal(viaTrace)
	if string(a) != string(b) {
		t.Fatal("trace round-trip changed replay results")
	}
}
