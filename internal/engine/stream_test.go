package engine_test

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"testing"
	"time"

	"uflip/internal/core"
	"uflip/internal/device"
	"uflip/internal/engine"
)

// testJobs builds jobs that each run a random-read pattern whose seed is the
// job's device-enforcement seed, so results depend on the per-job derived
// seeds and any sharding mistake would show up in the merged output.
func testJobs(n int) []engine.Job {
	jobs := make([]engine.Job, n)
	for i := range jobs {
		i := i
		jobs[i] = engine.Job{
			ID: fmt.Sprintf("job/%d", i),
			Run: func(ctx context.Context, dev device.Device, startAt time.Duration) (*core.Run, error) {
				p := core.RR.Pattern(core.Defaults{
					IOSize: 16 * 1024, RandomTarget: dev.Capacity() / 2,
					IOCount: 64, Seed: int64(i + 1),
				})
				return core.ExecutePattern(new(core.Scratch), dev, p, startAt)
			},
		}
	}
	return jobs
}

// TestExecuteJobsDeterministic is the stream executor's core guarantee: the
// same jobs and seed produce byte-identical merged runs for any worker count.
func TestExecuteJobsDeterministic(t *testing.T) {
	jobs := testJobs(7)
	var blobs [][]byte
	for _, workers := range []int{1, 3, 8} {
		runs, err := engine.ExecuteJobs(context.Background(), jobs, testFactory(t), engine.Options{
			Workers: workers, Seed: 99,
		})
		if err != nil {
			t.Fatalf("workers=%d: %v", workers, err)
		}
		if len(runs) != len(jobs) {
			t.Fatalf("workers=%d: %d runs, want %d", workers, len(runs), len(jobs))
		}
		blob, err := json.Marshal(runs)
		if err != nil {
			t.Fatal(err)
		}
		blobs = append(blobs, blob)
	}
	for i := 1; i < len(blobs); i++ {
		if string(blobs[0]) != string(blobs[i]) {
			t.Fatalf("merged runs differ between worker counts (blob %d)", i)
		}
	}
}

func TestExecuteJobsError(t *testing.T) {
	jobs := testJobs(3)
	jobs[1].Run = func(context.Context, device.Device, time.Duration) (*core.Run, error) {
		return nil, errors.New("boom")
	}
	if _, err := engine.ExecuteJobs(context.Background(), jobs, testFactory(t), engine.Options{Workers: 2}); err == nil {
		t.Fatal("job error not propagated")
	}
}

func TestExecuteJobsCancellation(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := engine.ExecuteJobs(ctx, testJobs(4), testFactory(t), engine.Options{Workers: 2}); !errors.Is(err, context.Canceled) {
		t.Fatalf("cancelled context returned %v", err)
	}
}
