package server

import (
	"context"
	"errors"
	"net/http"
	"net/http/httptest"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"uflip/internal/api"
	"uflip/internal/client"
)

// evictionDaemon starts a daemon whose clock stands at a fixed instant plus
// the returned offset, which the test moves.
func evictionDaemon(t *testing.T, cfg Config) (*client.Client, *atomic.Int64) {
	t.Helper()
	srv, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(srv.Handler())
	t.Cleanup(func() {
		ts.Close()
		srv.Close()
	})
	base := time.Unix(1_700_000_000, 0)
	offset := new(atomic.Int64)
	srv.mu.Lock()
	srv.now = func() time.Time { return base.Add(time.Duration(offset.Load())) }
	srv.mu.Unlock()
	return &client.Client{BaseURL: ts.URL}, offset
}

var evictionJob = api.JobRequest{Kind: "plan", Device: "kingston-dti", Capacity: 24 << 20, IOCount: 64, Micros: []string{"Order"}, Parallel: 1}

// awaitRetained polls until the daemon lists n jobs: the finishing worker
// evicts after it has emitted done, a moment after the client has seen it.
func awaitRetained(ctx context.Context, t *testing.T, c *client.Client, n int) {
	t.Helper()
	for {
		list, err := c.List(ctx)
		if err != nil {
			t.Fatal(err)
		}
		if len(list.Jobs) == n {
			return
		}
		if ctx.Err() != nil {
			t.Fatalf("%d jobs retained, want %d", len(list.Jobs), n)
		}
		time.Sleep(time.Millisecond)
	}
}

// TestFinishedJobEviction: the daemon retains at most KeepJobs finished
// jobs; the oldest are evicted (404) while newer results stay fetchable.
func TestFinishedJobEviction(t *testing.T) {
	c, offset := evictionDaemon(t, Config{Workers: 1, KeepJobs: 2})
	ctx, cancel := context.WithTimeout(context.Background(), time.Minute)
	defer cancel()
	ids := make([]string, 4)
	for i := range ids {
		st, err := c.Submit(ctx, evictionJob)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := c.Wait(ctx, st.ID); err != nil {
			t.Fatal(err)
		}
		ids[i] = st.ID
		awaitRetained(ctx, t, c, min(i+1, 2))
		offset.Add(int64(time.Second)) // every job so far is past its grace
	}
	for _, old := range ids[:2] {
		var apiErr *client.APIError
		if _, err := c.Status(ctx, old); !errors.As(err, &apiErr) || apiErr.Status != http.StatusNotFound {
			t.Fatalf("evicted job %s: %v, want a 404", old, err)
		}
	}
	for _, recent := range ids[2:] {
		if _, err := c.CSV(ctx, recent); err != nil {
			t.Fatalf("retained job %s: %v", recent, err)
		}
	}
}

// TestEvictionSparesJustFinishedJobs: at KeepJobs 1, concurrent clients that
// each submit a job, follow its events to done and then fetch its CSV and
// result never get a 404 — the daemon's clock stands still, so every finished
// job is inside its grace however the goroutines interleave. Once the clock
// has moved past the grace, the next finish evicts down to the bound.
func TestEvictionSparesJustFinishedJobs(t *testing.T) {
	c, offset := evictionDaemon(t, Config{KeepJobs: 1, Workers: 2})
	ctx, cancel := context.WithTimeout(context.Background(), time.Minute)
	defer cancel()
	roundTrip := func() error {
		st, err := c.Submit(ctx, evictionJob)
		if err != nil {
			return err
		}
		if err := c.Events(ctx, st.ID, 0, func(api.Event) {}); err != nil {
			return err
		}
		if _, err := c.CSV(ctx, st.ID); err != nil {
			return err
		}
		_, err = c.ResultRecords(ctx, st.ID)
		return err
	}

	const clients, rounds = 4, 6
	var wg sync.WaitGroup
	for i := 0; i < clients; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for r := 0; r < rounds; r++ {
				if err := roundTrip(); err != nil {
					t.Errorf("job read back right after its done event: %v", err)
					return
				}
			}
		}()
	}
	wg.Wait()
	if t.Failed() {
		return
	}
	awaitRetained(ctx, t, c, clients*rounds)

	offset.Store(int64(2 * evictGrace))
	if err := roundTrip(); err != nil {
		t.Fatal(err)
	}
	awaitRetained(ctx, t, c, 1)
}
