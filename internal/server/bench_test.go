package server_test

// HTTP-layer load harness: drives the in-process daemon with concurrent
// /v1/jobs submissions the way a fleet of clients would, and reports
// end-to-end job throughput plus the p99 admission latency (POST round-trip
// until the 202 with the job ID). Run with:
//
//	go test -run '^$' -bench BenchmarkJobAdmission ./internal/server

import (
	"bytes"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"sort"
	"sync"
	"testing"
	"time"

	"uflip/internal/api"
	"uflip/internal/server"
)

// BenchmarkJobAdmission submits bursts of concurrent plan jobs against an
// in-process server. Each iteration admits jobsPerRound jobs from `clients`
// concurrent submitters and waits for all of them to finish, so the queue
// stays bounded and ns/op is the wall-clock of one saturated round.
func BenchmarkJobAdmission(b *testing.B) {
	const (
		clients       = 8
		jobsPerRound  = 32
		pollInterval  = 5 * time.Millisecond
		adminDeadline = 2 * time.Minute
	)
	srv, err := server.New(server.Config{
		StateDir:        b.TempDir(),
		Workers:         4,
		QueueSize:       2 * jobsPerRound,
		DefaultParallel: 1,
		KeepJobs:        4 * jobsPerRound,
	})
	if err != nil {
		b.Fatal(err)
	}
	ts := httptest.NewServer(srv.Handler())
	defer func() {
		ts.Close()
		srv.Close()
	}()
	body, err := json.Marshal(api.JobRequest{
		Kind: "plan", Device: "mtron", Capacity: 16 << 20, Seed: 42,
		IOCount: 32, Micros: []string{"Granularity"}, Parallel: 1,
	})
	if err != nil {
		b.Fatal(err)
	}

	submitOne := func() (id string, latency time.Duration) {
		start := time.Now()
		resp, err := http.Post(ts.URL+"/v1/jobs", "application/json", bytes.NewReader(body))
		if err != nil {
			b.Error(err)
			return "", 0
		}
		defer resp.Body.Close()
		latency = time.Since(start)
		if resp.StatusCode != http.StatusAccepted {
			b.Errorf("submit: HTTP %d", resp.StatusCode)
			return "", 0
		}
		var st api.JobStatus
		if err := json.NewDecoder(resp.Body).Decode(&st); err != nil {
			b.Error(err)
			return "", 0
		}
		return st.ID, latency
	}
	waitDone := func(id string) {
		deadline := time.Now().Add(adminDeadline)
		for time.Now().Before(deadline) {
			resp, err := http.Get(ts.URL + "/v1/jobs/" + id)
			if err != nil {
				b.Error(err)
				return
			}
			var st api.JobStatus
			err = json.NewDecoder(resp.Body).Decode(&st)
			resp.Body.Close()
			if err != nil {
				b.Error(err)
				return
			}
			switch st.Status {
			case api.StatusDone:
				return
			case api.StatusFailed, api.StatusCanceled:
				b.Errorf("job %s: %s (%s)", id, st.Status, st.Error)
				return
			}
			time.Sleep(pollInterval)
		}
		b.Errorf("job %s did not finish in time", id)
	}

	// Warm the state store so every measured job loads the enforced state
	// instead of paying the one-time fill.
	if id, _ := submitOne(); id != "" {
		waitDone(id)
	}

	var mu sync.Mutex
	var latencies []time.Duration
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		work := make(chan struct{}, jobsPerRound)
		for j := 0; j < jobsPerRound; j++ {
			work <- struct{}{}
		}
		close(work)
		var wg sync.WaitGroup
		for c := 0; c < clients; c++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				for range work {
					id, lat := submitOne()
					if id == "" {
						continue
					}
					mu.Lock()
					latencies = append(latencies, lat)
					mu.Unlock()
					waitDone(id)
				}
			}()
		}
		wg.Wait()
	}
	b.StopTimer()
	if len(latencies) == 0 {
		b.Fatal("no successful submissions")
	}
	sort.Slice(latencies, func(i, j int) bool { return latencies[i] < latencies[j] })
	p99 := latencies[len(latencies)*99/100]
	b.ReportMetric(float64(b.N*jobsPerRound)/b.Elapsed().Seconds(), "jobs/s")
	b.ReportMetric(float64(p99.Microseconds())/1e3, "admit-p99-ms")
	b.Logf("submissions=%d admit p50=%v p99=%v", len(latencies),
		latencies[len(latencies)/2], p99)
}
