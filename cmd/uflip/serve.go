package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"net"
	"net/http"
	"runtime"
	"time"

	"uflip/internal/profile"
	"uflip/internal/server"
)

// runServe implements the "uflip serve" subcommand: the long-running
// experiment daemon. It accepts plan/workload/array/paper jobs over HTTP, runs
// them through the engine at configurable parallelism with per-job
// cancellation, and shares one persistent state store across all jobs so
// each (device, capacity, seed) state is enforced at most once — ever.
func runServe(ctx context.Context, args []string) error {
	fs := flag.NewFlagSet("uflip serve", flag.ContinueOnError)
	var (
		addr     = fs.String("addr", "127.0.0.1:8077", "listen address")
		stateDir = fs.String("statedir", "", "persistent state-store directory shared by all jobs (empty = enforce live per master)")
		jobDir   = fs.String("jobdir", "", "durable-job directory: submissions, finished results and uploaded traces persist there and survive restarts (empty = in-memory only)")
		queue    = fs.Int("queue", 64, "maximum queued jobs; submissions beyond it are rejected with 503")
		jobs     = fs.Int("jobs", 2, "jobs executed concurrently")
		keep     = fs.Int("keep", 256, "finished jobs retained (oldest evicted first, from memory and -jobdir)")
		parallel = fs.Int("parallel", min(runtime.GOMAXPROCS(0), profile.MaxParallel), "default engine workers per job (requests may override; results are identical for any value)")
		rate     = fs.Float64("rate", 0, "per-tenant submission rate limit in jobs/second, keyed by X-API-Key (0 = unlimited)")
		burst    = fs.Int("burst", 0, "per-tenant token-bucket burst (0 = derive from -rate)")
		tenantQ  = fs.Int("tenant-queue", 0, "per-tenant queued-job quota (0 = only the global -queue bound)")
		maxTrace = fs.Int64("max-trace-bytes", 0, "largest accepted trace upload in bytes (0 = 8 MiB)")
		jobTO    = fs.Duration("job-timeout", 0, "kill a job still running after this long and report it failed (0 = no watchdog)")
	)
	return run(fs, args, func() error {
		srv, err := server.New(server.Config{
			StateDir:        *stateDir,
			JobDir:          *jobDir,
			QueueSize:       *queue,
			Workers:         *jobs,
			DefaultParallel: *parallel,
			KeepJobs:        *keep,
			RatePerSec:      *rate,
			Burst:           *burst,
			TenantQueue:     *tenantQ,
			MaxTraceBytes:   *maxTrace,
			JobTimeout:      *jobTO,
		})
		if err != nil {
			return err
		}
		ln, err := net.Listen("tcp", *addr)
		if err != nil {
			return err
		}
		httpSrv := &http.Server{Handler: srv.Handler()}
		fmt.Printf("uflip serve: listening on http://%s (%d job workers, queue %d", ln.Addr(), *jobs, *queue)
		if *stateDir != "" {
			fmt.Printf(", state store %s", *stateDir)
		}
		if *jobDir != "" {
			fmt.Printf(", job dir %s", *jobDir)
		}
		fmt.Println(")")

		done := make(chan error, 1)
		go func() { done <- httpSrv.Serve(ln) }()
		select {
		case <-ctx.Done():
			fmt.Println("uflip serve: shutting down")
			shutdownCtx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
			defer cancel()
			_ = httpSrv.Shutdown(shutdownCtx)
			srv.Close()
			return nil
		case err := <-done:
			srv.Close()
			if errors.Is(err, http.ErrServerClosed) {
				return nil
			}
			return err
		}
	})
}
