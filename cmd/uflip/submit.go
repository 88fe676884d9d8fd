package main

import (
	"context"
	"flag"
	"fmt"
	"os"
	"strings"
	"time"

	"uflip/internal/api"
	"uflip/internal/client"
	"uflip/internal/job"
)

// runSubmit implements "uflip submit [plan|workload|array] flags".
func runSubmit(ctx context.Context, args []string) error {
	kind := "plan"
	if len(args) > 0 && !strings.HasPrefix(args[0], "-") {
		kind = args[0]
		args = args[1:]
	}
	if _, ok := flagText[kind]; !ok {
		return fmt.Errorf("unknown submit kind %q (want plan, workload or array)", kind)
	}
	fs, _, cmd := submitCommand(ctx, kind)
	return run(fs, args, cmd)
}

// submitCommand is `uflip submit <kind>`: its flag set — the job's flags, the
// ones `uflip <kind>` registers, plus those that address the daemon — and the
// remote shell around the same job, to call once the flags are parsed. It
// sends the request the local command would run to a `uflip serve` daemon,
// whose worker runs it with the function the local command calls. A -trace
// file is uploaded first; progress events stream to stderr, the report goes
// to stdout and, with -out, the fetched results through the local command's
// Save. Ctrl-C cancels the job on the daemon.
func submitCommand(ctx context.Context, kind string) (*flag.FlagSet, *jobFlags, func() error) {
	fs := flag.NewFlagSet("uflip submit "+kind, flag.ContinueOnError)
	var (
		jf     = registerJobFlags(fs, kind, 0)
		server = fs.String("server", "http://127.0.0.1:8077", "daemon base URL")
		apiKey = fs.String("api-key", "", "tenant API key (sent as "+api.KeyHeader+")")
		detach = fs.Bool("detach", false, "submit and print the job ID without waiting for completion")
	)
	return fs, jf, func() error {
		req, err := jf.request()
		if err != nil {
			return err
		}
		cl := &client.Client{BaseURL: *server, APIKey: *apiKey}
		if path := *jf.trace; path != "" {
			body, err := os.ReadFile(path)
			if err != nil {
				return err
			}
			info, err := cl.UploadTrace(ctx, body)
			if err != nil {
				return fmt.Errorf("upload trace: %w", err)
			}
			fmt.Fprintf(os.Stderr, "trace %s uploaded: %d ops, hash %s\n", path, info.Ops, info.Hash)
			req.Workload.TraceHash = info.Hash
		}
		st, err := cl.Submit(ctx, req)
		if err != nil {
			return err
		}
		fmt.Fprintf(os.Stderr, "job %s submitted (%s)\n", st.ID, st.Status)
		if *detach {
			fmt.Println(st.ID)
			return nil
		}
		// An interrupted local run stops; so does the job this command follows.
		// The interrupted context cannot carry the request, a short fresh one does.
		defer func() {
			if ctx.Err() == nil {
				return
			}
			cctx, cancel := context.WithTimeout(context.WithoutCancel(ctx), 5*time.Second)
			defer cancel()
			if _, err := cl.Cancel(cctx, st.ID); err != nil {
				fmt.Fprintf(os.Stderr, "job %s: cancel: %v\n", st.ID, err)
			}
		}()

		// Follow the daemon's server-sent progress events on stderr; the client
		// reconnects with Last-Event-ID if the connection drops, so a flaky link
		// (or a daemon restart) does not lose progress.
		err = cl.Events(ctx, st.ID, 0, func(ev api.Event) {
			switch ev.Type {
			case api.EventProgress:
				fmt.Fprintf(os.Stderr, "  [%d/%d] %s\n", ev.Done, ev.Total, ev.Detail)
			case api.EventStage:
				fmt.Fprintf(os.Stderr, "%s\n", ev.Detail)
			case api.EventFailed:
				fmt.Fprintf(os.Stderr, "job %s failed: %s\n", ev.Job, ev.Error)
			default:
				if ev.Detail != "" {
					fmt.Fprintf(os.Stderr, "job %s %s: %s\n", ev.Job, ev.Type, ev.Detail)
				} else {
					fmt.Fprintf(os.Stderr, "job %s %s\n", ev.Job, ev.Type)
				}
			}
		})
		if err != nil {
			return err
		}
		out, err := fetchOutcome(ctx, cl, st.ID, kind)
		if err != nil {
			return err
		}
		os.Stdout.Write(out.Report)
		if *jf.out != "" {
			saved, err := out.Save(*jf.out, stem(req))
			if err != nil {
				return err
			}
			fmt.Fprintln(os.Stderr, saved)
		}
		return nil
	}
}

// fetchOutcome fetches a terminated job into the Outcome a local run of it
// would have produced: the report, and the grid rows or the run records with
// the summary CSV verbatim, the bytes the daemon rendered and persisted. A job
// that did not finish is an error.
func fetchOutcome(ctx context.Context, cl *client.Client, id, kind string) (*job.Outcome, error) {
	final, err := cl.Status(ctx, id)
	if err != nil {
		return nil, err
	}
	switch final.Status {
	case api.StatusDone:
	case api.StatusCanceled:
		return nil, fmt.Errorf("job %s was canceled", id)
	default:
		return nil, fmt.Errorf("job %s %s: %s", id, final.Status, final.Error)
	}
	out := &job.Outcome{Kind: kind}
	if out.Report, err = cl.Report(ctx, id); err != nil {
		return nil, err
	}
	if kind == "array" {
		out.Rows, err = cl.ResultRows(ctx, id)
		return out, err
	}
	if out.CSV, err = cl.CSV(ctx, id); err != nil {
		return nil, err
	}
	out.Records, err = cl.ResultRecords(ctx, id)
	return out, err
}
