// Package client is the Go client of the uflip experiment daemon's /v1 API.
// It speaks the shared wire types of internal/api — the same structs the
// server decodes — covering job submission, status, results, cancellation,
// trace upload and the server-sent progress stream, with transparent
// Last-Event-ID reconnection. `uflip submit` is built on this package.
//
// What a call hands over is the caller's: an api.Event passed to the Events
// callback stays valid after the callback returns, and the slice CSV or
// Report returns is the caller's own, never reused by a later call.
package client

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math/rand/v2"
	"net/http"
	"strconv"
	"strings"
	"time"

	"uflip/internal/api"
	"uflip/internal/report"
	"uflip/internal/trace"
)

// Client talks to one daemon. The zero value is not usable; set BaseURL.
type Client struct {
	// BaseURL is the daemon root, e.g. "http://127.0.0.1:8077". The /v1
	// prefix is appended by the client; do not include it.
	BaseURL string
	// APIKey, when set, is sent as the X-API-Key tenant header.
	APIKey string
	// HTTPClient overrides http.DefaultClient when set.
	HTTPClient *http.Client
}

// APIError is a non-2xx response decoded from the typed error envelope.
type APIError struct {
	Status int // HTTP status
	Err    api.Error
}

func (e *APIError) Error() string {
	return fmt.Sprintf("%s (http %d): %s", e.Err.Code, e.Status, e.Err.Message)
}

func (c *Client) httpClient() *http.Client {
	if c.HTTPClient != nil {
		return c.HTTPClient
	}
	return http.DefaultClient
}

func (c *Client) url(path string) string {
	return strings.TrimSuffix(c.BaseURL, "/") + "/" + api.Version + path
}

// do runs one request, stamping the tenant header, and fails non-2xx
// responses as *APIError.
func (c *Client) do(req *http.Request) (*http.Response, error) {
	if c.APIKey != "" {
		req.Header.Set(api.KeyHeader, c.APIKey)
	}
	resp, err := c.httpClient().Do(req)
	if err != nil {
		return nil, err
	}
	if resp.StatusCode >= 300 {
		defer resp.Body.Close()
		return nil, decodeError(resp)
	}
	return resp, nil
}

func decodeError(resp *http.Response) error {
	body, _ := io.ReadAll(io.LimitReader(resp.Body, 1<<20))
	var env api.ErrorEnvelope
	if err := json.Unmarshal(body, &env); err == nil && env.Err.Code != "" {
		return &APIError{Status: resp.StatusCode, Err: env.Err}
	}
	return &APIError{Status: resp.StatusCode, Err: api.Error{
		Code:    api.CodeInternal,
		Message: strings.TrimSpace(string(body)),
	}}
}

// doJSON runs one request and decodes its 2xx response body into out.
func (c *Client) doJSON(req *http.Request, out any) error {
	resp, err := c.do(req)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	return json.NewDecoder(resp.Body).Decode(out)
}

// getJSON fetches path and decodes the response into out.
func (c *Client) getJSON(ctx context.Context, path string, out any) error {
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, c.url(path), nil)
	if err != nil {
		return err
	}
	return c.doJSON(req, out)
}

// getRaw fetches path and returns the raw body bytes: read into one buffer
// of the declared length, or grown by io.ReadAll for a body without one.
func (c *Client) getRaw(ctx context.Context, path string) ([]byte, error) {
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, c.url(path), nil)
	if err != nil {
		return nil, err
	}
	resp, err := c.do(req)
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	if n := resp.ContentLength; n >= 0 && n <= 64<<20 { // a longer one grows as it arrives
		body := make([]byte, n)
		_, err := io.ReadFull(resp.Body, body)
		return body, err
	}
	return io.ReadAll(resp.Body)
}

// Submit posts a job and returns its accepted status (ID included).
func (c *Client) Submit(ctx context.Context, jr api.JobRequest) (api.JobStatus, error) {
	var st api.JobStatus
	body, err := json.Marshal(jr)
	if err != nil {
		return st, err
	}
	req, err := http.NewRequestWithContext(ctx, http.MethodPost, c.url("/jobs"), bytes.NewReader(body))
	if err != nil {
		return st, err
	}
	req.Header.Set("Content-Type", "application/json")
	return st, c.doJSON(req, &st)
}

// Status fetches a job's current status.
func (c *Client) Status(ctx context.Context, id string) (api.JobStatus, error) {
	var st api.JobStatus
	return st, c.getJSON(ctx, "/jobs/"+id, &st)
}

// Cancel cancels a job (queued or running) and returns its status.
func (c *Client) Cancel(ctx context.Context, id string) (api.JobStatus, error) {
	var st api.JobStatus
	req, err := http.NewRequestWithContext(ctx, http.MethodDelete, c.url("/jobs/"+id), nil)
	if err != nil {
		return st, err
	}
	return st, c.doJSON(req, &st)
}

// CSV fetches a finished job's summary CSV — byte-identical to the file the
// equivalent CLI invocation writes.
func (c *Client) CSV(ctx context.Context, id string) ([]byte, error) {
	return c.getRaw(ctx, "/jobs/"+id+"/csv")
}

// Report fetches a finished job's human-readable report.
func (c *Client) Report(ctx context.Context, id string) ([]byte, error) {
	return c.getRaw(ctx, "/jobs/"+id+"/report")
}

// ResultRecords fetches a finished plan or workload job's run records.
func (c *Client) ResultRecords(ctx context.Context, id string) ([]trace.RunRecord, error) {
	var recs []trace.RunRecord
	return recs, c.getJSON(ctx, "/jobs/"+id+"/result", &recs)
}

// ResultRows fetches a finished array job's grid rows.
func (c *Client) ResultRows(ctx context.Context, id string) ([]report.ArrayRow, error) {
	var rows []report.ArrayRow
	return rows, c.getJSON(ctx, "/jobs/"+id+"/result", &rows)
}

// UploadTrace posts a block trace — the CSV form or the binary .utr form —
// and returns its content-hash handle. The server sniffs the format from
// the bytes; the content type set here is informational.
func (c *Client) UploadTrace(ctx context.Context, body []byte) (api.TraceInfo, error) {
	req, err := http.NewRequestWithContext(ctx, http.MethodPost, c.url("/traces"), bytes.NewReader(body))
	if err != nil {
		return api.TraceInfo{}, err
	}
	if trace.IsUTR(body) {
		req.Header.Set("Content-Type", "application/octet-stream")
	} else {
		req.Header.Set("Content-Type", "text/csv")
	}
	var info api.TraceInfo
	return info, c.doJSON(req, &info)
}

// Reconnect backoff bounds: the first retry waits about reconnectBase, each
// consecutive failure doubles the wait up to reconnectCap, and every wait is
// jittered by ±50% so a fleet of clients cut off together does not reconnect
// in lockstep.
const (
	reconnectBase = 200 * time.Millisecond
	reconnectCap  = 5 * time.Second
)

// reconnectDelay returns the nominal (un-jittered) backoff for the n-th
// consecutive failed reconnect attempt (n >= 0): base << n, capped.
func reconnectDelay(attempt int) time.Duration {
	d := reconnectBase
	for i := 0; i < attempt && d < reconnectCap; i++ {
		d *= 2
	}
	return min(d, reconnectCap)
}

// jitter spreads d uniformly over [d/2, 3d/2). Thundering-herd avoidance is
// the one place the client wants real randomness — nothing measured depends
// on it.
func jitter(d time.Duration) time.Duration {
	return d/2 + time.Duration(rand.Int64N(int64(d)))
}

// Events streams a job's progress events, invoking fn for each, starting
// after event ID `after` (0 = from the beginning). The stream's monotonic
// IDs drive transparent reconnection: if the connection drops mid-job the
// client reconnects with Last-Event-ID and resumes without gaps or repeats,
// backing off exponentially (jittered, reconnectBase up to reconnectCap)
// across consecutive failures and resetting once events flow again. Events
// returns nil once a terminal event (done, failed, canceled) has been
// delivered, or the context/server error that ended the stream.
func (c *Client) Events(ctx context.Context, id string, after int64, fn func(api.Event)) error {
	attempt := 0
	for {
		terminal, last, err := c.streamOnce(ctx, id, after, fn)
		if terminal || err != nil {
			return err
		}
		if last > after {
			attempt = 0 // the connection made progress before dropping
		}
		after = last
		select {
		case <-ctx.Done():
			return ctx.Err()
		case <-time.After(jitter(reconnectDelay(attempt))):
		}
		attempt++
	}
}

// streamOnce runs a single SSE connection. It reports whether a terminal
// event arrived and the last event ID seen; a dropped connection returns
// (false, last, nil) so the caller can resume.
func (c *Client) streamOnce(ctx context.Context, id string, after int64, fn func(api.Event)) (bool, int64, error) {
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, c.url("/jobs/"+id+"/events"), nil)
	if err != nil {
		return false, after, err
	}
	req.Header.Set("Accept", "text/event-stream")
	if after > 0 {
		req.Header.Set("Last-Event-ID", strconv.FormatInt(after, 10))
	}
	resp, err := c.do(req)
	if err != nil {
		// Server-side rejections (404, 400, ...) are final; transport
		// errors are retried by the caller unless the context ended.
		if _, ok := err.(*APIError); ok || ctx.Err() != nil {
			return false, after, err
		}
		return false, after, nil
	}
	defer resp.Body.Close()
	terminal, last, err := readEvents(resp.Body, after, fn)
	if err == nil && !terminal {
		err = ctx.Err() // nil for a dropped connection: the caller resumes
	}
	return terminal, last, err
}

// readEvents hands fn the events of an SSE body up to a terminal one, which
// it reports with the last event ID. One json.Decoder, over a reader reset to
// each payload, decodes them all; a payload fails as json.Unmarshal fails it.
func readEvents(body io.Reader, after int64, fn func(api.Event)) (bool, int64, error) {
	sc := bufio.NewScanner(body)
	// An event line is short: the buffer starts at the scanner's default
	// size and grows only for a long one, up to 1 MiB. Lines are parsed in
	// it, and a payload is gathered in data, which the stream keeps.
	sc.Buffer(nil, 1<<20)
	var data []byte
	var payload bytes.Reader
	dec := json.NewDecoder(&payload)
	read := int64(0) // the payload bytes dec has been given
	var ev api.Event // decoded through a pointer, so one for the stream
	for sc.Scan() {
		line := sc.Bytes()
		switch {
		case len(line) == 0:
			if len(data) == 0 {
				continue
			}
			ev = api.Event{} // Decode leaves a field the payload omits as it was
			payload.Reset(data)
			// The value ends at the decoder's offset; space may follow it, which
			// the decoder skips as the next payload's start.
			err := dec.Decode(&ev)
			if err == nil && len(bytes.TrimLeft(data[dec.InputOffset()-read:], " \t\r\n")) > 0 {
				err = errors.New("a byte after the value")
			}
			if err != nil {
				return false, after, fmt.Errorf("client: bad event payload: %w", err)
			}
			read += int64(len(data))
			data = data[:0]
			after = ev.ID
			fn(ev)
			if ev.Terminal() {
				return true, after, nil
			}
		case bytes.HasPrefix(line, []byte("data:")):
			data = append(data, bytes.TrimPrefix(line[len("data:"):], []byte(" "))...)
		default:
			// id:/event: lines duplicate fields already in the payload.
		}
	}
	return false, after, nil
}
