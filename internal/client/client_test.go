package client_test

import (
	"bytes"
	"context"
	"net/http/httptest"
	"path/filepath"
	"reflect"
	"slices"
	"testing"

	"uflip/internal/api"
	"uflip/internal/client"
	"uflip/internal/par"
	"uflip/internal/server"
)

// daemon is an in-process daemon with a state store, a job directory and
// one worker, and a client of it.
func daemon(t *testing.T) *client.Client {
	t.Helper()
	dir := t.TempDir()
	srv, err := server.New(server.Config{StateDir: filepath.Join(dir, "state"), JobDir: filepath.Join(dir, "jobs"), Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(srv.Handler())
	t.Cleanup(func() { ts.Close(); srv.Close() })
	return &client.Client{BaseURL: ts.URL, HTTPClient: ts.Client()}
}

// planRequest is the plan job serve-small repeats, on one engine worker.
var planRequest = api.JobRequest{Kind: "plan", Device: "memoright", Capacity: 64 << 20, IOCount: 64, Micros: []string{"Granularity", "Locality"}, Parallel: 1}

// roundTrip submits a plan job, follows its events to the end and fetches
// its CSV, as serve-small's client does; fn sees each event.
func roundTrip(t testing.TB, cl *client.Client, fn func(api.Event)) (id string, csv []byte) {
	ctx := context.Background()
	st, err := cl.Submit(ctx, planRequest)
	if err != nil {
		t.Fatal(err)
	}
	if err := cl.Events(ctx, st.ID, 0, fn); err != nil {
		t.Fatal(err)
	}
	if csv, err = cl.CSV(ctx, st.ID); err != nil {
		t.Fatal(err)
	}
	return st.ID, csv
}

// TestRoundTripAllocations pins what one Submit → Events → CSV round trip
// allocates, the daemon's repeated job included: at the median 3,376–3,377
// times with go1.24 on amd64, 3,377–3,380 on 386. Reading the event lines as
// strings adds ~100, reading the CSV through io.ReadAll ~10. Single round trips scatter
// around that: a stream waits for the job a varying number of times, each
// wait allocating, and the daemon persists a job while its client fetches
// the CSV, so the test takes the median of 21.
func TestRoundTripAllocations(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector drops sync.Pool entries at random, so allocation counts vary")
	}
	cl := daemon(t)
	var last api.Event
	run := func() { roundTrip(t, cl, func(ev api.Event) { last = ev }) }
	run() // the first job prepares what the others reuse
	counts := make([]float64, 21)
	for i := range counts {
		counts[i] = testing.AllocsPerRun(1, run)
	}
	slices.Sort(counts)
	const ceiling = 3383
	got := counts[len(counts)/2]
	t.Logf("a round trip allocates %v times at the median, %v to %v", got, counts[0], counts[len(counts)-1])
	if got > ceiling {
		t.Errorf("a round trip allocates %v times at the median, want at most %v", got, ceiling)
	}
	if last.Type != api.EventDone {
		t.Fatalf("the last event is %+v, want done", last)
	}
}

// TestEventsAndBodiesStayTheCallers: the events Events hands its callback
// and the bytes CSV returns belong to the caller. Two streams of one job at
// once, one while it runs and one after, read equal events, numbered 1..n,
// and a CSV outlives the next fetch unchanged.
func TestEventsAndBodiesStayTheCallers(t *testing.T) {
	cl := daemon(t)
	var live []api.Event
	id, csv := roundTrip(t, cl, func(ev api.Event) { live = append(live, ev) })
	for i, ev := range live {
		if ev.ID != int64(i+1) || ev.Job != id {
			t.Fatalf("event %d is %+v", i, ev)
		}
	}
	want := bytes.Clone(csv)
	replays := make([][]api.Event, 2)
	csvs := make([][]byte, 2)
	err := par.Each(context.Background(), 2, 2, func(ctx context.Context, _, k int) error {
		var err error
		if err = cl.Events(ctx, id, 0, func(ev api.Event) { replays[k] = append(replays[k], ev) }); err == nil {
			csvs[k], err = cl.CSV(ctx, id)
		}
		return err
	})
	if err != nil {
		t.Fatal(err)
	}
	for k := range replays {
		if !reflect.DeepEqual(replays[k], live) {
			t.Errorf("replay %d read %d events unlike the %d of the live stream", k, len(replays[k]), len(live))
		}
		if !bytes.Equal(csvs[k], want) {
			t.Errorf("CSV fetch %d differs from the first", k)
		}
	}
	if !bytes.Equal(csv, want) {
		t.Error("a later fetch changed the first CSV")
	}
}
