package paperexp

// This file pins what the user reads, not what the simulator computes: the
// SHA-256 of the summary CSV, the .jsonl and the stdout report section that
// `uflip -out` and `uflip workload -out` write, for two plans and one
// workload replay. Every artifact is rendered at 1 and 4 engine workers and
// the two must agree before either is compared with the committed digests,
// so a failure says which of "worker count leaked" or "the bytes changed" it
// is. Regenerate testdata/rendered.sha256.json — only for an intended change
// of model or format, explained in the PR — with
//
//	go test ./internal/paperexp -run TestRenderedBytesGolden -update

import (
	"bytes"
	"context"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"flag"
	"os"
	"testing"
	"time"

	"uflip/internal/core"
	"uflip/internal/report"
	"uflip/internal/trace"
	"uflip/internal/workload"
)

var updateRendered = flag.Bool("update", false, "rewrite testdata/rendered.sha256.json from the current behaviour")

const renderedGoldenPath = "testdata/rendered.sha256.json"

// addRendered stores the digests of one job's three artifacts under prefix.
func addRendered(t *testing.T, into map[string]string, prefix string, records []trace.RunRecord, section func(*bytes.Buffer) error) {
	t.Helper()
	var csv, jsonl, rep bytes.Buffer
	if err := trace.WriteSummaryCSV(&csv, records); err != nil {
		t.Fatal(err)
	}
	if err := trace.WriteJSON(&jsonl, records); err != nil {
		t.Fatal(err)
	}
	if err := section(&rep); err != nil {
		t.Fatal(err)
	}
	for name, buf := range map[string]*bytes.Buffer{"csv": &csv, "jsonl": &jsonl, "report": &rep} {
		if buf.Len() == 0 {
			t.Fatalf("%s/%s rendered empty", prefix, name)
		}
		sum := sha256.Sum256(buf.Bytes())
		into[prefix+"/"+name] = hex.EncodeToString(sum[:])
	}
}

// renderedDigests runs the pinned jobs at the given worker count: the
// Granularity + Locality plan through RunBenchmark on a WriteCache-over-
// PageFTL profile and a bare BlockFTL profile, and an OLTP replay on a
// zero-rate faulty wrapper over a two-member stripe.
func renderedDigests(t *testing.T, workers int) map[string]string {
	t.Helper()
	out := map[string]string{}
	cfg := Config{Capacity: 64 << 20, Seed: 42, IOCount: 64}
	for _, key := range []string{"mtron", "kingston-dti"} {
		res, err := RunBenchmark(context.Background(), key, cfg, BenchmarkRequest{
			Micros:  []string{"Granularity", "Locality"},
			Workers: workers,
		})
		if err != nil {
			t.Fatalf("%s: %v", key, err)
		}
		addRendered(t, out, "plan/"+key, Records(res.Results), func(w *bytes.Buffer) error {
			return report.PlanSection(w, res.Micros, res.Results, core.StandardDefaults().IOSize)
		})
	}

	const spec = "faulty(stripe(2,memoright,memoright),seed=7)"
	wcfg := Config{Capacity: 64 << 20, Seed: 42, Pause: time.Second}
	gen := workload.OLTP{PageSize: 8192, TargetSize: wcfg.Capacity, ReadFraction: 0.7, Count: 4096, Seed: wcfg.Seed}
	res, err := workload.Generate(context.Background(), gen, ShardFactory(spec, wcfg), workload.Options{
		SegmentOps: 512,
		Workers:    workers,
		Seed:       wcfg.Seed,
	})
	if err != nil {
		t.Fatalf("%s: %v", spec, err)
	}
	addRendered(t, out, "workload/oltp", WorkloadRecords(res), func(w *bytes.Buffer) error {
		return report.WorkloadSection(w, res)
	})
	return out
}

// TestRenderedBytesGolden is the absolute pin on rendered output: the other
// differential tests in this package compare two code paths with each other,
// so a change that moves both passes them; this one compares with digests
// committed from a known-good tree.
func TestRenderedBytesGolden(t *testing.T) {
	got := renderedDigests(t, 1)
	for name, sum := range renderedDigests(t, 4) {
		if got[name] != sum {
			t.Errorf("%s: bytes differ between 1 and 4 workers", name)
		}
	}
	if t.Failed() {
		return
	}
	if *updateRendered {
		blob, err := json.MarshalIndent(got, "", "  ")
		if err != nil {
			t.Fatal(err)
		}
		if err := trace.WriteFileAtomic(renderedGoldenPath, append(blob, '\n')); err != nil {
			t.Fatal(err)
		}
		return
	}
	blob, err := os.ReadFile(renderedGoldenPath)
	if err != nil {
		t.Fatal(err)
	}
	var want map[string]string
	if err := json.Unmarshal(blob, &want); err != nil {
		t.Fatalf("%s: %v", renderedGoldenPath, err)
	}
	if len(want) != len(got) {
		t.Errorf("%s holds %d digests, the test renders %d", renderedGoldenPath, len(want), len(got))
	}
	for name, sum := range got {
		if want[name] != sum {
			t.Errorf("%s: sha256 %s, golden %s", name, sum, want[name])
		}
	}
}
