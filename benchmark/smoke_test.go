package main

import (
	"context"
	"encoding/json"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// smoke returns w cut down to one set-up, one measured and one traced round
// and — for the plan workloads, whose kinds differ only in the device key —
// one kind, so the tests run the harness and not the clock.
func smoke(w *workloadDef) *workloadDef {
	s := *w
	s.setupRepeats, s.tracedRounds, s.roundsPerSecond = 1, 1, 1
	if strings.HasPrefix(w.name, "plan-") {
		s.kinds = func() []kind { return w.kinds()[:1] }
	}
	return &s
}

// TestSmokeJobPerWorkload runs every workload's jobs once at 64 MiB /
// IOCount 64 / 2 k ops, untraced and traced, so the harness cannot rot: the
// pipelines it calls still exist, every job reproduces its warm-up, the
// traced job's sim_digest equals the untraced one's, and every metric of
// the contract is present.
func TestSmokeJobPerWorkload(t *testing.T) {
	for _, w := range workloads {
		t.Run(w.name, func(t *testing.T) {
			t.Parallel() // nothing here asserts a time
			ctx := context.Background()
			plain, err := runOne(ctx, smoke(w), runConfig{seed: 7, seconds: 1, sz: smokeSizes})
			if err != nil {
				t.Fatal(err)
			}
			if plain.failed != 0 || plain.attempted == 0 {
				t.Fatalf("untraced: %d of %d jobs failed: %v", plain.failed, plain.attempted, plain.failures)
			}
			got := plain.line().Metrics
			for _, def := range endToEnd {
				if m, ok := got[def.name]; !ok || m.Value <= 0 || m.Unit != def.unit {
					t.Errorf("end-to-end metric %s = %+v, want a positive value in %s", def.name, m, def.unit)
				}
			}
			if len(got) != len(endToEnd) {
				t.Errorf("untraced run printed %d metrics, want the %d end-to-end ones", len(got), len(endToEnd))
			}

			spans := filepath.Join(t.TempDir(), "spans.json")
			traced, err := runOne(ctx, smoke(w), runConfig{seed: 7, seconds: 1, sz: smokeSizes, traced: true, skipDrivers: true, spansOut: spans})
			if err != nil {
				t.Fatal(err)
			}
			if traced.failed != 0 || traced.attempted == 0 {
				t.Fatalf("traced: %d of %d jobs failed: %v", traced.failed, traced.attempted, traced.failures)
			}
			for kind, digest := range plain.digests {
				if traced.digests[kind] != digest {
					t.Errorf("%s: sim_digest differs between two runs at one seed", kind)
				}
			}
			got = traced.line().Metrics
			for _, def := range tracedDefs {
				if _, ok := got[def.name]; !ok {
					t.Errorf("traced run lacks %s", def.name)
				}
			}
			if w.name != "serve-small" {
				// Nothing can be interposed inside the daemon; everywhere else
				// the layers must have seen the job.
				for _, name := range []string{"device.ios", "ftl.calls", "engine.clones", "engine.execute_s", "statestore.hit_share"} {
					if got[name].Value <= 0 {
						t.Errorf("%s = %v, want > 0", name, got[name].Value)
					}
				}
				if got["statestore.hit_share"].Value != 1 {
					t.Errorf("statestore.hit_share = %v after set-up, want 1", got["statestore.hit_share"].Value)
				}
			} else if got["server.admit_p50_ms"].Value <= 0 || got["server.events_per_job"].Value <= 0 {
				t.Errorf("client-side spans missing: %+v", got)
			}
			var total float64
			for _, row := range traced.attribution {
				total += row.share
			}
			if total < 0.99 || total > 1.01 {
				t.Errorf("attribution rows add up to %.3f of the job span", total)
			}
			data, err := os.ReadFile(spans)
			if err != nil {
				t.Fatal(err)
			}
			var sf spanFile
			if err := json.Unmarshal(data, &sf); err != nil || sf.Workload != w.name || len(sf.Spans) == 0 || sf.Seen < len(sf.Spans) {
				t.Errorf("span file: %v, workload %q, %d spans of %d seen", err, sf.Workload, len(sf.Spans), sf.Seen)
			}
		})
	}
}

// TestBenchmarkJSONMatchesTheCode pins BENCHMARK.json to the tables the
// program reports from: names, units, directions, bounds and run length.
func TestBenchmarkJSONMatchesTheCode(t *testing.T) {
	data, err := os.ReadFile(filepath.Join("..", "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	var spec struct {
		Command    []string `json:"command"`
		Paths      []string `json:"paths"`
		RunSeconds int      `json:"run_seconds"`
		Workloads  []struct{ Name, Why string }
		EndToEnd   []struct {
			Name, Unit, Better string
			Bound              float64
		} `json:"end_to_end"`
		PerLayer []struct{ Name, Unit, Better string } `json:"per_layer"`
	}
	if err := json.Unmarshal(data, &spec); err != nil {
		t.Fatal(err)
	}
	if spec.RunSeconds != defaultSeconds {
		t.Errorf("run_seconds %d, the program's default is %d", spec.RunSeconds, defaultSeconds)
	}
	if len(spec.Workloads) != len(workloads) {
		t.Fatalf("%d workloads in BENCHMARK.json, %d in the program", len(spec.Workloads), len(workloads))
	}
	for i, w := range workloads {
		if spec.Workloads[i].Name != w.name || spec.Workloads[i].Why != w.why {
			t.Errorf("workload %d: %+v, the program has %s: %s", i, spec.Workloads[i], w.name, w.why)
		}
	}
	if len(spec.EndToEnd) != len(endToEnd) {
		t.Fatalf("%d end-to-end metrics in BENCHMARK.json, %d in the program", len(spec.EndToEnd), len(endToEnd))
	}
	for i, def := range endToEnd {
		if m := spec.EndToEnd[i]; m.Name != def.name || m.Unit != def.unit || m.Better != def.better || m.Bound != def.bound {
			t.Errorf("end-to-end metric %d: %+v, the program has %+v", i, m, def)
		}
	}
	perLayer := append(append([]metricDef{}, driverDefs...), tracedDefs...)
	if len(spec.PerLayer) != len(perLayer) {
		t.Fatalf("%d per-layer metrics in BENCHMARK.json, %d in the program", len(spec.PerLayer), len(perLayer))
	}
	seen := map[string]bool{}
	for i, def := range perLayer {
		if m := spec.PerLayer[i]; m.Name != def.name || m.Unit != def.unit || m.Better != def.better {
			t.Errorf("per-layer metric %d: %+v, the program has %+v", i, m, def)
		}
		if seen[def.name] {
			t.Errorf("per-layer metric %s is listed twice", def.name)
		}
		seen[def.name] = true
	}
}
