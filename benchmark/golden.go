package main

import (
	_ "embed"
	"encoding/json"
	"fmt"
)

// goldenSeed is the seed whose results are committed in golden/.
const goldenSeed = 42

// goldenPath is where -update-golden writes, relative to the repository
// root.
const goldenPath = "benchmark/golden/seed42.json"

//go:embed golden/seed42.json
var goldenJSON []byte

// goldenFile is golden/seed42.json: for every workload the sim_digest of
// each job kind and the exact op counts of the traced phase. A change that
// only makes the simulator faster leaves every value as it is; a change to
// the model on purpose rewrites the file with -update-golden and says so.
type goldenFile struct {
	Seed      int64                      `json:"seed"`
	Workloads map[string]*goldenWorkload `json:"workloads"`
}

type goldenWorkload struct {
	Digests  map[string]string `json:"sim_digest"`
	OpCounts map[string]int64  `json:"op_counts"`
}

func loadGolden() (*goldenFile, error) {
	var g goldenFile
	if err := json.Unmarshal(goldenJSON, &g); err != nil {
		return nil, fmt.Errorf("golden/seed42.json: %w", err)
	}
	return &g, nil
}

// checkGolden compares the run with golden/ and records which job kind or
// count diverged. Only full-size runs at the golden seed have golden values;
// at any other seed the check that every job agrees with its kind's warm-up
// job stands alone.
func (r *runResult) checkGolden() {
	if r.cfg.seed != goldenSeed || r.cfg.sz != fullSizes {
		return
	}
	mismatch := func(format string, args ...any) {
		r.goldenOK = false
		r.goldenMsg = append(r.goldenMsg, fmt.Sprintf(format, args...))
	}
	g, err := loadGolden()
	if err != nil {
		mismatch("%v", err)
		return
	}
	want := g.Workloads[r.workload]
	if want == nil {
		mismatch("no golden entry for workload %s", r.workload)
		return
	}
	for _, kind := range sortedKeys(r.digests) {
		if got := r.digests[kind]; got != want.Digests[kind] {
			mismatch("%s: sim_digest %s, golden %s", kind, got, want.Digests[kind])
		}
	}
	for _, name := range sortedKeys(r.opCounts) {
		if got := r.opCounts[name]; got != want.OpCounts[name] {
			mismatch("%s: %d, golden %d", name, got, want.OpCounts[name])
		}
	}
}
