package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"strings"
	"text/tabwriter"
)

// benchSpec is the part of BENCHMARK.json compare reads: which metrics are
// bounded, which direction is better and by how much each may worsen.
type benchSpec struct {
	Workloads []specWorkload `json:"workloads"`
	EndToEnd  []specMetric   `json:"end_to_end"`
}

type specWorkload struct {
	Name string `json:"name"`
}

type specMetric struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound"`
}

// verdict is compare's judgement of one workload x metric.
type verdict string

const (
	better      verdict = "better"
	worse       verdict = "worse"
	withinBound verdict = "within bound"
	// unresolved: the run-to-run spread is wider than the bound, so the
	// runs cannot tell "unchanged" from "regressed".
	unresolved verdict = "UNRESOLVED"
)

// judge compares the runs of A (the parent) with those of B (the change)
// for a metric that may worsen by at most bound (a share of A's median).
//
//   - worse: B's median is worse than A's by more than the bound — unless
//     the spread is wider than the bound and the two sets of runs overlap.
//   - unresolved: the spread of either side is wider than the bound and B's
//     runs are not all better than all of A's.
//   - better: B's median is better by more than the spread between A's own
//     runs, or every run of B beats every run of A.
//   - within bound: everything else.
func judge(a, b []float64, higherIsBetter bool, bound float64) verdict {
	if len(a) == 0 || len(b) == 0 {
		return unresolved
	}
	sign := 1.0 // after this, larger = worse
	if higherIsBetter {
		sign = -1
	}
	ma, mb := median(a), median(b)
	if ma == 0 {
		return unresolved
	}
	worsening := sign * (mb - ma) / ma // positive: B is worse
	wide := spread(a) > bound || spread(b) > bound
	allBetter, allWorse := true, true
	for _, x := range a {
		for _, y := range b {
			if sign*(y-x) >= 0 {
				allBetter = false
			}
			if sign*(y-x) <= 0 {
				allWorse = false
			}
		}
	}
	switch {
	case wide && allBetter:
		return better
	case wide && allWorse && worsening > bound:
		return worse
	case wide:
		return unresolved
	case worsening > bound:
		return worse
	case allBetter || -worsening > spread(a):
		return better
	}
	return withinBound
}

// loadDocs reads a comma-separated list of benchmark documents and pools
// their runs: a set of runs taken interleaved with another set is several
// files per side.
func loadDocs(list string) (map[string]map[string][]float64, error) {
	pooled := make(map[string]map[string][]float64)
	for _, path := range strings.Split(list, ",") {
		data, err := os.ReadFile(path)
		if err != nil {
			return nil, err
		}
		var doc allDoc
		if err := json.Unmarshal(data, &doc); err != nil {
			return nil, fmt.Errorf("%s: %w", path, err)
		}
		for name, wd := range doc.Workloads {
			if pooled[name] == nil {
				pooled[name] = make(map[string][]float64)
			}
			for metric, xs := range wd.EndToEnd {
				pooled[name][metric] = append(pooled[name][metric], xs...)
			}
		}
	}
	return pooled, nil
}

// compareMain implements `benchmark compare A.json B.json`.
func compareMain(args []string) int {
	fs := flag.NewFlagSet("benchmark compare", flag.ContinueOnError)
	specPath := fs.String("spec", "BENCHMARK.json", "the benchmark definition to read bounds and directions from")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if fs.NArg() != 2 {
		fmt.Fprintln(os.Stderr, "usage: benchmark compare [-spec BENCHMARK.json] A.json[,A2.json...] B.json[,B2.json...]")
		return 2
	}
	fail := func(err error) int {
		fmt.Fprintln(os.Stderr, "benchmark compare:", err)
		return 2
	}
	data, err := os.ReadFile(*specPath)
	if err != nil {
		return fail(err)
	}
	var spec benchSpec
	if err := json.Unmarshal(data, &spec); err != nil {
		return fail(fmt.Errorf("%s: %w", *specPath, err))
	}
	a, err := loadDocs(fs.Arg(0))
	if err != nil {
		return fail(err)
	}
	b, err := loadDocs(fs.Arg(1))
	if err != nil {
		return fail(err)
	}
	if compareDocs(os.Stdout, &spec, a, b) > 0 {
		return 1
	}
	return 0
}

// compareDocs prints one row per workload x end-to-end metric and returns
// how many are worse.
func compareDocs(w io.Writer, spec *benchSpec, a, b map[string]map[string][]float64) (worseCount int) {
	tw := tabwriter.NewWriter(w, 0, 8, 2, ' ', 0)
	fmt.Fprintln(tw, "workload\tmetric\tA median [q1, q3] n\tB median [q1, q3] n\tchange\tbound\tverdict")
	cell := func(xs []float64) string {
		q1, q3 := quartiles(xs)
		return fmt.Sprintf("%.5g [%.5g, %.5g] %d", median(xs), q1, q3, len(xs))
	}
	for _, wl := range spec.Workloads {
		for _, m := range spec.EndToEnd {
			xa, xb := a[wl.Name][m.Name], b[wl.Name][m.Name]
			v := judge(xa, xb, m.Better == "higher", m.Bound)
			if v == worse {
				worseCount++
			}
			change := "n/a"
			if ma := median(xa); ma != 0 && len(xb) > 0 {
				change = fmt.Sprintf("%+.1f%%", 100*(median(xb)-ma)/ma)
			}
			fmt.Fprintf(tw, "%s\t%s (%s, %s is better)\t%s\t%s\t%s\t%.0f%%\t%s\n",
				wl.Name, m.Name, m.Unit, m.Better, cell(xa), cell(xb), change, 100*m.Bound, v)
		}
	}
	tw.Flush()
	return worseCount
}
