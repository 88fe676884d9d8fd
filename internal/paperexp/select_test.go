package paperexp

import (
	"fmt"
	"reflect"
	"strings"
	"testing"

	"uflip/internal/core"
)

// selectMicrosFromAll is SelectMicros as it was written first, kept as the
// oracle: build all nine micro-benchmarks, keep the named ones.
func selectMicrosFromAll(names []string, d core.Defaults, capacity int64) ([]core.Microbenchmark, error) {
	all := core.AllMicrobenchmarks(d, capacity)
	if len(names) == 0 {
		return all, nil
	}
	byName := make(map[string]core.Microbenchmark, len(all))
	known := make([]string, 0, len(all))
	for _, mb := range all {
		byName[strings.ToLower(mb.Name)] = mb
		known = append(known, mb.Name)
	}
	out := make([]core.Microbenchmark, 0, len(names))
	for _, want := range names {
		mb, ok := byName[strings.ToLower(strings.TrimSpace(want))]
		if !ok {
			return nil, fmt.Errorf("unknown micro-benchmark %q (known: %s)", want, strings.Join(known, ", "))
		}
		out = append(out, mb)
	}
	return out, nil
}

// TestSelectMicrosBuildsOnlyTheNamed: building only the named
// micro-benchmarks selects the same experiments as building all nine and
// keeping the named ones — for every name alone, in any case and with
// spaces, for lists, repeats and the empty list, at two capacities — and an
// unknown name gets the same error.
func TestSelectMicrosBuildsOnlyTheNamed(t *testing.T) {
	d := core.StandardDefaults()
	selections := [][]string{nil, {}, {"Order", "Mix"}, {"bursts", " PAUSE ", "granularity"}, {"Mix", "Mix"},
		{"Order", "nope"}, {"Pause"}, {"PauseMB"}, {""}}
	for _, m := range core.Table1 {
		selections = append(selections, []string{m.Name}, []string{strings.ToUpper(m.Name) + "\t"})
	}
	for _, capacity := range []int64{32 << 20, 1 << 30} {
		for _, names := range selections {
			got, err := SelectMicros(names, d, capacity)
			want, wantErr := selectMicrosFromAll(names, d, capacity)
			if fmt.Sprint(err) != fmt.Sprint(wantErr) || !reflect.DeepEqual(got, want) {
				t.Errorf("%q at %d bytes: %d micro-benchmarks, error %v; want %d, %v", names, capacity, len(got), err, len(want), wantErr)
			}
		}
	}
}
