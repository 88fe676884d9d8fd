package workload

import (
	"fmt"
	"time"
)

// Spec is the declarative, serializable form of a synthetic workload: a kind
// name plus the union of the generators' knobs. It is the shape the uflip
// CLI flags and the experiment server's JSON requests share, so a workload
// described either way builds the identical generator (and therefore the
// identical op stream).
type Spec struct {
	// Kind selects the generator: oltp, append, zipf or bursty (bursty
	// wraps an OLTP inner stream, as the CLI does).
	Kind string `json:"kind"`
	// Count is the stream length in ops.
	Count int `json:"ops"`
	// Seed makes the stream reproducible.
	Seed int64 `json:"seed"`
	// PageSize is the IO size for oltp/zipf/bursty (0 = 8 KB).
	PageSize int64 `json:"page_size,omitempty"`
	// IOSize is the append size for the append kind (0 = 32 KB).
	IOSize int64 `json:"io_size,omitempty"`
	// TargetSize bounds the addressable area; it must be positive (the
	// CLI defaults it to half the device capacity before building).
	TargetSize int64 `json:"target_size"`
	// ReadFraction is the read probability for oltp/zipf/bursty, in [0,1].
	ReadFraction float64 `json:"read_fraction"`
	// ZipfS is the Zipf skew for the zipf kind (0 = 1.2).
	ZipfS float64 `json:"zipf_s,omitempty"`
	// Streams is the concurrent stream count for the append kind (0 = 1).
	Streams int `json:"streams,omitempty"`
	// Think is the inter-arrival gap between ops in nanoseconds.
	Think time.Duration `json:"think_ns,omitempty"`
	// BurstOps is the ops per burst for the bursty kind (0 = 32).
	BurstOps int `json:"burst_ops,omitempty"`
	// BurstGap is the pause before each burst in nanoseconds. Zero means
	// no inter-burst pause (the CLI flag supplies its own 100 ms default).
	BurstGap time.Duration `json:"burst_gap_ns,omitempty"`
}

// Build constructs the spec's generator, refusing what its Generate would.
func (s Spec) Build() (Generator, error) {
	oltp := OLTP{
		PageSize:     s.PageSize,
		TargetSize:   s.TargetSize,
		ReadFraction: s.ReadFraction,
		Think:        s.Think,
		Count:        s.Count,
		Seed:         s.Seed,
	}
	switch s.Kind {
	case "oltp":
		return oltp.checked()
	case "append":
		return LogAppend{
			Streams:    s.Streams,
			IOSize:     s.IOSize,
			TargetSize: s.TargetSize,
			Gap:        s.Think,
			Count:      s.Count,
		}.checked()
	case "zipf":
		return Zipfian{
			PageSize:     s.PageSize,
			TargetSize:   s.TargetSize,
			S:            s.ZipfS,
			ReadFraction: s.ReadFraction,
			Think:        s.Think,
			Count:        s.Count,
			Seed:         s.Seed,
		}.checked()
	case "bursty":
		inner, err := oltp.checked()
		return Bursty{Inner: inner, BurstOps: s.BurstOps, Gap: s.BurstGap}, err
	default:
		return nil, fmt.Errorf("workload: unknown kind %q (want oltp, append, zipf or bursty)", s.Kind)
	}
}
