// Package profile describes the eleven flash devices of Table 2 of the uFLIP
// paper as simulator configurations, and assembles a full SimDevice (chips +
// FTL + optional write buffer + bus) from each.
//
// Mechanisms (which flash operations happen for a given IO) come from the
// ftl and flash packages and are shared by all devices; the per-device
// numbers here are calibration: translation design, buffer size, stream
// count, parallelism coefficients and bus speeds chosen so each simulated
// device reproduces its Table 3 row and figure shapes. Fields that encode
// observed behaviour with no documented mechanism (the devices are black
// boxes, Section 2.3) are the cost-model coefficients; everything else is
// structural.
package profile

import (
	"fmt"
	"sort"

	"uflip/internal/device"
	"uflip/internal/flash"
	"uflip/internal/ftl"
)

// FTLKind selects the translation design.
type FTLKind int

const (
	// PageMapped devices use ftl.PageFTL (the SSDs).
	PageMapped FTLKind = iota
	// BlockMapped devices use ftl.BlockFTL (USB drives, SD cards, IDE
	// modules).
	BlockMapped
)

// String names the FTL kind.
func (k FTLKind) String() string {
	if k == PageMapped {
		return "page-mapped"
	}
	return "block-mapped"
}

// Profile is one device of Table 2 plus everything needed to simulate it.
type Profile struct {
	// Key is the short identifier used on command lines ("memoright").
	Key string
	// Brand, Model, Type, CapacityBytes and PriceUSD reproduce Table 2.
	Brand         string
	Model         string
	Type          string
	CapacityBytes int64
	PriceUSD      int
	// Representative marks the seven devices whose results Section 5
	// presents in detail (the arrows in Table 2).
	Representative bool

	// Hardware.
	Cell  flash.CellType
	Chips int

	// Translation stack.
	Kind  FTLKind
	Page  ftl.PageConfig   // PageMapped only; LogicalBytes set at build
	Block ftl.BlockConfig  // BlockMapped only; LogicalBytes set at build
	Cache *ftl.CacheConfig // optional write buffer / log zone

	// Calibrated timing.
	Cost ftl.CostModel
	Sim  device.SimConfig
}

// String returns "Brand Model (Type, size)".
func (p Profile) String() string {
	return fmt.Sprintf("%s %s (%s, %d GB)", p.Brand, p.Model, p.Type, p.CapacityBytes>>30)
}

// BuildWithCapacity assembles the device with a different logical capacity,
// keeping every other characteristic. Tests and quick benchmark runs use
// scaled-down devices. Behaviour is not wholly capacity-independent: a
// page-mapped device flushes direct-map pages to flash only when writes
// scatter over more than 1 GiB (64 buffered map pages of 16 MiB each), and
// state enforcement takes time in proportion to the capacity.
//
// The logical capacity is rounded down to whole 4 KiB cache lines
// (ftl.LineBytes), because a write-back cache destages whole lines and would
// otherwise hand its FTL the partial last line past the end; a capacity below
// one line is refused.
func (p Profile) BuildWithCapacity(logical int64) (*device.SimDevice, error) {
	logical = logicalBytes(logical)
	if logical <= 0 {
		return nil, fmt.Errorf("profile %s: capacity must be at least %d bytes", p.Key, ftl.LineBytes)
	}
	var headroomBlocks int64
	switch p.Kind {
	case PageMapped:
		headroomBlocks = int64(p.Page.ReserveBlocks + p.Page.WritePoints + 4)
	case BlockMapped:
		headroomBlocks = int64(p.Block.LogBlocks + 4)
	default:
		return nil, fmt.Errorf("profile %s: unknown FTL kind %d", p.Key, p.Kind)
	}
	raw := logical + headroomBlocks*ftl.BlockBytes
	arr, err := ftl.NewUniformArray(p.Chips, p.Cell, raw)
	if err != nil {
		return nil, fmt.Errorf("profile %s: %w", p.Key, err)
	}

	var top ftl.Translator
	switch p.Kind {
	case PageMapped:
		cfg := p.Page
		cfg.LogicalBytes = logical
		f, err := ftl.NewPageFTL(arr, cfg, p.Cost)
		if err != nil {
			return nil, fmt.Errorf("profile %s: %w", p.Key, err)
		}
		top = f
	case BlockMapped:
		cfg := p.Block
		cfg.LogicalBytes = logical
		f, err := ftl.NewBlockFTL(arr, cfg, p.Cost)
		if err != nil {
			return nil, fmt.Errorf("profile %s: %w", p.Key, err)
		}
		top = f
	}
	if p.Cache != nil {
		c, err := ftl.NewWriteCache(top, *p.Cache, p.Cost)
		if err != nil {
			return nil, fmt.Errorf("profile %s: %w", p.Key, err)
		}
		top = c
	}
	sim := p.Sim
	sim.Name = p.Key
	return device.NewSimDevice(sim, top, p.Cost)
}

// logicalBytes is the logical capacity BuildWithCapacity gives a device asked
// for capacity bytes.
func logicalBytes(capacity int64) int64 { return capacity - capacity%ftl.LineBytes }

// ByKey returns the profile with the given key.
func ByKey(key string) (Profile, error) {
	for _, p := range All() {
		if p.Key == key {
			return p, nil
		}
	}
	return Profile{}, fmt.Errorf("profile: unknown device %q (known: %v)", key, Keys())
}

// Keys lists all profile keys in stable order.
func Keys() []string {
	ps := All()
	keys := make([]string, len(ps))
	for i, p := range ps {
		keys[i] = p.Key
	}
	sort.Strings(keys)
	return keys
}

// Representatives returns the seven devices discussed in Section 5, in the
// order of Table 3.
func Representatives() []Profile {
	var out []Profile
	for _, p := range All() {
		if p.Representative {
			out = append(out, p)
		}
	}
	return out
}
