package ftl_test

import (
	"testing"

	"uflip/internal/device"
	"uflip/internal/ftl"
	"uflip/internal/methodology"
	"uflip/internal/profile"
)

// TestPoolMemoryFollowsDistinctWear carries TestWearQueueMemoryFollowsDistinctWear
// to a real pool: kingston-sd at its full 2 GiB, after random state
// enforcement. The free pool's slab holds one bitset slot per erase count the
// pool holds keys at, beside the slots recycled along the way; restored into
// a freshly built device, as a state file is loaded, exactly one per count.
func TestPoolMemoryFollowsDistinctWear(t *testing.T) {
	p, err := profile.ByKey("kingston-sd")
	if err != nil {
		t.Fatal(err)
	}
	build := func() *device.SimDevice {
		dev, err := profile.BuildDevice(p.Key, p.CapacityBytes)
		if err != nil {
			t.Fatal(err)
		}
		return dev.(*device.SimDevice)
	}
	live, fresh := build(), build()
	if _, err := methodology.EnforceRandomState(live, 42); err != nil {
		t.Fatal(err)
	}
	if err := ftl.RestoreTranslator(fresh.Top(), snapshot(t, live.Top())); err != nil {
		t.Fatal(err)
	}
	counts, slots, recycled := ftl.PoolMemory(live.Top())
	if counts < 2 || slots-recycled != counts {
		t.Fatalf("enforced pool: keys at %d erase counts, %d slots of which %d recycled; want %d in use, over more than one count", counts, slots, recycled, counts)
	}
	if c, s, r := ftl.PoolMemory(fresh.Top()); c != counts || s != counts || r != 0 {
		t.Fatalf("restored pool: keys at %d erase counts in %d slots, %d recycled; want %d slots, none recycled", c, s, r, counts)
	}
}
