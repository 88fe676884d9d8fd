package main

import (
	"path/filepath"
	"testing"
)

// TestOpenDeviceTakesEverySpecForm: -device builds a profile key, an array
// spec (capacity per member) and a faulty(...) wrapper, as every other
// -device flag does; -device together with -file is refused.
func TestOpenDeviceTakesEverySpecForm(t *testing.T) {
	const capacity = 32 << 20
	for _, c := range []struct {
		spec     string
		capacity int64
	}{
		{"mtron", capacity},
		{"stripe(2,mtron,mtron)", 2 * capacity},
		{"faulty(stripe(2,mtron,mtron),seed=1)", 2 * capacity},
	} {
		dev, err := openDevice(c.spec, "", capacity)
		if err != nil {
			t.Fatalf("%s: %v", c.spec, err)
		}
		if got := dev.Capacity(); got != c.capacity {
			t.Errorf("%s: capacity %d, want %d", c.spec, got, c.capacity)
		}
		if got := dev.Name(); got != c.spec {
			t.Errorf("%s: device named %q", c.spec, got)
		}
	}
	if _, err := openDevice("mtron", filepath.Join(t.TempDir(), "dev.img"), capacity); err == nil {
		t.Error("-device with -file: no error")
	}
	if _, err := openDevice("", "", capacity); err == nil {
		t.Error("neither -device nor -file: no error")
	}
}
