package profile

import (
	"reflect"
	"testing"
	"time"
)

// TestByKeyBuildsAllsEntry: ByKey builds only the profile asked for, which
// must be All()'s entry for that key, field for field, so the fingerprints
// (and the state keys over them) are the same either way.
func TestByKeyBuildsAllsEntry(t *testing.T) {
	all := All()
	if keys := Keys(); len(keys) != len(all) {
		t.Fatalf("Keys() lists %d profiles, All() builds %d", len(keys), len(all))
	}
	for _, want := range all {
		got, err := ByKey(want.Key)
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(got, want) {
			t.Errorf("ByKey(%q) differs from All()'s entry", want.Key)
		}
	}
}

func TestFingerprintStableAndDistinct(t *testing.T) {
	a, err := Fingerprint("memoright")
	if err != nil {
		t.Fatal(err)
	}
	b, err := Fingerprint("memoright")
	if err != nil {
		t.Fatal(err)
	}
	if a == "" || a != b {
		t.Fatalf("fingerprint not stable: %q vs %q", a, b)
	}
	c, err := Fingerprint("mtron")
	if err != nil {
		t.Fatal(err)
	}
	if c == a {
		t.Fatal("distinct profiles share a fingerprint")
	}
	if _, err := Fingerprint("no-such-device"); err == nil {
		t.Fatal("unknown key fingerprinted without error")
	}
}

// TestFingerprintChangesWithProfileParameter is the statestore-key
// regression: editing any calibrated number of a profile must change the
// fingerprint, so cached enforced states built from the old profile become
// cache misses instead of being silently served.
func TestFingerprintChangesWithProfileParameter(t *testing.T) {
	base, err := ByKey("memoright")
	if err != nil {
		t.Fatal(err)
	}
	want, err := fingerprintProfiles(base.Key, []Profile{base})
	if err != nil {
		t.Fatal(err)
	}
	for name, mutate := range map[string]func(*Profile){
		"cost coefficient": func(p *Profile) { p.Cost.ReadPage += time.Nanosecond },
		"ftl geometry":     func(p *Profile) { p.Page.ReserveBlocks++ },
		"bus speed":        func(p *Profile) { p.Sim.Bus.ReadBytesPerS *= 1.001 },
		"cache size":       func(p *Profile) { c := *p.Cache; c.CapacityBytes += 512; p.Cache = &c },
	} {
		p := base
		mutate(&p)
		got, err := fingerprintProfiles(p.Key, []Profile{p})
		if err != nil {
			t.Fatal(err)
		}
		if got == want {
			t.Errorf("mutating the %s did not change the fingerprint", name)
		}
	}
}

func TestFingerprintCoversArrayOptions(t *testing.T) {
	plain, err := Fingerprint("stripe(2,mtron,mtron)")
	if err != nil {
		t.Fatal(err)
	}
	chunked, err := Fingerprint("stripe(2,mtron,mtron,chunk=64k)")
	if err != nil {
		t.Fatal(err)
	}
	if plain == chunked {
		t.Fatal("stripe chunk option not covered by the fingerprint")
	}
	// Equivalent spellings of one array share the fingerprint, matching
	// the spec canonicalization the state keys rely on.
	replicated, err := Fingerprint("stripe(2,mtron)")
	if err != nil {
		t.Fatal(err)
	}
	if replicated != plain {
		t.Fatal("equivalent array spellings fingerprint differently")
	}
}

// TestFingerprintValuesPinned pins the fingerprint of one spec of each form:
// the tests above only compare fingerprints with each other, and a change
// that moved every value would invalidate every cached state.
func TestFingerprintValuesPinned(t *testing.T) {
	for spec, want := range map[string]string{
		"memoright":             "5b8da5ef5e05d6c7",
		"stripe(2,mtron,mtron)": "bdc676251ff9b239",
		"faulty(stripe(2,mtron,samsung),writeerr=1e-5,seed=3)": "57a3c71a93a988d1",
		"mirror(mtron,faulty(mtron,failat=100))":               "b02fec4e257e388c",
		"concat(3,kingston-dti)":                               "6214a16d27283082",
	} {
		got, err := Fingerprint(spec)
		if err != nil {
			t.Fatalf("%s: %v", spec, err)
		}
		if got != want {
			t.Errorf("Fingerprint(%q) = %s, want %s", spec, got, want)
		}
	}
}
