package paperexp

import (
	"testing"

	"uflip/internal/profile"
)

// TestStateKeyIncludesProfileFingerprint: the store key embeds the resolved
// profile fingerprint, so editing a device profile invalidates its cached
// states (the profile-side mutation regression lives in internal/profile).
func TestStateKeyIncludesProfileFingerprint(t *testing.T) {
	cfg := DefaultConfig()
	k := StateKey("memoright", cfg)
	fp, err := profile.Fingerprint("memoright")
	if err != nil {
		t.Fatal(err)
	}
	if k.Fingerprint == "" || k.Fingerprint != fp {
		t.Fatalf("key fingerprint %q, want %q", k.Fingerprint, fp)
	}
	// Every cached state is the random one, and the key says so.
	if k.Enforce != "random" {
		t.Fatalf("key enforce = %q, want random", k.Enforce)
	}
	other := StateKey("mtron", cfg)
	if other.Fingerprint == k.Fingerprint {
		t.Fatal("distinct profiles share a key fingerprint")
	}
	// A fingerprint change alone must change the content address.
	mutated := k
	mutated.Fingerprint = "0000000000000000"
	if mutated.Hash() == k.Hash() {
		t.Fatal("fingerprint does not reach the key hash")
	}
}
