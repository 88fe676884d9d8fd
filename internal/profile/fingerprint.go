package profile

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
)

// Fingerprint digests every parameter of the resolved device(s) behind a
// spec: the canonical spec string (array layout, member order, chunk and
// queue-depth options) plus the full profile of each member — translation
// configs, cache config, cost-model coefficients, bus speeds. Cached
// enforced states embed this digest in their store key, so editing any
// profile number invalidates the states it produced instead of silently
// serving a device that no longer exists.
func Fingerprint(spec string) (string, error) {
	p, err := parse(spec)
	if err != nil {
		return "", err
	}
	ps, err := p.profiles()
	if err != nil {
		return "", err
	}
	return fingerprintProfiles(p.canonical, ps)
}

// profilesOf returns the profile of every simulated device behind a spec, in
// member order, through arrays and faulty wrappers. The fault schedule itself
// needs no hashing here: it is part of the canonical spec string the
// fingerprint (and the state-store key) already embeds.
func profilesOf(spec string) ([]Profile, error) {
	p, err := parse(spec)
	if err != nil {
		return nil, err
	}
	return p.profiles()
}

func (s *ArraySpec) profiles() ([]Profile, error) {
	var ps []Profile
	for _, key := range s.MemberKeys {
		mps, err := profilesOf(key)
		if err != nil {
			return nil, err
		}
		ps = append(ps, mps...)
	}
	return ps, nil
}

// fingerprintProfiles hashes the canonical spec and the JSON form of each
// resolved profile. Every calibration field is exported, so the JSON dump
// covers the complete parameter set (and dereferences the optional cache
// config rather than hashing a pointer).
func fingerprintProfiles(canonical string, ps []Profile) (string, error) {
	h := sha256.New()
	fmt.Fprintf(h, "%s\n", canonical)
	for _, p := range ps {
		blob, err := json.Marshal(p)
		if err != nil {
			return "", fmt.Errorf("profile: fingerprint %s: %w", p.Key, err)
		}
		h.Write(blob)
		h.Write([]byte{'\n'})
	}
	return hex.EncodeToString(h.Sum(nil))[:16], nil
}
