package profile

import (
	"fmt"
	"regexp"
	"strconv"
	"strings"

	"uflip/internal/device"
)

// Array specs describe composite devices on command lines and in experiment
// configurations:
//
//	spec   := layout '(' arg (',' arg)* ')'
//	layout := "stripe" | "mirror" | "concat"
//	arg    := COUNT          member count (optional; replicates a single member)
//	        | KEY '=' VALUE  option: chunk=<bytes, k/m suffixes>, qd=<depth>
//	        | PROFILE        member device profile key
//	        | FAULTY         fault-injected member, a nested faulty(...) spec
//
// Examples: "stripe(2,mtron,mtron)", "stripe(4,mtron,chunk=64k,qd=8)",
// "mirror(mtron,samsung)", "concat(2,kingston-dti)",
// "mirror(mtron,faulty(mtron,failat=100))". A count given with a single
// member replicates it; a count given with several members must match their
// number. Options may appear anywhere after the layout. Member capacity is
// chosen at build time and applies per member.

// MaxArrayMembers bounds the member count of a parsed array spec.
const MaxArrayMembers = 64

// MaxArrayQueueDepth bounds the per-member queue depth of a parsed spec.
const MaxArrayQueueDepth = 256

// maxChunkBytes bounds the stripe chunk size (1 GiB).
const maxChunkBytes = int64(1) << 30

// ArraySpec is a parsed composite-device description.
type ArraySpec struct {
	// Layout is the data distribution (stripe, mirror, concat).
	Layout device.Layout
	// MemberKeys lists one profile key per member, replication expanded.
	MemberKeys []string
	// ChunkBytes is the stripe chunk size (device.DefaultChunkBytes when
	// the spec does not override it).
	ChunkBytes int64
	// QueueDepth is the per-member queue bound (device.DefaultQueueDepth
	// when the spec does not override it).
	QueueDepth int
}

// memberKeyRE matches profile keys inside specs: it keeps keys syntactically
// distinct from counts (which are bare integers) and options (which contain
// '='). Every Table 2 profile key matches.
var memberKeyRE = regexp.MustCompile(`^[a-z][a-z0-9-]*$`)

// IsArraySpec reports whether spec looks like an array expression rather
// than a plain profile key or a faulty(...) wrapper.
func IsArraySpec(spec string) bool {
	return strings.ContainsRune(spec, '(') && !IsFaultySpec(spec)
}

// ParseArraySpec parses an array spec. Member keys are validated
// syntactically here and resolved against the profile table at Build time.
func ParseArraySpec(spec string) (*ArraySpec, error) {
	open := strings.IndexByte(spec, '(')
	if open < 0 || !strings.HasSuffix(spec, ")") {
		return nil, fmt.Errorf("profile: array spec %q must be layout(args)", spec)
	}
	layout, err := device.ParseLayout(spec[:open])
	if err != nil {
		return nil, fmt.Errorf("profile: array spec %q: %w", spec, err)
	}
	s := &ArraySpec{
		Layout:     layout,
		ChunkBytes: device.DefaultChunkBytes,
		QueueDepth: device.DefaultQueueDepth,
	}
	count := -1
	for _, arg := range splitArgs(spec[open+1 : len(spec)-1]) {
		arg = strings.TrimSpace(arg)
		switch {
		case arg == "":
			return nil, fmt.Errorf("profile: array spec %q has an empty argument", spec)
		case IsFaultySpec(arg):
			// A fault-injected member, e.g. mirror(mtron,faulty(mtron,failat=9)).
			// Checked before the option branch: nested specs contain '='.
			member, err := ParseFaultySpec(arg)
			if err != nil {
				return nil, fmt.Errorf("profile: array spec %q: %w", spec, err)
			}
			if len(s.MemberKeys) >= MaxArrayMembers {
				return nil, fmt.Errorf("profile: array spec %q lists more than %d members", spec, MaxArrayMembers)
			}
			s.MemberKeys = append(s.MemberKeys, member.String())
		case strings.ContainsRune(arg, '='):
			k, v, _ := strings.Cut(arg, "=")
			if err := s.setOption(strings.TrimSpace(k), strings.TrimSpace(v)); err != nil {
				return nil, fmt.Errorf("profile: array spec %q: %w", spec, err)
			}
		case isInt(arg):
			if count >= 0 {
				return nil, fmt.Errorf("profile: array spec %q repeats the member count", spec)
			}
			n, err := strconv.Atoi(arg)
			if err != nil || n < 1 || n > MaxArrayMembers {
				return nil, fmt.Errorf("profile: array spec %q: member count %q must be in [1, %d]", spec, arg, MaxArrayMembers)
			}
			count = n
		case memberKeyRE.MatchString(arg):
			if len(s.MemberKeys) >= MaxArrayMembers {
				return nil, fmt.Errorf("profile: array spec %q lists more than %d members", spec, MaxArrayMembers)
			}
			s.MemberKeys = append(s.MemberKeys, arg)
		default:
			return nil, fmt.Errorf("profile: array spec %q: bad argument %q", spec, arg)
		}
	}
	switch {
	case len(s.MemberKeys) == 0:
		return nil, fmt.Errorf("profile: array spec %q names no member profile", spec)
	case count > 0 && len(s.MemberKeys) == 1 && count > 1:
		key := s.MemberKeys[0]
		for len(s.MemberKeys) < count {
			s.MemberKeys = append(s.MemberKeys, key)
		}
	case count > 0 && count != len(s.MemberKeys):
		return nil, fmt.Errorf("profile: array spec %q: count %d does not match the %d listed members", spec, count, len(s.MemberKeys))
	}
	return s, nil
}

func (s *ArraySpec) setOption(key, value string) error {
	switch key {
	case "chunk":
		if s.Layout != device.LayoutStripe {
			return fmt.Errorf("chunk only applies to the stripe layout")
		}
		n, err := parseSize(value)
		if err != nil {
			return fmt.Errorf("chunk: %w", err)
		}
		if n < 512 || n%512 != 0 || n > maxChunkBytes {
			return fmt.Errorf("chunk %d must be a multiple of 512 in [512, %d]", n, maxChunkBytes)
		}
		s.ChunkBytes = n
	case "qd":
		n, err := strconv.Atoi(value)
		if err != nil || n < 1 || n > MaxArrayQueueDepth {
			return fmt.Errorf("qd %q must be an integer in [1, %d]", value, MaxArrayQueueDepth)
		}
		s.QueueDepth = n
	default:
		return fmt.Errorf("unknown option %q (want chunk or qd)", key)
	}
	return nil
}

// isInt reports whether the argument is a bare decimal integer (a member
// count). Leading zeros are accepted; signs are not.
func isInt(s string) bool {
	for _, r := range s {
		if r < '0' || r > '9' {
			return false
		}
	}
	return len(s) > 0
}

// parseSize parses a byte size with optional k/m binary suffixes.
func parseSize(s string) (int64, error) {
	mult := int64(1)
	switch {
	case strings.HasSuffix(s, "k"), strings.HasSuffix(s, "K"):
		mult, s = 1024, s[:len(s)-1]
	case strings.HasSuffix(s, "m"), strings.HasSuffix(s, "M"):
		mult, s = 1024*1024, s[:len(s)-1]
	}
	n, err := strconv.ParseInt(s, 10, 64)
	if err != nil || n <= 0 || n > maxChunkBytes/mult {
		return 0, fmt.Errorf("bad size %q", s)
	}
	return n * mult, nil
}

// String returns the canonical form of the spec: layout, member count, every
// member key, then only the non-default options. Parsing the canonical form
// yields an equal spec.
func (s *ArraySpec) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "%s(%d", s.Layout, len(s.MemberKeys))
	for _, key := range s.MemberKeys {
		b.WriteByte(',')
		b.WriteString(key)
	}
	if s.Layout == device.LayoutStripe && s.ChunkBytes != device.DefaultChunkBytes {
		fmt.Fprintf(&b, ",chunk=%d", s.ChunkBytes)
	}
	if s.QueueDepth != device.DefaultQueueDepth {
		fmt.Fprintf(&b, ",qd=%d", s.QueueDepth)
	}
	b.WriteByte(')')
	return b.String()
}

// Build assembles the composite: every member is built from its profile at
// the given per-member logical capacity.
func (s *ArraySpec) Build(perMemberCapacity int64) (*device.CompositeDevice, error) {
	members := make([]device.Device, len(s.MemberKeys))
	for i, key := range s.MemberKeys {
		dev, err := BuildDevice(key, perMemberCapacity)
		if err != nil {
			return nil, err
		}
		members[i] = dev
	}
	return device.NewComposite(device.CompositeConfig{
		Name:       s.String(),
		Layout:     s.Layout,
		ChunkBytes: s.ChunkBytes,
		QueueDepth: s.QueueDepth,
	}, members)
}

// parsed is a device spec parsed once, whichever of the three forms it has —
// a faulty(...) wrapper, an array expression or a plain profile key: what each
// of BuildDevice, DescribeDevice and CanonicalSpec needs of it.
type parsed struct {
	canonical string
	build     func(capacity int64) (device.Cloneable, error)
	describe  func() (string, error)
}

// parse is the one dispatch over the forms of a device spec. A plain key is
// looked up only when built or described: its canonical form is itself.
func parse(spec string) (parsed, error) {
	switch {
	case IsFaultySpec(spec):
		s, err := ParseFaultySpec(spec)
		if err != nil {
			return parsed{}, err
		}
		return parsed{s.String(), func(c int64) (device.Cloneable, error) { return s.Build(c) }, s.describe}, nil
	case IsArraySpec(spec):
		s, err := ParseArraySpec(spec)
		if err != nil {
			return parsed{}, err
		}
		return parsed{s.String(), func(c int64) (device.Cloneable, error) { return s.Build(c) }, s.describe}, nil
	default:
		build := func(c int64) (device.Cloneable, error) {
			p, err := ByKey(spec)
			if err != nil {
				return nil, err
			}
			return p.BuildWithCapacity(c)
		}
		describe := func() (string, error) {
			p, err := ByKey(spec)
			return p.String(), err
		}
		return parsed{spec, build, describe}, nil
	}
}

// BuildDevice builds the device a spec names: a single simulated device when
// spec is a profile key, a composite array when it is an array expression, a
// fault-injecting wrapper when it is a faulty(...) expression. capacity is
// the logical capacity — per member for arrays. Every kind is cloneable, so
// the engine's snapshotting master works for any spec.
func BuildDevice(spec string, capacity int64) (device.Cloneable, error) {
	p, err := parse(spec)
	if err != nil {
		return nil, err
	}
	return p.build(capacity)
}

// DescribeDevice returns a one-line human description of a spec: the profile
// description for plain keys, the canonical spec with member descriptions
// for arrays, the canonical spec over the wrapped description for faulty
// wrappers.
func DescribeDevice(spec string) (string, error) {
	p, err := parse(spec)
	if err != nil {
		return "", err
	}
	return p.describe()
}

// CanonicalSpec canonicalizes any device spec: plain profile keys pass
// through, array and faulty expressions are rewritten in their canonical
// form. Invalid specs return an error.
func CanonicalSpec(spec string) (string, error) {
	p, err := parse(spec)
	return p.canonical, err
}

func (s *ArraySpec) describe() (string, error) {
	seen := make(map[string]bool)
	var parts []string
	for _, key := range s.MemberKeys {
		if seen[key] {
			continue
		}
		seen[key] = true
		desc, err := DescribeDevice(key)
		if err != nil {
			return "", err
		}
		parts = append(parts, desc)
	}
	return fmt.Sprintf("%s over %s", s.String(), strings.Join(parts, ", ")), nil
}
