package profile

import (
	"fmt"
	"sort"
	"strconv"
	"strings"
	"time"

	"uflip/internal/device"
)

// Faulty specs wrap any device spec with a deterministic fault schedule:
//
//	spec    := "faulty" '(' inner (',' option)* ')'
//	inner   := PROFILE | array spec | faulty spec
//	option  := "readerr" '=' RATE     per-op read media-error probability
//	         | "writeerr" '=' RATE    per-op write media-error probability
//	         | "spike" '=' DUR '@' RATE   completion-time inflation
//	         | "stall" '=' DUR '@' RATE   submission-time stall
//	         | "failat" '=' N         device goes dead at op index N
//	         | "errop" '=' N          explicit failing op index (repeatable)
//	         | "erroff" '=' BYTES     sticky bad byte offset (k/m suffixes)
//	         | "seed" '=' N           fault-schedule seed
//
// Example: "faulty(mtron,readerr=1e-4,spike=200us@0.01,seed=7)". Faulty
// specs nest into arrays ("mirror(mtron,faulty(mtron,failat=100))") and
// around them ("faulty(stripe(2,mtron,mtron),writeerr=1e-5)"), and are
// accepted anywhere a device spec is: -device flags, sweeps, server jobs.

// maxFaultDuration bounds spike and stall durations (10s).
const maxFaultDuration = 10 * time.Second

// maxErrOps bounds the number of explicit op triggers in one spec.
const maxErrOps = 64

// FaultySpec is a parsed faulty(...) expression: the inner device spec in
// canonical form plus the fault schedule.
type FaultySpec struct {
	// Inner is the canonical spec of the wrapped device.
	Inner string
	// Cfg is the fault schedule (Cfg.Name is set at build time to the
	// canonical spec).
	Cfg device.FaultConfig
}

// IsFaultySpec reports whether spec is a faulty(...) expression.
func IsFaultySpec(spec string) bool { return strings.HasPrefix(spec, "faulty(") }

// splitArgs splits a comma-separated argument list at depth zero, so nested
// parenthesized specs stay whole.
func splitArgs(s string) []string {
	var args []string
	depth, start := 0, 0
	for i := 0; i < len(s); i++ {
		switch s[i] {
		case '(':
			depth++
		case ')':
			depth--
		case ',':
			if depth == 0 {
				args = append(args, s[start:i])
				start = i + 1
			}
		}
	}
	return append(args, s[start:])
}

// canonicalMember validates a spec usable inside another spec — a plain
// profile key (syntactically: it resolves at Build time) or a nested
// expression — and returns its canonical form.
func canonicalMember(spec string) (string, error) {
	if !strings.ContainsRune(spec, '(') && !memberKeyRE.MatchString(spec) {
		return "", fmt.Errorf("profile: bad device spec %q", spec)
	}
	return CanonicalSpec(spec)
}

// ParseFaultySpec parses a faulty(...) expression. The inner spec is
// validated syntactically (and canonicalized); profile keys resolve against
// the table at Build time.
func ParseFaultySpec(spec string) (*FaultySpec, error) {
	if !IsFaultySpec(spec) || !strings.HasSuffix(spec, ")") {
		return nil, fmt.Errorf("profile: faulty spec %q must be faulty(inner,options)", spec)
	}
	args := splitArgs(spec[len("faulty(") : len(spec)-1])
	inner, err := canonicalMember(strings.TrimSpace(args[0]))
	if err != nil {
		return nil, fmt.Errorf("profile: faulty spec %q: %w", spec, err)
	}
	s := &FaultySpec{Inner: inner}
	for _, arg := range args[1:] {
		arg = strings.TrimSpace(arg)
		k, v, ok := strings.Cut(arg, "=")
		if arg == "" || !ok {
			return nil, fmt.Errorf("profile: faulty spec %q: bad option %q", spec, arg)
		}
		if err := s.setOption(strings.TrimSpace(k), strings.TrimSpace(v)); err != nil {
			return nil, fmt.Errorf("profile: faulty spec %q: %w", spec, err)
		}
	}
	sort.Slice(s.Cfg.ErrOps, func(i, j int) bool { return s.Cfg.ErrOps[i] < s.Cfg.ErrOps[j] })
	return s, nil
}

func (s *FaultySpec) setOption(key, value string) error {
	switch key {
	case "readerr":
		return parseRate(value, &s.Cfg.ReadErrRate)
	case "writeerr":
		return parseRate(value, &s.Cfg.WriteErrRate)
	case "spike":
		return parseDurAtRate(value, &s.Cfg.Spike, &s.Cfg.SpikeRate)
	case "stall":
		return parseDurAtRate(value, &s.Cfg.Stall, &s.Cfg.StallRate)
	case "failat":
		n, err := strconv.ParseInt(value, 10, 64)
		if err != nil || n < 1 {
			return fmt.Errorf("failat %q must be a positive op index", value)
		}
		s.Cfg.FailAt = n
	case "errop":
		n, err := strconv.ParseInt(value, 10, 64)
		if err != nil || n < 0 {
			return fmt.Errorf("errop %q must be a non-negative op index", value)
		}
		if len(s.Cfg.ErrOps) >= maxErrOps {
			return fmt.Errorf("more than %d errop triggers", maxErrOps)
		}
		s.Cfg.ErrOps = append(s.Cfg.ErrOps, n)
	case "erroff":
		n, err := parseSize(value)
		if err != nil {
			return fmt.Errorf("erroff: %w", err)
		}
		s.Cfg.ErrOff = n
	case "seed":
		n, err := strconv.ParseInt(value, 10, 64)
		if err != nil {
			return fmt.Errorf("seed %q must be an integer", value)
		}
		s.Cfg.Seed = n
	default:
		return fmt.Errorf("unknown option %q (want readerr, writeerr, spike, stall, failat, errop, erroff or seed)", key)
	}
	return nil
}

// parseRate parses a probability in [0, 1].
func parseRate(value string, dst *float64) error {
	r, err := strconv.ParseFloat(value, 64)
	if err != nil || r < 0 || r > 1 {
		return fmt.Errorf("rate %q must be a probability in [0, 1]", value)
	}
	*dst = r
	return nil
}

// parseDurAtRate parses "DUR@RATE", e.g. "200us@0.01".
func parseDurAtRate(value string, dur *time.Duration, rate *float64) error {
	ds, rs, ok := strings.Cut(value, "@")
	if !ok {
		return fmt.Errorf("%q must be duration@rate (e.g. 200us@0.01)", value)
	}
	d, err := time.ParseDuration(ds)
	if err != nil || d <= 0 || d > maxFaultDuration {
		return fmt.Errorf("duration %q must be positive and at most %s", ds, maxFaultDuration)
	}
	if err := parseRate(rs, rate); err != nil {
		return err
	}
	*dur = d
	return nil
}

// String returns the canonical form: the canonical inner spec, then only the
// configured options in a fixed order. Parsing the canonical form yields an
// equal spec.
func (s *FaultySpec) String() string {
	var b strings.Builder
	b.WriteString("faulty(")
	b.WriteString(s.Inner)
	if s.Cfg.ReadErrRate > 0 {
		fmt.Fprintf(&b, ",readerr=%s", strconv.FormatFloat(s.Cfg.ReadErrRate, 'g', -1, 64))
	}
	if s.Cfg.WriteErrRate > 0 {
		fmt.Fprintf(&b, ",writeerr=%s", strconv.FormatFloat(s.Cfg.WriteErrRate, 'g', -1, 64))
	}
	if s.Cfg.SpikeRate > 0 && s.Cfg.Spike > 0 {
		fmt.Fprintf(&b, ",spike=%s@%s", s.Cfg.Spike, strconv.FormatFloat(s.Cfg.SpikeRate, 'g', -1, 64))
	}
	if s.Cfg.StallRate > 0 && s.Cfg.Stall > 0 {
		fmt.Fprintf(&b, ",stall=%s@%s", s.Cfg.Stall, strconv.FormatFloat(s.Cfg.StallRate, 'g', -1, 64))
	}
	if s.Cfg.FailAt > 0 {
		fmt.Fprintf(&b, ",failat=%d", s.Cfg.FailAt)
	}
	for _, op := range s.Cfg.ErrOps {
		fmt.Fprintf(&b, ",errop=%d", op)
	}
	if s.Cfg.ErrOff > 0 {
		fmt.Fprintf(&b, ",erroff=%d", s.Cfg.ErrOff)
	}
	if s.Cfg.Seed != 0 {
		fmt.Fprintf(&b, ",seed=%d", s.Cfg.Seed)
	}
	b.WriteByte(')')
	return b.String()
}

// Build assembles the wrapper around the inner device built at the given
// capacity (per member when the inner spec is an array). The wrapper reports
// the canonical spec as its name.
func (s *FaultySpec) Build(capacity int64) (*device.FaultyDevice, error) {
	inner, err := BuildDevice(s.Inner, capacity)
	if err != nil {
		return nil, err
	}
	cfg := s.Cfg
	cfg.Name = s.String()
	cfg.ErrOps = append([]int64(nil), s.Cfg.ErrOps...)
	return device.NewFaulty(cfg, inner), nil
}

func (s *FaultySpec) describe() (string, error) {
	inner, err := DescribeDevice(s.Inner)
	if err != nil {
		return "", err
	}
	return fmt.Sprintf("%s injecting faults into %s", s.String(), inner), nil
}
