package server

import "time"

// tenantState is one tenant's admission-control state, guarded by the
// server mutex. Tenants are identified by the X-API-Key header value; the
// empty key is the anonymous tenant. Each tenant gets an independent
// token bucket (submission rate) and queue quota — its jobs waiting to run
// count against it, running ones do not — so one tenant's burst cannot
// starve another's admissions: only the global queue bound couples them.
type tenantState struct {
	// tokens is the token-bucket fill, in submissions. A fresh tenant
	// starts with a full burst.
	tokens float64
	// last is when tokens was last refilled.
	last time.Time
}

// tenant returns (creating if needed) the state for a key. Callers hold s.mu.
func (s *Server) tenant(key string) *tenantState {
	t, ok := s.tenants[key]
	if !ok {
		t = &tenantState{tokens: float64(s.cfg.Burst), last: s.now()}
		s.tenants[key] = t
	}
	return t
}

// admit applies the tenant's rate limit and queue quota to one submission,
// given the tenant's jobs waiting to run, consuming a token on success.
// Callers hold s.mu. The returned code is "" when admitted, otherwise the
// api.ErrorCode-compatible reason.
func (t *tenantState) admit(s *Server, queued int) string {
	if rate := s.cfg.RatePerSec; rate > 0 {
		now := s.now()
		t.tokens += now.Sub(t.last).Seconds() * rate
		t.last = now
		if burst := float64(s.cfg.Burst); t.tokens > burst {
			t.tokens = burst
		}
		if t.tokens < 1 {
			return "rate"
		}
	}
	if q := s.cfg.TenantQueue; q > 0 && queued >= q {
		return "quota"
	}
	if s.cfg.RatePerSec > 0 {
		t.tokens--
	}
	return ""
}
