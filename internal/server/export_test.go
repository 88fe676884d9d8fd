package server

import (
	"time"

	"uflip/internal/paperexp"
)

// SetClock replaces the daemon's clock, so two daemons stamp their jobs alike.
func SetClock(s *Server, now func() time.Time) {
	s.mu.Lock()
	s.now = now
	s.mu.Unlock()
}

// HeldRunRecords lists the retained jobs whose run records are in memory.
func HeldRunRecords(s *Server) []string {
	s.mu.Lock()
	defer s.mu.Unlock()
	var ids []string
	for _, id := range s.order {
		if s.jobs[id].Records != nil {
			ids = append(ids, id)
		}
	}
	return ids
}

// KeptDevices is the daemon's cache of prepared devices; nil without a
// state directory.
func KeptDevices(s *Server) *paperexp.Prepared { return s.prepared }
