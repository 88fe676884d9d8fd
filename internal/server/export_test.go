package server

import (
	"reflect"
	"time"

	"uflip/internal/core"
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

// WorkerSeries is worker w's response-time buffer and the response times its
// slab holds.
func WorkerSeries(s *Server, w int) (*core.Series, int) {
	s.mu.Lock()
	defer s.mu.Unlock()
	series := s.workers[w].run.Series
	return series, reflect.ValueOf(series).Elem().FieldByName("slab").Len()
}

// ResultReaders counts the /result handlers encoding job id's run records
// from memory.
func ResultReaders(s *Server, id string) int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.jobs[id].readers
}
