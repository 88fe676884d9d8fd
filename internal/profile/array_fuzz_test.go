package profile

import (
	"reflect"
	"testing"
)

// FuzzParseArraySpec checks that the array-spec parser never panics and that
// every accepted spec has a stable canonical form: String() reparses to an
// equal spec and is a fixed point. Bounds in the parser (member count, queue
// depth, chunk size) also keep a hostile spec from provoking huge
// allocations at build time.
func FuzzParseArraySpec(f *testing.F) {
	for _, seed := range []string{
		"stripe(2,mtron,mtron)",
		"stripe(4,mtron,chunk=64k,qd=8)",
		"mirror(mtron,samsung)",
		"concat(2,kingston-dti)",
		"stripe( 2 , mtron , chunk=1m )",
		"stripe(2)",
		"raid5(2,mtron)",
		"stripe(mtron,qd=100000)",
		"stripe(65,mtron)",
		"stripe(2,mtron,mtron",
		"mirror(mtron,faulty(stripe(2,mtron,mtron),erroff=1500m))",
	} {
		f.Add(seed)
	}
	f.Fuzz(func(t *testing.T, spec string) {
		s, err := ParseArraySpec(spec)
		if err != nil {
			return
		}
		if len(s.MemberKeys) == 0 || len(s.MemberKeys) > MaxArrayMembers {
			t.Fatalf("accepted spec %q with %d members", spec, len(s.MemberKeys))
		}
		if s.QueueDepth < 1 || s.QueueDepth > MaxArrayQueueDepth {
			t.Fatalf("accepted spec %q with queue depth %d", spec, s.QueueDepth)
		}
		if s.ChunkBytes < 512 || s.ChunkBytes%512 != 0 {
			t.Fatalf("accepted spec %q with chunk %d", spec, s.ChunkBytes)
		}
		canon := s.String()
		again, err := ParseArraySpec(canon)
		if err != nil {
			t.Fatalf("canonical form %q of %q does not reparse: %v", canon, spec, err)
		}
		if !reflect.DeepEqual(s, again) {
			t.Fatalf("canonical form %q reparses to %+v, want %+v", canon, again, s)
		}
		if again.String() != canon {
			t.Fatalf("canonical form is not a fixed point: %q -> %q", canon, again.String())
		}
	})
}
