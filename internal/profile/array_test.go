package profile

import (
	"reflect"
	"strings"
	"testing"

	"uflip/internal/device"
)

func TestParseArraySpec(t *testing.T) {
	for _, tc := range []struct {
		spec string
		want ArraySpec
	}{
		{"stripe(2,mtron,mtron)", ArraySpec{
			Layout: device.LayoutStripe, MemberKeys: []string{"mtron", "mtron"},
			ChunkBytes: device.DefaultChunkBytes, QueueDepth: device.DefaultQueueDepth,
		}},
		{"stripe(4,mtron,chunk=64k,qd=8)", ArraySpec{
			Layout: device.LayoutStripe, MemberKeys: []string{"mtron", "mtron", "mtron", "mtron"},
			ChunkBytes: 64 * 1024, QueueDepth: 8,
		}},
		{"mirror(mtron,samsung)", ArraySpec{
			Layout: device.LayoutMirror, MemberKeys: []string{"mtron", "samsung"},
			ChunkBytes: device.DefaultChunkBytes, QueueDepth: device.DefaultQueueDepth,
		}},
		{"concat(2,kingston-dti)", ArraySpec{
			Layout: device.LayoutConcat, MemberKeys: []string{"kingston-dti", "kingston-dti"},
			ChunkBytes: device.DefaultChunkBytes, QueueDepth: device.DefaultQueueDepth,
		}},
		{"stripe( 2 , mtron , mtron , chunk=1m )", ArraySpec{
			Layout: device.LayoutStripe, MemberKeys: []string{"mtron", "mtron"},
			ChunkBytes: 1 << 20, QueueDepth: device.DefaultQueueDepth,
		}},
		// A sticky bad offset may lie anywhere on a member, past the 1 GiB
		// that bounds a stripe chunk.
		{"mirror(mtron,faulty(mtron,erroff=1073742336))", ArraySpec{
			Layout: device.LayoutMirror, MemberKeys: []string{"mtron", "faulty(mtron,erroff=1073742336)"},
			ChunkBytes: device.DefaultChunkBytes, QueueDepth: device.DefaultQueueDepth,
		}},
		{"mirror(mtron,faulty(mtron,erroff=1500m))", ArraySpec{
			Layout: device.LayoutMirror, MemberKeys: []string{"mtron", "faulty(mtron,erroff=1572864000)"},
			ChunkBytes: device.DefaultChunkBytes, QueueDepth: device.DefaultQueueDepth,
		}},
	} {
		got, err := ParseArraySpec(tc.spec)
		if err != nil {
			t.Fatalf("ParseArraySpec(%q): %v", tc.spec, err)
		}
		if !reflect.DeepEqual(*got, tc.want) {
			t.Fatalf("ParseArraySpec(%q) = %+v, want %+v", tc.spec, *got, tc.want)
		}
		// Canonical round trip.
		again, err := ParseArraySpec(got.String())
		if err != nil {
			t.Fatalf("reparse %q: %v", got.String(), err)
		}
		if !reflect.DeepEqual(got, again) {
			t.Fatalf("canonical form %q reparses to %+v, want %+v", got.String(), again, got)
		}
	}
}

func TestParseArraySpecErrors(t *testing.T) {
	for _, spec := range []string{
		"",
		"mtron",                    // not an array spec
		"raid5(2,mtron)",           // unknown layout
		"stripe()",                 // no members
		"stripe(2)",                // count without members
		"stripe(3,mtron,samsung)",  // count/member mismatch
		"stripe(2,2,mtron)",        // repeated count
		"stripe(mtron,chunk=1000)", // chunk not a sector multiple
		"stripe(mtron,chunk=0)",    // zero chunk
		"stripe(mtron,qd=0)",       // zero queue depth
		"stripe(mtron,qd=100000)",  // queue depth beyond bound
		"stripe(mtron,weird=1)",    // unknown option
		"stripe(mtron,,mtron)",     // empty argument
		"stripe(65,mtron)",         // too many members
		"stripe(2,mtron,Mtron)",    // bad member syntax (upper case)
		"stripe(2,mtron,mtron",     // missing close paren
		"stripe(9999999999999,m)",  // count overflow
		"stripe(mtron,chunk=-512)", // negative size
		"stripe(mtron,chunk=99999999999999999999k)",         // size overflow
		"stripe(mtron,chunk=2048m)",                         // chunk beyond 1 GiB
		"mirror(mtron,faulty(mtron,erroff=0))",              // zero offset
		"mirror(mtron,faulty(mtron,erroff=9000000000000m))", // offset overflow
	} {
		if _, err := ParseArraySpec(spec); err == nil {
			t.Errorf("ParseArraySpec(%q) accepted", spec)
		}
	}
	// A size error quotes the value as written, suffix included.
	if _, err := ParseArraySpec("stripe(mtron,chunk=2048m)"); err == nil || !strings.Contains(err.Error(), `"2048m"`) {
		t.Errorf("oversized chunk: error %v does not quote \"2048m\"", err)
	}
}

func TestBuildDevice(t *testing.T) {
	raw, err := BuildDevice("mtron", 8<<20)
	if err != nil {
		t.Fatal(err)
	}
	if raw.Capacity() != 8<<20 {
		t.Fatalf("raw capacity = %d", raw.Capacity())
	}
	arr, err := BuildDevice("stripe(2,mtron,mtron)", 8<<20)
	if err != nil {
		t.Fatal(err)
	}
	comp, ok := arr.(*device.CompositeDevice)
	if !ok {
		t.Fatalf("BuildDevice returned %T, want *device.CompositeDevice", arr)
	}
	if comp.Capacity() != 16<<20 {
		t.Fatalf("stripe capacity = %d, want %d (2 x 8 MiB)", comp.Capacity(), 16<<20)
	}
	if comp.Name() != "stripe(2,mtron,mtron)" {
		t.Fatalf("array name = %q", comp.Name())
	}
	if _, err := BuildDevice("stripe(2,nosuch,nosuch)", 8<<20); err == nil {
		t.Fatal("unknown member profile accepted at build")
	}
	if _, err := DescribeDevice("mirror(mtron,samsung)"); err != nil {
		t.Fatal(err)
	}
}
