package server

import (
	"bytes"
	"fmt"
	"math"
	"os"
	"reflect"
	"testing"
	"time"
	"unsafe"

	"uflip/internal/core"
	"uflip/internal/device"
	"uflip/internal/paperexp"
)

// TestPoisonedWorkerServesTheSameBytes: one worker alternates memoright plan
// jobs and kingston-dthx replay jobs (keptServer's). Before each job every
// device copy the daemon keeps to lend its engine workers is driven through
// sentinel writes, and the worker's run state — its Runs, result slices, run
// records, windows and percentile histogram, its scratch — is overwritten
// with sentinels. Every /csv, /report and .results byte of each job equals
// that of the same job on a fresh worker of a fresh daemon, and from the
// third job on each job runs on the copy its device lent.
func TestPoisonedWorkerServesTheSameBytes(t *testing.T) {
	fresh, reqs := keptServer(t)
	served := func(s *Server, j *job) [3][]byte {
		results, err := os.ReadFile(s.jobsdir.path(j.ID, ".results"))
		if err != nil {
			t.Fatal(err)
		}
		return [3][]byte{j.csv, j.report, results}
	}
	want := make([][3][]byte, len(reqs))
	for k, req := range reqs {
		ws := &workerState{run: core.RunState{Series: new(core.Series)}}
		want[k] = served(fresh, fresh.runOn(t, ws, fmt.Sprintf("j-f%05d", k), req))
	}

	s, _ := keptServer(t)
	ws := &workerState{run: core.RunState{Series: new(core.Series)}}
	for i := range 6 {
		lent := lentCopies(s.prepared)
		if i >= len(reqs) && len(lent) != len(reqs) {
			t.Fatalf("job %d: the daemon keeps %d device copies, want one a device", i, len(lent))
		}
		for _, dev := range lent {
			at := time.Duration(0)
			for n := range int64(256) {
				var err error
				if at, err = dev.Submit(at, device.IO{Mode: device.Write, Off: n * 7919 % (dev.Capacity() >> 12) << 12, Size: 4096}); err != nil {
					t.Fatal(err)
				}
			}
		}
		poison(reflect.ValueOf(&ws.run), map[unsafe.Pointer]bool{})
		k := i % len(reqs)
		got := served(s, s.runOn(t, ws, fmt.Sprintf("j-p%05d", i), reqs[k]))
		for f, name := range []string{"/csv", "/report", ".results"} {
			if !bytes.Equal(got[f], want[k][f]) {
				t.Fatalf("job %d (%s): %s differs from a fresh worker's (%d bytes, want %d)", i, reqs[k].Kind, name, len(got[f]), len(want[k][f]))
			}
		}
		if after := lentCopies(s.prepared); i >= len(reqs) && !sameDevices(lent, after) {
			t.Fatalf("job %d did not run on the copy its device lent", i)
		}
	}
}

// lentCopies returns the device copies p keeps to lend, through its
// unexported fields.
func lentCopies(p *paperexp.Prepared) []device.Device {
	var out []device.Device
	devices := reflect.ValueOf(p).Elem().FieldByName("devices")
	for i := range devices.Len() {
		copies := devices.Index(i).FieldByName("val").Elem().FieldByName("copies")
		for c := range copies.Len() {
			v := copies.Index(c)
			out = append(out, reflect.NewAt(v.Type(), unsafe.Pointer(v.UnsafeAddr())).Elem().Interface().(device.Device))
		}
	}
	return out
}

// sameDevices reports whether a and b hold the same devices, in any order.
func sameDevices(a, b []device.Device) bool {
	if len(a) != len(b) {
		return false
	}
	for _, d := range a {
		found := false
		for _, e := range b {
			found = found || d == e
		}
		if !found {
			return false
		}
	}
	return true
}

// poison overwrites every number, bool and string reachable from v, through
// pointers, interfaces and unexported fields and every slice to its
// capacity, with a sentinel; it leaves a core.Series and sync values alone.
func poison(v reflect.Value, seen map[unsafe.Pointer]bool) {
	switch v.Kind() {
	case reflect.Pointer:
		if !v.IsNil() && !seen[v.UnsafePointer()] {
			seen[v.UnsafePointer()] = true
			poison(v.Elem(), seen)
		}
		return
	case reflect.Interface:
		if !v.IsNil() {
			poison(v.Elem(), seen)
		}
		return
	case reflect.Struct:
		if v.Type() != reflect.TypeFor[core.Series]() && v.Type().PkgPath() != "sync" {
			for i := range v.NumField() {
				poison(v.Field(i), seen)
			}
		}
		return
	case reflect.Slice:
		v = v.Slice(0, v.Cap())
		fallthrough
	case reflect.Array:
		for i := range v.Len() {
			poison(v.Index(i), seen)
		}
		return
	}
	if !v.CanAddr() {
		return
	}
	v = reflect.NewAt(v.Type(), unsafe.Pointer(v.UnsafeAddr())).Elem() // settable, exported or not
	switch v.Kind() {
	case reflect.Int, reflect.Int8, reflect.Int16, reflect.Int32, reflect.Int64:
		v.SetInt(0x5a5a5a5a5a5a5a5a)
	case reflect.Uint, reflect.Uint8, reflect.Uint16, reflect.Uint32, reflect.Uint64, reflect.Uintptr:
		v.SetUint(0xa5a5a5a5a5a5a5a5)
	case reflect.Float32, reflect.Float64:
		v.SetFloat(math.NaN())
	case reflect.Bool:
		v.SetBool(true)
	case reflect.String:
		v.SetString("poison")
	}
}
