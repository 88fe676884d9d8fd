package main

import (
	"bytes"
	"context"
	"encoding/json"
	"flag"
	"io"
	"os"
	"path/filepath"
	"reflect"
	"runtime"
	"testing"

	"uflip/internal/api"
	"uflip/internal/server"
)

// parseWith parses argv with one shell's flag set and builds the request.
// Parse errors are returned, never printed and never fatal to the process.
func parseWith(fs *flag.FlagSet, jf *jobFlags, argv []string) (api.JobRequest, error) {
	fs.Init(fs.Name(), flag.ContinueOnError)
	fs.SetOutput(io.Discard)
	if err := fs.Parse(argv); err != nil {
		return api.JobRequest{}, err
	}
	return jf.request()
}

func parseLocal(kind string, argv []string) (api.JobRequest, error) {
	fs, jf, _ := localCommand(context.Background(), kind)
	return parseWith(fs, jf, argv)
}

func parseSubmit(kind string, argv []string) (api.JobRequest, error) {
	fs, jf, _ := submitCommand(context.Background(), kind)
	return parseWith(fs, jf, argv)
}

// TestSubmitRunsTheLocalJob: for the same argv, `uflip <kind>` and `uflip
// submit <kind>` describe the same job — capacity defaults of `array` and
// `paper` included — and that job survives the wire: encoded as the client
// sends it and decoded as the daemon reads it, it is the same request.
func TestSubmitRunsTheLocalJob(t *testing.T) {
	cases := []struct {
		kind string
		argv []string
	}{
		{"plan", []string{"-device", "mtron"}},
		{"plan", []string{"-device", "faulty(mtron,readerr=1e-3,seed=7)", "-micro", "Order,Locality", "-capacity", "67108864", "-iocount", "128", "-seed", "7", "-parallel", "3"}},
		{"workload", []string{"-device", "mtron"}},
		{"workload", []string{"-device", "stripe(2,mtron,mtron)", "-kind", "zipf", "-ops", "400", "-segment", "100", "-window", "64", "-zipf-s", "1.5", "-read-frac", "0.25", "-parallel", "3"}},
		{"workload", []string{"-device", "mtron", "-kind", "bursty", "-burst", "8", "-burst-gap", "5ms", "-think", "10us", "-target", "1048576", "-page", "4096"}},
		{"workload", []string{"-device", "mtron", "-kind", "append", "-streams", "2", "-iosize", "65536", "-capacity", "67108864"}},
		{"workload", []string{"-device", "mtron", "-trace", "some.utr", "-segment", "100"}},
		{"array", []string{"-member", "mtron"}},
		{"array", []string{"-member", "mtron", "-layouts", "stripe, mirror", "-counts", "1,2", "-qd", "2", "-chunk", "65536", "-degree", "2", "-capacity", "16777216", "-iocount", "128", "-parallel", "3"}},
		{"paper", []string{"-exp", "all"}},
		{"paper", []string{"-exp", "table1,fig3", "-capacity", "67108864", "-seed", "7", "-parallel", "3"}},
	}
	for _, c := range cases {
		local, err := parseLocal(c.kind, c.argv)
		if err != nil {
			t.Fatalf("uflip %s %v: %v", c.kind, c.argv, err)
		}
		remote, err := parseSubmit(c.kind, c.argv)
		if err != nil {
			t.Fatalf("uflip submit %s %v: %v", c.kind, c.argv, err)
		}
		// -parallel is the one default a surface owns: this machine's CPUs
		// locally, 0 — "the daemon's" — remotely. Results never depend on it.
		if local.Parallel != 3 {
			if local.Parallel != runtime.GOMAXPROCS(0) || remote.Parallel != 0 {
				t.Errorf("%s %v: default -parallel is %d locally and %d on submit, want GOMAXPROCS and 0", c.kind, c.argv, local.Parallel, remote.Parallel)
			}
			local.Parallel = 0
		}
		if !reflect.DeepEqual(local, remote) {
			t.Errorf("%s %v: the local command and submit describe different jobs:\nlocal:  %s\nsubmit: %s", c.kind, c.argv, asJSON(t, local), asJSON(t, remote))
		}
		var decoded api.JobRequest
		if err := json.Unmarshal([]byte(asJSON(t, remote)), &decoded); err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(decoded, remote) {
			t.Errorf("%s %v: the request changes on the wire:\nsent:    %s\ndecoded: %s", c.kind, c.argv, asJSON(t, remote), asJSON(t, decoded))
		}
	}

	if req, _ := parseSubmit("array", []string{"-member", "mtron"}); req.Capacity != 256<<20 {
		t.Errorf("uflip submit array defaults -capacity to %d, the local command to %d", req.Capacity, 256<<20)
	}
	if req, _ := parseSubmit("paper", []string{"-exp", "fig5"}); req.Capacity != 512<<20 {
		t.Errorf("uflip submit paper defaults -capacity to %d, the local command to %d", req.Capacity, 512<<20)
	}

	// A paper job prints its report and nothing else, the same bytes from
	// the local command and through submit.
	cl, _ := startDaemon(t, server.Config{Workers: 1})
	argv := []string{"-exp", "table1,fig5", "-capacity", "25165824", "-parallel", "1"}
	fs, _, cmd := localCommand(context.Background(), "paper")
	local := printed(t, func() error { return run(fs, argv, cmd) })
	remote := printed(t, func() error {
		return runSubmit(context.Background(), append([]string{"paper", "-server", cl.BaseURL}, argv...))
	})
	if !bytes.HasPrefix(local, []byte("Table 1: ")) || !bytes.Equal(local, remote) {
		t.Errorf("uflip paper %v printed %d bytes, uflip submit paper %d, want the same report:\n%s", argv, len(local), len(remote), remote)
	}
}

// printed runs f with os.Stdout sent to a file and returns what f wrote.
func printed(t *testing.T, f func() error) []byte {
	t.Helper()
	path := filepath.Join(t.TempDir(), "stdout")
	file, err := os.Create(path)
	if err != nil {
		t.Fatal(err)
	}
	stdout := os.Stdout
	os.Stdout = file
	err = f()
	os.Stdout = stdout
	if cerr := file.Close(); err == nil {
		err = cerr
	}
	if err != nil {
		t.Fatal(err)
	}
	body, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	return body
}

// TestKindsRejectEachOthersFlags: a flag that belongs to another kind is an
// error on both surfaces, not silently accepted and dropped.
func TestKindsRejectEachOthersFlags(t *testing.T) {
	cases := []struct {
		kind string
		argv []string
	}{
		{"plan", []string{"-device", "mtron", "-kind", "zipf"}},
		{"plan", []string{"-device", "mtron", "-member", "mtron"}},
		{"plan", []string{"-device", "mtron", "-zipf-s", "1.5"}},
		{"workload", []string{"-device", "mtron", "-micro", "Order"}},
		{"workload", []string{"-device", "mtron", "-iocount", "64"}},
		{"array", []string{"-member", "mtron", "-device", "mtron"}},
		{"array", []string{"-member", "mtron", "-ops", "100"}},
		{"paper", []string{"-exp", "fig3", "-device", "mtron"}},
		{"paper", []string{"-exp", "fig3", "-iocount", "64"}},
		{"paper", []string{"-exp", "fig3", "-out", "results"}},
		{"paper", []string{"-exp", "fig3", "-micro", "Order"}},
		{"plan", []string{"-device", "mtron", "-exp", "fig3"}},
	}
	for _, c := range cases {
		if _, err := parseLocal(c.kind, c.argv); err == nil {
			t.Errorf("uflip %s accepted %v", c.kind, c.argv)
		}
		if _, err := parseSubmit(c.kind, c.argv); err == nil {
			t.Errorf("uflip submit %s accepted %v", c.kind, c.argv)
		}
	}
}

func asJSON(t *testing.T, v any) string {
	t.Helper()
	b, err := json.Marshal(v)
	if err != nil {
		t.Fatal(err)
	}
	return string(b)
}
