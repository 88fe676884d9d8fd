package main

// The absolute pin on the command itself: TestRenderedBytesGolden and
// TestServedBytesGolden pin what the library and the daemon render, and every
// other test of this package calls functions, so a change to flag handling,
// narration or result-file naming passes all of them. This one builds the
// binary, runs it as a user would and compares the SHA-256 of each run's
// stdout and of every file it wrote with digests committed from a known-good
// tree. Regenerate testdata/cli.sha256.json — only for an intended change of
// model, format or wording, explained in the PR — with
//
//	go test ./cmd/uflip -run TestCLIBytesGolden -update

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"flag"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"testing"

	"uflip/internal/trace"
)

var updateCLI = flag.Bool("update", false, "rewrite testdata/cli.sha256.json from the current behaviour")

const cliGoldenPath = "testdata/cli.sha256.json"

// cliSession runs one built uflip binary in one scratch directory, so every
// path a run prints is relative and the same on every machine.
type cliSession struct {
	t    *testing.T
	bin  string
	dir  string
	sums map[string]string
}

func newCLISession(t *testing.T) *cliSession {
	t.Helper()
	tmp := t.TempDir()
	bin := filepath.Join(tmp, "uflip")
	build := exec.Command("go", "build", "-buildvcs=false", "-o", bin, ".")
	if out, err := build.CombinedOutput(); err != nil {
		t.Fatalf("go build ./cmd/uflip: %v\n%s", err, out)
	}
	dir := filepath.Join(tmp, "work")
	if err := os.Mkdir(dir, 0o755); err != nil {
		t.Fatal(err)
	}
	return &cliSession{t: t, bin: bin, dir: dir, sums: map[string]string{}}
}

func (s *cliSession) add(name string, body []byte) {
	s.t.Helper()
	if len(body) == 0 {
		s.t.Fatalf("%s is empty", name)
	}
	sum := sha256.Sum256(body)
	s.sums[name] = hex.EncodeToString(sum[:])
}

// run executes uflip with args and requires exit status 0. GOMAXPROCS is
// pinned because it is the default -parallel prints in its help text.
func (s *cliSession) run(args ...string) (stdout, stderr []byte) {
	s.t.Helper()
	cmd := exec.Command(s.bin, args...)
	cmd.Dir = s.dir
	cmd.Env = append(os.Environ(), "GOMAXPROCS=2")
	var out, errb bytes.Buffer
	cmd.Stdout, cmd.Stderr = &out, &errb
	if err := cmd.Run(); err != nil {
		s.t.Fatalf("uflip %s: %v\nstderr: %s", strings.Join(args, " "), err, errb.Bytes())
	}
	return out.Bytes(), errb.Bytes()
}

// pin runs uflip and records the digest of its stdout under name, plus that
// of every file in outDir (a directory relative to the session, "" for none).
func (s *cliSession) pin(name, outDir string, args ...string) {
	s.t.Helper()
	stdout, _ := s.run(args...)
	s.add(name+"/stdout", stdout)
	if outDir == "" {
		return
	}
	entries, err := os.ReadDir(filepath.Join(s.dir, outDir))
	if err != nil {
		s.t.Fatal(err)
	}
	if len(entries) == 0 {
		s.t.Fatalf("%s wrote nothing under %s", name, outDir)
	}
	for _, e := range entries {
		s.add(name+"/"+e.Name(), s.read(outDir, e.Name()))
	}
}

func (s *cliSession) read(elem ...string) []byte {
	s.t.Helper()
	body, err := os.ReadFile(filepath.Join(append([]string{s.dir}, elem...)...))
	if err != nil {
		s.t.Fatal(err)
	}
	return body
}

func TestCLIBytesGolden(t *testing.T) {
	s := newCLISession(t)
	const (
		planCap  = "33554432" // 32 MiB
		arrayCap = "16777216" // 16 MiB per member
		faulty   = "faulty(mtron,readerr=5e-3,writeerr=5e-3,seed=7)"
	)

	// The help text is the flag surface: names, defaults and descriptions.
	// Its first line names the binary by the path it was started under.
	for name, args := range map[string][]string{"plan": {"-h"}, "workload": {"workload", "-h"}, "array": {"array", "-h"}, "paper": {"paper", "-h"}} {
		_, usage := s.run(args...)
		_, flags, _ := bytes.Cut(usage, []byte("\n"))
		s.add("help/"+name, flags)
	}

	s.pin("plan/memoright", "plan-memoright",
		"-device", "memoright", "-capacity", planCap, "-micro", "Order", "-parallel", "2", "-out", "plan-memoright")
	s.pin("plan/faulty", "plan-faulty",
		"-device", faulty, "-capacity", planCap, "-micro", "Order", "-parallel", "2", "-out", "plan-faulty")
	s.pin("workload/stripe", "wl-stripe",
		"workload", "-device", "stripe(2,mtron,mtron)", "-capacity", planCap, "-kind", "oltp",
		"-ops", "400", "-segment", "100", "-parallel", "2", "-out", "wl-stripe")

	// One stream through both trace forms: dumped as CSV by a synthetic run,
	// converted to .utr, then each replayed — at different worker counts, the
	// one-worker run with -v, whose progress lines then come in segment order.
	s.pin("workload/zipf-dump", "",
		"workload", "-device", "memoright", "-capacity", planCap, "-kind", "zipf",
		"-ops", "400", "-segment", "100", "-parallel", "2", "-dump-trace", "T.csv")
	s.add("trace/T.csv", s.read("T.csv"))
	s.pin("trace/convert", "", "trace", "convert", "-in", "T.csv", "-out", "T.utr")
	s.add("trace/T.utr", s.read("T.utr"))
	s.pin("replay/csv", "replay-csv",
		"workload", "-device", "memoright", "-capacity", planCap, "-trace", "T.csv",
		"-segment", "100", "-parallel", "2", "-out", "replay-csv")
	s.pin("replay/utr", "replay-utr",
		"workload", "-device", "memoright", "-capacity", planCap, "-trace", "T.utr",
		"-segment", "100", "-parallel", "1", "-v", "-out", "replay-utr")
	for _, f := range []string{"memoright-workload.csv", "memoright-workload.jsonl"} {
		if s.sums["replay/csv/"+f] != s.sums["replay/utr/"+f] {
			t.Errorf("%s differs between the CSV and the .utr replay", f)
		}
	}

	s.pin("array/mtron", "grid",
		"array", "-member", "mtron", "-capacity", arrayCap, "-iocount", "128",
		"-counts", "1,2", "-qd", "1,4", "-parallel", "2", "-out", "grid")

	// Every table and figure of the paper's evaluation: about half a second
	// at 64 MiB.
	s.pin("paper/all", "", "paper", "-exp", "all", "-capacity", "67108864")

	// A cold and a warm run on one state cache: the narration of where the
	// state came from goes to stderr, so the two stdouts are the same bytes.
	stateArgs := []string{"-device", "memoright", "-capacity", planCap, "-micro", "Order", "-parallel", "2", "-statedir", "statecache"}
	cold, coldErr := s.run(stateArgs...)
	warm, warmErr := s.run(stateArgs...)
	if !bytes.Equal(cold, warm) {
		t.Error("stdout differs between the cold and the warm -statedir run")
	}
	if !bytes.Contains(coldErr, []byte("saved to state cache")) {
		t.Errorf("cold run stderr does not say the state was saved:\n%s", coldErr)
	}
	if !bytes.Contains(warmErr, []byte("state cache hit")) {
		t.Errorf("warm run stderr does not say the cache hit:\n%s", warmErr)
	}
	s.add("statedir/stdout", cold)
	s.add("statedir/cold-stderr", coldErr)
	s.add("statedir/warm-stderr", warmErr)
	if t.Failed() {
		return
	}

	if *updateCLI {
		blob, err := json.MarshalIndent(s.sums, "", "  ")
		if err != nil {
			t.Fatal(err)
		}
		if err := trace.WriteFileAtomic(cliGoldenPath, append(blob, '\n')); err != nil {
			t.Fatal(err)
		}
		return
	}
	blob, err := os.ReadFile(cliGoldenPath)
	if err != nil {
		t.Fatal(err)
	}
	var want map[string]string
	if err := json.Unmarshal(blob, &want); err != nil {
		t.Fatalf("%s: %v", cliGoldenPath, err)
	}
	if len(want) != len(s.sums) {
		t.Errorf("%s holds %d digests, the test produced %d", cliGoldenPath, len(want), len(s.sums))
	}
	for name, sum := range s.sums {
		if want[name] != sum {
			t.Errorf("%s: sha256 %s, golden %s", name, sum, want[name])
		}
	}
}
