// Package statestore persists enforced device states. Section 4.1 of the
// paper makes a well-defined initial state the price of admission — a full
// random fill took 5 hours to 35 days on the real devices — and the
// simulated equivalent still dominates every run. The engine's snapshot
// master (PR 3) amortizes enforcement within one process; this store
// amortizes it across processes: the first run of a (device spec, capacity,
// seed, enforcement kind) combination saves the enforced state to disk, and
// every later run — CLI invocation or server job — loads it back instead of
// replaying the fill, with results byte-identical to enforcing live.
//
// States are content-addressed: the file name is a SHA-256 over the
// canonical key, so distinct configurations never collide and a key change
// is automatically a cache miss. Files carry a magic number, a format
// version, the key hash and a CRC of the payload; a truncated or corrupted
// file is never silently mis-loaded — Load quarantines it (renamed to
// <file>.corrupt, logged on stderr) and reports a miss, so the caller falls
// through to live enforcement and re-saves a healthy state while the
// quarantined bytes remain on disk for inspection.
package statestore

import (
	"bytes"
	"crypto/sha256"
	"encoding/binary"
	"encoding/gob"
	"encoding/hex"
	"fmt"
	"hash/crc64"
	"io"
	"os"
	"path/filepath"
	"sync"
	"time"

	"uflip/internal/device"
	"uflip/internal/trace"
)

// Key identifies one enforced device state. Spec must be canonical (plain
// profile key, or the canonical String of a parsed array spec) — the caller
// canonicalizes, the store hashes.
type Key struct {
	// Spec is the device profile key or canonical array spec.
	Spec string
	// Capacity is the logical capacity in bytes (per member for arrays).
	Capacity int64
	// Seed is the enforcement seed.
	Seed int64
	// Enforce names the enforcement kind ("random", "sequential").
	Enforce string
	// Fingerprint digests the resolved profile parameters behind Spec
	// (profile.Fingerprint), so editing a device profile invalidates the
	// states it produced instead of silently serving stale ones.
	Fingerprint string
}

// String returns the canonical textual form the hash covers.
func (k Key) String() string {
	return fmt.Sprintf("spec=%s fp=%s capacity=%d seed=%d enforce=%s", k.Spec, k.Fingerprint, k.Capacity, k.Seed, k.Enforce)
}

// Hash returns the hex SHA-256 of the canonical key, the store's file stem.
func (k Key) Hash() string {
	h := sha256.Sum256([]byte(k.String()))
	return hex.EncodeToString(h[:])
}

// Store is a directory of persisted device states. It is safe for
// concurrent use; per-key locks additionally let callers serialize the
// miss→enforce→save window so concurrent jobs enforce each state only once.
type Store struct {
	dir string

	mu    sync.Mutex
	locks map[string]*sync.Mutex
}

// Open creates (if needed) and opens a store directory.
func Open(dir string) (*Store, error) {
	if dir == "" {
		return nil, fmt.Errorf("statestore: empty directory")
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, fmt.Errorf("statestore: %w", err)
	}
	return &Store{dir: dir, locks: make(map[string]*sync.Mutex)}, nil
}

// Dir returns the store directory.
func (s *Store) Dir() string { return s.dir }

// Path returns the file a key persists to.
func (s *Store) Path(k Key) string {
	return filepath.Join(s.dir, k.Hash()+".state")
}

// Contains reports whether a state file exists for the key (without
// validating it — Load does that).
func (s *Store) Contains(k Key) bool {
	_, err := os.Stat(s.Path(k))
	return err == nil
}

// LockKey locks the key's in-process mutex and returns the unlock function.
// Callers wrap the whole load-or-enforce-and-save window in it so concurrent
// jobs that miss on the same key enforce the state once, not once each.
func (s *Store) LockKey(k Key) func() {
	h := k.Hash()
	s.mu.Lock()
	l, ok := s.locks[h]
	if !ok {
		l = &sync.Mutex{}
		s.locks[h] = l
	}
	s.mu.Unlock()
	l.Lock()
	return l.Unlock
}

// File format: header + gob payload. The header is fixed-size and binary so
// truncation and corruption are detected before the payload is decoded.
//
// Version 2 dropped the per-page state array from the chip snapshot (the
// block cursor is the page state); version 3 dropped the PageFTL's victim
// heap and per-block generations (the candidate queue is derived from the
// block state on restore); version 4 dropped the snapshot types themselves:
// the payload is the tree of state structs the layers run on
// (device.DeviceState), written as it stands; version 5 maps the PageFTL by
// flash block (no per-block live counts, GC write point or write-point slot)
// and drops the write cache's idle-destage credit and counter. Older files
// fail the version check and take the quarantine path like any other
// unreadable file.
const (
	magic   = "uFLIPst\x01"
	version = uint32(5)
)

var crcTable = crc64.MakeTable(crc64.ECMA)

// saved is the gob payload of a state file.
type saved struct {
	Key Key
	// At is the virtual time state enforcement finished.
	At time.Duration
	// Dev is the device's complete mutable state.
	Dev *device.DeviceState
}

// Save persists the device's state for the key, atomically (trace.WriteAtomic:
// temporary file, fsync, rename). at is the virtual time enforcement finished.
func (s *Store) Save(k Key, dev device.Device, at time.Duration) error {
	snap, err := device.SnapshotDevice(dev)
	if err != nil {
		return fmt.Errorf("statestore: save %s: %w", k, err)
	}
	var payload bytes.Buffer
	if err := gob.NewEncoder(&payload).Encode(&saved{Key: k, At: at, Dev: snap}); err != nil {
		return fmt.Errorf("statestore: encode %s: %w", k, err)
	}
	hdr := make([]byte, 4+32+8+8)
	binary.LittleEndian.PutUint32(hdr[0:4], version)
	sum := sha256.Sum256([]byte(k.String()))
	copy(hdr[4:36], sum[:])
	binary.LittleEndian.PutUint64(hdr[36:44], uint64(payload.Len()))
	binary.LittleEndian.PutUint64(hdr[44:52], crc64.Checksum(payload.Bytes(), crcTable))

	// Magic, header, then the payload straight from the encoder's buffer —
	// states can be tens of MB, so avoid assembling a second full copy.
	// WriteAtomic fsyncs before the rename: without that a crash can make
	// the rename durable while the payload is torn, turning every later
	// run's load into a hard CRC failure.
	err = trace.WriteAtomic(s.Path(k), func(w io.Writer) error {
		if _, err := io.WriteString(w, magic); err != nil {
			return err
		}
		if _, err := w.Write(hdr); err != nil {
			return err
		}
		_, err := w.Write(payload.Bytes())
		return err
	})
	if err != nil {
		return fmt.Errorf("statestore: write %s: %w", k, err)
	}
	return nil
}

// Load restores the key's persisted state into dev, which must be a freshly
// built device of the same spec and capacity. It returns the virtual time
// enforcement finished and whether the key was found. A missing file is a
// miss (hit=false, err=nil). A truncated, corrupted or mismatched file is
// quarantined — renamed to <file>.corrupt and logged on stderr — and then
// reported as a miss, so the caller re-enforces live and Save replaces the
// state; the corrupt bytes stay on disk for inspection instead of poisoning
// every later run. Quarantine happens strictly before any state reaches dev,
// so a post-quarantine enforcement is byte-identical to a cold run. A payload
// that decodes but that the layers' validators refuse (a state no device of
// this shape could be in — damaged before the checksum was taken, or crafted —
// or the state of a device of another shape) is quarantined too, and again
// before any of it reaches dev, but stays a hard error: the file claimed to be
// this key's state and was not, which the caller should hear about; the next
// run finds a miss.
func (s *Store) Load(k Key, dev device.Device) (at time.Duration, hit bool, err error) {
	f, err := os.Open(s.Path(k))
	if os.IsNotExist(err) {
		return 0, false, nil
	}
	if err != nil {
		return 0, false, fmt.Errorf("statestore: %w", err)
	}
	defer f.Close()
	quarantine := func(format string, args ...any) (time.Duration, bool, error) {
		path := s.Path(k)
		reason := fmt.Sprintf(format, args...)
		if rerr := os.Rename(path, path+".corrupt"); rerr != nil {
			// Cannot move it aside: surface both problems rather than spin
			// on the same corrupt file forever.
			return 0, false, fmt.Errorf("statestore: %s: %s; quarantine failed: %v", path, reason, rerr)
		}
		fmt.Fprintf(os.Stderr, "statestore: %s: %s; quarantined as %s.corrupt, to be re-enforced live\n", path, reason, filepath.Base(path))
		return 0, false, nil
	}
	hdr := make([]byte, len(magic)+4+32+8+8)
	if _, err := io.ReadFull(f, hdr); err != nil {
		return quarantine("truncated header: %v", err)
	}
	if string(hdr[:len(magic)]) != magic {
		return quarantine("bad magic: not a uFLIP state file")
	}
	rest := hdr[len(magic):]
	if v := binary.LittleEndian.Uint32(rest[0:4]); v != version {
		return quarantine("format version %d, want %d", v, version)
	}
	sum := sha256.Sum256([]byte(k.String()))
	if !bytes.Equal(rest[4:36], sum[:]) {
		return quarantine("key hash mismatch (file does not belong to %s)", k)
	}
	plen := binary.LittleEndian.Uint64(rest[36:44])
	wantCRC := binary.LittleEndian.Uint64(rest[44:52])
	// Bound the allocation by the actual file size before trusting the
	// header's length field: a corrupted length must be caught here, not
	// commit gigabytes of memory. Exact equality also rejects truncated
	// files and trailing garbage.
	fi, err := f.Stat()
	if err != nil {
		return 0, false, fmt.Errorf("statestore: %s: stat: %w", s.Path(k), err)
	}
	if plen == 0 || int64(plen) != fi.Size()-int64(len(hdr)) {
		return quarantine("payload length %d inconsistent with file size %d", plen, fi.Size())
	}
	payload := make([]byte, plen)
	if _, err := io.ReadFull(f, payload); err != nil {
		return quarantine("truncated payload: %v", err)
	}
	if got := crc64.Checksum(payload, crcTable); got != wantCRC {
		return quarantine("payload checksum mismatch (corrupted state)")
	}
	var sv saved
	if err := gob.NewDecoder(bytes.NewReader(payload)).Decode(&sv); err != nil {
		return quarantine("decode: %v", err)
	}
	if sv.Key != k {
		return quarantine("stored key %s does not match %s", sv.Key, k)
	}
	if err := device.RestoreDevice(dev, sv.Dev); err != nil {
		if _, _, qerr := quarantine("restore: %v", err); qerr != nil {
			return 0, false, qerr
		}
		return 0, false, fmt.Errorf("statestore: %s: restore: %w", s.Path(k), err)
	}
	return sv.At, true, nil
}
