// Package paperexp regenerates the tables and figures of the uFLIP paper's
// evaluation (Section 5) against the simulated devices. One table lists them:
// each row is an artifact's name, the least capacity it runs on and how it
// renders, and Experiments, Span and Render read it. Every artifact built
// from micro-benchmarks is a view of one product plan — RunBenchmark, the
// pipeline the uflip command, the daemon and the repository benchmark run
// (enforce the state, measure the phases and the pause, execute the plan
// through the engine): Table 3 is report.Characterize over a plan of
// Table3Micros, Figures 6 and 7 and the Section 5.2 sweeps are the mean
// response times of a plan of their micro-benchmark, and Figure 8 reads a
// Granularity and Locality plan. Figures 3–5 and the Section 4.1 state
// anomaly each prepare their own device and drive one pattern or probe on it.
package paperexp

import (
	"time"

	"uflip/internal/core"
	"uflip/internal/device"
	"uflip/internal/engine"
	"uflip/internal/methodology"
	"uflip/internal/profile"
	"uflip/internal/statestore"
)

// Config controls experiment scale. The zero value is not valid; use
// DefaultConfig.
type Config struct {
	// Capacity is the simulated device capacity. A scaled-down device
	// (1 GB) reproduces the full-size shapes quickly, with two limits: a
	// page-mapped device flushes direct-map pages only above 1 GiB, and a
	// plan needs at least IOCount × 32 KiB, the span of its sequential
	// baselines (RunBenchmark refuses a smaller device).
	Capacity int64
	// Seed drives state enforcement and random patterns.
	Seed int64
	// IOCount is the default run length; RW runs are extended
	// automatically per the two-phase methodology.
	IOCount int
	// Pause is the pause inserted between runs (Section 4.3).
	Pause time.Duration
	// Store, when non-nil, persists enforced device states: Prepare and
	// the engine masters load the (spec, capacity, seed) state from disk
	// on a cache hit instead of replaying the enforcement IOs, and save it
	// after enforcing on a miss — unless Prepared keeps the master. Results
	// are byte-identical either way.
	Store *statestore.Store
	// Prepared, when non-nil and with a Store, keeps the masters the engine
	// shards copy and a plan's phase and pause reports in memory, so a
	// repeated job builds, loads and measures nothing before its runs. A
	// long-running process sets it (the daemon); Prepare's device is always
	// the caller's own.
	Prepared *Prepared
}

// DefaultConfig returns the scale used throughout the repository's
// benchmarks: 1 GB devices, 1,024-IO runs, 5 s pauses.
func DefaultConfig() Config {
	return Config{
		Capacity: 1 << 30,
		Seed:     42,
		IOCount:  1024,
		Pause:    5 * time.Second,
	}
}

func (c Config) defaults(capacity int64) core.Defaults {
	d := core.StandardDefaults()
	d.IOCount = c.IOCount
	d.Seed = c.Seed
	d.RandomTarget = core.RandomTargetFor(capacity)
	return d
}

// Prepare builds the named device at the configured capacity and enforces
// the random initial state (Section 4.1), returning the device and the
// virtual time at which measurements may start. The key may be a plain
// profile key ("mtron") or a composite array spec ("stripe(2,mtron,mtron)");
// for arrays, cfg.Capacity applies per member.
func Prepare(key string, cfg Config) (device.Cloneable, time.Duration, error) {
	dev, end, _, err := PrepareCached(key, cfg)
	if err != nil {
		return nil, 0, err
	}
	return dev, end + cfg.Pause, nil
}

// StateKey returns the state-store key of a device spec under cfg: the spec
// canonicalized (array and faulty expressions through their parsers'
// canonical String forms, so equivalent spellings share one cache entry —
// and different fault schedules never share one), a fingerprint of the
// resolved profile parameters (so editing a profile is a cache miss, never a
// stale hit), the per-member capacity, the enforcement seed and the
// enforcement kind (always random). An unresolvable spec leaves the fingerprint empty;
// building such a device fails before the key is ever used.
func StateKey(key string, cfg Config) statestore.Key {
	canonical := key
	if c, err := profile.CanonicalSpec(key); err == nil {
		canonical = c
	}
	fp, err := profile.Fingerprint(key)
	if err != nil {
		fp = ""
	}
	return statestore.Key{
		Spec:        canonical,
		Capacity:    cfg.Capacity,
		Seed:        cfg.Seed,
		Enforce:     "random",
		Fingerprint: fp,
	}
}

// PrepareCached builds the device and brings it to the random initial state
// (Section 4.1), returning the device, the virtual time enforcement finished
// (without cfg.Pause added) and whether the state came from cfg.Store. With no
// store configured it always enforces live (hit=false). With a store, a hit restores the
// persisted state — byte-identical to enforcing — and a miss enforces live
// and saves. The load-or-enforce window holds the store's per-key lock, so
// concurrent jobs that race on one key enforce it once. The device is the
// caller's own: cfg.Prepared is not consulted.
func PrepareCached(key string, cfg Config) (device.Cloneable, time.Duration, bool, error) {
	cfg.Prepared = nil
	sk, unlock := cfg.lock(key)
	defer unlock()
	return cfg.enforced(key, sk, Stages{})
}

// lock takes key's store lock and returns its state key, or returns at once
// with no store.
func (cfg Config) lock(key string) (statestore.Key, func()) {
	if cfg.Store == nil {
		return statestore.Key{}, func() {}
	}
	sk := StateKey(key, cfg)
	return sk, cfg.Store.LockKey(sk)
}

// enforced returns key's device in the random initial state (Section 4.1),
// the enforcement end and whether the state came from a cache, firing st's
// EnforcingState and StateEnforced. It is the master kept in cfg.Prepared for
// sk when there is one; otherwise the device is built and its state loaded
// from cfg.Store, or enforced live (and saved), and then kept — so the caller
// must only copy it when cfg.Prepared is set. With a store the caller holds
// sk's lock.
func (cfg Config) enforced(key string, sk statestore.Key, st Stages) (dev device.Cloneable, at time.Duration, hit bool, err error) {
	if cfg.Store == nil {
		cfg.Prepared = nil // it keeps what the store holds, and there is none
	}
	if dev, at, hit = cfg.Prepared.Master(sk); !hit {
		if dev, err = profile.BuildDevice(key, cfg.Capacity); err != nil {
			return nil, 0, false, err
		}
	}
	if st.EnforcingState != nil {
		st.EnforcingState(dev.Capacity())
	}
	if !hit {
		if at, hit, err = cfg.loadOrEnforce(dev, sk); err != nil {
			return nil, 0, false, err
		}
		cfg.Prepared.keepMaster(sk, dev, at)
	}
	if st.StateEnforced != nil {
		st.StateEnforced(at, hit)
	}
	return dev, at, hit, nil
}

// loadOrEnforce brings a built device to the random initial state: loaded
// from cfg.Store when it holds sk, enforced live otherwise (and saved when
// there is a store).
func (cfg Config) loadOrEnforce(dev device.Cloneable, sk statestore.Key) (time.Duration, bool, error) {
	if cfg.Store != nil {
		if at, hit, err := cfg.Store.Load(sk, dev); err != nil || hit {
			return at, hit, err
		}
	}
	at, err := methodology.EnforceRandomState(dev, cfg.Seed)
	if err == nil && cfg.Store != nil {
		err = cfg.Store.Save(sk, dev, at)
	}
	return at, false, err
}

// ShardFactory returns the engine device factory for a profile: one master
// device per (profile, capacity, enforcement-seed) is built and enforced
// lazily, or taken from cfg.Prepared, and every shard receives its state —
// private mutable FTL state at copy cost instead of replaying the
// enforcement IOs, reset into the device the worker's previous shard ran on
// (engine.Shard.Reuse) rather than cloned afresh. Results are
// byte-identical, for any worker count, to building and enforcing a device
// per shard (the package's tests keep that rebuild factory as the
// clone-correctness oracle).
//
// Every shard now starts from the cfg.Seed-enforced state; earlier releases
// enforced each shard with its own derived seed, so absolute numbers differ
// from results recorded before the snapshot engine (determinism across
// worker counts is unchanged, and a shared enforced state matches the
// paper's one-device methodology more closely).
func ShardFactory(key string, cfg Config) engine.DeviceFactory {
	return engine.CloningFactory(func() (device.Cloneable, time.Duration, error) {
		sk, unlock := cfg.lock(key)
		defer unlock()
		master, at, _, err := cfg.enforced(key, sk, Stages{})
		return master, at + cfg.Pause, err
	})
}

// Table3Micros are the five micro-benchmarks a Table 3 row is read from
// (report.Characterize). Table 3 runs a plan of exactly these: BuildPlan
// places each sequential-write target after the ones before it, so a plan
// with more micro-benchmarks moves where the Partitioning and Order runs
// write, and with it their results.
var Table3Micros = []string{"Granularity", "Locality", "Partitioning", "Order", "Pause"}
