// Package cache implements the two-level fast path of the hypervisor
// switch, modelled on the Open vSwitch datapath:
//
//   - the exact-match (microflow) cache, EMC: a bounded store keyed by the
//     full flow key, consulted first; each entry references the megaflow
//     entry that produced it, so EMC hits keep the megaflow warm, exactly
//     as in OVS;
//   - the megaflow cache: a tuple-space search (TSS) classifier holding
//     the wildcard entries the slow path synthesises — one hash table per
//     distinct mask, scanned sequentially until the first hit.
//
// The megaflow cache's sequential mask scan is the algorithmic deficiency
// the paper exploits: lookup cost is linear in the number of distinct
// masks, and a tenant can mint masks at will via policy injection.
//
//lint:deterministic
package cache

import (
	"math/bits"

	"policyinject/internal/burst"
	"policyinject/internal/flow"
)

// EMCConfig tunes the exact-match cache.
type EMCConfig struct {
	// Entries caps the number of cached microflows. 0 means the OVS
	// default of 8192. Negative disables the EMC.
	Entries int
	// InsertEvery inserts only every Nth missed flow — the strictly
	// periodic (deterministic) insertion throttle. 0 or 1 inserts always.
	InsertEvery int
	// InsertProb, when greater than 1, inserts each candidate flow with
	// probability 1/InsertProb, drawn from a per-cache deterministic PRNG
	// — OVS's emc-insert-inv-prob, which OVS ≥ 2.7 defaults to 100 and
	// which enabling the SMC forces on (see dataplane.New). 1 inserts
	// always; 0 defers to InsertEvery. Takes precedence over InsertEvery
	// when both are set.
	InsertProb int
	// Seed perturbs the insertion PRNG so distinct switches draw distinct
	// but reproducible sequences; experiments stay deterministic.
	Seed uint64
}

// DefaultEMCEntries matches the OVS default EMC size.
const DefaultEMCEntries = 8192

// DefaultEMCInsertProb is the OVS emc-insert-inv-prob default (insert one
// candidate flow in 100), applied when the SMC tier is enabled.
const DefaultEMCInsertProb = 100

type emcEntry struct {
	flow *Entry // referenced megaflow entry
	slot int    // index in keys, for O(1) random-replacement eviction
}

// EMC is the exact-match (microflow) cache. Not safe for concurrent use;
// the dataplane owns it, or a ShardedRef shard does.
type EMC struct {
	cfg     EMCConfig
	max     int
	shared  bool // a shard child: lookups run under a shared read lock (see bump)
	entries map[flow.Key]*emcEntry
	keys    []flow.Key // dense set for eviction victim selection
	missSeq int        // periodic-insertion counter (InsertEvery)
	insRng  uint64     // probabilistic-insertion PRNG state (InsertProb)
	evictRR uint64     // cheap deterministic "random" victim cursor

	// Stats
	Hits, Misses, Inserts, Evictions, Stale uint64
}

// NewEMC builds an EMC per cfg.
func NewEMC(cfg EMCConfig) *EMC {
	max := cfg.Entries
	if max == 0 {
		max = DefaultEMCEntries
	}
	if max < 0 {
		max = 0
	}
	e := &EMC{
		cfg:     cfg,
		max:     max,
		entries: make(map[flow.Key]*emcEntry, max),
		// Splitmix-style seed scramble: distinct seeds (and seed 0) all
		// start from well-mixed, reproducible PRNG states.
		insRng: (cfg.Seed + 0x9e3779b97f4a7c15) * 0xbf58476d1ce4e5b9,
	}
	if e.insRng == 0 {
		// Zero is xorshift64's sticky fixed point (and 0 % p == 0 would
		// insert always); nudge the one seed that scrambles to it.
		e.insRng = 0x9e3779b97f4a7c15
	}
	return e
}

// Cap returns the configured capacity (0 when disabled).
func (e *EMC) Cap() int { return e.max }

// Len returns the number of cached microflows.
func (e *EMC) Len() int { return len(e.entries) }

// Lookup consults the cache at logical time now. A hit returns the
// referenced megaflow entry and credits it (hit count and last-used time),
// which is what keeps attacker megaflows resident under EMC traffic. An
// entry whose megaflow has died (evicted or revalidated away) is purged
// lazily and reported as a miss — OVS's staleness check by sequence
// number.
func (e *EMC) Lookup(k flow.Key, now uint64) (*Entry, bool) {
	if e.max == 0 {
		return nil, false
	}
	ent, ok := e.entries[k]
	if !ok {
		bump(e.shared, &e.Misses, 1)
		return nil, false
	}
	if ent.flow.Dead() {
		if !e.shared {
			// A purge is a map write, illegal under a shard's read lock: there
			// the dead reference keeps missing until an insert overwrites it
			// or a flush sweeps it.
			e.Remove(k)
		}
		bump(e.shared, &e.Stale, 1)
		bump(e.shared, &e.Misses, 1)
		return nil, false
	}
	credit(e.shared, ent.flow, 1, now)
	bump(e.shared, &e.Hits, 1)
	return ent.flow, true
}

// LookupHashed is Lookup under the signature the reference caches share
// (refChild); the EMC keys on the whole flow key and has no use for h.
func (e *EMC) LookupHashed(k flow.Key, _ uint64, now uint64) (*Entry, bool) {
	return e.Lookup(k, now)
}

// LookupBatch consults the cache for every key index set in miss at
// logical time now: a hit writes ents[i] and clears the bit, a miss keeps
// it. EMC lookups cost no subtable scans, so costs are untouched, and the
// burst's flow hashes go unused. Counter effects equal the scalar Lookup
// sequence over the same keys.
//
//lint:hotpath
func (e *EMC) LookupBatch(keys []flow.Key, _ []uint64, now uint64, ents []*Entry, miss *burst.Bitmap) {
	if e.max == 0 {
		return
	}
	words := miss.Words()
	for wi := range words {
		w := words[wi]
		for w != 0 {
			i := wi<<6 + bits.TrailingZeros64(w)
			w &= w - 1
			if f, ok := e.Lookup(keys[i], now); ok {
				ents[i] = f
				miss.Clear(i)
			}
		}
	}
}

// AccountRun bills n additional hits of resident entry f without
// re-probing — the same-flow run coalescing fast path, equivalent to n
// Lookup calls that hit f.
func (e *EMC) AccountRun(f *Entry, n int, now uint64) {
	nn := uint64(n)
	e.Hits += nn
	f.Hits += nn
	f.LastHit = now
}

// Insert caches a reference to megaflow entry f for exact key k, applying
// the configured insertion probability and evicting a pseudo-random victim
// when full.
func (e *EMC) Insert(k flow.Key, f *Entry) {
	if e.max == 0 || f == nil {
		return
	}
	if e.cfg.InsertProb > 0 {
		// Probabilistic policy set: 1 inserts always, > 1 draws. Either
		// way it takes precedence over InsertEvery, as documented.
		if e.cfg.InsertProb > 1 {
			// xorshift64 draw: deterministic for a given Seed, so
			// experiment runs with probabilistic insertion stay
			// reproducible.
			e.insRng ^= e.insRng << 13
			e.insRng ^= e.insRng >> 7
			e.insRng ^= e.insRng << 17
			if e.insRng%uint64(e.cfg.InsertProb) != 0 {
				return
			}
		}
	} else if e.cfg.InsertEvery > 1 {
		e.missSeq++
		if e.missSeq%e.cfg.InsertEvery != 0 {
			return
		}
	}
	if ent, ok := e.entries[k]; ok {
		ent.flow = f
		return
	}
	if len(e.entries) >= e.max {
		e.evictOne(k)
	}
	ent := &emcEntry{flow: f, slot: len(e.keys)}
	e.keys = append(e.keys, k)
	e.entries[k] = ent
	e.Inserts++
}

// InsertHashed is Insert under the signature the reference caches share.
func (e *EMC) InsertHashed(k flow.Key, _ uint64, f *Entry) { e.Insert(k, f) }

// evictOne removes a pseudo-random entry. OVS's EMC is a 2-way
// hash-indexed structure where a colliding insert displaces one of two
// victims; hashing the incoming key into the dense slot array reproduces
// that "victim determined by the new key" behaviour deterministically.
func (e *EMC) evictOne(incoming flow.Key) {
	if len(e.keys) == 0 {
		return
	}
	e.evictRR = e.evictRR*6364136223846793005 + incoming.Hash()
	victimSlot := int(e.evictRR % uint64(len(e.keys)))
	victimKey := e.keys[victimSlot]
	last := len(e.keys) - 1
	e.keys[victimSlot] = e.keys[last]
	if moved, ok := e.entries[e.keys[victimSlot]]; ok && victimSlot != last {
		moved.slot = victimSlot
	}
	e.keys = e.keys[:last]
	delete(e.entries, victimKey)
	e.Evictions++
}

// Remove drops the entry for k if present.
func (e *EMC) Remove(k flow.Key) bool {
	ent, ok := e.entries[k]
	if !ok {
		return false
	}
	last := len(e.keys) - 1
	e.keys[ent.slot] = e.keys[last]
	if moved, ok2 := e.entries[e.keys[ent.slot]]; ok2 && ent.slot != last {
		moved.slot = ent.slot
	}
	e.keys = e.keys[:last]
	delete(e.entries, k)
	return true
}

// Flush empties the cache (used after policy changes).
func (e *EMC) Flush() {
	e.entries = make(map[flow.Key]*emcEntry, e.max)
	e.keys = e.keys[:0]
}

func (e *EMC) snapshot() CacheSnapshot {
	return CacheSnapshot{
		Hits: e.Hits, Misses: e.Misses, Inserts: e.Inserts, Evictions: e.Evictions,
		Stale: e.Stale, Entries: e.Len(), Capacity: e.max,
	}
}
