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

// emcSlot is one cached microflow: its key, the key's flow hash and the
// megaflow entry it references.
type emcSlot struct {
	key  flow.Key
	hash uint64 // key.Hash()
	flow *Entry
}

// emcSlotBits is the width of the slot number in an index word (stored plus
// one, so zero is the empty word); the rest is the tag.
const emcSlotBits = 32

// EMC is the exact-match (microflow) cache. Not safe for concurrent use;
// the dataplane owns it, or a ShardedRef shard does.
//
// Resident flows sit in slots, dense and in the order eviction draws its
// victim from: an insert appends, a removal moves the last slot into the
// hole. A flat power-of-two index over them, at load <= 1/2, is probed
// linearly and deleted from by backward shift (no tombstones, so a miss ends
// at the first empty word — the conventions of the megaflow subtables). A
// flow's home word is the top bits of hash*seed, and its index word carries
// the product's top 32 bits as the tag over its slot number, so a probe
// touches the slots only on a tag match and a backward shift — or a
// doubling — reads homes off the index alone.
//
// The index follows residency: it starts at emcIndexMin words and doubles
// when an insert would take it past load 1/2, up to ceilPow2(2*max), the
// size a full cache needs. It never shrinks: Flush clears it in place at its
// high-water size, so refilling after a policy change allocates nothing.
//
// Two rules bound what keys chosen by an adversary can cost (the flow hash is
// public, and whole IPv6 address words make keys of any one hash free to
// craft): seed is the per-process secret tableSeed, so which hashes share a
// home cannot be worked out offline; and at most one resident flow has any
// one 64-bit hash — an insert of a second replaces the first where it sits —
// so a lookup compares at most one full key. Placement feeds no result (the
// victim is a dense position), so runs stay byte-identical per scenario
// seed.
type EMC struct {
	cfg     EMCConfig
	max     int
	shared  bool      // a shard child: lookups run under a shared read lock (see bump)
	slots   []emcSlot // len <= max
	index   []uint64  // tag<<emcSlotBits | slot+1, or 0; len is a power of two in [2*len(slots), ceilPow2(2*max)]
	shift   uint      // 64 - log2(len(index)): hash*seed >> shift is the home word
	seed    uint64    // tableSeed, but for tests that pin it
	missSeq int       // periodic-insertion counter (InsertEvery)
	insRng  uint64    // probabilistic-insertion PRNG state (InsertProb)
	evictRR uint64    // cheap deterministic "random" victim cursor

	// Stats
	Hits, Misses, Inserts, Evictions, Stale uint64
}

// emcIndexMin is the size in words of a new EMC's index (smaller when the
// cache's full size is): 128 bytes, enough for 8 flows before the first
// doubling.
const emcIndexMin = 16

// NewEMC builds an EMC per cfg. Its index starts at emcIndexMin words, so a
// large capacity costs nothing until flows fill it.
func NewEMC(cfg EMCConfig) *EMC {
	// An index word numbers slots in emcSlotBits bits, and a word's home is
	// the top bits of its tag only while the index has at most 1<<emcSlotBits
	// words: hold a configured size to what both can take.
	max := min(cfg.Entries, 1<<(emcSlotBits-2))
	if max == 0 {
		max = DefaultEMCEntries
	}
	if max < 0 {
		max = 0
	}
	e := &EMC{
		cfg:  cfg,
		max:  max,
		seed: tableSeed,
		// Splitmix-style seed scramble: distinct seeds (and seed 0) all
		// start from well-mixed, reproducible PRNG states.
		insRng: (cfg.Seed + 0x9e3779b97f4a7c15) * 0xbf58476d1ce4e5b9,
	}
	if max > 0 {
		e.shift = uint(bits.LeadingZeros64(uint64(min(2*max, emcIndexMin) - 1))) // the full size, if smaller
		e.index = make([]uint64, 1<<(64-e.shift))
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
func (e *EMC) Len() int { return len(e.slots) }

// find returns the index position and the slot number of the one resident
// flow whose hash is h, or slot -1. Reads only, so any number of readers may
// probe while no writer runs.
func (e *EMC) find(h uint64) (pos uint64, n int) {
	ih := h * e.seed
	m := uint64(len(e.index) - 1)
	for i := ih >> e.shift; ; i = (i + 1) & m {
		w := e.index[i]
		if w == 0 {
			return 0, -1 // an empty word ends the run
		}
		if w>>emcSlotBits == ih>>emcSlotBits {
			if n := int(uint32(w)) - 1; e.slots[n].hash == h {
				return i, n
			}
		}
	}
}

// posOf returns the index position of resident slot n.
func (e *EMC) posOf(n int) uint64 {
	m := uint64(len(e.index) - 1)
	i := e.slots[n].hash * e.seed >> e.shift
	for uint32(e.index[i]) != uint32(n+1) {
		i = (i + 1) & m
	}
	return i
}

// Lookup consults the cache at logical time now. A hit returns the
// referenced megaflow entry and credits it (hit count and last-used time),
// which is what keeps attacker megaflows resident under EMC traffic. An
// entry whose megaflow has died (evicted or revalidated away) is purged
// lazily and reported as a miss — OVS's staleness check by sequence
// number.
func (e *EMC) Lookup(k flow.Key, now uint64) (*Entry, bool) {
	return e.lookup(&k, k.Hash(), now)
}

// LookupHashed is Lookup with k's flow hash already computed: h is where
// the index is probed, so it must be k.Hash().
func (e *EMC) LookupHashed(k flow.Key, h uint64, now uint64) (*Entry, bool) {
	return e.lookup(&k, h, now)
}

// lookup is the one probe body, on the key where it lies.
func (e *EMC) lookup(k *flow.Key, h uint64, now uint64) (*Entry, bool) {
	if e.max == 0 {
		return nil, false
	}
	pos, n := e.find(h)
	if n < 0 || e.slots[n].key != *k {
		bump(e.shared, &e.Misses, 1)
		return nil, false
	}
	f := e.slots[n].flow
	if f.Dead() {
		if !e.shared {
			// A purge writes the table, illegal under a shard's read lock:
			// there the dead reference keeps missing until an insert
			// overwrites it or a flush sweeps it.
			e.removeAt(pos, n)
		}
		bump(e.shared, &e.Stale, 1)
		bump(e.shared, &e.Misses, 1)
		return nil, false
	}
	credit(e.shared, f, 1, now)
	bump(e.shared, &e.Hits, 1)
	return f, true
}

// LookupBatch consults the cache for every key index set in miss at
// logical time now, probing the index by the burst's flow hashes (hashes[i]
// must be keys[i].Hash()): a hit writes ents[i] and clears the bit, a miss
// keeps it. EMC lookups cost no subtable scans, so costs are untouched.
// Counter effects equal the scalar Lookup sequence over the same keys.
//
//lint:hotpath
func (e *EMC) LookupBatch(keys []flow.Key, hashes []uint64, now uint64, ents []*Entry, miss *burst.Bitmap) {
	if e.max == 0 {
		return
	}
	words := miss.Words()
	for wi := range words {
		w, hit := words[wi], uint64(0)
		for w != 0 {
			i := wi<<6 + bits.TrailingZeros64(w)
			b := w & -w
			w ^= b
			if f, ok := e.lookup(&keys[i], hashes[i], now); ok {
				ents[i] = f
				hit |= b
			}
		}
		words[wi] &^= hit // the word's hits leave the miss set in one store
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
func (e *EMC) Insert(k flow.Key, f *Entry) { e.insert(&k, k.Hash(), f) }

// InsertHashed is Insert with k's flow hash already computed (h must be
// k.Hash()) — the batched datapath's promotions reuse the burst's hashes.
func (e *EMC) InsertHashed(k flow.Key, h uint64, f *Entry) { e.insert(&k, h, f) }

func (e *EMC) insert(k *flow.Key, h uint64, f *Entry) {
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
	if _, n := e.find(h); n >= 0 {
		s := &e.slots[n]
		if s.key != *k {
			// Another flow of the same 64-bit hash: the newcomer takes its
			// place (one resident per hash; see EMC).
			s.key = *k
			e.Evictions++
			e.Inserts++
		}
		s.flow = f
		return
	}
	if len(e.slots) >= e.max {
		e.evictOne(h)
	} else if 2*(len(e.slots)+1) > len(e.index) {
		// len(index) < 2*(len(slots)+1) <= 2*max, so the doubled index is
		// still within ceilPow2(2*max).
		e.grow()
	}
	e.slots = append(e.slots, emcSlot{key: *k, hash: h, flow: f})
	ih := h * e.seed
	m := uint64(len(e.index) - 1)
	i := ih >> e.shift
	for e.index[i] != 0 {
		i = (i + 1) & m
	}
	e.index[i] = ih>>emcSlotBits<<emcSlotBits | uint64(len(e.slots))
	e.Inserts++
}

// grow doubles the index. A word's home at the new size is the top bits of
// its tag (w >> shift, as removeAt reads it), so every word is re-homed from
// the old index alone; linear probing takes them in any order.
func (e *EMC) grow() {
	old := e.index
	e.index = make([]uint64, 2*len(old))
	e.shift--
	m := uint64(len(e.index) - 1)
	for _, w := range old {
		if w == 0 {
			continue
		}
		i := w >> e.shift
		for e.index[i] != 0 {
			i = (i + 1) & m
		}
		e.index[i] = w
	}
}

// evictOne removes a pseudo-random entry. OVS's EMC is a 2-way
// hash-indexed structure where a colliding insert displaces one of two
// victims; hashing the incoming key (hash incoming) into the dense slot
// array reproduces that "victim determined by the new key" behaviour
// deterministically.
func (e *EMC) evictOne(incoming uint64) {
	e.evictRR = e.evictRR*6364136223846793005 + incoming
	victim := int(e.evictRR % uint64(len(e.slots)))
	e.removeAt(e.posOf(victim), victim)
	e.Evictions++
}

// removeAt drops slot n, whose index word is at pos: the word goes by
// backward shift — each later word of the run moves back into the hole
// unless that would put it before its home — and the last slot moves into
// n, its index word re-pointed.
func (e *EMC) removeAt(pos uint64, n int) {
	m := uint64(len(e.index) - 1)
	for i, j := pos, pos; ; {
		j = (j + 1) & m
		w := e.index[j]
		if w == 0 {
			e.index[i] = 0
			break
		}
		if (j-w>>e.shift)&m >= (j-i)&m {
			e.index[i] = w
			i = j
		}
	}
	last := len(e.slots) - 1
	if n != last {
		p := e.posOf(last)
		e.index[p] = e.index[p]>>emcSlotBits<<emcSlotBits | uint64(n+1)
		e.slots[n] = e.slots[last]
	}
	e.slots[last] = emcSlot{} // do not pin the retired megaflow
	e.slots = e.slots[:last]
}

// Remove drops the entry for k if present.
func (e *EMC) Remove(k flow.Key) bool {
	if e.max == 0 {
		return false
	}
	pos, n := e.find(k.Hash())
	if n < 0 || e.slots[n].key != k {
		return false
	}
	e.removeAt(pos, n)
	return true
}

// Flush empties the cache in place (used after policy changes); the index
// keeps its size.
func (e *EMC) Flush() {
	if len(e.slots) == 0 {
		return // every policy change flushes: skip the index sweep of an empty cache
	}
	clear(e.index)
	clear(e.slots)
	e.slots = e.slots[:0]
}

func (e *EMC) snapshot() CacheSnapshot {
	return CacheSnapshot{
		Hits: e.Hits, Misses: e.Misses, Inserts: e.Inserts, Evictions: e.Evictions,
		Stale: e.Stale, Entries: e.Len(), Capacity: e.max,
	}
}
