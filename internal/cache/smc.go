package cache

import (
	"math/bits"

	"policyinject/internal/burst"
	"policyinject/internal/flow"
)

// SMC is the signature-match cache OVS 2.10 added between the EMC and the
// megaflow TSS: a large, cheap fingerprint→megaflow map. Where the EMC
// stores full keys (large entries, small capacity), the SMC stores only a
// hash fingerprint and a reference to the megaflow entry, so it holds two
// orders of magnitude more flows in comparable memory (the OVS default is
// one million entries against the EMC's 8192).
//
// An SMC hit must still verify the referenced megaflow against the packet
// (the fingerprint is lossy), but that is one masked comparison instead of
// a scan over every resident mask — which changes the economics of the
// tuple-space explosion attack: attacker masks still grow the TSS scan,
// but any flow the SMC retains skips the scan entirely, and the SMC is far
// too large for the covert stream to thrash the way it thrashes the EMC.
//
// The model is deterministic: the table is a direct-mapped
// fingerprint-indexed map (a colliding insert overwrites), reproducing the
// bounded-memory, overwrite-on-collision behaviour of the real
// fixed-geometry structure without modelling its 4-way buckets.
type SMC struct {
	cfg    SMCConfig
	max    int
	shared bool // a shard child: lookups run under a shared read lock (see bump)
	fpMask uint64
	slots  map[uint64]smcSlot

	// Stats
	Hits, Misses, Inserts, Evictions, Stale uint64
}

// SMCConfig tunes the signature-match cache.
type SMCConfig struct {
	// Entries caps the number of fingerprints, rounded up to a power of
	// two. 0 means the OVS default of one million. Negative disables the
	// cache.
	Entries int
}

// DefaultSMCEntries matches the OVS smc-enable default table size.
const DefaultSMCEntries = 1 << 20

type smcSlot struct {
	sig uint16 // signature: high hash bits, cheap mismatch rejection
	ent *Entry
}

// NewSMC builds a signature-match cache per cfg.
func NewSMC(cfg SMCConfig) *SMC {
	max := cfg.Entries
	if max == 0 {
		max = DefaultSMCEntries
	}
	if max < 0 {
		return &SMC{cfg: cfg}
	}
	// Round up to a power of two so fingerprints are a simple bit mask.
	// (Capped below the shift-overflow point; nobody needs 2^62 slots.)
	n := 1
	for n < max && n < 1<<62 {
		n <<= 1
	}
	return &SMC{cfg: cfg, max: n, fpMask: uint64(n - 1), slots: make(map[uint64]smcSlot)}
}

// Cap returns the configured capacity (0 when disabled).
func (s *SMC) Cap() int { return s.max }

// Len returns the number of occupied fingerprint slots.
func (s *SMC) Len() int { return len(s.slots) }

func (s *SMC) indexHash(h uint64) (fp uint64, sig uint16) {
	return h & s.fpMask, uint16(h >> 48)
}

// Lookup consults the cache at logical time now. A fingerprint hit is
// verified against the referenced megaflow's mask before being trusted
// (fingerprints collide; signatures only pre-filter), and entries whose
// megaflow has died are purged lazily, exactly as the EMC does.
func (s *SMC) Lookup(k flow.Key, now uint64) (*Entry, bool) {
	return s.lookup(&k, k.Hash(), now)
}

// LookupHashed is Lookup with the key's flow hash already computed — the
// batched datapath hashes each key once at burst entry and every
// hash-consuming tier reuses that value instead of re-hashing per probe.
func (s *SMC) LookupHashed(k flow.Key, h uint64, now uint64) (*Entry, bool) {
	return s.lookup(&k, h, now)
}

// lookup is the one probe body, on the key where it lies.
func (s *SMC) lookup(k *flow.Key, h uint64, now uint64) (*Entry, bool) {
	if s.max == 0 {
		return nil, false
	}
	fp, sig := s.indexHash(h)
	slot, ok := s.slots[fp]
	if !ok || slot.sig != sig {
		bump(s.shared, &s.Misses, 1)
		return nil, false
	}
	if slot.ent.Dead() {
		if !s.shared {
			// No map write under a shard's read lock: there the dead slot
			// keeps missing until an insert overwrites it.
			delete(s.slots, fp)
		}
		bump(s.shared, &s.Stale, 1)
		bump(s.shared, &s.Misses, 1)
		return nil, false
	}
	// The entry keeps no mask: its subtable's is the megaflow's. All ten
	// words in a fixed loop, not st.matches over the significant ones,
	// which read about 2 % slower on mix_smc.
	ent := slot.ent
	for i, m := range &ent.st.mask {
		if k[i]&m != ent.Key[i] {
			// Fingerprint collision between distinct flows: a true miss.
			bump(s.shared, &s.Misses, 1)
			return nil, false
		}
	}
	credit(s.shared, ent, 1, now)
	bump(s.shared, &s.Hits, 1)
	return ent, true
}

// LookupBatch consults the cache for every key index set in miss at
// logical time now, reusing the burst's precomputed flow hashes: a hit
// writes ents[i] and clears the bit, a miss keeps it. Signature-match
// lookups cost no subtable scans, so costs are untouched. Counter effects
// equal the scalar Lookup sequence over the same keys.
//
//lint:hotpath
func (s *SMC) LookupBatch(keys []flow.Key, hashes []uint64, now uint64, ents []*Entry, miss *burst.Bitmap) {
	if s.max == 0 {
		return
	}
	words := miss.Words()
	for wi := range words {
		w := words[wi]
		for w != 0 {
			i := wi<<6 + bits.TrailingZeros64(w)
			w &= w - 1
			if ent, ok := s.lookup(&keys[i], hashes[i], now); ok {
				ents[i] = ent
				miss.Clear(i)
			}
		}
	}
}

// AccountRun bills n additional hits of resident entry f without
// re-probing — the same-flow run coalescing fast path, equivalent to n
// Lookup calls that hit f.
func (s *SMC) AccountRun(f *Entry, n int, now uint64) {
	nn := uint64(n)
	s.Hits += nn
	f.Hits += nn
	f.LastHit = now
}

// Insert caches a reference to megaflow entry f for key k. A colliding
// fingerprint is overwritten — the displacement policy of the real
// fixed-size table.
func (s *SMC) Insert(k flow.Key, f *Entry) { s.InsertHashed(k, k.Hash(), f) }

// InsertHashed is Insert with k's flow hash already computed — the batched
// datapath's install path, where promotions reuse the burst's cached
// hashes instead of re-hashing each promoted key. Effects are identical to
// Insert given h == k.Hash(); the key itself is not stored.
func (s *SMC) InsertHashed(_ flow.Key, h uint64, f *Entry) {
	if s.max == 0 || f == nil {
		return
	}
	fp, sig := s.indexHash(h)
	if old, ok := s.slots[fp]; ok && (old.sig != sig || old.ent != f) {
		s.Evictions++
	}
	s.slots[fp] = smcSlot{sig: sig, ent: f}
	s.Inserts++
}

// Flush empties the cache (used after policy changes).
func (s *SMC) Flush() {
	if s.max == 0 {
		return
	}
	s.slots = make(map[uint64]smcSlot)
}

func (s *SMC) snapshot() CacheSnapshot {
	return CacheSnapshot{
		Hits: s.Hits, Misses: s.Misses, Inserts: s.Inserts, Evictions: s.Evictions,
		Stale: s.Stale, Entries: s.Len(), Capacity: s.max,
	}
}
