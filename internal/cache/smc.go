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
// The table is OVS's layout: one flat array of 4-byte slots, each a 16-bit
// signature (the hash's top bits) over a 16-bit ref into a small table of
// referenced megaflows, 0 meaning empty — 4 MiB for the default million
// slots. A slot is direct-mapped by the hash's low bits (a colliding insert
// overwrites), reproducing the bounded-memory, overwrite-on-collision
// behaviour of the real fixed-geometry structure without modelling its
// 4-way buckets. A lookup loads one word, compares the signature and loads
// the ref's entry; only an insert consults the map from an entry to its ref.
// A ref counts the slots that hold it and is freed when the last goes, so at
// most 65 535 distinct megaflows are referenced at once: an insert that
// would need another is skipped, as OVS's smc_insert skips a flow whose
// index passes UINT16_MAX.
type SMC struct {
	cfg    SMCConfig
	max    int
	shared bool // a shard child: lookups run under a shared read lock (see bump)
	fpMask uint64
	slots  []uint32          // sig<<16 | ref, or 0; allocated at the first insert
	refs   []smcRef          // refs[0] is reserved: ref 0 is the empty slot
	refOf  map[*Entry]uint16 // insert side only: the ref of each referenced entry
	free   []uint16          // refs no slot holds, for reuse
	used   int               // occupied slots

	// Stats
	Hits, Misses, Inserts, Evictions, Stale uint64
}

// smcRef is one referenced megaflow and the number of slots holding it.
type smcRef struct {
	ent *Entry
	n   uint32
}

// smcMaxRef is the highest ref a slot's 16 bits can name.
const smcMaxRef = 1<<16 - 1

// SMCConfig tunes the signature-match cache.
type SMCConfig struct {
	// Entries caps the number of fingerprints, rounded up to a power of
	// two. 0 means the OVS default of one million. Negative disables the
	// cache.
	Entries int
}

// DefaultSMCEntries matches the OVS smc-enable default table size.
const DefaultSMCEntries = 1 << 20

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
	return &SMC{cfg: cfg, max: n, fpMask: uint64(n - 1)}
}

// Cap returns the configured capacity (0 when disabled).
func (s *SMC) Cap() int { return s.max }

// Len returns the number of occupied fingerprint slots.
func (s *SMC) Len() int { return s.used }

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
	if fp >= uint64(len(s.slots)) {
		bump(s.shared, &s.Misses, 1) // nothing inserted yet: no slots
		return nil, false
	}
	w := s.slots[fp]
	if w == 0 || uint16(w>>16) != sig {
		bump(s.shared, &s.Misses, 1)
		return nil, false
	}
	ent := s.refs[uint16(w)].ent
	if ent.Dead() {
		if !s.shared {
			// No table write under a shard's read lock: there the dead slot
			// keeps missing until an insert overwrites it.
			s.purge(fp)
		}
		bump(s.shared, &s.Stale, 1)
		bump(s.shared, &s.Misses, 1)
		return nil, false
	}
	// The entry keeps no mask: its subtable's compiled words are the
	// megaflow's. This is mfSubtable.matches, written out: too long to
	// inline, the call read mix_smc's pkt_ns_p02 about 4 % slower.
	st, e := ent.st, &ent.Key
	x := &st.widx
	miss := (k[x[0]]&st.mw[0]^e[x[0]])|(k[x[1]]&st.mw[1]^e[x[1]])|(k[x[2]]&st.mw[2]^e[x[2]]) != 0
	if m := st.wide; m != nil && !miss {
		for i := range m {
			if k[i]&m[i] != e[i] {
				miss = true
				break
			}
		}
	}
	if miss {
		// Fingerprint collision between distinct flows: a true miss.
		bump(s.shared, &s.Misses, 1)
		return nil, false
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
// Insert given h == k.Hash(); the key itself is not stored. An insert that
// would reference a 65 536th distinct entry is skipped, counters and all.
func (s *SMC) InsertHashed(_ flow.Key, h uint64, f *Entry) {
	if s.max == 0 || f == nil {
		return
	}
	r, ok := s.refOf[f]
	if !ok {
		if r = s.newRef(f); r == 0 {
			return
		}
	}
	fp, sig := s.indexHash(h)
	w := uint32(sig)<<16 | uint32(r)
	s.refs[r].n++ // before the old word's release: it may hold r itself
	if old := s.slots[fp]; old == 0 {
		s.used++
	} else {
		if old != w { // another signature, or another entry (refs are unique)
			s.Evictions++
		}
		s.release(uint16(old))
	}
	s.slots[fp] = w
	s.Inserts++
}

// newRef gives f a ref of its own — a freed one, else a new one — or
// returns 0 when all 65 535 are held. The first call allocates the table.
func (s *SMC) newRef(f *Entry) uint16 {
	if s.slots == nil {
		s.slots = make([]uint32, s.max)
		s.refs = make([]smcRef, 1)
		s.refOf = make(map[*Entry]uint16)
	}
	var r uint16
	switch n := len(s.free); {
	case n > 0:
		r, s.free = s.free[n-1], s.free[:n-1]
	case len(s.refs) <= smcMaxRef:
		r = uint16(len(s.refs))
		s.refs = append(s.refs, smcRef{})
	default:
		return 0
	}
	s.refs[r].ent = f
	s.refOf[f] = r
	return r
}

// release drops one slot's hold on ref r, freeing r with the last.
func (s *SMC) release(r uint16) {
	ref := &s.refs[r]
	if ref.n--; ref.n == 0 {
		delete(s.refOf, ref.ent)
		ref.ent = nil // do not pin the retired megaflow
		s.free = append(s.free, r)
	}
}

// purge empties slot fp, whose megaflow has died.
func (s *SMC) purge(fp uint64) {
	s.release(uint16(s.slots[fp]))
	s.slots[fp] = 0
	s.used--
}

// Flush empties the cache in place (used after policy changes) and lets go
// of every referenced megaflow.
func (s *SMC) Flush() {
	if s.used == 0 {
		return // every policy change flushes: skip the sweep of an empty cache
	}
	clear(s.slots)
	clear(s.refs)
	s.refs = s.refs[:1]
	clear(s.refOf)
	s.free = s.free[:0]
	s.used = 0
}

func (s *SMC) snapshot() CacheSnapshot {
	return CacheSnapshot{
		Hits: s.Hits, Misses: s.Misses, Inserts: s.Inserts, Evictions: s.Evictions,
		Stale: s.Stale, Entries: s.Len(), Capacity: s.max,
	}
}
