package cache

import (
	"math/bits"
	"math/rand"
	"sync"
	"testing"

	"policyinject/internal/burst"
	"policyinject/internal/flow"
)

// emcModel is the implementation the dense table replaced, kept as the
// reference the op-stream tests compare against: a Go map from the key to its
// position in a dense key slice, the same insertion draws and the same victim
// rule. It credits nothing: the entry pointers it returns are the EMC's.
type emcModel struct {
	cfg     EMCConfig
	max     int
	purge   bool // drop a dead reference on lookup (not under a shard's read lock)
	entries map[flow.Key]*emcModelEntry
	keys    []flow.Key
	missSeq int
	insRng  uint64
	evictRR uint64

	Hits, Misses, Inserts, Evictions, Stale uint64
}

type emcModelEntry struct {
	flow *Entry
	slot int
}

func newEMCModel(e *EMC) *emcModel {
	return &emcModel{cfg: e.cfg, max: e.max, purge: !e.shared, insRng: e.insRng, entries: map[flow.Key]*emcModelEntry{}}
}

func (m *emcModel) lookup(k flow.Key) (*Entry, bool) {
	ent, ok := m.entries[k]
	switch {
	case m.max == 0:
		return nil, false
	case !ok:
		m.Misses++
		return nil, false
	case ent.flow.Dead():
		if m.purge {
			m.remove(k)
		}
		m.Stale++
		m.Misses++
		return nil, false
	}
	m.Hits++
	return ent.flow, true
}

func (m *emcModel) insert(k flow.Key, f *Entry) {
	if m.max == 0 || f == nil {
		return
	}
	if m.cfg.InsertProb > 0 {
		if m.cfg.InsertProb > 1 {
			m.insRng ^= m.insRng << 13
			m.insRng ^= m.insRng >> 7
			m.insRng ^= m.insRng << 17
			if m.insRng%uint64(m.cfg.InsertProb) != 0 {
				return
			}
		}
	} else if m.cfg.InsertEvery > 1 {
		if m.missSeq++; m.missSeq%m.cfg.InsertEvery != 0 {
			return
		}
	}
	if ent, ok := m.entries[k]; ok {
		ent.flow = f
		return
	}
	if len(m.entries) >= m.max {
		m.evictRR = m.evictRR*6364136223846793005 + k.Hash()
		m.remove(m.keys[m.evictRR%uint64(len(m.keys))])
		m.Evictions++
	}
	m.entries[k] = &emcModelEntry{flow: f, slot: len(m.keys)}
	m.keys = append(m.keys, k)
	m.Inserts++
}

func (m *emcModel) remove(k flow.Key) bool {
	ent, ok := m.entries[k]
	if !ok {
		return false
	}
	last := len(m.keys) - 1
	m.keys[ent.slot] = m.keys[last]
	m.entries[m.keys[ent.slot]].slot = ent.slot
	m.keys = m.keys[:last]
	delete(m.entries, k)
	return true
}

func (m *emcModel) flush() {
	m.entries = map[flow.Key]*emcModelEntry{}
	m.keys = m.keys[:0]
}

// checkEMC verifies the table's own invariants: the index is a power of two
// at load <= 1/2 and no larger than a full cache needs (emcIndexCap), holds
// exactly one word per slot, every slot's word is
// reached from the slot's home before any empty word (so nothing sits past
// the end of its run) and carries the slot's tag, and no two residents share
// a hash. honest says the hashes were the keys' own (crafted-collision tests
// hand hashes in).
func checkEMC(t *testing.T, e *EMC, honest bool) {
	t.Helper()
	if e.max == 0 {
		if len(e.slots) != 0 || len(e.index) != 0 {
			t.Fatalf("disabled EMC holds %d slots, %d index words", len(e.slots), len(e.index))
		}
		return
	}
	if l := len(e.index); l&(l-1) != 0 || l < 2*len(e.slots) || l > emcIndexCap(e.max) || l != 1<<(64-e.shift) || len(e.slots) > e.max {
		t.Fatalf("%d slots (cap %d) under %d index words, shift %d", len(e.slots), e.max, l, e.shift)
	}
	used := 0
	for i, w := range e.index {
		if w == 0 {
			continue
		}
		used++
		if n := int(uint32(w)) - 1; n < 0 || n >= len(e.slots) {
			t.Fatalf("index word %d points at slot %d of %d", i, n, len(e.slots))
		}
	}
	if used != len(e.slots) {
		t.Fatalf("%d index words for %d slots", used, len(e.slots))
	}
	m := uint64(len(e.index) - 1)
	seen := make(map[uint64]int, len(e.slots))
	for n := range e.slots {
		s := &e.slots[n]
		if honest && s.hash != s.key.Hash() {
			t.Fatalf("slot %d stores hash %#x of a key hashing to %#x", n, s.hash, s.key.Hash())
		}
		if o, dup := seen[s.hash]; dup {
			t.Fatalf("slots %d and %d share hash %#x", o, n, s.hash)
		}
		seen[s.hash] = n
		if s.flow == nil {
			t.Fatalf("slot %d references no megaflow", n)
		}
		ih := s.hash * e.seed
		i := ih >> e.shift
		for ; e.index[i] != 0 && uint32(e.index[i]) != uint32(n+1); i = (i + 1) & m {
		}
		if w := e.index[i]; w == 0 {
			t.Fatalf("slot %d is not reachable from its home word %d", n, ih>>e.shift)
		} else if w>>emcSlotBits != ih>>emcSlotBits {
			t.Fatalf("slot %d: index tag %#x, want %#x", n, w>>emcSlotBits, ih>>emcSlotBits)
		}
		if _, got := e.find(s.hash); got != n {
			t.Fatalf("find(%#x) = slot %d, want %d", s.hash, got, n)
		}
	}
	if tail := e.slots[len(e.slots):cap(e.slots)]; len(tail) > 0 && tail[0].flow != nil {
		t.Fatal("a retired slot still pins its megaflow")
	}
}

// emcIndexCap is the index size of a full EMC of capacity max:
// ceilPow2(2*max), the load-1/2 size the index grows to and never past.
func emcIndexCap(max int) int { return 1 << bits.Len(uint(2*max-1)) }

// emcOpKey is the id-th key of the op streams' 1024-key universe: twice the
// largest capacity, so full tables evict.
func emcOpKey(id uint16) flow.Key {
	var k flow.Key
	id %= 1024
	k.Set(flow.FieldInPort, 1+uint64(id&3))
	k.Set(flow.FieldIPSrc, splitmix(uint64(id))&0xffffffff)
	k.Set(flow.FieldTPDst, uint64(id))
	return k
}

// emcMode builds the EMC an op stream runs over: always-insert, InsertEvery
// or InsertProb at capacity 1, 2, 32 or 512; from mode 12 up the same as a
// shard child, whose lookups must leave dead references alone.
func emcMode(mode uint8, seed uint64) *EMC {
	caps := [...]int{1, 2, 32, 512}
	cfg := EMCConfig{Entries: caps[mode&3], Seed: seed}
	switch mode >> 2 % 3 {
	case 1:
		cfg.InsertEvery = 3
	case 2:
		cfg.InsertProb = 4
	}
	e := NewEMC(cfg)
	e.seed = seed | 1 // per process outside tests: pin it, so a failing stream fails again
	e.shared = mode%24 >= 12
	return e
}

// runEMCOps interprets ops as an operation stream over one EMC and the
// reference model side by side: two bytes an operation, the first choosing it
// and the top bits of the key id, the second the rest of the id. After every
// operation the two agree on answers, length, counters and the dense key
// order (so on the next victim), and the table passes checkEMC.
func runEMCOps(t *testing.T, mode uint8, seed uint64, ops []byte) {
	e := emcMode(mode, seed)
	ref := newEMCModel(e)
	flows := make([]*Entry, 8)
	for i := range flows {
		flows[i] = &Entry{}
	}
	var (
		keys   [70]flow.Key
		hashes [70]uint64
		ents   [70]*Entry
		miss   burst.Bitmap
		taken  = &Entry{} // stands in ents for a key an upper tier resolved
	)
	for i := 0; i+1 < len(ops); i += 2 {
		op, id := ops[i], uint16(ops[i+1])|uint16(ops[i]&0xc0)<<2
		now := uint64(i)
		k, f := emcOpKey(id), flows[int(id>>3)%len(flows)]
		switch op & 15 {
		case 0, 1, 2, 3:
			e.Insert(k, f)
			ref.insert(k, f)
		case 4, 5, 6:
			e.InsertHashed(k, k.Hash(), f)
			ref.insert(k, f)
		case 7, 8:
			got, ok := e.Lookup(k, now)
			if want, wok := ref.lookup(k); got != want || ok != wok {
				t.Fatalf("op %d: Lookup = %p, %v; reference %p, %v", i, got, ok, want, wok)
			}
		case 9:
			got, ok := e.LookupHashed(k, k.Hash(), now)
			if want, wok := ref.lookup(k); got != want || ok != wok {
				t.Fatalf("op %d: LookupHashed = %p, %v; reference %p, %v", i, got, ok, want, wok)
			}
		case 10, 11:
			// A burst of consecutive ids, some bits already resolved above.
			n := 1 + int(id)%len(keys)
			miss.Reset(n)
			for j := 0; j < n; j++ {
				keys[j] = emcOpKey(id + uint16(j))
				hashes[j] = keys[j].Hash()
				if ents[j] = taken; splitmix(uint64(i+j))&3 != 0 {
					ents[j] = nil
					miss.Set(j)
				}
			}
			e.LookupBatch(keys[:n], hashes[:n], now, ents[:n], &miss)
			for j := 0; j < n; j++ {
				if ents[j] == taken {
					if miss.Test(j) {
						t.Fatalf("op %d: LookupBatch set bit %d it was not given", i, j)
					}
					continue
				}
				if want, wok := ref.lookup(keys[j]); ents[j] != want || miss.Test(j) == wok {
					t.Fatalf("op %d: LookupBatch key %d = %p, miss %v; reference %p, %v", i, j, ents[j], miss.Test(j), want, wok)
				}
			}
		case 12:
			if got, want := e.Remove(k), ref.remove(k); got != want {
				t.Fatalf("op %d: Remove = %v, reference %v", i, got, want)
			}
		case 13:
			if id&7 == 0 {
				e.Flush()
				ref.flush()
			}
		case 14, 15:
			// Kill the megaflow, resident references and all; later inserts
			// take a live one.
			f.dead.Store(true)
			flows[int(id>>3)%len(flows)] = &Entry{}
		}
		if e.Len() != len(ref.keys) {
			t.Fatalf("op %d: Len = %d, reference %d", i, e.Len(), len(ref.keys))
		}
		if e.Hits != ref.Hits || e.Misses != ref.Misses || e.Inserts != ref.Inserts || e.Evictions != ref.Evictions || e.Stale != ref.Stale {
			t.Fatalf("op %d: counters hit %d miss %d ins %d evict %d stale %d; reference %d %d %d %d %d", i,
				e.Hits, e.Misses, e.Inserts, e.Evictions, e.Stale, ref.Hits, ref.Misses, ref.Inserts, ref.Evictions, ref.Stale)
		}
		for n := range e.slots {
			if e.slots[n].key != ref.keys[n] || e.slots[n].flow != ref.entries[ref.keys[n]].flow {
				t.Fatalf("op %d: dense slot %d differs from the reference's", i, n)
			}
		}
		checkEMC(t, e, true)
	}
}

// TestEMCOps runs random operation streams under every mode, pinned seeds.
func TestEMCOps(t *testing.T) {
	rng := rand.New(rand.NewSource(17))
	for mode := uint8(0); mode < 24; mode++ {
		for trial := 0; trial < 6; trial++ {
			ops := make([]byte, 2*(50+rng.Intn(1500)))
			rng.Read(ops)
			runEMCOps(t, mode, rng.Uint64(), ops)
		}
	}
}

// FuzzEMCTable feeds arbitrary operation streams, modes and seeds to the
// same interpreter.
func FuzzEMCTable(f *testing.F) {
	f.Add(uint8(0), uint64(0), []byte{0, 1, 0, 2, 7, 1, 12, 1, 7, 1})
	f.Add(uint8(1), uint64(1), []byte{0, 1, 4, 2, 0x40, 3, 10, 0, 14, 1, 7, 1, 13, 0, 0, 9})
	f.Add(uint8(14), uint64(7), []byte("insert, look up, kill and evict under the read lock's rules"))
	f.Add(uint8(11), ^uint64(0), []byte{0, 1, 0, 2, 0, 3, 0, 4, 0x80, 5, 0xc0, 6, 12, 2, 10, 1, 15, 3, 11, 0})
	f.Fuzz(func(t *testing.T, mode uint8, seed uint64, ops []byte) {
		runEMCOps(t, mode, seed, ops)
	})
}

// TestEMCSlotConsistency: random insert/remove traffic over twice the
// capacity keeps the index and the dense slots consistent.
func TestEMCSlotConsistency(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	e := NewEMC(EMCConfig{Entries: 32})
	for step := 0; step < 10000; step++ {
		k := key(uint64(rng.Intn(64)), 0)
		if rng.Intn(3) == 0 {
			e.Remove(k)
		} else {
			e.Insert(k, mf(allow))
		}
		checkEMC(t, e, true)
	}
}

// TestEMCIndexFollowsResidency: the index starts small and doubles with the
// flows it holds — at load <= 1/2 after every insert, never past a full
// cache's size — every resident flow still hits after each doubling, and
// Flush empties it at its high-water size. Plain and as a shard child.
func TestEMCIndexFollowsResidency(t *testing.T) {
	flowKey := func(i int) flow.Key {
		k := key(uint64(i)&0xffffffff, uint64(i)>>32)
		k.Set(flow.FieldInPort, 7)
		return k
	}
	for _, capacity := range []int{1, 3, 24, 512, 1 << 20} {
		for _, child := range []bool{false, true} {
			var e *EMC
			if child {
				// Two shards of half the total each: shard 0's child holds capacity.
				e = NewShardedEMC(EMCConfig{Entries: 2 * capacity}, 2).all[0].c.(*EMC)
			} else {
				e = NewEMC(EMCConfig{Entries: capacity})
			}
			full := emcIndexCap(capacity)
			if e.max != capacity || e.shared != child || len(e.index) != min(16, full) {
				t.Fatalf("cap %d (child %v): max %d, shared %v, %d index words to start, want %d",
					capacity, child, e.max, e.shared, len(e.index), min(16, full))
			}
			// Twice the capacity (1 000 flows at 1<<20), so full caches evict.
			n := min(2*capacity, 1000)
			for i := 0; i < n; i++ {
				before := len(e.index)
				e.Insert(flowKey(i), mf(allow))
				if l := len(e.index); 2*e.Len() > l || l > full {
					t.Fatalf("cap %d (child %v), insert %d: %d flows under %d index words (cap %d)", capacity, child, i, e.Len(), l, full)
				}
				if len(e.index) == before {
					continue
				}
				checkEMC(t, e, true)
				for s := range e.slots {
					if _, ok := e.Lookup(e.slots[s].key, 1); !ok {
						t.Fatalf("cap %d (child %v): resident flow %d misses after the index grew to %d words", capacity, child, s, len(e.index))
					}
				}
			}
			checkEMC(t, e, true)
			want := full // a full cache's index is exactly as large as a fixed one
			if capacity == 1<<20 {
				want = 2048 // 1 000 flows at load <= 1/2
			}
			if len(e.index) != want {
				t.Fatalf("cap %d (child %v): %d flows under %d index words, want %d", capacity, child, e.Len(), len(e.index), want)
			}
			e.Flush()
			for i, w := range e.index {
				if w != 0 {
					t.Fatalf("cap %d (child %v): index word %d survives Flush", capacity, child, i)
				}
			}
			if e.Len() != 0 || len(e.index) != want {
				t.Fatalf("cap %d (child %v): Flush left %d flows under %d index words, want 0 under %d", capacity, child, e.Len(), len(e.index), want)
			}
			checkEMC(t, e, true)
			// Refilling after a flush allocates no index.
			high := &e.index[0]
			for i := 0; i < min(capacity, 1000); i++ {
				e.Insert(flowKey(n+i), mf(allow))
			}
			if &e.index[0] != high || len(e.index) != want {
				t.Fatalf("cap %d (child %v): refilling after Flush reallocated the index (%d words)", capacity, child, len(e.index))
			}
			checkEMC(t, e, true)
		}
	}
}

// Bounds of the exact-match cache's index (README, "Exact-match cache
// layout"): what hashes chosen by an adversary can cost a probe.
const (
	maxEMCRun     = 64 // longest run of occupied index words at full occupancy, 4096 flows
	emcCraftedSet = 4096
)

// longestRun returns the longest cyclic run of occupied index words: the
// most words any probe can walk.
func longestRun(e *EMC) int {
	worst, run := 0, 0
	for i := 0; i < 2*len(e.index); i++ {
		if e.index[i%len(e.index)] == 0 {
			run = 0
			continue
		}
		run++
		worst = max(worst, min(run, len(e.index)))
	}
	return worst
}

// TestEMCCraftedCollisions plays the sender of crafted flows, who knows the
// flow hash (it is public and unseeded) but not the table's seed.
func TestEMCCraftedCollisions(t *testing.T) {
	if NewEMC(EMCConfig{}).seed != tableSeed {
		t.Fatal("a new EMC does not place by the per-process secret")
	}
	// (a) Keys of one Key.Hash are free to craft: vary any earlier word and
	// cancel the difference in a whole-word field behind it (an IPv6 address
	// half), and the hash state — so the hash — is the same from there on.
	// However many are sent, one is resident, so a lookup compares one key.
	t.Run("one hash", func(t *testing.T) {
		ipv6 := flow.FieldByID(flow.FieldIPv6SrcHi)
		if ipv6.Bits != 64 {
			t.Fatalf("%s is not a whole word", ipv6.Name)
		}
		base := emcOpKey(1)
		want := hashStateBefore(&base, ipv6.Word) ^ base[ipv6.Word]
		e := NewEMC(EMCConfig{Entries: emcCraftedSet})
		crafted := make([]flow.Key, emcCraftedSet)
		for i := range crafted {
			k := emcOpKey(1)
			k.Set(flow.FieldTPSrc, uint64(i))
			k[ipv6.Word] = hashStateBefore(&k, ipv6.Word) ^ want
			if k.Hash() != base.Hash() {
				t.Fatalf("crafted key %d hashes to %#x, want %#x", i, k.Hash(), base.Hash())
			}
			crafted[i] = k
			e.Insert(k, mf(allow))
			checkEMC(t, e, true)
		}
		if e.Len() != 1 || e.Inserts != emcCraftedSet || e.Evictions != emcCraftedSet-1 {
			t.Fatalf("%d resident after %d inserts of one hash (%d evictions), want 1", e.Len(), e.Inserts, e.Evictions)
		}
		for i, k := range crafted {
			if _, ok := e.Lookup(k, 1); ok != (i == len(crafted)-1) {
				t.Fatalf("crafted key %d: hit %v; only the last one sent is resident", i, ok)
			}
		}
	})

	// (b) Hashes sharing some of their bits cost 2^bits tries a key offline.
	// The adversary's search is skipped here — the hashes are handed to
	// InsertHashed — and, the seed being secret, must buy nothing: at full
	// occupancy no run of index words passes the bound, under any seed. The
	// last population is homed on one index word under a guessed seed (13
	// bits, 2^13 tries a key): one run of 4096 words if the guess is right.
	const guessed = 0x9e3779b97f4a7c15
	var homed []uint64
	for i := uint64(0); len(homed) < emcCraftedSet; i++ {
		if h := splitmix(i); h*guessed>>(64-13) == 0 {
			homed = append(homed, h)
		}
	}
	populations := map[string]func(i uint64) uint64{
		"low 16 bits shared":  func(i uint64) uint64 { return splitmix(i)<<16 | 0xbeef },
		"high 32 bits shared": func(i uint64) uint64 { return 0xfeedface<<32 | splitmix(i)>>32 },
		"one home, guessed":   func(i uint64) uint64 { return homed[i] },
	}
	fill := func(t *testing.T, seed uint64, hashOf func(i uint64) uint64) *EMC {
		e := NewEMC(EMCConfig{Entries: emcCraftedSet})
		e.seed = seed | 1
		for i := 0; i < emcCraftedSet; i++ {
			e.InsertHashed(emcOpKey(uint16(i)), hashOf(uint64(i)), mf(allow))
		}
		checkEMC(t, e, false)
		return e
	}
	if run := longestRun(fill(t, guessed, populations["one home, guessed"])); run < emcCraftedSet {
		t.Fatalf("hashes homed under the guessed seed: longest index run %d, want one of %d", run, emcCraftedSet)
	}
	for name, hashOf := range populations {
		t.Run(name, func(t *testing.T) {
			for _, seed := range boundSeeds {
				e := fill(t, seed, hashOf)
				run := longestRun(e)
				t.Logf("seed %#x: %d resident, longest index run %d", seed, e.Len(), run)
				if e.Len() != emcCraftedSet || run > maxEMCRun {
					t.Errorf("seed %#x: %d resident, longest index run %d, bound %d", seed, e.Len(), run, maxEMCRun)
				}
			}
		})
	}
}

// hashStateBefore is the adversary's copy of the public flow hash
// (flow.Key.Hash): the running state word n is folded into.
func hashStateBefore(k *flow.Key, n int) uint64 {
	h := flow.StageHashSeed
	for _, w := range k[:n] {
		h = flow.MixWord(h, w)
	}
	return h
}

// TestShardedEMCChildConcurrentLookup: a shard child's LookupBatch runs
// under the shard's read lock, several readers at once, and so must write
// nothing but atomics — not even to purge the dead references it meets —
// while a writer, alone under the write lock, inserts, evicts and kills the
// megaflow the resident references point at.
func TestShardedEMCChildConcurrentLookup(t *testing.T) {
	e := NewEMC(EMCConfig{Entries: 64})
	e.shared = true
	var mu sync.RWMutex
	keys := make([]flow.Key, 256)
	for i := range keys {
		keys[i] = emcOpKey(uint16(i))
	}
	hashes := flow.HashKeys(keys, nil)

	var wg sync.WaitGroup
	stop := make(chan struct{})
	for r := 0; r < 4; r++ {
		wg.Add(1)
		go func(r int) {
			defer wg.Done()
			var miss burst.Bitmap
			ents := make([]*Entry, len(keys))
			for round := uint64(0); ; round++ {
				select {
				case <-stop:
					return
				default:
				}
				miss.Reset(len(keys))
				miss.SetAll()
				mu.RLock()
				e.LookupBatch(keys, hashes, round, ents, &miss)
				for i := range keys {
					if !miss.Test(i) && ents[i].Dead() {
						t.Errorf("reader %d: key %d answered by a dead megaflow", r, i)
					}
				}
				mu.RUnlock()
			}
		}(r)
	}
	live := mf(allow)
	for round := 0; round < 64; round++ {
		for i := 0; i < len(keys); i += 7 {
			mu.Lock()
			e.InsertHashed(keys[(i+round)%len(keys)], hashes[(i+round)%len(keys)], live)
			mu.Unlock()
		}
		if round%8 == 7 {
			mu.Lock()
			live.dead.Store(true)
			live = mf(allow)
			mu.Unlock()
		}
	}
	close(stop)
	wg.Wait()
	checkEMC(t, e, true)

	// Every resident reference dead: a reader sees misses and leaves them be.
	live.dead.Store(true)
	resident, stale := e.Len(), e.Stale
	var miss burst.Bitmap
	miss.Reset(len(keys))
	miss.SetAll()
	e.LookupBatch(keys, hashes, 1, make([]*Entry, len(keys)), &miss)
	if miss.Count() != len(keys) || e.Len() != resident || e.Stale != stale+uint64(resident) {
		t.Fatalf("%d dead references: %d of %d lookups missed, %d resident after, stale +%d",
			resident, miss.Count(), len(keys), e.Len(), e.Stale-stale)
	}
	if e.Evictions == 0 || resident != e.Cap() {
		t.Fatalf("evictions %d, %d resident of %d: the writer never filled the cache", e.Evictions, resident, e.Cap())
	}
}
