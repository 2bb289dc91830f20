package cache

import (
	"math/rand"
	"sync"
	"testing"

	"policyinject/internal/burst"
	"policyinject/internal/flow"
	"policyinject/internal/flowtable"
)

func smcKey(src uint64) flow.Key {
	var k flow.Key
	k.Set(flow.FieldEthType, flow.EthTypeIPv4)
	k.Set(flow.FieldIPProto, flow.ProtoTCP)
	k.Set(flow.FieldIPSrc, src)
	k.Set(flow.FieldTPDst, 443)
	return k
}

// smcEntry mints a live megaflow entry matching k exactly.
func smcEntry(t *testing.T, mfc *Megaflow, k flow.Key) *Entry {
	t.Helper()
	ent, err := mfc.Insert(flow.Match{Key: k, Mask: flow.ExactMask}, Verdict{Verdict: flowtable.Allow}, 1)
	if err != nil {
		t.Fatal(err)
	}
	return ent
}

func TestSMCHitVerifiesMask(t *testing.T) {
	mfc := NewMegaflow(MegaflowConfig{})
	smc := NewSMC(SMCConfig{Entries: 1 << 10})

	// A wildcard megaflow: only ip_src significant.
	var m flow.Match
	m.Key.Set(flow.FieldIPSrc, 0x0a000001)
	m.Mask.SetExact(flow.FieldIPSrc)
	ent, err := mfc.Insert(m, Verdict{Verdict: flowtable.Allow}, 1)
	if err != nil {
		t.Fatal(err)
	}

	k := smcKey(0x0a000001)
	smc.Insert(k, ent)
	got, ok := smc.Lookup(k, 2)
	if !ok || got != ent {
		t.Fatal("exact key missed")
	}
	// A key with the same fingerprint slot is astronomically unlikely to
	// also carry a matching signature; but even a same-slot insert must
	// never serve a key the megaflow's mask rejects.
	other := smcKey(0x0b000009)
	smc.Insert(other, ent) // entry's mask does NOT cover other
	if _, ok := smc.Lookup(other, 3); ok {
		t.Fatal("SMC served a key its megaflow mask rejects")
	}
}

func TestSMCBoundedByCapacity(t *testing.T) {
	mfc := NewMegaflow(MegaflowConfig{FlowLimit: -1})
	smc := NewSMC(SMCConfig{Entries: 64})
	if smc.Cap() != 64 {
		t.Fatalf("cap = %d", smc.Cap())
	}
	for i := 0; i < 4096; i++ {
		k := smcKey(uint64(0x0a000000 + i))
		smc.Insert(k, smcEntry(t, mfc, k))
	}
	if smc.Len() > 64 {
		t.Fatalf("len = %d exceeds capacity 64", smc.Len())
	}
	if smc.Evictions == 0 {
		t.Error("collision overwrites not counted as evictions")
	}
}

func TestSMCCapacityRoundsUpToPowerOfTwo(t *testing.T) {
	smc := NewSMC(SMCConfig{Entries: 1000})
	if smc.Cap() != 1024 {
		t.Fatalf("cap = %d, want 1024", smc.Cap())
	}
	if NewSMC(SMCConfig{}).Cap() != DefaultSMCEntries {
		t.Fatal("default capacity wrong")
	}
}

func TestSMCDisabled(t *testing.T) {
	mfc := NewMegaflow(MegaflowConfig{})
	smc := NewSMC(SMCConfig{Entries: -1})
	k := smcKey(0x0a000001)
	smc.Insert(k, smcEntry(t, mfc, k))
	if smc.Len() != 0 {
		t.Fatal("disabled SMC stored an entry")
	}
	if _, ok := smc.Lookup(k, 1); ok {
		t.Fatal("disabled SMC hit")
	}
	smc.Flush() // must not panic
}

// TestSMCSurvivesEMCScaleThrash is the attack-economics property the SMC
// tier exists for: a covert flood of distinct keys large enough to thrash
// the 8192-entry EMC leaves a same-sized SMC with every flow still
// resident.
func TestSMCSurvivesEMCScaleThrash(t *testing.T) {
	mfc := NewMegaflow(MegaflowConfig{FlowLimit: -1})
	emc := NewEMC(EMCConfig{}) // 8192
	smc := NewSMC(SMCConfig{}) // ~1M

	victim := smcKey(0x0a0a0005)
	vent := smcEntry(t, mfc, victim)
	emc.Insert(victim, vent)
	smc.Insert(victim, vent)

	// 64k distinct covert flows: 8x the EMC, 1/16th of the SMC.
	for i := 0; i < 1<<16; i++ {
		k := smcKey(uint64(0x30000000 + i))
		ent := smcEntry(t, mfc, k)
		emc.Insert(k, ent)
		smc.Insert(k, ent)
	}

	if _, ok := emc.Lookup(victim, 2); ok {
		t.Skip("EMC random replacement spared the victim this time; the property is statistical")
	}
	if _, ok := smc.Lookup(victim, 2); !ok {
		t.Fatal("SMC lost the victim flow under a flood the table dwarfs")
	}
}

// smcModel is the implementation the flat slot array replaced, kept as the
// reference the op-stream tests compare against: a Go map from fingerprint to
// signature and entry, a colliding insert overwriting. It credits nothing: the
// entry pointers it returns are the SMC's.
type smcModel struct {
	max    int
	purge  bool // drop a dead reference on lookup (not under a shard's read lock)
	fpMask uint64
	slots  map[uint64]smcModelSlot

	Hits, Misses, Inserts, Evictions, Stale uint64
}

type smcModelSlot struct {
	sig uint16
	ent *Entry
}

func newSMCModel(s *SMC) *smcModel {
	return &smcModel{max: s.max, purge: !s.shared, fpMask: s.fpMask, slots: map[uint64]smcModelSlot{}}
}

func (m *smcModel) lookup(k flow.Key, h uint64) (*Entry, bool) {
	if m.max == 0 {
		return nil, false
	}
	fp, sig := h&m.fpMask, uint16(h>>48)
	slot, ok := m.slots[fp]
	if !ok || slot.sig != sig {
		m.Misses++
		return nil, false
	}
	if slot.ent.Dead() {
		if m.purge {
			delete(m.slots, fp)
		}
		m.Stale++
		m.Misses++
		return nil, false
	}
	for i, mw := range slot.ent.st.mask() {
		if k[i]&mw != slot.ent.Key[i] {
			m.Misses++
			return nil, false
		}
	}
	m.Hits++
	return slot.ent, true
}

func (m *smcModel) insert(h uint64, f *Entry) {
	if m.max == 0 || f == nil {
		return
	}
	fp, sig := h&m.fpMask, uint16(h>>48)
	if old, ok := m.slots[fp]; ok && (old.sig != sig || old.ent != f) {
		m.Evictions++
	}
	m.slots[fp] = smcModelSlot{sig: sig, ent: f}
	m.Inserts++
}

func (m *smcModel) flush() { clear(m.slots) }

// checkSMC verifies the table's own invariants: every occupied slot names a
// live ref, each ref counts exactly the slots that name it, the counts sum to
// Len, refOf maps each held entry to its ref and nothing else, and every other
// ref is on the free list once, holding no entry — so no ref leaks and no
// retired megaflow stays pinned, past the table's length included.
func checkSMC(t *testing.T, s *SMC) {
	t.Helper()
	if s.max == 0 || s.slots == nil {
		if s.used != 0 || len(s.slots) != 0 || len(s.refs) != 0 {
			t.Fatalf("unallocated SMC: Len %d, %d slots, %d refs", s.used, len(s.slots), len(s.refs))
		}
		return
	}
	if len(s.slots) != s.max || len(s.refs) == 0 || len(s.refs) > smcMaxRef+1 || s.refs[0] != (smcRef{}) {
		t.Fatalf("%d slots (cap %d), %d refs, refs[0] = %+v", len(s.slots), s.max, len(s.refs), s.refs[0])
	}
	held := make([]uint32, len(s.refs))
	used := 0
	for fp, w := range s.slots {
		if w == 0 {
			continue
		}
		used++
		if r := int(uint16(w)); r == 0 || r >= len(s.refs) {
			t.Fatalf("slot %d names ref %d of %d", fp, r, len(s.refs))
		} else {
			held[r]++
		}
	}
	if used != s.used {
		t.Fatalf("%d occupied slots, Len %d", used, s.used)
	}
	sum, live := uint32(0), 0
	for r := 1; r < len(s.refs); r++ {
		ref := s.refs[r]
		if ref.n != held[r] {
			t.Fatalf("ref %d counts %d slots, %d name it", r, ref.n, held[r])
		}
		sum += ref.n
		if ref.n == 0 {
			continue
		}
		live++
		if ref.ent == nil {
			t.Fatalf("ref %d is held by %d slots and references no megaflow", r, ref.n)
		}
		if got, ok := s.refOf[ref.ent]; !ok || int(got) != r {
			t.Fatalf("ref %d's entry maps to ref %d (%v)", r, got, ok)
		}
	}
	if int(sum) != s.used || len(s.refOf) != live {
		t.Fatalf("ref counts sum to %d for Len %d; %d live refs, %d in refOf", sum, s.used, live, len(s.refOf))
	}
	onFree := make([]bool, len(s.refs))
	for _, r := range s.free {
		if r == 0 || int(r) >= len(s.refs) || onFree[r] || s.refs[r].n != 0 || s.refs[r].ent != nil {
			t.Fatalf("free ref %d: out of range, listed twice, held or holding an entry", r)
		}
		onFree[r] = true
	}
	if len(s.free)+live != len(s.refs)-1 {
		t.Fatalf("%d free and %d live refs of %d: a ref leaked", len(s.free), live, len(s.refs)-1)
	}
	for _, ref := range s.refs[len(s.refs):cap(s.refs)] {
		if ref.ent != nil {
			t.Fatal("a retired ref past the table's length still pins its megaflow")
		}
	}
}

// smcOpFlow mints the j-th stand-in megaflow of the op streams: an even j
// matches every key (a hit verifies), an odd one only keys on its in_port, so
// a fingerprint hit on a key of another port fails the masked verify.
func smcOpFlow(j int) *Entry {
	var mask flow.Mask
	if j&1 == 1 {
		mask.SetExact(flow.FieldInPort)
	}
	var k flow.Key
	k.Set(flow.FieldInPort, 1+uint64(j>>1&3))
	return &Entry{Key: mask.Apply(k), st: newSubtable(mask, 0)}
}

// smcMode builds the SMC an op stream runs over: capacity 1, 2, 64 or 1024,
// from mode 4 up as a shard child, whose lookups must leave dead slots alone.
func smcMode(mode uint8) *SMC {
	caps := [...]int{1, 2, 64, 1024}
	s := NewSMC(SMCConfig{Entries: caps[mode&3]})
	s.shared = mode&7 >= 4
	return s
}

// runSMCOps interprets ops as an operation stream over one SMC and the
// reference model side by side: two bytes an operation, the first choosing it
// and the top bits of the key id, the second the rest of the id. After every
// operation the two agree on answers, length, counters and every slot's
// signature and entry, and the table passes checkSMC.
func runSMCOps(t *testing.T, mode uint8, ops []byte) {
	s := smcMode(mode)
	ref := newSMCModel(s)
	flows := make([]*Entry, 8)
	minted := 0
	for i := range flows {
		flows[i] = smcOpFlow(minted)
		minted++
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
		k, fi := emcOpKey(id), int(id>>3)%len(flows)
		f := flows[fi]
		switch op & 15 {
		case 0, 1, 2:
			s.Insert(k, f)
			ref.insert(k.Hash(), f)
		case 3, 4, 5:
			s.InsertHashed(k, k.Hash(), f)
			ref.insert(k.Hash(), f)
		case 6, 7:
			got, ok := s.Lookup(k, now)
			if want, wok := ref.lookup(k, k.Hash()); got != want || ok != wok {
				t.Fatalf("op %d: Lookup = %p, %v; reference %p, %v", i, got, ok, want, wok)
			}
		case 8, 9:
			got, ok := s.LookupHashed(k, k.Hash(), now)
			if want, wok := ref.lookup(k, k.Hash()); got != want || ok != wok {
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
			s.LookupBatch(keys[:n], hashes[:n], now, ents[:n], &miss)
			for j := 0; j < n; j++ {
				if ents[j] == taken {
					if miss.Test(j) {
						t.Fatalf("op %d: LookupBatch set bit %d it was not given", i, j)
					}
					continue
				}
				if want, wok := ref.lookup(keys[j], hashes[j]); ents[j] != want || miss.Test(j) == wok {
					t.Fatalf("op %d: LookupBatch key %d = %p, miss %v; reference %p, %v", i, j, ents[j], miss.Test(j), want, wok)
				}
			}
		case 12, 13, 14:
			// Kill the megaflow, referencing slots and all; later inserts
			// take a live one.
			f.dead.Store(true)
			flows[fi] = smcOpFlow(minted)
			minted++
		case 15:
			if id&7 == 0 {
				s.Flush()
				ref.flush()
			}
		}
		if s.Len() != len(ref.slots) {
			t.Fatalf("op %d: Len = %d, reference %d", i, s.Len(), len(ref.slots))
		}
		if s.Hits != ref.Hits || s.Misses != ref.Misses || s.Inserts != ref.Inserts || s.Evictions != ref.Evictions || s.Stale != ref.Stale {
			t.Fatalf("op %d: counters hit %d miss %d ins %d evict %d stale %d; reference %d %d %d %d %d", i,
				s.Hits, s.Misses, s.Inserts, s.Evictions, s.Stale, ref.Hits, ref.Misses, ref.Inserts, ref.Evictions, ref.Stale)
		}
		for fp, w := range s.slots {
			want, ok := ref.slots[uint64(fp)]
			if ok != (w != 0) || ok && (uint16(w>>16) != want.sig || s.refs[uint16(w)].ent != want.ent) {
				t.Fatalf("op %d: slot %d holds %#x, reference %+v (%v)", i, fp, w, want, ok)
			}
		}
		checkSMC(t, s)
	}
}

// TestSMCOps runs random operation streams under every mode, pinned seeds.
func TestSMCOps(t *testing.T) {
	rng := rand.New(rand.NewSource(41))
	for mode := uint8(0); mode < 8; mode++ {
		for trial := 0; trial < 12; trial++ {
			ops := make([]byte, 2*(50+rng.Intn(1500)))
			rng.Read(ops)
			runSMCOps(t, mode, ops)
		}
	}
}

// FuzzSMCTable feeds arbitrary operation streams and modes to the same
// interpreter.
func FuzzSMCTable(f *testing.F) {
	f.Add(uint8(0), []byte{0, 1, 0, 2, 6, 1, 12, 1, 6, 1})
	f.Add(uint8(2), []byte{0, 1, 3, 2, 0x40, 3, 10, 0, 12, 1, 8, 1, 15, 0, 0, 9})
	f.Add(uint8(6), []byte("insert, look up, kill and overwrite under the read lock's rules"))
	f.Add(uint8(3), []byte{0, 1, 0, 2, 0, 3, 0, 4, 0x80, 5, 0xc0, 6, 12, 2, 10, 1, 13, 3, 11, 0})
	f.Fuzz(func(t *testing.T, mode uint8, ops []byte) {
		runSMCOps(t, mode, ops)
	})
}

// TestSMCRefBound holds the ref table to its 16 bits: with 65 535 distinct
// entries referenced, an insert of another changes nothing — counters
// included — until an overwrite or a stale purge frees a ref; a flush lets go
// of every one.
func TestSMCRefBound(t *testing.T) {
	s := NewSMC(SMCConfig{Entries: 1 << 17})
	var k flow.Key // every entry's mask is empty, so any key verifies
	ents := make([]*Entry, smcMaxRef)
	for i := range ents {
		ents[i] = smcOpFlow(0)
		s.InsertHashed(k, uint64(i), ents[i])
	}
	checkSMC(t, s)
	if s.Len() != smcMaxRef || len(s.refs) != smcMaxRef+1 || len(s.free) != 0 {
		t.Fatalf("Len %d, %d refs, %d free after %d distinct inserts", s.Len(), len(s.refs), len(s.free), smcMaxRef)
	}
	type state struct {
		len                      int
		inserts, evictions, miss uint64
	}
	at := func() state { return state{s.Len(), s.Inserts, s.Evictions, s.Misses} }
	refused := func(h uint64, f *Entry) {
		t.Helper()
		before := at()
		s.InsertHashed(k, h, f)
		if after := at(); after != before || s.slots[h] != 0 {
			t.Fatalf("an insert past %d live refs moved the table: %+v -> %+v, slot %#x", smcMaxRef, before, after, s.slots[h])
		}
		if _, ok := s.refOf[f]; ok {
			t.Fatal("the refused entry holds a ref")
		}
	}
	accepted := func(h uint64, f *Entry) {
		t.Helper()
		s.InsertHashed(k, h, f)
		if got, ok := s.LookupHashed(k, h, 1); !ok || got != f {
			t.Fatalf("insert at %#x after a ref was freed: lookup %p, %v", h, got, ok)
		}
		checkSMC(t, s)
	}

	x, y := smcOpFlow(0), smcOpFlow(0)
	refused(smcMaxRef, x)
	// An overwrite with an entry already referenced frees the old entry's ref.
	s.InsertHashed(k, 0, ents[1])
	accepted(smcMaxRef, x)
	refused(smcMaxRef+1, y)
	// A stale purge frees the dead entry's ref.
	ents[2].dead.Store(true)
	if _, ok := s.LookupHashed(k, 2, 2); ok || s.Stale != 1 || s.slots[2] != 0 {
		t.Fatalf("dead entry: lookup %v, stale %d, slot %#x", ok, s.Stale, s.slots[2])
	}
	accepted(smcMaxRef+1, y)
	refused(smcMaxRef+2, smcOpFlow(0))

	s.Flush()
	checkSMC(t, s)
	if s.Len() != 0 || len(s.refOf) != 0 {
		t.Fatalf("Len %d, %d entries mapped after Flush", s.Len(), len(s.refOf))
	}
	for r, ref := range s.refs[:cap(s.refs)] {
		if ref.ent != nil {
			t.Fatalf("ref %d still pins a megaflow after Flush", r)
		}
	}
	accepted(0, x)
}

// TestShardedSMCChildConcurrentLookup: a shard child's LookupBatch runs
// under the shard's read lock, several readers at once, and so must write
// nothing but atomics — not even to purge the dead slots it meets — while a
// writer, alone under the write lock, inserts, overwrites and kills the
// megaflow the slots reference.
func TestShardedSMCChildConcurrentLookup(t *testing.T) {
	s := NewSMC(SMCConfig{Entries: 64})
	s.shared = true
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
				s.LookupBatch(keys, hashes, round, ents, &miss)
				for i := range keys {
					if !miss.Test(i) && ents[i].Dead() {
						t.Errorf("reader %d: key %d answered by a dead megaflow", r, i)
					}
				}
				mu.RUnlock()
			}
		}(r)
	}
	live := smcOpFlow(0)
	for round := 0; round < 64; round++ {
		for i := 0; i < len(keys); i += 7 {
			mu.Lock()
			s.InsertHashed(keys[(i+round)%len(keys)], hashes[(i+round)%len(keys)], live)
			mu.Unlock()
		}
		if round%8 == 7 {
			mu.Lock()
			live.dead.Store(true)
			live = smcOpFlow(0)
			mu.Unlock()
		}
	}
	close(stop)
	wg.Wait()
	checkSMC(t, s)

	// Every slot's megaflow dead: a reader sees misses and leaves them be.
	// Every resident slot is its last writer's key's, so each is met at least
	// once; a key of another signature on the same slot misses before it.
	live.dead.Store(true)
	resident, stale, signed := s.Len(), s.Stale, uint64(0)
	for _, h := range hashes {
		if w := s.slots[h&s.fpMask]; w != 0 && uint16(w>>16) == uint16(h>>48) {
			signed++
		}
	}
	var miss burst.Bitmap
	miss.Reset(len(keys))
	miss.SetAll()
	s.LookupBatch(keys, hashes, 1, make([]*Entry, len(keys)), &miss)
	if miss.Count() != len(keys) || s.Len() != resident || s.Stale != stale+signed || signed < uint64(resident) {
		t.Fatalf("%d dead slots met by %d keys: %d of %d lookups missed, %d resident after, stale +%d",
			resident, signed, miss.Count(), len(keys), s.Len(), s.Stale-stale)
	}
	checkSMC(t, s)
	if s.Evictions == 0 || resident != s.Cap() {
		t.Fatalf("evictions %d, %d resident of %d: the writer never filled the cache", s.Evictions, resident, s.Cap())
	}
}
