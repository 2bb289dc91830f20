package cache

import (
	"errors"
	"testing"

	"policyinject/internal/flow"
	"policyinject/internal/flowtable"
)

func key(ip uint64, port uint64) flow.Key {
	var k flow.Key
	k.Set(flow.FieldIPSrc, ip)
	k.Set(flow.FieldTPDst, port)
	return k
}

func prefixMatch(ip uint64, plen int) flow.Match {
	var m flow.Match
	m.Key.Set(flow.FieldIPSrc, ip)
	m.Mask.SetPrefix(flow.FieldIPSrc, plen)
	m.Normalize()
	return m
}

var allow = Verdict{Verdict: flowtable.Allow}
var deny = Verdict{Verdict: flowtable.Deny}

// mf returns a live megaflow entry to reference from EMC tests.
func mf(v Verdict) *Entry { return &Entry{Verdict: v} }

func TestEMCBasic(t *testing.T) {
	e := NewEMC(EMCConfig{Entries: 4})
	k := key(1, 2)
	if _, ok := e.Lookup(k, 0); ok {
		t.Fatal("hit in empty cache")
	}
	e.Insert(k, mf(allow))
	ent, ok := e.Lookup(k, 2)
	if !ok || ent.Verdict != allow {
		t.Fatalf("lookup = %v, %v", ent, ok)
	}
	if e.Hits != 1 || e.Misses != 1 || e.Inserts != 1 {
		t.Errorf("stats: %+v", *e)
	}
}

// TestEMCHitCreditsMegaflow verifies the OVS-faithful liveness chain: EMC
// hits refresh the referenced megaflow entry, which is how the attacker's
// replayed covert stream defeats idle eviction.
func TestEMCHitCreditsMegaflow(t *testing.T) {
	e := NewEMC(EMCConfig{Entries: 4})
	ent := mf(deny)
	e.Insert(key(1, 1), ent)
	e.Lookup(key(1, 1), 77)
	if ent.Hits != 1 || ent.LastHit != 77 {
		t.Fatalf("megaflow not credited: %+v", ent)
	}
}

// TestEMCStaleEntryPurged: a dead megaflow makes its EMC references
// invalid lazily, as OVS validates by sequence number.
func TestEMCStaleEntryPurged(t *testing.T) {
	e := NewEMC(EMCConfig{Entries: 4})
	ent := mf(allow)
	e.Insert(key(1, 1), ent)
	ent.dead.Store(true)
	if _, ok := e.Lookup(key(1, 1), 1); ok {
		t.Fatal("stale EMC entry served")
	}
	if e.Len() != 0 || e.Stale != 1 {
		t.Fatalf("len=%d stale=%d", e.Len(), e.Stale)
	}
}

func TestEMCEvictsAtCapacity(t *testing.T) {
	e := NewEMC(EMCConfig{Entries: 8})
	for i := 0; i < 100; i++ {
		e.Insert(key(uint64(i), 0), mf(allow))
	}
	if e.Len() != 8 {
		t.Fatalf("Len = %d, want 8", e.Len())
	}
	if e.Evictions != 92 {
		t.Errorf("evictions = %d, want 92", e.Evictions)
	}
	// Every remaining entry must still be retrievable (slot bookkeeping).
	hits := 0
	for i := 0; i < 100; i++ {
		if _, ok := e.Lookup(key(uint64(i), 0), 200); ok {
			hits++
		}
	}
	if hits != 8 {
		t.Errorf("retrievable entries = %d, want 8", hits)
	}
}

func TestEMCDisabled(t *testing.T) {
	e := NewEMC(EMCConfig{Entries: -1})
	e.Insert(key(1, 1), mf(allow))
	if _, ok := e.Lookup(key(1, 1), 0); ok {
		t.Fatal("disabled EMC returned a hit")
	}
	if e.Len() != 0 {
		t.Fatal("disabled EMC stored an entry")
	}
}

func TestEMCInsertEvery(t *testing.T) {
	e := NewEMC(EMCConfig{Entries: 1000, InsertEvery: 5})
	for i := 0; i < 100; i++ {
		e.Insert(key(uint64(i), 0), mf(allow))
	}
	if e.Len() != 20 {
		t.Errorf("Len = %d, want 20 (1 in 5)", e.Len())
	}
}

func TestEMCUpdateExisting(t *testing.T) {
	e := NewEMC(EMCConfig{Entries: 4})
	k := key(1, 1)
	e.Insert(k, mf(allow))
	e.Insert(k, mf(deny))
	if e.Len() != 1 {
		t.Fatalf("Len = %d", e.Len())
	}
	if ent, _ := e.Lookup(k, 2); ent.Verdict != deny {
		t.Fatalf("verdict = %v", ent.Verdict)
	}
}

func TestEMCRemoveAndFlush(t *testing.T) {
	e := NewEMC(EMCConfig{Entries: 16})
	for i := 0; i < 10; i++ {
		e.Insert(key(uint64(i), 0), mf(allow))
	}
	if !e.Remove(key(3, 0)) || e.Remove(key(3, 0)) {
		t.Fatal("Remove misbehaved")
	}
	if e.Len() != 9 {
		t.Fatalf("Len = %d", e.Len())
	}
	// All others must still be retrievable after the slot swap.
	for i := 0; i < 10; i++ {
		_, ok := e.Lookup(key(uint64(i), 0), 1)
		if (i == 3) == ok {
			t.Fatalf("entry %d retrievable=%v", i, ok)
		}
	}
	e.Flush()
	if e.Len() != 0 {
		t.Fatal("Flush left entries")
	}
}

func TestMegaflowLookupOrderAndScanCount(t *testing.T) {
	m := NewMegaflow(MegaflowConfig{})
	m.Insert(prefixMatch(0x80000000, 1), deny, 0)
	m.Insert(prefixMatch(0x40000000, 2), deny, 0)
	m.Insert(prefixMatch(0x20000000, 3), deny, 0)

	// 0x20... matches only the third subtable: 3 masks scanned.
	ent, scanned, ok := m.Lookup(key(0x20000001, 0), 1)
	if !ok || scanned != 3 || ent.Verdict != deny {
		t.Fatalf("ent=%v scanned=%d ok=%v", ent, scanned, ok)
	}
	// 0x80... matches the first: 1 mask scanned.
	_, scanned, ok = m.Lookup(key(0x80000001, 0), 1)
	if !ok || scanned != 1 {
		t.Fatalf("scanned=%d ok=%v", scanned, ok)
	}
	// Miss scans everything.
	_, scanned, ok = m.Lookup(key(0x10000000, 0), 1)
	if ok || scanned != 3 {
		t.Fatalf("miss scanned=%d ok=%v", scanned, ok)
	}
	if m.NumMasks() != 3 || m.Len() != 3 {
		t.Fatalf("masks=%d entries=%d", m.NumMasks(), m.Len())
	}
}

func TestMegaflowSameMaskSharesSubtable(t *testing.T) {
	m := NewMegaflow(MegaflowConfig{})
	for i := 0; i < 100; i++ {
		m.Insert(prefixMatch(uint64(i)<<24, 8), deny, 0)
	}
	if m.NumMasks() != 1 {
		t.Fatalf("masks = %d, want 1", m.NumMasks())
	}
	if m.Len() != 100 {
		t.Fatalf("entries = %d", m.Len())
	}
	_, scanned, ok := m.Lookup(key(50<<24|1234, 0), 0)
	if !ok || scanned != 1 {
		t.Fatalf("scanned=%d ok=%v", scanned, ok)
	}
}

func TestMegaflowFlowLimit(t *testing.T) {
	m := NewMegaflow(MegaflowConfig{FlowLimit: 2})
	if _, err := m.Insert(prefixMatch(1<<24, 8), deny, 0); err != nil {
		t.Fatal(err)
	}
	if _, err := m.Insert(prefixMatch(2<<24, 8), deny, 0); err != nil {
		t.Fatal(err)
	}
	if _, err := m.Insert(prefixMatch(3<<24, 8), deny, 0); !errors.Is(err, ErrFlowLimit) {
		t.Fatalf("err = %v, want ErrFlowLimit", err)
	}
	// Replacing an existing masked key is not a new entry.
	if _, err := m.Insert(prefixMatch(1<<24, 8), allow, 1); err != nil {
		t.Fatalf("replace: %v", err)
	}
}

func TestMegaflowMaskLimit(t *testing.T) {
	m := NewMegaflow(MegaflowConfig{MaxMasks: 2})
	m.Insert(prefixMatch(0x80000000, 1), deny, 0)
	m.Insert(prefixMatch(0x40000000, 2), deny, 0)
	_, err := m.Insert(prefixMatch(0x20000000, 3), deny, 0)
	if !errors.Is(err, ErrMaskLimit) {
		t.Fatalf("err = %v, want ErrMaskLimit", err)
	}
	// Same-mask inserts still work at the cap.
	if _, err := m.Insert(prefixMatch(0x00000000, 1), deny, 0); err != nil {
		t.Fatalf("same-mask insert: %v", err)
	}
}

func TestMegaflowRemoveDropsEmptySubtable(t *testing.T) {
	m := NewMegaflow(MegaflowConfig{})
	m.Insert(prefixMatch(0x0a000000, 8), allow, 0)
	if !m.Remove(prefixMatch(0x0a000000, 8)) {
		t.Fatal("Remove failed")
	}
	if m.NumMasks() != 0 || m.Len() != 0 {
		t.Fatalf("masks=%d len=%d after removing last entry", m.NumMasks(), m.Len())
	}
	if m.Remove(prefixMatch(0x0a000000, 8)) {
		t.Fatal("double Remove succeeded")
	}
}

func TestMegaflowEvictIdle(t *testing.T) {
	m := NewMegaflow(MegaflowConfig{})
	m.Insert(prefixMatch(1<<24, 8), deny, 0)
	m.Insert(prefixMatch(0x40000000, 2), deny, 0)
	// Touch only the first at t=100.
	if _, _, ok := m.Lookup(key(1<<24|7, 0), 100); !ok {
		t.Fatal("expected hit")
	}
	evicted := m.EvictIdle(50)
	if evicted != 1 {
		t.Fatalf("evicted = %d, want 1", evicted)
	}
	if m.Len() != 1 || m.NumMasks() != 1 {
		t.Fatalf("len=%d masks=%d", m.Len(), m.NumMasks())
	}
}

// exactIPMatch builds an exact-match on ip_src, one entry per ip.
func exactIPMatch(ip uint64) flow.Match {
	var m flow.Match
	m.Key.Set(flow.FieldIPSrc, ip)
	m.Mask.SetExact(flow.FieldIPSrc)
	m.Normalize()
	return m
}

// TestMegaflowSetFlowLimitAndTrim pins the dynamic-limit contract: cutting
// the limit below the resident count rejects new inserts immediately, and
// TrimToLimit then evicts exactly the stalest entries (oldest LastHit),
// marking them dead and dropping emptied subtables.
func TestMegaflowSetFlowLimitAndTrim(t *testing.T) {
	m := NewMegaflow(MegaflowConfig{})
	if m.FlowLimit() != DefaultFlowLimit {
		t.Fatalf("default FlowLimit = %d", m.FlowLimit())
	}
	ents := make([]*Entry, 8)
	for i := range ents {
		var err error
		ents[i], err = m.Insert(exactIPMatch(uint64(i)), allow, uint64(i))
		if err != nil {
			t.Fatal(err)
		}
	}
	// Keep 5..7 warm.
	for i := 5; i < 8; i++ {
		if _, _, ok := m.Lookup(key(uint64(i), 0), 100); !ok {
			t.Fatalf("entry %d missing", i)
		}
	}
	m.SetFlowLimit(3)
	// The cut alone evicts nothing, but new inserts are already refused.
	if m.Len() != 8 {
		t.Fatalf("SetFlowLimit evicted eagerly: len=%d", m.Len())
	}
	if _, err := m.Insert(exactIPMatch(99), allow, 101); !errors.Is(err, ErrFlowLimit) {
		t.Fatalf("insert over the cut limit: err=%v", err)
	}
	// Replacing an existing entry must still work at the limit.
	if _, err := m.Insert(exactIPMatch(6), deny, 101); err != nil {
		t.Fatalf("replace at the limit failed: %v", err)
	}
	if got := m.TrimToLimit(); got != 5 {
		t.Fatalf("trimmed %d, want 5", got)
	}
	if m.Len() != 3 {
		t.Fatalf("len=%d after trim, want 3", m.Len())
	}
	for i := 0; i < 5; i++ {
		if !ents[i].Dead() {
			t.Errorf("stale entry %d not marked dead", i)
		}
		if _, _, ok := m.Lookup(key(uint64(i), 0), 102); ok {
			t.Errorf("stale entry %d still resident", i)
		}
	}
	for i := 5; i < 8; i++ {
		if _, _, ok := m.Lookup(key(uint64(i), 0), 102); !ok {
			t.Errorf("warm entry %d was trimmed", i)
		}
	}
	if m.TrimToLimit() != 0 {
		t.Error("second trim evicted again")
	}
	// Raising the limit re-admits inserts.
	m.SetFlowLimit(10)
	if _, err := m.Insert(exactIPMatch(99), allow, 103); err != nil {
		t.Fatalf("insert after raising the limit: %v", err)
	}
}

// TestMegaflowRejectedInsertMintsNoMask is the regression for the
// empty-subtable leak: an insert refused by the flow limit must not leave
// a fresh mask in the scan order (the attacker would otherwise keep
// inflating the mask count with every rejected flow).
func TestMegaflowRejectedInsertMintsNoMask(t *testing.T) {
	m := NewMegaflow(MegaflowConfig{FlowLimit: 1})
	if _, err := m.Insert(exactIPMatch(1), allow, 0); err != nil {
		t.Fatal(err)
	}
	if _, err := m.Insert(prefixMatch(0x0a000000, 8), allow, 1); !errors.Is(err, ErrFlowLimit) {
		t.Fatalf("err = %v, want ErrFlowLimit", err)
	}
	if m.NumMasks() != 1 {
		t.Fatalf("rejected insert leaked a subtable: %d masks", m.NumMasks())
	}
	if m.Len() != 1 {
		t.Fatalf("len = %d", m.Len())
	}
}

func TestMegaflowRevalidate(t *testing.T) {
	m := NewMegaflow(MegaflowConfig{})
	m.Insert(prefixMatch(1<<24, 8), allow, 0)
	m.Insert(prefixMatch(2<<24, 8), allow, 0)
	// Policy changed: everything is deny now -> both entries flushed.
	flushed := m.Revalidate(func(e *Entry) (Verdict, bool) { return deny, true })
	if flushed != 2 || m.Len() != 0 {
		t.Fatalf("flushed=%d len=%d", flushed, m.Len())
	}
}

func TestMegaflowStatsAverage(t *testing.T) {
	m := NewMegaflow(MegaflowConfig{})
	for i := 1; i <= 4; i++ {
		m.Insert(prefixMatch(uint64(0xffffffff<<(32-i))&0xffffffff, i), deny, 0)
	}
	// A key matching none scans all 4 masks.
	m.Lookup(key(0, 0), 0)
	if got := m.AvgMasksScanned(); got != 4 {
		t.Fatalf("avg = %v", got)
	}
}

// TestSortedTSSMovesHotSubtableFirst verifies the "sorted TSS" mitigation:
// after enough lookups, the hot mask is scanned first.
func TestSortedTSSMovesHotSubtableFirst(t *testing.T) {
	m := NewMegaflow(MegaflowConfig{SortByHits: true, SortEvery: 10})
	m.Insert(prefixMatch(0x80000000, 1), deny, 0) // cold, scanned first initially
	m.Insert(prefixMatch(0x40000000, 2), deny, 0) // hot
	hot := key(0x40000001, 0)
	for i := 0; i < 20; i++ {
		m.Lookup(hot, uint64(i))
	}
	_, scanned, ok := m.Lookup(hot, 100)
	if !ok || scanned != 1 {
		t.Fatalf("hot subtable not promoted: scanned=%d", scanned)
	}
}

// TestMegaflowNonOverlapInvariant: entries synthesised from disjoint
// divergence prefixes never overlap, so lookup order among them is
// irrelevant. This mirrors the paper's note that the slow path ensures MF
// entries are non-overlapping.
func TestMegaflowNonOverlapInvariant(t *testing.T) {
	// The Fig. 2b entry set.
	entries := []flow.Match{
		prefixMatch(0x80000000, 1),
		prefixMatch(0x40000000, 2),
		prefixMatch(0x20000000, 3),
		prefixMatch(0x10000000, 4),
		prefixMatch(0x00000000, 5),
		prefixMatch(0x0c000000, 6),
		prefixMatch(0x08000000, 7),
		prefixMatch(0x0b000000, 8),
	}
	for i := range entries {
		for j := range entries {
			if i != j && entries[i].Overlaps(entries[j]) {
				t.Errorf("entries %d and %d overlap: %v / %v", i, j, entries[i], entries[j])
			}
		}
	}
}

func TestMegaflowFlush(t *testing.T) {
	m := NewMegaflow(MegaflowConfig{})
	m.Insert(prefixMatch(1<<24, 8), deny, 0)
	m.Flush()
	if m.Len() != 0 || m.NumMasks() != 0 {
		t.Fatal("Flush left state")
	}
	if _, _, ok := m.Lookup(key(1<<24, 0), 0); ok {
		t.Fatal("hit after Flush")
	}
}

func TestEntriesEnumeration(t *testing.T) {
	m := NewMegaflow(MegaflowConfig{})
	m.Insert(prefixMatch(1<<24, 8), deny, 0)
	m.Insert(prefixMatch(0x80000000, 1), allow, 0)
	if got := len(m.Entries()); got != 2 {
		t.Fatalf("Entries() len = %d", got)
	}
}

// TestEMCInsertProbDeterministic: probabilistic insertion draws from a
// seeded PRNG, so the same seed admits the same flows in every run, and
// the admit rate lands near 1/InsertProb.
func TestEMCInsertProbDeterministic(t *testing.T) {
	admitted := func(seed uint64) []int {
		e := NewEMC(EMCConfig{Entries: 1 << 14, InsertProb: 10, Seed: seed})
		var got []int
		for i := 0; i < 2000; i++ {
			e.Insert(key(uint64(i), 0), mf(allow))
		}
		for i := 0; i < 2000; i++ {
			if _, ok := e.Lookup(key(uint64(i), 0), 1); ok {
				got = append(got, i)
			}
		}
		return got
	}
	a, b := admitted(7), admitted(7)
	if len(a) != len(b) {
		t.Fatalf("same seed, different admit counts: %d vs %d", len(a), len(b))
	}
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("same seed, different admit sets at %d", i)
		}
	}
	// ~1/10 of 2000 = 200; allow generous slack for a 64-bit xorshift.
	if len(a) < 120 || len(a) > 300 {
		t.Errorf("admit rate = %d/2000, want ≈200", len(a))
	}
	c := admitted(8)
	if len(c) == len(a) {
		same := true
		for i := range a {
			if a[i] != c[i] {
				same = false
				break
			}
		}
		if same {
			t.Error("different seeds drew identical admit sets")
		}
	}
}

// TestEMCInsertProbOneAlwaysInserts: InsertProb = 1 is "insert always",
// the explicit opt-out from the SMC-forced default.
func TestEMCInsertProbOneAlwaysInserts(t *testing.T) {
	e := NewEMC(EMCConfig{Entries: 100, InsertProb: 1})
	for i := 0; i < 50; i++ {
		e.Insert(key(uint64(i), 0), mf(allow))
	}
	if e.Len() != 50 {
		t.Fatalf("Len = %d, want 50", e.Len())
	}
}

// TestMegaflowInsertReplaceRefreshesLastHit is the regression test for the
// replace path: re-installing an existing masked key (revalidation after a
// policy change does this) must refresh LastHit as well as Added, or the
// just-refreshed entry is evicted by the very next EvictIdle sweep.
func TestMegaflowInsertReplaceRefreshesLastHit(t *testing.T) {
	m := NewMegaflow(MegaflowConfig{})
	match := prefixMatch(0x0a000000, 8)
	if _, err := m.Insert(match, allow, 1); err != nil {
		t.Fatal(err)
	}
	// Much later, the same masked key is re-installed (fresh verdict).
	ent, err := m.Insert(match, deny, 100)
	if err != nil {
		t.Fatal(err)
	}
	if ent.LastHit != 100 {
		t.Fatalf("replace left LastHit = %d, want 100", ent.LastHit)
	}
	// The idle sweep right after the refresh must keep the entry.
	if evicted := m.EvictIdle(90); evicted != 0 {
		t.Fatalf("EvictIdle evicted %d just-refreshed entries", evicted)
	}
	if _, _, ok := m.Lookup(key(0x0a000001, 0), 101); !ok {
		t.Fatal("refreshed entry gone")
	}
}

// TestEMCInsertProbPrecedence: an explicit probabilistic policy (even
// "insert always") overrides the periodic InsertEvery throttle.
func TestEMCInsertProbPrecedence(t *testing.T) {
	e := NewEMC(EMCConfig{Entries: 100, InsertProb: 1, InsertEvery: 5})
	for i := 0; i < 50; i++ {
		e.Insert(key(uint64(i), 0), mf(allow))
	}
	if e.Len() != 50 {
		t.Fatalf("Len = %d, want 50 (InsertProb=1 must beat InsertEvery)", e.Len())
	}
}

// TestEntryMatchOutlivesEviction takes an entry out through every exit door
// of the megaflow cache. An entry keeps its subtable pointer for life, so a
// dead one an EMC slot, an SMC slot or a trace still holds answers Match with
// the normalised match it was inserted under. Residency is the dead flag: run
// accounting on a dead entry bills nothing to the subtable it left.
func TestEntryMatchOutlivesEviction(t *testing.T) {
	// A /16 over a key with low bits set: Insert normalises them away.
	var in flow.Match
	in.Key.Set(flow.FieldIPSrc, 0x0a0b0c0d)
	in.Key.Set(flow.FieldTPDst, 443)
	in.Mask.SetPrefix(flow.FieldIPSrc, 16)
	want := in
	want.Normalize()
	if want == in {
		t.Fatal("the input match is already normalised: the test would not see a copy")
	}
	other := prefixMatch(0xc0a80000, 24)

	for _, tc := range []struct {
		name  string
		cfg   MegaflowConfig
		evict func(m *Megaflow)
	}{
		{"Remove", MegaflowConfig{}, func(m *Megaflow) { m.Remove(in) }},
		{"EvictIdle", MegaflowConfig{}, func(m *Megaflow) { m.EvictIdle(5) }},
		{"Revalidate", MegaflowConfig{}, func(m *Megaflow) {
			m.Revalidate(func(e *Entry) (Verdict, bool) { return e.Verdict, e.Match() != want })
		}},
		{"TrimToLimit", MegaflowConfig{}, func(m *Megaflow) { m.SetFlowLimit(1); m.TrimToLimit() }},
		{"MaskEvictLRU", MegaflowConfig{MaxMasks: 2, MaskEvictLRU: true}, func(m *Megaflow) {
			if _, err := m.Insert(prefixMatch(0xac100000, 12), allow, 9); err != nil {
				t.Fatal(err)
			}
		}},
		{"Flush", MegaflowConfig{}, func(m *Megaflow) { m.Flush() }},
	} {
		t.Run(tc.name, func(t *testing.T) {
			m := NewMegaflow(tc.cfg)
			ent, err := m.Insert(in, allow, 1)
			if err != nil {
				t.Fatal(err)
			}
			if _, err := m.Insert(other, deny, 8); err != nil {
				t.Fatal(err)
			}
			if ent.Match() != want || ent.Key != want.Key {
				t.Fatalf("resident Match() = %v, want %v", ent.Match(), want)
			}
			st := ent.st
			m.AccountRun(ent, 2, 1, 3)
			if st.hits != 2 || st.lastHit != 3 {
				t.Fatalf("live run billed subtable hits %d at %d, want 2 at 3", st.hits, st.lastHit)
			}

			tc.evict(m)
			if !ent.Dead() {
				t.Fatal("entry still live")
			}
			if ent.Match() != want {
				t.Fatalf("dead Match() = %v, want %v", ent.Match(), want)
			}
			if hit, _, ok := m.Lookup(want.Key, 10); ok && hit == ent {
				t.Fatal("dead entry still found by lookup")
			}
			m.AccountRun(ent, 5, 1, 11)
			if st.hits != 2 || st.lastHit != 3 {
				t.Fatalf("dead run billed its old subtable: hits %d at %d, want 2 at 3", st.hits, st.lastHit)
			}
		})
	}
}
