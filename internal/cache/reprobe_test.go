package cache

import (
	"math/rand"
	"testing"

	"policyinject/internal/burst"
	"policyinject/internal/flow"
)

// sweepAll is a LookupBatch of keys with every bit set: the sweep that starts
// a walk, and empties the put log.
func sweepAll(m *Megaflow, keys []flow.Key, now uint64) {
	ents, costs := make([]*Entry, len(keys)), make([]int, len(keys))
	var miss burst.Bitmap
	miss.Reset(len(keys))
	miss.SetAll()
	m.LookupBatch(keys, now, ents, costs, &miss)
}

// TestReprobeLowestPositionWins logs two subtables that both cover a key, the
// one lower in the scan order logged second, behind enough bystanders for the
// put log to be taken: Reprobe must answer with the scan's first hit, at its
// depth, and bill one probe per logged subtable.
func TestReprobeLowestPositionWins(t *testing.T) {
	m := NewMegaflow(MegaflowConfig{FlowLimit: -1})
	wide, narrow := prefixMatch(0x0a000000, 8), prefixMatch(0x0a0b0000, 16)
	other := prefixMatch(0x0b000000, 8) // wide's mask: its subtable is older than the burst
	if _, err := m.Insert(other, allow, 1); err != nil {
		t.Fatal(err)
	}
	for plen := 17; plen <= 24; plen++ {
		if _, err := m.Insert(prefixMatch(0xc0000000, plen), allow, 1); err != nil {
			t.Fatal(err)
		}
	}
	k := narrow.Key
	k.Set(flow.FieldTPDst, 80)
	sweepAll(m, []flow.Key{k}, 2)
	if _, err := m.Insert(narrow, deny, 2); err != nil { // row 9, logged first
		t.Fatal(err)
	}
	first, err := m.Insert(wide, allow, 2) // row 0, logged second
	if err != nil {
		t.Fatal(err)
	}
	if len(m.putLog) != 2 {
		t.Fatalf("%d subtables logged, want 2", len(m.putLog))
	}
	scanned, billed := m.MasksScanned, m.RunBilledScans
	if ent, cost, ok := m.Reprobe(k, 3); !ok || ent != first || cost != 1 {
		t.Fatalf("Reprobe = %v at cost %d (%v), want wide's entry in row 0 at cost 1", ent, cost, ok)
	}
	if first.Hits != 1 || first.LastHit != 3 {
		t.Errorf("entry credited %d hits, last at %d, want 1 at 3", first.Hits, first.LastHit)
	}
	// Two probes for a hit one row deep: nothing was billed on credit.
	if m.MasksScanned != scanned+1 || m.RunBilledScans != billed {
		t.Errorf("scanned +%d, on credit +%d, want +1 and +0", m.MasksScanned-scanned, m.RunBilledScans-billed)
	}
	k.Set(flow.FieldIPSrc, 0x0c000000) // covered by nothing resident
	if _, cost, ok := m.Reprobe(k, 3); ok || cost != 10 || m.RunBilledScans != billed+8 {
		t.Errorf("a miss: hit %v at cost %d, +%d on credit, want a miss at 10 with 8 of them on credit", ok, cost, m.RunBilledScans-billed)
	}
}

// TestPutLogBounded fills the put log the way an attacker can — an install
// per packet, each minting a mask, with no sweep in between — and holds it to
// its cap: no longer, no larger, and the re-probe after it still the twin's
// Lookup. The sweep then empties it in place, a subtable is logged once
// however many entries it takes, and a shard child logs nothing.
func TestPutLogBounded(t *testing.T) {
	m, twin := NewMegaflow(MegaflowConfig{FlowLimit: -1}), NewMegaflow(MegaflowConfig{FlowLimit: -1})
	twin.seed = m.seed
	rng := rand.New(rand.NewSource(23))
	var last flow.Match
	for i := 0; i < 10000; i++ {
		last = flow.Match{Key: randomKey(rng), Mask: wordMask(rng, 1+i%3)}
		for _, c := range []*Megaflow{m, twin} {
			if _, err := c.Insert(last, allow, 1); err != nil {
				t.Fatal(err)
			}
		}
		if len(m.putLog) > putLogCap || cap(m.putLog) > putLogCap {
			t.Fatalf("insert %d: put log of %d subtables, capacity %d, over the cap of %d", i, len(m.putLog), cap(m.putLog), putLogCap)
		}
	}
	for i, k := range burstOver(rng, m.Entries(), 32) {
		ent, cost, ok := m.Reprobe(k, 2)
		want, wantCost, wantOK := twin.Lookup(k, 2)
		if ok != wantOK || cost != wantCost || ok && ent.Match() != want.Match() || countersOf(m) != countersOf(twin) {
			t.Fatalf("key %d: Reprobe = %v at cost %d, counters %+v; the twin's Lookup = %v at cost %d, counters %+v",
				i, ent, cost, countersOf(m), want, wantCost, countersOf(twin))
		}
	}
	if m.RunBilledScans != 0 {
		t.Errorf("an overflowed log billed %d scans on credit", m.RunBilledScans)
	}

	sweepAll(m, []flow.Key{last.Key}, 3)
	if len(m.putLog) != 0 || cap(m.putLog) != putLogCap {
		t.Fatalf("after a sweep: put log of %d subtables, capacity %d, want 0 and %d", len(m.putLog), cap(m.putLog), putLogCap)
	}
	for range 3 {
		last.Key = randomKey(rng)
		if _, err := m.Insert(last, allow, 3); err != nil {
			t.Fatal(err)
		}
	}
	if len(m.putLog) != 1 {
		t.Errorf("three entries into one subtable logged it %d times", len(m.putLog))
	}

	child := NewMegaflow(MegaflowConfig{FlowLimit: -1})
	child.shared = true
	for i := 0; i < 100; i++ {
		if _, err := child.Insert(flow.Match{Key: randomKey(rng), Mask: wordMask(rng, 1+i%3)}, allow, 1); err != nil {
			t.Fatal(err)
		}
	}
	if child.putLog != nil {
		t.Errorf("a shard child logged %d puts", len(child.putLog))
	}
}
