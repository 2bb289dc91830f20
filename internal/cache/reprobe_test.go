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

// TestReprobeLoggedRows re-probes one key after each kind of logged row and
// holds the answer to the twin's Lookup — the entry, the cost and every
// counter — with the positions past the logged probes billed on credit:
// a single row the three-word compare rejects or accepts, a row of several
// residents (no compare: find decides), a row past an earlier hit (skipped
// unprobed), and subtables retired or moved up the scan order since they
// were logged. Eight bystanders, older than the burst and covering nothing
// the key holds, keep the log shorter than the scan order.
func TestReprobeLoggedRows(t *testing.T) {
	k := prefixMatch(0x0a0b0c0d, 32).Key
	k.Set(flow.FieldTPDst, 80)
	var bystanders []flow.Match
	for plen := 17; plen <= 24; plen++ {
		bystanders = append(bystanders, prefixMatch(0xc0000000, plen))
	}
	// withPort adds an exact in_port (0, as k's) and tp_dst to m: a mask of
	// three words, the port in the deepest.
	withPort := func(m flow.Match, port uint64) flow.Match {
		m.Mask.SetExact(flow.FieldInPort)
		m.Mask.SetExact(flow.FieldTPDst)
		m.Key.Set(flow.FieldTPDst, port)
		return m
	}
	const n = 8 // rows before the first mask the burst mints
	cases := []struct {
		name     string
		logged   []flow.Match // inserted after the sweep, in this order
		removed  []flow.Match // then removed, in this order
		rows     string       // each logged subtable at the re-probe: 's'ingle row, 'm'ulti-resident, 'g'one
		wantCost int          // the hit's row + 1, or the scan length on a miss
	}{
		{"single row rejected", []flow.Match{prefixMatch(0x0c000000, 12)}, nil, "s", n + 1},
		{"single row accepted", []flow.Match{prefixMatch(0x0a000000, 12)}, nil, "s", n + 1},
		{"single row rejected on its third word", []flow.Match{withPort(prefixMatch(0x0a000000, 12), 81)}, nil, "s", n + 1},
		{"single row accepted on three words", []flow.Match{withPort(prefixMatch(0x0a000000, 12), 80)}, nil, "s", n + 1},
		{"single rows, the second accepted",
			[]flow.Match{prefixMatch(0x0c000000, 12), prefixMatch(0x0a0b0000, 16)}, nil, "ss", n + 2},
		{"multi-resident row hit",
			[]flow.Match{prefixMatch(0x0c000000, 12), prefixMatch(0x0a000000, 12)}, nil, "m", n + 1},
		{"multi-resident row missed",
			[]flow.Match{prefixMatch(0x0c000000, 12), prefixMatch(0x0d000000, 12)}, nil, "m", n + 1},
		{"row past an earlier hit",
			[]flow.Match{prefixMatch(0x0a0b0c0d, 17), prefixMatch(0x0a0b0000, 16)}, nil, "ms", 1},
		{"row right after an earlier hit",
			[]flow.Match{prefixMatch(0x0a0b0c0d, 24), prefixMatch(0x0a0b0000, 16)}, nil, "ms", n},
		{"retired since logged",
			[]flow.Match{prefixMatch(0x0a000000, 12)}, []flow.Match{prefixMatch(0x0a000000, 12)}, "g", n},
		{"moved up since logged",
			[]flow.Match{prefixMatch(0x0a000000, 12)}, []flow.Match{bystanders[3]}, "s", n},
		{"retired, its row taken by a logged hit",
			[]flow.Match{prefixMatch(0x0c000000, 12), prefixMatch(0x0a0b0c00, 28)},
			[]flow.Match{prefixMatch(0x0c000000, 12)}, "gs", n + 1},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			m, twin := NewMegaflow(MegaflowConfig{FlowLimit: -1}), NewMegaflow(MegaflowConfig{FlowLimit: -1})
			twin.seed = m.seed
			insert := func(match flow.Match, now uint64) {
				for _, cc := range []*Megaflow{m, twin} {
					if _, err := cc.Insert(match, allow, now); err != nil {
						t.Fatal(err)
					}
				}
			}
			for _, b := range bystanders {
				insert(b, 1)
			}
			sweepAll(m, []flow.Key{k}, 2)
			for _, match := range c.logged {
				insert(match, 2)
			}
			for _, match := range c.removed {
				if !m.Remove(match) || !twin.Remove(match) {
					t.Fatalf("Remove(%v) found nothing", match)
				}
			}
			if len(m.putLog) != len(c.rows) {
				t.Fatalf("%d subtables logged, want %d", len(m.putLog), len(c.rows))
			}
			for i, st := range m.putLog {
				row := byte('g')
				switch {
				case st.n == 0:
				case m.subtables[st.pos].st != st:
					t.Fatalf("logged subtable %d: resident, but its row is another's", i)
				case m.subtables[st.pos].single:
					row = 's'
				default:
					row = 'm'
				}
				if row != c.rows[i] {
					t.Fatalf("logged subtable %d: row %c, want %c", i, row, c.rows[i])
				}
			}
			before, twinBefore, billed := countersOf(m), countersOf(twin), m.RunBilledScans
			ent, cost, ok := m.Reprobe(k, 3)
			want, wantCost, wantOK := twin.Lookup(k, 3)
			if ok != wantOK || cost != wantCost || ok && (ent.Match() != want.Match() || ent.Hits != want.Hits) {
				t.Fatalf("Reprobe = %v at cost %d (%v); the twin's Lookup = %v at cost %d (%v)", ent, cost, ok, want, wantCost, wantOK)
			}
			if cost != c.wantCost {
				t.Fatalf("cost %d, want %d", cost, c.wantCost)
			}
			if got, exp := delta(countersOf(m), before), delta(countersOf(twin), twinBefore); got != exp {
				t.Fatalf("counter deltas %+v, the twin's %+v", got, exp)
			}
			if wantBilled := uint64(max(cost-len(m.putLog), 0)); m.RunBilledScans-billed != wantBilled {
				t.Errorf("+%d scans on credit, want %d (cost %d, %d logged)", m.RunBilledScans-billed, wantBilled, cost, len(m.putLog))
			}
		})
	}
}

// delta is what the counters gained from before to after.
func delta(after, before sweepCounters) sweepCounters {
	return sweepCounters{after.lookups - before.lookups, after.hits - before.hits, after.misses - before.misses, after.scanned - before.scanned}
}
