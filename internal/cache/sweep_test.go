package cache

import (
	"cmp"
	"fmt"
	"math/bits"
	"math/rand"
	"slices"
	"sync"
	"testing"
	"unsafe"

	"policyinject/internal/burst"
	"policyinject/internal/flow"
)

// sweepWordCounts are the mask sizes the sweep tests mix in one scan order:
// the catch-all, one word, the three a row carries, one more than that (the
// first to read a word through the subtable) and all ten.
var sweepWordCounts = []int{0, 1, 3, 4, 10}

// wordMask draws a mask with nw significant words at random positions, so
// a scan order holds many shapes and changes shape from row to row.
func wordMask(rng *rand.Rand, nw int) flow.Mask {
	var mask flow.Mask
	for _, w := range rng.Perm(flow.Words)[:nw] {
		mask[w] = rng.Uint64() | 1<<uint(rng.Intn(64))
	}
	return mask
}

func randomKey(rng *rand.Rand) flow.Key {
	var k flow.Key
	for i := range k {
		k[i] = rng.Uint64()
	}
	return k
}

// checkScanRows demands that row i of the scan order describes subtable i as
// it is now: its mask words, shape and word count recomputed from the mask
// alone, its pointer the one the mask index finds under its mask and pointing
// back (pos == i), and single/ew recomputed from the residents the table
// holds — a row that missed a sync after an insert, a removal or a
// maintenance sweep fails here; that the mask index holds exactly the scan
// order's subtables, at load <= 1/2, each homed by its own mask's hash; and
// that nothing past the end of the scan order still references a subtable.
func checkScanRows(t *testing.T, m *Megaflow) {
	t.Helper()
	indexed := 0
	for _, st := range m.index {
		if st != nil {
			indexed++
		}
	}
	if l := len(m.index); indexed != len(m.subtables) || l&(l-1) != 0 || 2*indexed > l {
		t.Fatalf("%d rows in scan order, %d masks indexed in %d slots: want as many, at load <= 1/2 of a power of two", len(m.subtables), indexed, l)
	}
	for i, row := range m.subtables {
		st := row.st
		if st == nil {
			t.Fatalf("row %d: no subtable", i)
		}
		// The mask the subtable answers with, rebuilt from its compiled words
		// (or its side's whole mask), hashes to the hash taken of the inserted
		// mask at mint time: compiled words that lost or changed a bit fail.
		mask := st.mask()
		if st.mhash != maskHash(m.seed, &mask) {
			t.Fatalf("row %d: subtable %p's mask %v does not hash to its mask hash", i, st, mask)
		}
		if found, _ := m.subtableOf(&mask); found != st {
			t.Fatalf("row %d: subtable %p is not the one indexed under its mask (%p is)", i, st, found)
		}
		if int(st.pos) != i {
			t.Fatalf("row %d: its subtable says it sits at %d", i, st.pos)
		}
		var widx [3]uint8
		nw := 0
		for w, bits := range mask {
			if bits != 0 {
				if nw < 3 {
					widx[nw] = uint8(w)
				}
				nw++
			}
		}
		mw := [3]uint64{mask[widx[0]], mask[widx[1]], mask[widx[2]]}
		if st.widx != widx || int(st.nw) != nw || st.mw != mw {
			t.Fatalf("row %d: subtable compiled to words %v (%d) and mask words %#x; its mask %v compiles to %v (%d) and %#x", i, st.widx, st.nw, st.mw, mask, widx, nw, mw)
		}
		if (st.wide != nil) != (nw > 3) {
			t.Fatalf("row %d: a mask of %d significant words, a whole copy kept: %v", i, nw, st.wide != nil)
		}
		want := scanRow{
			mw:    mw,
			st:    st,
			shape: uint32(widx[0]) | uint32(widx[1])<<8 | uint32(widx[2])<<16,
			nw:    uint8(nw),
		}
		var resident []*Entry
		for ent := range st.residents {
			resident = append(resident, ent)
		}
		if len(resident) != int(st.n) {
			t.Fatalf("row %d: %d residents in the table, n = %d", i, len(resident), st.n)
		}
		if len(resident) == 1 && nw <= 3 {
			k := resident[0].Key
			want.ew, want.single = [3]uint64{k[widx[0]], k[widx[1]], k[widx[2]]}, true
		}
		if row != want {
			t.Fatalf("row %d = %+v, subtable's mask %v and %d residents compile to %+v", i, row, mask, len(resident), want)
		}
	}
	for i, row := range m.subtables[len(m.subtables):cap(m.subtables)] {
		if row != (scanRow{}) {
			t.Fatalf("slot %d past the end of the scan order still holds %+v", i, row)
		}
	}
}

// sweepCounters are the counters a flat lookup moves.
type sweepCounters struct{ lookups, hits, misses, scanned uint64 }

func countersOf(m *Megaflow) sweepCounters {
	return sweepCounters{m.Lookups, m.Hits, m.Misses, m.MasksScanned}
}

// checkBatchAgainstProbes runs LookupBatch over the keys whose bits are set
// in live and compares everything it reports and credits with the
// reference: one st.probe per subtable per key, in scan order — on a ranked
// cache whose last rank now is past, the order by hits the sweep ranks first.
func checkBatchAgainstProbes(t *testing.T, m *Megaflow, keys []flow.Key, live func(i int) bool, now uint64) {
	t.Helper()
	rows, ranks := m.subtables, now > m.rankedAt
	if ranks {
		rows = slices.Clone(rows)
		slices.SortStableFunc(rows, func(a, b scanRow) int { return cmp.Compare(b.st.hits, a.st.hits) })
	}
	n := len(keys)
	wantEnt, wantCost := make([]*Entry, n), make([]int, n)
	entHits, stHits := map[*Entry]uint64{}, map[*mfSubtable]uint64{}
	want := countersOf(m)
	var miss burst.Bitmap
	miss.Reset(n)
	for i := range keys {
		if !live(i) {
			continue
		}
		miss.Set(i)
		want.lookups++
		wantCost[i] = len(rows)
		for si, row := range rows {
			if ent := row.st.probe(&keys[i], m.seed); ent != nil {
				wantEnt[i], wantCost[i] = ent, si+1
				entHits[ent]++
				stHits[row.st]++
				want.hits++
				break
			}
		}
		if wantEnt[i] == nil {
			want.misses++
		}
		want.scanned += uint64(wantCost[i])
	}
	for ent, h := range entHits {
		entHits[ent] = ent.Hits + h
	}
	for st, h := range stHits {
		if !ranks { // a rank zeroes the hits
			stHits[st] = st.hits + h
		}
	}

	ents, costs := make([]*Entry, n), make([]int, n)
	m.LookupBatch(keys, now, ents, costs, &miss)
	for i := range keys {
		if ents[i] != wantEnt[i] || costs[i] != wantCost[i] {
			t.Fatalf("key %d of %d: sweep found %p at cost %d, probes find %p at cost %d", i, n, ents[i], costs[i], wantEnt[i], wantCost[i])
		}
		if miss.Test(i) != (live(i) && wantEnt[i] == nil) {
			t.Fatalf("key %d of %d: miss bit %v after the sweep, live %v, hit %v", i, n, miss.Test(i), live(i), wantEnt[i] != nil)
		}
	}
	if got := countersOf(m); got != want {
		t.Fatalf("counters %+v after the sweep, probes bill %+v", got, want)
	}
	for i := range rows {
		if m.subtables[i].st != rows[i].st {
			t.Fatalf("row %d: the sweep scanned subtable %v there, the reference %v", i, m.subtables[i].st.mask(), rows[i].st.mask())
		}
	}
	for ent, h := range entHits {
		if ent.Hits != h || ent.LastHit != now {
			t.Fatalf("entry %v: hits %d last hit %d, want %d at %d", ent.Key, ent.Hits, ent.LastHit, h, now)
		}
	}
	for st, h := range stHits {
		if st.hits != h || st.lastHit != now {
			t.Fatalf("subtable %v: hits %d last hit %d, want %d at %d", st.mask(), st.hits, st.lastHit, h, now)
		}
	}
}

// cover makes k match the (normalised) match, keeping its noise in every bit
// the mask leaves out.
func cover(k *flow.Key, match flow.Match) {
	for w := range k {
		k[w] = match.Key[w] | k[w]&^match.Mask[w]
	}
}

// burstOver draws n keys: three in four cover a resident entry, the rest are
// random.
func burstOver(rng *rand.Rand, resident []*Entry, n int) []flow.Key {
	keys := make([]flow.Key, n)
	for i := range keys {
		keys[i] = randomKey(rng)
		if len(resident) > 0 && rng.Intn(4) != 0 {
			cover(&keys[i], resident[rng.Intn(len(resident))].Match())
		}
	}
	return keys
}

// TestSweepMatchesProbes is the differential test of the row sweep: over
// random scan orders mixing mask sizes and shapes, with tables grown past
// their inline slots, bursts of 1, 8, 65 and 256 keys (one to four bitmap
// words) with hits anywhere in the burst and part of the bitmap already
// resolved, LookupBatch and scalar Lookup agree with one probe per subtable
// per key, under every pinned seed.
func TestSweepMatchesProbes(t *testing.T) {
	for si, seed := range boundSeeds {
		rng := rand.New(rand.NewSource(int64(si)))
		for trial := 0; trial < 12; trial++ {
			m := NewMegaflow(MegaflowConfig{FlowLimit: -1})
			m.seed = seed | 1
			for range 1 + rng.Intn(40) {
				mask := wordMask(rng, sweepWordCounts[rng.Intn(len(sweepWordCounts))])
				if trial%3 != 0 && mask == (flow.Mask{}) {
					continue // the catch-all ends every scan: keep it to a third of the trials
				}
				for range 1 + rng.Intn(3)*rng.Intn(12) {
					if _, err := m.Insert(flow.Match{Key: randomKey(rng), Mask: mask}, allow, 1); err != nil {
						t.Fatal(err)
					}
				}
			}
			checkScanRows(t, m)
			resident := m.Entries()
			for ni, n := range []int{1, 8, 65, 256} {
				keys := burstOver(rng, resident, n)
				skip := rng.Intn(5) // every skip-th key is not in the miss set (0, 1: all are)
				checkBatchAgainstProbes(t, m, keys, func(i int) bool { return skip < 2 || i%skip != 0 }, uint64(10+ni))
			}
			for _, k := range burstOver(rng, resident, 16) {
				var want *Entry
				cost := 0
				for _, row := range m.subtables {
					cost++
					if want = row.st.probe(&k, m.seed); want != nil {
						break
					}
				}
				if ent, c, ok := m.Lookup(k, 20); ent != want || c != cost || ok != (want != nil) {
					t.Fatalf("Lookup = %p at cost %d, probes find %p at cost %d", ent, c, want, cost)
				}
			}
		}
	}
}

// firstWordLadder is a scan order of single rows for the first-word tests, as
// the attack mints them: nRows one-entry subtables whose masks differ in a
// prefix length. With nw of 2 or 3 a row pins key word fw whole — the in-port;
// every third row another port's, foreign to every hitter — and a prefix of
// word 5 (and word 7 whole); with nw of 1 the prefix is on word fw itself, so
// mw[1] and mw[2] repeat it (fw 0) or are zero (fw 3). With split the second
// half of the rows takes its prefix on word 6: the shape changes mid-sweep.
// Row i's resident diverges from one base at bit i of the prefix word, so
// hitter(i) matches row i and no other; a stranger matches none, on its first
// word. catchAll adds the zero-word mask (mw[0] = ew[0] = 0: every key passes,
// and hits) as last row.
type firstWordLadder struct {
	m         *Megaflow
	own       []int // the rows hitters may aim at, in scan order
	residents []flow.Match
	fw, nw    int
}

const (
	ladderPort, foreignPort, strangerPort = 0x42, 0x43, 0x01
	ladderBase                            = 0x0a0000015014_beef
)

func newFirstWordLadder(t *testing.T, nRows, fw, nw int, catchAll, split bool) *firstWordLadder {
	t.Helper()
	l := &firstWordLadder{m: NewMegaflow(MegaflowConfig{FlowLimit: -1}), fw: fw, nw: nw}
	l.m.seed = boundSeeds[0] | 1
	for i := range nRows {
		var match flow.Match
		if nw == 1 {
			match.Mask[fw] = ^uint64(0) << uint(i)
			match.Key[fw] = ladderBase ^ 1<<uint(i)
		} else {
			match.Mask[fw], match.Key[fw] = ^uint64(0), ladderPort
			if i%3 == 2 {
				match.Key[fw] = foreignPort
			}
			pw := 5
			if split && i >= nRows/2 {
				pw = 6
			}
			match.Mask[pw] = ^uint64(0) << uint(63-i)
			match.Key[pw] = ladderBase ^ 1<<uint(63-i)
			if nw == 3 {
				match.Mask[7], match.Key[7] = ^uint64(0), 5201
			}
		}
		if nw == 1 || i%3 != 2 {
			l.own = append(l.own, i)
		}
		match.Normalize()
		l.residents = append(l.residents, match)
	}
	if catchAll {
		l.residents = append(l.residents, flow.Match{})
	}
	for _, match := range l.residents {
		if _, err := l.m.Insert(match, allow, 1); err != nil {
			t.Fatal(err)
		}
	}
	checkScanRows(t, l.m)
	for i, row := range l.m.subtables {
		if !row.single {
			t.Fatalf("row %d of %d-word masks is not single", i, nw)
		}
	}
	return l
}

// hitter returns a key that matches row i alone (and the catch-all): both
// prefix words hold the base outside row i's mask, so no other row's diverging
// bit is set by chance.
func (l *firstWordLadder) hitter(rng *rand.Rand, i int) flow.Key {
	k := randomKey(rng)
	k[5], k[6] = ladderBase, ladderBase
	cover(&k, l.residents[i])
	return k
}

// nearMiss returns row r's hitter failing every row on one word alone, at
// depth 1 (both prefix words the base: no row's diverging bit) or, on rows of
// three words, at depth 2 (word 7 one off). It keeps the rows' first word, so
// only the words behind it can reject it. On one-word rows the prefix is the
// first word, and a near miss is a stranger.
func (l *firstWordLadder) nearMiss(rng *rand.Rand, r, depth int) flow.Key {
	k := l.hitter(rng, r)
	switch {
	case l.nw == 1:
		k[l.fw] = ladderBase
	case depth == 2 && l.nw == 3:
		k[7] ^= 1
	default:
		k[5], k[6] = ladderBase, ladderBase
	}
	return k
}

// stranger returns a key no ladder row's first word admits.
func (l *firstWordLadder) stranger(rng *rand.Rand) flow.Key {
	k := randomKey(rng)
	k[l.fw] = strangerPort
	return k
}

// TestSweepGroupEdges holds the single row's cascade to the probe reference at
// the edges of its groups of four: miss words of 1 to 5, 63 and 64 live keys
// (one group to sixteen, short last groups padded) at scattered bit positions,
// beside a second miss word of six. Strangers, off the rows' first word, are
// rejected by the first-word test: none but the last live key passes (in the
// last group, among its padding), only the first, every key (each resolved at
// its own depth while its group-mates sweep on, a stale member left behind), an
// early hit and a late one in group 0. Near misses, on the rows' own first word,
// are left to the deeper words: keys failing word 1 alone or word 2 alone; a
// group 0 passing word 2 alone before groups passing word 1 alone, so the
// third-word summary admits the row and the pair test must reject; one true
// hit among them, the last live key; every other key a hit at its own depth.
// Over rows of three, two (the third word repeats word 0), one and no mask
// words, rows of another port between the hits, and a prefix word that changes
// mid-ladder, so the groups are gathered again mid-sweep.
func TestSweepGroupEdges(t *testing.T) {
	const nRows = 24
	rng := rand.New(rand.NewSource(24))
	for _, kind := range []struct {
		name            string
		fw, nw          int
		catchAll, split bool
	}{
		{"three words", 0, 3, false, false},
		{"three words, shape change mid-ladder", 0, 3, false, true},
		{"three words, first word 3, then the catch-all", 3, 3, true, false},
		{"two words, shape change mid-ladder", 0, 2, false, true},
		{"one word, key word 0 repeated", 0, 1, false, false},
		{"one word, key word 3 and zeros, then the catch-all", 3, 1, true, false},
	} {
		l := newFirstWordLadder(t, nRows, kind.fw, kind.nw, kind.catchAll, kind.split)
		deepest := l.own[len(l.own)-1]
		if ent, cost, ok := l.m.Lookup(l.hitter(rng, deepest), 2); !ok || cost != deepest+1 || ent.Match() != l.residents[deepest] {
			t.Fatalf("%s: Lookup of row %d's hitter = %v at cost %d (%v)", kind.name, deepest, ent, cost, ok)
		}
		// Live key k's arrangements, as the row it hits (-1: none) and the key.
		stranger := func(int) (flow.Key, int) { return l.stranger(rng), -1 }
		nearMiss := func(k, depth int) (flow.Key, int) { return l.nearMiss(rng, l.own[k%len(l.own)], depth), -1 }
		hit := func(r int) (flow.Key, int) { return l.hitter(rng, r), r }
		for _, n := range []int{1, 2, 3, 4, 5, 63, 64} {
			pos := make(map[int]int, n) // the k-th live key of the first miss word sits at bit k*64/n
			for k := range n {
				pos[k*64/n] = k
			}
			for _, arr := range []struct {
				name string
				key  func(k int) (flow.Key, int)
			}{
				{"strangers", stranger},
				{"strangers, the last live key hits", func(k int) (flow.Key, int) {
					if k == n-1 {
						return hit(deepest)
					}
					return stranger(k)
				}},
				{"strangers, the first live key hits", func(k int) (flow.Key, int) {
					if k == 0 {
						return hit(deepest)
					}
					return stranger(k)
				}},
				{"every key hits", func(k int) (flow.Key, int) { return hit(l.own[k*5%len(l.own)]) }},
				{"strangers, an early hit and a late one in group 0", func(k int) (flow.Key, int) {
					switch k {
					case 0:
						return hit(l.own[1])
					case 1:
						return hit(deepest)
					}
					return stranger(k)
				}},
				{"near misses failing word 1 alone", func(k int) (flow.Key, int) { return nearMiss(k, 1) }},
				{"near misses failing word 2 alone", func(k int) (flow.Key, int) { return nearMiss(k, 2) }},
				{"word 2 alone in group 0, word 1 alone after it", func(k int) (flow.Key, int) {
					if k < 4 {
						return l.nearMiss(rng, deepest, 1), -1
					}
					return l.nearMiss(rng, deepest, 2), -1
				}},
				{"near misses, the last live key hits", func(k int) (flow.Key, int) {
					if k == n-1 {
						return hit(deepest)
					}
					return nearMiss(k, 1+k%2)
				}},
				{"near misses, every other key hits at its own depth", func(k int) (flow.Key, int) {
					if k%2 == 0 {
						return hit(l.own[k*5%len(l.own)])
					}
					return nearMiss(k, 1+k%2)
				}},
			} {
				keys := make([]flow.Key, 70)
				for i := range keys {
					k, live := pos[i]
					switch {
					case i >= 64 && i%2 == 0:
						keys[i], _ = hit(l.own[i%len(l.own)])
					case i >= 64 && i%4 == 1:
						keys[i], _ = nearMiss(i, 1+i/4%2)
					case i >= 64 || !live:
						keys[i] = l.stranger(rng)
					default:
						var r int
						if keys[i], r = arr.key(k); r >= 0 && l.m.subtables[r].st.probe(&keys[i], l.m.seed) == nil {
							t.Fatalf("%s: the hitter of row %d misses it", kind.name, r)
						}
					}
				}
				t.Run(fmt.Sprintf("%s/%d live/%s", kind.name, n, arr.name), func(t *testing.T) {
					checkBatchAgainstProbes(t, l.m, keys, func(i int) bool { _, live := pos[i]; return live || i >= 64 }, 3)
				})
			}
		}
	}
}

// deepWordShared is the third-word value the bursts of TestSweepDeepWordSummary
// share, as a covert burst shares its ports word; no ladder row admits it.
const deepWordShared = 0x1f90_c350_0000_0000

// newDeepWordLadder mints nRows single rows for the summary tests, the attack's
// ladder in small: with nw 3, rows pin key word 0 whole (the in-port; every
// fifth row another port's), a prefix of word 5 (row i's resident diverging
// from ladderBase at bit 63-i) and word 7, whose wanted values are the ladder —
// row i wants deepWordShared ^ (i+1)<<56 under ^0 << (i%3*8), which
// deepWordShared fails on every row. With nw 2 the rows take no word 7, and the
// third word gathered is key word 0 again; with nw 1 they take word 5 alone.
// catchAll ends the ladder with the zero-word mask. It returns the residents in
// scan order and the rows on the burst's port.
func newDeepWordLadder(t *testing.T, nRows, nw int, catchAll bool) (*Megaflow, []flow.Match, []int) {
	t.Helper()
	m := NewMegaflow(MegaflowConfig{FlowLimit: -1})
	m.seed = boundSeeds[1] | 1
	var residents []flow.Match
	var own []int
	for i := range nRows {
		var match flow.Match
		match.Mask[5] = ^uint64(0) << uint(63-i)
		match.Key[5] = ladderBase ^ 1<<uint(63-i)
		if nw >= 2 {
			match.Mask[0], match.Key[0] = ^uint64(0), ladderPort
			if i%5 == 4 {
				match.Key[0] = foreignPort
			}
		}
		if nw == 3 {
			match.Mask[7] = ^uint64(0) << uint(i%3*8)
			match.Key[7] = deepWordShared ^ uint64(i+1)<<56
		}
		if match.Key[0] != foreignPort {
			own = append(own, i)
		}
		match.Normalize()
		residents = append(residents, match)
	}
	if catchAll {
		residents = append(residents, flow.Match{})
	}
	for _, match := range residents {
		if _, err := m.Insert(match, allow, 1); err != nil {
			t.Fatal(err)
		}
	}
	checkScanRows(t, m)
	for i, row := range m.subtables {
		if !row.single || row.st.mask() != residents[i].Mask {
			t.Fatalf("row %d: single %v, mask %v; want single, %v", i, row.single, row.st.mask(), residents[i].Mask)
		}
	}
	return m, residents, own
}

// summaryRejects replays a flat sweep's gathers test-side and counts the
// single rows the third-word summary proves misses after the first-word test
// passed them. Each miss word of the burst sweeps on its own; a key is live up
// to the row the probes say it hits; the keys live at a row whose shape differs
// from the last gathered one are gathered again, and the summary is theirs.
func summaryRejects(m *Megaflow, keys []flow.Key) int {
	n := 0
	for base := 0; base < len(keys); base += 64 {
		word := keys[base:min(base+64, len(keys))]
		depth := make([]int, len(word)) // the row a key hits, or past the last
		for i := range word {
			depth[i] = slices.IndexFunc(m.subtables, func(row scanRow) bool { return row.st.probe(&word[i], m.seed) != nil })
			if depth[i] < 0 {
				depth[i] = len(m.subtables)
			}
		}
		var gathered []flow.Key
		shape := ^uint32(0)
		for ri, row := range m.subtables {
			if row.nw > 3 {
				continue
			}
			if row.shape != shape {
				shape, gathered = row.shape, nil
				for i := range word {
					if depth[i] >= ri {
						gathered = append(gathered, word[i])
					}
				}
			}
			if !row.single || len(gathered) == 0 {
				continue
			}
			w0, w2 := shape&0xff, shape>>16&0xff
			first, and2, or2 := false, ^uint64(0), uint64(0)
			for _, k := range gathered {
				first = first || k[w0]&row.mw[0] == row.ew[0]
				and2, or2 = and2&k[w2], or2|k[w2]
			}
			if first && row.ew[2]&^or2|row.mw[2]&^row.ew[2]&and2 != 0 {
				n++
			}
		}
	}
	return n
}

// TestSweepDeepWordSummary holds the third-word summary to the probe
// reference. Bursts of 32 live keys on the ladder's port share their third
// word, which no row admits: the summary is exact, rejects every row on the
// port, and every key misses at the full ladder's cost (with the catch-all,
// hits it last). Then one true hit joins them — first, last, as the padded
// last group's first member (the one its padding repeats) or as its last — so
// the summary is no longer exact and each row it passes falls through to the
// group tests. Then a key that hits an early row, on another third word: it
// resolves there, and the rows after it see a summary of a key no longer live,
// with and without a late hit behind it. Over rows of three words, of two
// (the third word gathered is the port again, which every key shares) and of
// one (the third word is unmasked), with and without the catch-all.
func TestSweepDeepWordSummary(t *testing.T) {
	const nRows = 20
	rng := rand.New(rand.NewSource(38))
	for _, kind := range []struct {
		name     string
		nw       int
		catchAll bool
	}{
		{"three words", 3, false},
		{"three words, then the catch-all", 3, true},
		{"two words", 2, false},
		{"one word, then the catch-all", 1, true},
	} {
		m, residents, own := newDeepWordLadder(t, nRows, kind.nw, kind.catchAll)
		deepest := own[len(own)-1]
		// miss is a key on the port that covers row r's word 5 on three-word
		// rows (so only the shared third word rejects it there) and no row's
		// elsewhere; hit(r) covers row r alone.
		miss := func(r int) (flow.Key, int) {
			k := randomKey(rng)
			k[0], k[5], k[7] = ladderPort, ladderBase, deepWordShared
			if kind.nw == 3 {
				k[5] ^= 1 << uint(63-r)
			}
			return k, -1
		}
		hit := func(r int) (flow.Key, int) {
			k := randomKey(rng)
			k[5] = ladderBase
			cover(&k, residents[r])
			return k, r
		}
		// hits returns the arrangement where live key k hits row at[k] and
		// every other live key misses.
		hits := func(at map[int]int) func(k int) (flow.Key, int) {
			return func(k int) (flow.Key, int) {
				if r, ok := at[k]; ok {
					return hit(r)
				}
				return miss(own[k%len(own)])
			}
		}
		for _, arr := range []struct {
			name string
			n    int
			key  func(k int) (flow.Key, int)
		}{
			{"shared third word, all miss", 32, hits(nil)},
			{"the hit first", 32, hits(map[int]int{0: deepest})},
			{"the hit last", 32, hits(map[int]int{31: deepest})},
			{"the hit repeated by the last group's padding", 30, hits(map[int]int{28: deepest})},
			{"the hit last in the padded last group", 30, hits(map[int]int{29: deepest})},
			{"an early hit on another third word", 32, hits(map[int]int{5: own[1]})},
			{"an early hit on another third word, a late hit", 32, hits(map[int]int{5: own[1], 20: deepest})},
		} {
			pos := make(map[int]int, arr.n) // the k-th live key sits at bit k*64/n
			for k := range arr.n {
				pos[k*64/arr.n] = k
			}
			keys := make([]flow.Key, 64)
			for i := range keys {
				k, live := pos[i]
				if !live {
					keys[i] = randomKey(rng)
					continue
				}
				var r int
				keys[i], r = arr.key(k)
				for ri, match := range residents {
					if got, want := match.Matches(keys[i]), ri == r || match.Mask == (flow.Mask{}); got != want {
						t.Fatalf("%s/%s: live key %d matches row %d: %v, want %v", kind.name, arr.name, k, ri, got, want)
					}
				}
			}
			live := func(i int) bool { _, ok := pos[i]; return ok }
			if arr.name == "shared third word, all miss" && kind.nw == 3 {
				var burst []flow.Key
				for i := range keys {
					if live(i) {
						burst = append(burst, keys[i])
					}
				}
				if got := summaryRejects(m, burst); got != len(own) {
					t.Fatalf("%s: the summary rejects %d rows, want every row on the port (%d)", kind.name, got, len(own))
				}
			}
			t.Run(kind.name+"/"+arr.name, func(t *testing.T) {
				checkBatchAgainstProbes(t, m, keys, live, 3)
			})
		}
	}
}

// TestGatherGroups holds load to the layout the single-row tests read: after a
// gather, group member m is the m-th live key's three shape words, all from
// that one key, in live order, and a short last group is filled up with its
// first member — never with zeros or with what an earlier gather left there;
// and the summary is the AND and the OR of the live keys' third word, of no
// other key and of no earlier gather. Each live set is gathered under five
// shapes in turn, as a sweep does at a shape change: three words, two and one
// (the third word is key word 0 again) and the catch-all's. Half the keys
// share their high words, so the AND of a small live set is rarely zero.
func TestGatherGroups(t *testing.T) {
	rng := rand.New(rand.NewSource(26))
	keys := make([]flow.Key, 64)
	for i := range keys {
		keys[i] = randomKey(rng)
		if i%2 == 0 {
			for w := range keys[i] {
				keys[i][w] |= 0xffff << 48
			}
		}
	}
	g := gathered{w: make([][4]uint64, 64), keys: keys}
	for b := range g.w {
		g.w[b] = [4]uint64{rng.Uint64(), rng.Uint64(), rng.Uint64(), rng.Uint64()} // what a dead key's slot may hold
	}
	for _, n := range []int{1, 2, 3, 4, 5, 63, 64} {
		g.live = 0
		for _, b := range rng.Perm(64)[:n] {
			g.live |= 1 << b
		}
		for _, shape := range []uint32{0 | 3<<8 | 4<<16, 5 | 6<<8 | 7<<16, 2 | 9<<8, 8, 0} {
			g.load(shape)
			var want [][3]uint64
			and2, or2 := ^uint64(0), uint64(0)
			for w := g.live; w != 0; w &= w - 1 {
				k := &keys[bits.TrailingZeros64(w)]
				want = append(want, [3]uint64{k[shape&0xff], k[shape>>8&0xff], k[shape>>16&0xff]})
				and2, or2 = and2&k[shape>>16&0xff], or2|k[shape>>16&0xff]
			}
			if g.groups != (n+3)/4 {
				t.Fatalf("%d live keys gathered into %d groups", n, g.groups)
			}
			if g.and2 != and2 || g.or2 != or2 {
				t.Fatalf("%d live keys, shape %#x: summary AND %#x OR %#x, want %#x and %#x", n, shape, g.and2, g.or2, and2, or2)
			}
			for m := range 4 * g.groups {
				w := m
				if m >= n {
					w = m &^ 3 // padding: the group's first member
				}
				grp := &g.grp[m>>2]
				if got := [3]uint64{grp[0][m&3], grp[1][m&3], grp[2][m&3]}; got != want[w] {
					t.Fatalf("%d live keys, shape %#x: member %d of group %d holds %#x, want live key %d's %#x", n, shape, m&3, m>>2, got, w, want[w])
				}
			}
		}
	}
}

// TestSingleRowCompareIsExact holds a single row's full compare to the probe:
// a key that differs from the resident on two words, each difference alone a
// miss, must leave scan with its bit clear. Under mask {1, 1, 7} the resident
// {0, 1, 7} and the key {1, 0, 7} differ by 1 on word 0 and by 1 on word 1;
// chained left to right, as ^ and | bind alike, the two differences cancel and
// the compare reads zero. The resident's own key beside it carries the row
// past the group cascade, which alone would reject the crossed key on word 0.
func TestSingleRowCompareIsExact(t *testing.T) {
	m := NewMegaflow(MegaflowConfig{FlowLimit: -1})
	var match flow.Match
	match.Mask[0], match.Mask[3], match.Mask[4] = 1, 1, 7
	match.Key[0], match.Key[3], match.Key[4] = 0, 1, 7
	if _, err := m.Insert(match, allow, 1); err != nil {
		t.Fatal(err)
	}
	if !m.subtables[0].single {
		t.Fatal("the one-entry three-word row is not single")
	}
	crossed := match.Key
	crossed[0], crossed[3] = 1, 0
	keys := []flow.Key{match.Key, crossed}
	g := gathered{w: make([][4]uint64, len(keys)), keys: keys, live: 0b11, shape: ^uint32(0)}
	if ri, open := m.scan(0, &g); ri != 0 || open != 0b01 {
		t.Fatalf("scan stopped at row %d with open bits %#b, want row 0 with the resident's bit alone (0b1)", ri, open)
	}
	if _, _, ok := m.Lookup(crossed, 2); ok {
		t.Fatal("the crossed key hit the row")
	}
}

// TestRemoveUnpinsSubtable is the regression test of dropSubtable: shrinking
// the scan order must not leave a copy of the last row behind in the vacated
// slot, where it would pin that subtable (and its entries) after it retires.
func TestRemoveUnpinsSubtable(t *testing.T) {
	m := NewMegaflow(MegaflowConfig{})
	var matches []flow.Match
	for plen := 8; plen <= 32; plen += 8 {
		matches = append(matches, prefixMatch(0x0a000000, plen))
		if _, err := m.Insert(matches[len(matches)-1], allow, 1); err != nil {
			t.Fatal(err)
		}
	}
	for _, match := range matches[:3] {
		if !m.Remove(match) {
			t.Fatalf("Remove(%v) found nothing", match)
		}
		checkScanRows(t, m)
	}
	if m.NumMasks() != 1 {
		t.Fatalf("%d masks left, want 1", m.NumMasks())
	}
}

// TestScanRowLayout pins the sizes the sweep's loads and the attack's memory
// rest on: a row is one cache line; a subtable is 256 bytes, a size class
// that starts it on a line boundary, the sweep's fields in its first line,
// what a key's verification reads (the compiled mask, the wide mask's
// pointer) with the counts and clocks in its second, and its inline first
// entry on the line boundary behind them; and an entry is 128 bytes, exactly
// a size class: its key and no copy of its subtable's mask (dead beside
// Verdict: between the 8-byte fields it costs a 144-byte class).
func TestScanRowLayout(t *testing.T) {
	if got := unsafe.Sizeof(scanRow{}); got != 64 {
		t.Errorf("scanRow is %d bytes, want 64", got)
	}
	if got := unsafe.Sizeof(mfSubtable{}); got != 256 {
		t.Errorf("mfSubtable is %d bytes, want 256", got)
	}
	if off := unsafe.Offsetof(mfSubtable{}.ent0); off != 128 {
		t.Errorf("mfSubtable's inline entry sits at offset %d, want 128, the line boundary behind the compiled mask", off)
	}

	if got := unsafe.Sizeof(Entry{}); got != 128 {
		t.Errorf("Entry is %d bytes, want 128", got)
	}
}

// TestSingleRowFollowsTable takes one mask through every edit of its table
// that changes what its row may claim — one resident, two (the table grows),
// one again on the grown table by Remove and by a maintenance sweep, a
// replaced verdict, and each maintenance pass emptying the mask before it is
// minted again — behind two bystander masks, flat and as a shard child. After
// each step it states which of the keys A and B must hit, at the mask's depth,
// and holds rows and sweep to the invariant and the probe reference: a row
// left single after the second insert would miss B, one left multi after a
// removal would still be right but slow, and checkScanRows rejects both.
func TestSingleRowFollowsTable(t *testing.T) {
	const far = 1 << 40 // the bystanders' clock: never idle, never the stalest
	var mask flow.Mask
	mask.SetExact(flow.FieldInPort)
	mask.SetPrefix(flow.FieldIPSrc, 24)
	mask.SetPrefix(flow.FieldTPDst, 8)
	a, b := flow.Match{Mask: mask}, flow.Match{Mask: mask}
	for _, mk := range []*flow.Match{&a, &b} {
		mk.Key.Set(flow.FieldInPort, 66)
		mk.Key.Set(flow.FieldIPSrc, 0x0a000100)
		mk.Key.Set(flow.FieldTPDst, 0x1200)
	}
	b.Key.Set(flow.FieldIPSrc, 0x0a000200)
	for _, shared := range []bool{false, true} {
		m := NewMegaflow(MegaflowConfig{FlowLimit: -1})
		m.shared = shared
		for _, plen := range []int{8, 16} {
			if _, err := m.Insert(prefixMatch(0xc0000000, plen), allow, far); err != nil {
				t.Fatal(err)
			}
		}
		now := uint64(10)
		insert := func(match flow.Match, v Verdict) func() {
			return func() {
				if _, err := m.Insert(match, v, now); err != nil {
					t.Fatal(err)
				}
			}
		}
		ours := func(ent *Entry) bool { return ent.Match().Mask == mask }
		steps := []struct {
			name       string
			do         func()
			hitA, hitB bool
		}{
			{"insert A", insert(a, allow), true, false},
			{"insert B: two residents, table grown", insert(b, allow), true, true},
			{"remove A: one resident on the grown table", func() { m.Remove(a) }, false, true},
			{"insert A again", insert(a, allow), true, true},
			{"EvictIdle takes A, B was hit later", func() {
				if ent, _, ok := m.Lookup(b.Key, now+5); !ok || ent.Match() != b {
					t.Fatalf("B not resident")
				}
				if n := m.EvictIdle(now + 5); n != 1 {
					t.Fatalf("EvictIdle evicted %d, want 1", n)
				}
			}, false, true},
			{"replace B's verdict", insert(b, deny), false, true},
			{"EvictIdle empties the mask", func() { m.EvictIdle(far) }, false, false},
			{"mint the mask again with A", insert(a, allow), true, false},
			{"Revalidate empties the mask", func() {
				m.Revalidate(func(ent *Entry) (Verdict, bool) { return ent.Verdict, !ours(ent) })
			}, false, false},
			{"mint the mask again with B", insert(b, allow), false, true},
			{"TrimToLimit empties the mask", func() {
				m.SetFlowLimit(2)
				m.TrimToLimit()
				m.SetFlowLimit(-1)
			}, false, false},
			{"mint the mask again with A and B", func() { insert(a, allow)(); insert(b, allow)() }, true, true},
			{"Revalidate takes B", func() {
				m.Revalidate(func(ent *Entry) (Verdict, bool) { return ent.Verdict, ent.Match() != b })
			}, true, false},
		}
		for _, step := range steps {
			now += 10
			step.do()
			checkScanRows(t, m)
			depth := 2 // the bystanders, then the mask while it has a resident
			if step.hitA || step.hitB {
				depth = 3
			}
			if m.NumMasks() != depth {
				t.Fatalf("shared %v, %s: %d masks, want %d", shared, step.name, m.NumMasks(), depth)
			}
			keys := []flow.Key{a.Key, b.Key, a.Key, b.Key}
			keys[2].Set(flow.FieldTPDst, 0x12ff) // inside A's prefix
			keys[3].Set(flow.FieldTPDst, 0x1300) // outside B's
			for i, wantHit := range []bool{step.hitA, step.hitB, step.hitA, false} {
				ent, cost, ok := m.Lookup(keys[i], now)
				if ok != wantHit || cost != depth || ok && !ent.Match().Matches(keys[i]) {
					t.Fatalf("shared %v, %s: key %d hit %v at cost %d (%v), want hit %v at cost %d", shared, step.name, i, ok, cost, ent, wantHit, depth)
				}
			}
			checkBatchAgainstProbes(t, m, keys, func(int) bool { return true }, now+1)
		}
	}
}

// reprobePaths counts, over the re-probes runSweepOps checks on flat-swept
// caches (sorted TSS included), the ones that took the put log, those among
// them with a subtable retired since it was logged, the ones an overflowed log
// sent to the full Lookup, and (in every mode) the ones that hit; over its operations, the removals that
// took a subtable out of the mask index across its wrap (see wrapSide); and,
// over the flat bursts, the rows the third-word summary rejected before the
// burst's first hit (see summaryRejects).
type reprobePaths struct{ short, retired, overflowed, hits, wrapDels, summaryRejects int }

// wrapSide returns the subtables of the mask index's run of occupied slots
// that wraps past the last slot, from the run's head up to that slot: deleting
// any of them shifts the run's tail back across the wrap to slot 0.
func wrapSide(m *Megaflow) []*mfSubtable {
	n := len(m.index)
	if n == 0 || m.index[n-1] == nil || m.index[0] == nil {
		return nil
	}
	var side []*mfSubtable
	for i := n - 1; m.index[i] != nil; i-- { // load <= 1/2: an empty slot ends the walk
		side = append(side, m.index[i])
	}
	return side
}

// runSweepOps interprets ops as a stream of cache operations, three bytes
// each, over a cache configured by mode, and after every one checks the scan
// order's rows and a burst of lookups against the probe reference. Matches
// come from a small pool so inserts collide, replace and re-mint; every third
// burst key covers one, and with mode&4 the key after it is a near miss of a
// resident entry (nearMissOf): on its first words, off on a deeper one. With
// mode&8 a burst then aims at a resident of a three-word mask as a covert
// burst does (sharedDeepWord): every key on its row's first word, all sharing
// one value of its third.
//
// A twin cache takes the same calls. After each burst one to three of the
// stream's next operations run ahead on both, with no LookupBatch in between
// and an insert widened to a run of the pool (into new and resident masks, past
// the put log's cap): the upcall tail of a walk, with anything the revalidator
// or a limit may do inside it. Every key the burst left a miss is then looked
// up again — Reprobe on the cache, Lookup on the twin — and entry, cost and
// counters must agree: trivially in the staged modes, which fall back, by the
// put log in the flat-swept ones, sorted TSS included, whose ranker may run at
// the re-probe's tick.
func runSweepOps(t *testing.T, mode uint8, seed uint64, ops []byte) reprobePaths {
	cfg := MegaflowConfig{FlowLimit: 48}
	switch mode % 4 {
	case 1:
		cfg.SortByHits = true
	case 2:
		cfg.StagedPruning = true
	case 3:
		cfg.MaxMasks, cfg.MaskEvictLRU = 6, true
	}
	m, twin := NewMegaflow(cfg), NewMegaflow(cfg)
	m.seed, twin.seed = seed|1, seed|1
	rng := rand.New(rand.NewSource(int64(seed)))
	pool := make([]flow.Match, 64)
	for i := range pool {
		if cfg.StagedPruning {
			pool[i] = randomNonOverlapMatch(rng) // staged ranking assumes disjoint megaflows
			continue
		}
		pool[i] = flow.Match{Key: randomKey(rng), Mask: wordMask(rng, sweepWordCounts[i%len(sweepWordCounts)])}
		if i%8 == 7 {
			pool[i].Mask = pool[i-1].Mask // a second entry in the same subtable
		}
		pool[i].Normalize()
	}
	var paths reprobePaths
	// apply runs the operation at ops[i:i+3] on c, an insert for run matches of
	// the pool in sequence.
	apply := func(c *Megaflow, i, run int, now uint64) {
		op, a := ops[i], int(ops[i+1])
		switch op % 8 {
		case 0, 1, 2:
			for j := range run {
				c.Insert(pool[(a+j)%len(pool)], Verdict{Verdict: allow.Verdict, OutPort: uint32(ops[i+2] % 3)}, now)
			}
		case 3:
			st, _ := c.subtableOf(&pool[a%len(pool)].Mask)
			side := wrapSide(c)
			c.Remove(pool[a%len(pool)])
			if c == m && st != nil && st.n == 0 && slices.Contains(side, st) {
				paths.wrapDels++ // Remove emptied the subtable and dropped it
			}
		case 4:
			c.EvictIdle(now - uint64(a%16))
		case 5:
			c.SetFlowLimit(8 + a%48)
			c.TrimToLimit()
		case 6:
			c.Revalidate(func(ent *Entry) (Verdict, bool) { return ent.Verdict, ent.Key[3]>>uint(a%8)&1 == 0 })
		case 7:
			if a%4 == 0 {
				c.Flush()
			}
		}
	}
	nOps := len(ops) / 3
	for n := range nOps {
		i := 3 * n
		now := uint64(i + 2)
		apply(m, i, 1, now)
		apply(twin, i, 1, now)
		checkScanRows(t, m)
		if m.Len() != len(m.Entries()) {
			t.Fatalf("Len %d, %d entries resident", m.Len(), len(m.Entries()))
		}
		resident := m.Entries()
		keys := burstOver(rng, resident, 1+int(ops[i+2])%70)
		for j := 0; j < len(keys); j += 3 {
			// What the pool may yet install: a miss now, a hit once it has.
			cover(&keys[j], pool[rng.Intn(len(pool))])
			if mode&4 != 0 && j+1 < len(keys) && len(resident) > 0 {
				keys[j+1] = nearMissOf(keys[j+1], resident[rng.Intn(len(resident))].Match(), j/3)
			}
		}
		if mode&8 != 0 {
			if deep := slices.DeleteFunc(slices.Clone(resident), func(e *Entry) bool { return e.st.nw != 3 }); len(deep) > 0 {
				sharedDeepWord(keys, deep[rng.Intn(len(deep))])
			}
		}
		switch {
		case cfg.StagedPruning:
			// Ranked order and physical costs are the staged sweep's own;
			// what must hold is hit or miss, and the rows after a re-rank.
			ents, costs := make([]*Entry, len(keys)), make([]int, len(keys))
			var miss burst.Bitmap
			miss.Reset(len(keys))
			miss.SetAll()
			m.LookupBatch(keys, now, ents, costs, &miss)
			sweepAll(twin, keys, now) // the LookupBatch m was given
			for j := range keys {
				hit := slices.ContainsFunc(m.subtables, func(row scanRow) bool { return row.st.probe(&keys[j], m.seed) != nil })
				if (ents[j] != nil) != hit || miss.Test(j) == hit {
					t.Fatalf("staged sweep: key %d hit %v, probes say %v", j, ents[j] != nil, hit)
				}
			}
		default:
			// The summary is replayed over the order the sweep took, a rank
			// included; the twin takes the LookupBatch m was given.
			checkBatchAgainstProbes(t, m, keys, func(int) bool { return true }, now)
			sweepAll(twin, keys, now)
			paths.summaryRejects += summaryRejects(m, keys)
		}
		checkScanRows(t, m)

		missed := slices.DeleteFunc(keys, func(k flow.Key) bool {
			return slices.ContainsFunc(m.subtables, func(row scanRow) bool { return row.st.probe(&k, m.seed) != nil })
		})
		for j := range 1 + int(ops[i]>>3)%3 {
			ahead := 3 * ((n + 1 + j) % nOps)
			run := 1 + int(ops[ahead+2])%80
			apply(m, ahead, run, now)
			apply(twin, ahead, run, now)
		}
		checkScanRows(t, m)
		for _, k := range missed {
			short := false
			if flat := !cfg.StagedPruning; flat && len(m.putLog) == putLogCap {
				paths.overflowed++
			} else if flat && len(m.putLog) < len(m.subtables) {
				short = true
				paths.short++
				if slices.ContainsFunc(m.putLog, func(st *mfSubtable) bool { mask := st.mask(); found, _ := m.subtableOf(&mask); return found != st }) {
					paths.retired++
				}
			}
			billed := m.RunBilledScans
			ent, cost, ok := m.Reprobe(k, now+1)
			if ok {
				paths.hits++
			}
			if short {
				billed += uint64(max(cost-len(m.putLog), 0)) // one probe per logged subtable, the rest on credit
			}
			if m.RunBilledScans != billed {
				t.Fatalf("op %d: %d scans billed without a probe, want %d", n, m.RunBilledScans, billed)
			}
			want, wantCost, wantOK := twin.Lookup(k, now+1)
			if ok != wantOK || cost != wantCost || ok && (ent.Match() != want.Match() || ent.Verdict != want.Verdict || ent.Hits != want.Hits || ent.LastHit != want.LastHit) {
				t.Fatalf("op %d: Reprobe = %+v at cost %d (%v), the twin's Lookup = %+v at cost %d (%v); %d subtables logged of %d",
					n, ent, cost, ok, want, wantCost, wantOK, len(m.putLog), len(m.subtables))
			}
			if got, want := countersOf(m), countersOf(twin); got != want {
				t.Fatalf("op %d: counters %+v after Reprobe, %+v after the twin's Lookup", n, got, want)
			}
			if ok && (ent.st.hits != want.st.hits || ent.st.lastHit != want.st.lastHit) {
				t.Fatalf("op %d: subtable credited %d hits, last at %d; the twin's %d, last at %d", n, ent.st.hits, ent.st.lastHit, want.st.hits, want.st.lastHit)
			}
		}
		if len(m.putLog) > putLogCap || cap(m.putLog) > putLogCap {
			t.Fatalf("op %d: put log of %d subtables, capacity %d, over the cap of %d", n, len(m.putLog), cap(m.putLog), putLogCap)
		}
	}
	return paths
}

// The put log's two corners, as streams for runSweepOps. putLogOverflow (mode
// 3): an insert whose look-ahead is a run of 80, each minting under the mask
// cap and evicting for it, with no sweep in between. putLogRetired (mode 0):
// five masks resident, then four minted and one of them removed in one
// look-ahead, so the log is taken with a retired subtable in it.
var (
	putLogOverflow = []byte{0, 1, 9, 0, 2, 79}
	putLogRetired  = []byte{0, 1, 9, 0, 2, 0, 0, 3, 0, 0, 4, 0, 8, 6, 243, 0, 11, 3, 3, 12, 0}
)

// The edges of the gather's groups, as streams for runSweepOps (mode 0; the
// third byte of an operation sizes the burst after it): groupEdges takes bursts
// of 64, 63, 5, 4, 3 and 1 keys — sixteen full groups, a last group of three,
// one group and a padded second, one full, one padded, one key alone — down
// masks of one and three words; groupEdgesCatchAll sweeps 64 and 61 keys
// through one- and three-word masks into the zero-word mask behind them, then
// takes the masks in front of it away.
var (
	groupEdges         = []byte{0, 1, 63, 0, 2, 62, 0, 6, 4, 0, 12, 3, 0, 16, 2, 0, 22, 0}
	groupEdgesCatchAll = []byte{0, 1, 0, 0, 2, 0, 0, 5, 63, 0, 11, 60, 3, 1, 63, 3, 2, 64}
)

// Same-port keys, as streams for runSweepOps (mode 4: near misses): bursts of
// two and five keys, small enough that a near miss is often the only key on
// its row's first word, after each mint of a three-word mask, so a single row's
// third word, or its second and third together, is what rejects it (a scratch
// count: 7 and 2 rows; 5 and 3 with the catch-all). nearMissesCatchAll mints
// the zero-word mask mid-stream, then removes two of the masks before it.
var (
	nearMisses         = []byte{0, 2, 1, 0, 12, 1, 0, 17, 1, 0, 22, 1, 0, 27, 4, 0, 32, 4, 0, 42, 1, 0, 52, 1}
	nearMissesCatchAll = []byte{0, 2, 4, 0, 12, 4, 0, 22, 4, 0, 0, 4, 0, 32, 4, 3, 12, 4, 3, 2, 4, 0, 52, 4}
)

// Covert bursts, as a stream for runSweepOps (mode 12: near misses, then each
// burst aimed at a resident of three words by sharedDeepWord): each insert of
// a three-word mask (its look-ahead a run of three, keeping the catch-all out
// of the pool's window) is followed by a no-op whose burst is 32 keys on one
// row's first word, all sharing its third, so the summary is exact and proves
// that row a miss (a scratch count: 24 rows over the stream's 16 bursts).
var sharedDeepWords = []byte{0, 2, 2, 7, 1, 31, 0, 12, 2, 7, 1, 31, 0, 17, 2, 7, 1, 31, 0, 22, 2, 7, 1, 31,
	0, 27, 2, 7, 1, 31, 0, 32, 2, 7, 1, 31, 0, 42, 2, 7, 1, 31, 0, 52, 2, 7, 1, 31}

// The mask index's wrap, as a stream for runSweepOps (mode 0, seed 32): a run
// of 52 inserts mints 38 masks, growing the index from nothing to 128 slots; a
// trim retires 11 of them, and a flush drops the index; 28 masks minted again
// grow it back to 64 slots, a Remove takes out a subtable whose run wraps past
// the last slot (the backward shift carries its tail across to slot 0), idle
// eviction retires 23 more, and a flush ends it.
var indexWrap = []byte{23, 56, 31, 23, 48, 58, 0, 17, 51, 21, 23, 65, 11, 33, 30, 4, 20, 36, 15, 40, 11}

// sharedDeepWord makes keys a covert burst against the row of ent, an entry of
// a three-word mask: every key covers the row's first word, as a burst shares
// its in-port, and takes keys[0]'s word at the row's third, as a burst shares
// its ports.
func sharedDeepWord(keys []flow.Key, ent *Entry) {
	w0, w2, match := ent.st.widx[0], ent.st.widx[2], ent.Match()
	for j := range keys {
		keys[j][w0] = match.Key[w0] | keys[j][w0]&^match.Mask[w0]
		keys[j][w2] = keys[0][w2]
	}
}

// nearMissOf returns k covering match but one bit off it in the last of the
// mask's significant words (d even) or the one before (d odd): a key on the
// match's first words — its in-port — that fails it on one deeper word alone.
// Under the catch-all it covers it.
func nearMissOf(k flow.Key, match flow.Match, d int) flow.Key {
	cover(&k, match)
	var sig []int
	for w, bits := range match.Mask {
		if bits != 0 {
			sig = append(sig, w)
		}
	}
	if len(sig) > 0 {
		w := sig[max(len(sig)-1-d%2, 0)]
		k[w] ^= match.Mask[w] & -match.Mask[w]
	}
	return k
}

// FuzzMegaflowSweep feeds arbitrary operation streams, cache modes (flat,
// sorted TSS, staged pruning, mask-cap LRU eviction; each with or without near
// misses) and hash seeds to runSweepOps.
func FuzzMegaflowSweep(f *testing.F) {
	f.Add(uint8(0), uint64(1), []byte("insert, insert, remove; trim and look again"))
	f.Add(uint8(1), uint64(2), []byte{0, 1, 9, 0, 2, 9, 1, 3, 9, 0, 9, 70, 2, 17, 3, 3, 1, 0, 0, 1, 1})
	f.Add(uint8(2), uint64(3), []byte{0, 1, 9, 1, 2, 9, 2, 3, 9, 4, 2, 9, 0, 5, 40, 5, 6, 7, 6, 3, 1, 7, 4, 2})
	f.Add(uint8(3), ^uint64(0), []byte{0, 0, 1, 0, 1, 1, 0, 2, 1, 0, 3, 1, 0, 4, 1, 0, 5, 1, 0, 6, 1, 0, 8, 1, 0, 9, 65})
	f.Add(uint8(3), uint64(5), putLogOverflow)
	f.Add(uint8(0), uint64(2), putLogRetired)
	f.Add(uint8(0), uint64(6), groupEdges)
	f.Add(uint8(0), uint64(7), groupEdgesCatchAll)
	f.Add(uint8(4), uint64(8), nearMisses)
	f.Add(uint8(4), uint64(9), nearMissesCatchAll)
	f.Add(uint8(12), uint64(14), sharedDeepWords)
	f.Add(uint8(0), uint64(32), indexWrap)
	f.Fuzz(func(t *testing.T, mode uint8, seed uint64, ops []byte) { runSweepOps(t, mode, seed, ops) })
}

// TestSweepSeedsReachPutLog holds the two put-log seeds of the fuzz corpus to
// what they are there for.
func TestSweepSeedsReachPutLog(t *testing.T) {
	if p := runSweepOps(t, 3, 5, putLogOverflow); p.overflowed == 0 {
		t.Errorf("putLogOverflow: %+v, no re-probe past an overflowed log", p)
	}
	if p := runSweepOps(t, 0, 2, putLogRetired); p.retired == 0 {
		t.Errorf("putLogRetired: %+v, no re-probe by a log holding a retired subtable", p)
	}
}

// TestSweepSeedReachesIndexWrap holds the mask index's seed of the fuzz
// corpus to what it is there for.
func TestSweepSeedReachesIndexWrap(t *testing.T) {
	if p := runSweepOps(t, 0, 32, indexWrap); p.wrapDels == 0 {
		t.Errorf("indexWrap: %+v, no removal across the mask index's wrap", p)
	}
}

// TestSweepSeedReachesSharedDeepWords holds the covert-burst seed of the fuzz
// corpus to what it is there for: the third-word summary, replayed test-side,
// proves at least one row a miss per burst.
func TestSweepSeedReachesSharedDeepWords(t *testing.T) {
	if p := runSweepOps(t, 12, 14, sharedDeepWords); p.summaryRejects < len(sharedDeepWords)/3 {
		t.Errorf("sharedDeepWords: %+v, the summary rejects %d rows over %d bursts", p, p.summaryRejects, len(sharedDeepWords)/3)
	}
}

// TestSweepOps runs the fuzz interpreter over random streams in every mode,
// with and without near misses, so the maintenance paths are cross-checked
// without the fuzzer — and the put log's re-probes with them, which the streams
// must really reach: by the log, past a subtable retired since it was logged,
// and past an overflow. Covert-burst trials follow, every mode over every
// seed, and the third-word summary must prove rows misses in them.
func TestSweepOps(t *testing.T) {
	rng := rand.New(rand.NewSource(16))
	var paths reprobePaths
	for mode := uint8(0); mode < 8; mode++ {
		for trial := 0; trial < 30; trial++ {
			ops := make([]byte, 3*(10+rng.Intn(120)))
			rng.Read(ops)
			p := runSweepOps(t, mode, boundSeeds[trial%len(boundSeeds)], ops)
			paths.short += p.short
			paths.retired += p.retired
			paths.overflowed += p.overflowed
			paths.hits += p.hits
		}
	}
	if paths.short < 100 || paths.retired < 10 || paths.overflowed < 10 || paths.hits < 100 {
		t.Errorf("re-probes checked: %+v — the streams no longer reach the put log", paths)
	}
	covert := rand.New(rand.NewSource(17))
	rejects := 0
	for mode := uint8(8); mode < 16; mode++ {
		for _, seed := range boundSeeds {
			ops := make([]byte, 3*(10+covert.Intn(120)))
			covert.Read(ops)
			rejects += runSweepOps(t, mode, seed, ops).summaryRejects
		}
	}
	if rejects < 100 {
		t.Errorf("%d rows proved misses by the third-word summary — the covert bursts no longer reach it", rejects)
	}
}

// TestShardedChildConcurrentSweep runs the sweep the way a shard child's
// readers do: several goroutines in LookupBatch together under the read
// lock — each on its own stack scratch, all crediting atomically — while a
// writer mints subtables and grows tables under the write lock. Entries
// installed before the readers start must be found by every sweep. Run
// under -race.
func TestShardedChildConcurrentSweep(t *testing.T) {
	const readers, stable, bursts = 4, 48, 60
	m := NewMegaflow(MegaflowConfig{FlowLimit: -1})
	m.shared = true
	var mu sync.RWMutex
	rng := rand.New(rand.NewSource(7))
	keys := make([]flow.Key, stable)
	for i := range keys {
		match := flow.Match{Key: randomKey(rng), Mask: wordMask(rng, sweepWordCounts[1+i%4])}
		if _, err := m.Insert(match, allow, 1); err != nil {
			t.Fatal(err)
		}
		keys[i] = match.Key
	}
	grown := m.subtables[0].st.mask()
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		wrng := rand.New(rand.NewSource(8))
		for i := 0; i < 400; i++ {
			match := flow.Match{Key: randomKey(wrng), Mask: wordMask(wrng, sweepWordCounts[1+i%4])}
			if i%3 == 0 {
				match.Mask = grown // grow one table past its inline slots
			}
			mu.Lock()
			_, err := m.Insert(match, allow, uint64(2+i))
			mu.Unlock()
			if err != nil {
				t.Error(err)
				return
			}
		}
	}()
	for r := 0; r < readers; r++ {
		wg.Add(1)
		go func(r int) {
			defer wg.Done()
			rrng := rand.New(rand.NewSource(int64(9 + r)))
			burstKeys := make([]flow.Key, 70)
			ents, costs := make([]*Entry, len(burstKeys)), make([]int, len(burstKeys))
			var miss burst.Bitmap
			for i := 0; i < bursts; i++ {
				for j := range burstKeys {
					burstKeys[j] = keys[rrng.Intn(stable)]
					if j%5 == 4 {
						burstKeys[j] = randomKey(rrng)
					}
					ents[j], costs[j] = nil, 0
				}
				miss.Reset(len(burstKeys))
				miss.SetAll()
				mu.RLock()
				m.LookupBatch(burstKeys, uint64(2+i), ents, costs, &miss)
				mu.RUnlock()
				for j, ent := range ents {
					if j%5 != 4 && (ent == nil || !ent.Match().Matches(burstKeys[j])) {
						t.Errorf("reader %d burst %d: resident key %d found %v", r, i, j, ent)
						return
					}
				}
			}
		}(r)
	}
	wg.Wait()
	checkScanRows(t, m)
}
