package cache

import (
	"crypto/rand"
	"encoding/binary"
	"math/bits"

	"policyinject/internal/flow"
)

// mfSlot is one slot of a subtable's open-addressed table: the probe hash
// of the resident entry's masked key, and the entry. Every probe hash has
// slotUsed set, so hash == 0 (and ent == nil) marks an empty slot and the
// hash column alone says where a run of occupied slots ends.
type mfSlot struct {
	hash uint64
	ent  *Entry
}

// slotUsed is the bit forced into every probe hash (the home slot comes
// from the low bits).
const slotUsed uint64 = 1 << 63

// minSlots is the table size a subtable is minted with: room for the one
// entry nearly every attack-minted subtable ever holds, at load 1/2.
const minSlots = 2

// mfSubtable is one megaflow subtable: every resident entry shares its mask.
// The mask is compiled at mint time into its first three significant
// (non-zero) words and their indices — OVS's minimask — so a probe hashes and
// compares only those, never the whole ten-word key, and the subtable keeps
// no more of the mask than that unless the mask has more than three
// significant words: then a whole copy sits out of line, behind wide.
// Entries sit in a flat power-of-two table with linear probing, grown at load
// 1/2, deleted by backward shift (no tombstones, so a miss always ends at the
// first empty slot).
//
// What a sweep reads fills the first cache line (the 256-byte size class
// starts a subtable on a line boundary): a staged sweep, which prunes most
// subtables on their staged state alone, reads one pointer (in the third
// line it cost the staged attack 17 % of its setup time); a flat sweep, with
// the mask words in its scanRow, reads the table header and, in a two-slot
// table, both slot hashes — and nothing at all of a subtable whose row is
// single. What verifying a key reads, the compiled mask and the wide mask's
// pointer, fills the second line with the counts and the clocks
// (TestScanRowLayout): an SMC hit reads one line of its subtable, and a wide
// mask one pointer away.
//
// ent0, the subtable's first entry, starts on the line boundary behind them,
// at offset 128, so a minted mask is one allocation, not a subtable and an
// entry. Only the first insert takes it (ent0.st is set from then on), and a
// retired ent0 is never reused: an EMC or SMC slot may still hold it, and
// only dead retires it there.
type mfSubtable struct {
	staged *stagedState     // staged-lookup/pruning state; nil unless StagedPruning
	slots  []mfSlot         // len is a power of two, >= 2*n
	first  [minSlots]mfSlot // backing store of slots until the first grow

	wide    *flow.Mask // the whole mask if it has more than three significant words; else nil
	mw      [3]uint64  // mask[widx[j]]: past nw, mask word 0 again
	hits    uint64     // since the last rank (Megaflow.rank)
	lastHit uint64     // for LRU mask eviction on an unranked scan
	n       int32      // resident entries
	mhash   uint32     // maskHash of the mask under Megaflow.seed: its home in the mask index
	pos     uint32     // index of the subtable's row in Megaflow.subtables
	nw      uint8      // number of significant mask words
	widx    [3]uint8   // the Key word indices of the first three, ascending; zero past nw

	ent0 Entry // the first entry inserted, resident or retired (see above)
}

// scanRow is one position of a Megaflow's scan order, by value and one cache
// line long: what the flat sweep needs of the subtable there to decide a
// visit. With single set the row decides it alone — the subtable holds one
// entry under a mask of at most three words, ew is that entry's (normalised)
// key under mw, and key&mw == ew is the probe, exactly: three compares, no
// hash, nothing of the subtable loaded. Otherwise the row carries what the
// probe hash needs and a miss reads the row and the subtable's first line.
//
// A row is a copy, so it follows its subtable: only row builds one, and
// Megaflow.syncRow rewrites it after every edit of the subtable's table.
type scanRow struct {
	mw     [3]uint64 // st.mw
	ew     [3]uint64 // single: the lone resident's Key[st.widx[j]]; else zero
	st     *mfSubtable
	shape  uint32 // st.widx[0..2], the key words mw selects, a byte each
	nw     uint8
	single bool // st.n == 1 && st.nw <= 3
}

// row compiles the subtable's row from its compiled mask and, for single,
// its one resident. Past nw, widx is zero: mw repeats mask word 0 and ew the
// entry's key word 0, which the entry's normalisation makes the same compare
// again (or 0 == 0 under a mask without word 0), so the three compares are
// exact for one- and two-word masks and the catch-all too.
func (st *mfSubtable) row() scanRow {
	w := st.widx
	r := scanRow{
		mw:    st.mw,
		st:    st,
		shape: uint32(w[0]) | uint32(w[1])<<8 | uint32(w[2])<<16,
		nw:    st.nw,
	}
	if st.n == 1 && st.nw <= 3 {
		for ent := range st.residents {
			k := &ent.Key
			r.ew, r.single = [3]uint64{k[w[0]], k[w[1]], k[w[2]]}, true
			break
		}
	}
	return r
}

// tableSeed is the secret every Megaflow's probe hash starts from and
// multiplies by: a random odd number (a regular one — 1, -1, a power of
// two — would not mix), drawn once per process as the seed of the Go map
// this table replaces was. Whoever owns a mask chooses the keys inside its
// subtable, and against a public hash could search offline for entries
// that all share one home slot: a single run of N slots that every insert,
// and every probe homed inside it, has to walk. Slot placement feeds no
// result (a subtable's residents were walked in random map order before),
// so runs stay byte-identical per scenario seed. The EMC homes its index
// words by the same secret (see EMC).
var tableSeed = func() uint64 {
	var b [8]byte
	rand.Read(b[:])
	return binary.LittleEndian.Uint64(b[:]) | 1
}()

// newSubtable mints an empty subtable for mask.
func newSubtable(mask flow.Mask, now uint64) *mfSubtable {
	st := &mfSubtable{lastHit: now}
	for i, w := range mask {
		if w != 0 {
			if st.nw < 3 {
				st.widx[st.nw] = uint8(i)
			}
			st.nw++
		}
	}
	st.mw = [3]uint64{mask[st.widx[0]], mask[st.widx[1]], mask[st.widx[2]]}
	if st.nw > 3 {
		st.wide = new(flow.Mask)
		*st.wide = mask
	}
	st.slots = st.first[:]
	return st
}

// mask returns the subtable's whole mask: the wide copy, or rebuilt from
// the compiled words.
func (st *mfSubtable) mask() flow.Mask {
	if st.wide != nil {
		return *st.wide
	}
	var m flow.Mask
	for j, w := range st.widx[:st.nw] {
		m[w] = st.mw[j]
	}
	return m
}

// probeHash is the one probe hash, inlined into find and into the flat
// sweep's scan: a, b and c are the key's first three significant words,
// masked (find reads them through widx and mw, scan from its gather and
// the scanRow); a mask of more than three words folds in kb, the key's words
// behind the third, each under its word of mb, the same words of the whole
// mask (both nil for the others).
//
// Each round xors a masked word in and takes the full 128-bit product with
// the odd seed, halves xored together; one more round closes, so the last
// word, too, passes two secret multiplies: with one, keys in arithmetic
// progression cluster under an unlucky seed and keys crafted against a
// guessed seed stay correlated under the real one
// (TestSubtableCraftedCollisions). The first three rounds always run — past
// nw they fold masked word 0 in again (widx is zero there), which costs a
// multiply and saves the loop for the one-to-three-word masks that prefix
// ACLs compile to (10-13 % of attack8192_flat's pkt_ns_p02; CHANGES.md,
// PR 13). A catch-all mask hashes every key alike.
//
// Behind the third, the words the mask leaves out fold in as zeros: a fixed
// loop, where skipping them would branch on the mask.
func probeHash(seed, a, b, c uint64, kb, mb []uint64) uint64 {
	hi, lo := bits.Mul64(seed^a, seed)
	hi, lo = bits.Mul64(hi^lo^b, seed)
	hi, lo = bits.Mul64(hi^lo^c, seed)
	for i, m := range mb {
		hi, lo = bits.Mul64(hi^lo^kb[i]&m, seed)
	}
	hi, lo = bits.Mul64(hi^lo, seed)
	return hi ^ lo | slotUsed
}

// maskHash is the hash the mask index homes a mask by: probeHash's rounds
// over all ten words of the mask, then the closing one, under the same seed,
// folded to the 32 bits a subtable keeps (mhash).
func maskHash(seed uint64, mask *flow.Mask) uint32 {
	hi, lo := uint64(0), seed
	for _, w := range mask {
		hi, lo = bits.Mul64(hi^lo^w, seed)
	}
	hi, lo = bits.Mul64(hi^lo, seed)
	return uint32(hi ^ lo)
}

// find returns the index of the slot holding the entry that matches k under
// the subtable's mask, or -1, and k's probe hash under seed. Reads only, so
// any number of readers may search one subtable while no writer runs.
func (st *mfSubtable) find(k *flow.Key, seed uint64) (int, uint64) {
	w0, w1, w2 := st.widx[0], st.widx[1], st.widx[2]
	var kb, mb []uint64
	if st.wide != nil {
		kb, mb = k[w2+1:], st.wide[w2+1:]
	}
	h := probeHash(seed, k[w0]&st.mw[0], k[w1]&st.mw[1], k[w2]&st.mw[2], kb, mb)
	return st.walk(k, h), h
}

// walk returns the slot of the entry matching k, whose probe hash is h, or
// -1. It takes two slots a step and confirms an equal stored hash against
// the entry's (normalised) match key. On a miss no hash is equal and, at
// load <= 1/2, the first pair nearly always holds an empty slot (always, in
// a singleton subtable): three well-predicted branches, which scan takes
// inline; one slot at a time would branch on whether the key's home slot is
// the occupied one (18-21 % of attack8192_flat's pkt_ns_p02; PR 13).
func (st *mfSubtable) walk(k *flow.Key, h uint64) int {
	slots := st.slots
	m := uint64(len(slots) - 1)
	for i := h & m; ; i = (i + 2) & m {
		j := (i + 1) & m
		s0, s1 := &slots[i], &slots[j]
		if s0.hash == h && st.matches(k, s0.ent) {
			return int(i)
		}
		if s1.hash == h && st.matches(k, s1.ent) {
			return int(j)
		}
		if int64(s0.hash&s1.hash) >= 0 {
			return -1 // an empty slot ends the run
		}
	}
}

// probe returns the resident entry matching k under the subtable's mask,
// or nil.
func (st *mfSubtable) probe(k *flow.Key, seed uint64) *Entry {
	if i, _ := st.find(k, seed); i >= 0 {
		return st.slots[i].ent
	}
	return nil
}

// matches reports whether k agrees with ent's masked key on every
// significant word: the three compares row explains and, under a mask of more
// than three words, all ten under the whole mask, in a fixed loop.
func (st *mfSubtable) matches(k *flow.Key, ent *Entry) bool {
	e, w := &ent.Key, &st.widx
	if (k[w[0]]&st.mw[0]^e[w[0]])|(k[w[1]]&st.mw[1]^e[w[1]])|(k[w[2]]&st.mw[2]^e[w[2]]) != 0 {
		return false
	}
	if m := st.wide; m != nil {
		for i := range m {
			if k[i]&m[i] != e[i] {
				return false
			}
		}
	}
	return true
}

// put adds ent, whose masked key find reported absent with probe hash h.
func (st *mfSubtable) put(ent *Entry, h uint64) {
	if 2*(int(st.n)+1) > len(st.slots) {
		old := st.slots
		st.slots = make([]mfSlot, 2*len(old))
		for _, s := range old {
			if s.ent != nil {
				st.place(s)
			}
		}
		clear(old) // old may be st.first: do not pin retired entries
	}
	st.place(mfSlot{h, ent})
	st.n++
}

// place stores s in the first empty slot at or after its home.
func (st *mfSubtable) place(s mfSlot) {
	m := uint64(len(st.slots) - 1)
	i := s.hash & m
	for st.slots[i].ent != nil {
		i = (i + 1) & m
	}
	st.slots[i] = s
}

// del removes the resident entry ent.
func (st *mfSubtable) del(ent *Entry, seed uint64) {
	if i, _ := st.find(&ent.Key, seed); i >= 0 {
		st.delAt(uint64(i))
	}
}

// delAt empties slot i and closes the gap by backward shift: each later
// slot of the same run moves back into the hole unless that would put it
// before its home slot.
func (st *mfSubtable) delAt(i uint64) {
	m := uint64(len(st.slots) - 1)
	st.n--
	for j := i; ; {
		j = (j + 1) & m
		s := st.slots[j]
		if s.ent == nil {
			st.slots[i] = mfSlot{}
			return
		}
		if (j-s.hash)&m >= (j-i)&m {
			st.slots[i] = s
			i = j
		}
	}
}

// residents calls yield for every resident entry, in slot order, until it
// returns false. The table must not change during the walk.
func (st *mfSubtable) residents(yield func(*Entry) bool) {
	for i := range st.slots {
		if ent := st.slots[i].ent; ent != nil && !yield(ent) {
			return
		}
	}
}

// sweep visits every resident entry exactly once and removes those drop
// returns true for — the walk the maintenance passes (idle expiry,
// revalidation, subtable eviction) share. It starts behind an empty slot,
// so no run of occupied slots wraps past the starting point and a
// backward shift only ever pulls not-yet-visited entries into the slot
// being looked at.
func (st *mfSubtable) sweep(drop func(*Entry) bool) {
	m := uint64(len(st.slots) - 1)
	start := uint64(0)
	for st.slots[start].ent != nil {
		start++
	}
	for off := uint64(1); off <= m; {
		i := (start + off) & m
		if ent := st.slots[i].ent; ent != nil && drop(ent) {
			st.delAt(i)
			continue
		}
		off++
	}
}
