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

// mfSubtable is one megaflow subtable: every resident entry shares mask.
// The mask is compiled at mint time into the indices of its significant
// (non-zero) words — OVS's minimask — so a probe hashes and compares only
// those, never the whole ten-word key. Entries sit in a flat power-of-two
// table with linear probing, grown at load 1/2, deleted by backward shift
// (no tombstones, so a miss always ends at the first empty slot).
//
// The fields a sweep reads lead the struct, in its first two cache lines:
// a staged sweep, which prunes most subtables on their staged state alone,
// reads one pointer; a flat miss in a singleton subtable reads the table
// header, the word indices, both slot hashes, the seed and the mask words.
// (With the staged pointer in the third line the staged attack took 17 %
// longer to set up.)
type mfSubtable struct {
	staged *stagedState      // staged-lookup/pruning state; nil unless StagedPruning
	slots  []mfSlot          // len is a power of two, >= 2*n
	nw     uint8             // number of significant mask words
	widx   [flow.Words]uint8 // their Key word indices, ascending; zero past nw
	first  [minSlots]mfSlot  // backing store of slots until the first grow
	seed   uint64            // probe-hash secret, odd; tableSeed outside tests
	mask   flow.Mask
	n      int // resident entries

	hits    uint64 // for sorted TSS
	lastHit uint64 // for LRU mask eviction
}

// tableSeed is the secret every subtable's probe hash starts from and
// multiplies by: a random odd number (a regular one — 1, -1, a power of
// two — would not mix), drawn once per process as the seed of the Go map
// this table replaces was. Whoever owns a mask chooses the keys inside its
// subtable, and against a public hash could search offline for entries
// that all share one home slot: a single run of N slots that every insert,
// and every probe homed inside it, has to walk. Slot placement feeds no
// result (a subtable's residents were walked in random map order before),
// so runs stay byte-identical per scenario seed.
var tableSeed = func() uint64 {
	var b [8]byte
	rand.Read(b[:])
	return binary.LittleEndian.Uint64(b[:]) | 1
}()

// mix is the probe hash's own word mixer: the full 128-bit product with
// the odd seed, halves xored together.
func mix(x, seed uint64) uint64 {
	hi, lo := bits.Mul64(x, seed)
	return hi ^ lo
}

// newSubtable mints an empty subtable for mask.
func newSubtable(mask flow.Mask, now uint64) *mfSubtable {
	st := &mfSubtable{mask: mask, seed: tableSeed, lastHit: now}
	for i, w := range mask {
		if w != 0 {
			st.widx[st.nw] = uint8(i)
			st.nw++
		}
	}
	st.slots = st.first[:]
	return st
}

// find is the one lookup body every sweep, insert and delete runs: it
// returns the index of the slot holding the entry that matches k under
// the subtable's mask, or -1, and k's probe hash.
//
// The hash folds the masked significant words of k through mix, then
// mixes once more so the last word, too, passes two secret multiplies:
// with one, keys in arithmetic progression cluster under an unlucky seed
// and keys crafted against a guessed seed stay correlated under the real
// one (TestSubtableCraftedCollisions). The first three rounds are unrolled
// and always run — past nw they fold masked word 0 in again (widx is zero
// there), which costs a multiply and saves the loop for the one-to-three-
// word masks that prefix ACLs over in_port, addresses and ports compile
// to. A catch-all mask hashes every key alike.
//
// The table walk takes two slots a step and confirms an equal stored hash
// by comparing the significant words with the entry's (normalised) match
// key. On a miss neither hash compare is ever true and, at load <= 1/2,
// the pair nearly always holds an empty slot (always, in a singleton
// subtable), so the sweep's common path is three well-predicted branches;
// testing one slot at a time would branch on whether the key's home slot
// happens to be the occupied one. Each of the two shortcuts was measured
// on its own against `for j < nw` and a one-slot walk on attack8192_flat:
// the unrolled rounds are worth 10-13 % of pkt_ns_p02, the paired walk
// 18-21 %, with or without the other (CHANGES.md, PR 13). Reads only, so
// any number of readers may search one subtable concurrently while no
// writer runs.
func (st *mfSubtable) find(k *flow.Key) (int, uint64) {
	w0, w1, w2 := st.widx[0], st.widx[1], st.widx[2]
	seed := st.seed
	h := mix(seed^k[w0]&st.mask[w0], seed)
	h = mix(h^k[w1]&st.mask[w1], seed)
	h = mix(h^k[w2]&st.mask[w2], seed)
	for j := 3; j < int(st.nw); j++ {
		w := st.widx[j]
		h = mix(h^k[w]&st.mask[w], seed)
	}
	h = mix(h, seed)
	h |= slotUsed
	slots := st.slots
	m := uint64(len(slots) - 1)
	for i := h & m; ; i = (i + 2) & m {
		j := (i + 1) & m
		s0, s1 := &slots[i], &slots[j]
		if s0.hash == h && st.matches(k, s0.ent) {
			return int(i), h
		}
		if s1.hash == h && st.matches(k, s1.ent) {
			return int(j), h
		}
		if int64(s0.hash&s1.hash) >= 0 {
			return -1, h // an empty slot ends the run
		}
	}
}

// probe returns the resident entry matching k under the subtable's mask,
// or nil.
func (st *mfSubtable) probe(k *flow.Key) *Entry {
	if i, _ := st.find(k); i >= 0 {
		return st.slots[i].ent
	}
	return nil
}

// matches reports whether k agrees with ent's masked key on every
// significant word.
func (st *mfSubtable) matches(k *flow.Key, ent *Entry) bool {
	for _, w := range st.widx[:st.nw] {
		if k[w]&st.mask[w] != ent.Match.Key[w] {
			return false
		}
	}
	return true
}

// put adds ent, whose masked key find reported absent with probe hash h.
func (st *mfSubtable) put(ent *Entry, h uint64) {
	if 2*(st.n+1) > len(st.slots) {
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
func (st *mfSubtable) del(ent *Entry) {
	if i, _ := st.find(&ent.Match.Key); i >= 0 {
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
