package trie

import (
	"cmp"
	"encoding/binary"
	"math/rand"
	"slices"
	"testing"
	"testing/quick"
)

func TestInsertLookupExact(t *testing.T) {
	tr := New(8)
	tr.Insert(0x0a, 8) // 00001010 — the paper's first-octet example

	r := tr.Lookup(0x0a, 8)
	if !r.CanMatch || r.CheckBits != 8 {
		t.Fatalf("exact value: %+v", r)
	}
}

// TestFig2bDivergenceDepths verifies the exact divergence behaviour behind
// paper Fig. 2b: with the single stored prefix 00001010/8, a probe value
// diverging first at bit position i (0-based) must be rejected after
// examining exactly i+1 bits.
func TestFig2bDivergenceDepths(t *testing.T) {
	tr := New(8)
	tr.Insert(0x0a, 8) // 00001010

	cases := []struct {
		value     uint64
		wantBits  int
		wantMatch bool
	}{
		{0x80, 1, false}, // 1******* diverges at bit 0
		{0x40, 2, false}, // 01******
		{0x20, 3, false}, // 001*****
		{0x10, 4, false}, // 0001****
		{0x00, 5, false}, // 00000*** (allow value has 1 at bit 4)
		{0x0c, 6, false}, // 000011**
		{0x08, 7, false}, // 0000100*
		{0x0b, 8, false}, // 00001011 — full examination, still a miss
		{0x0a, 8, true},  // the allow value itself
	}
	for _, c := range cases {
		r := tr.Lookup(c.value, 8)
		if r.CanMatch != c.wantMatch || r.CheckBits != c.wantBits {
			t.Errorf("Lookup(%#08b): got %+v, want CanMatch=%v CheckBits=%d",
				c.value, r, c.wantMatch, c.wantBits)
		}
	}
}

func TestLookupShorterPlen(t *testing.T) {
	tr := New(32)
	tr.Insert(0x0a000000, 8) // 10.0.0.0/8
	// A /8 query for any 10.x address matches after 8 bits.
	r := tr.Lookup(0x0a636363, 8)
	if !r.CanMatch || r.CheckBits != 8 {
		t.Fatalf("10.99.99.99 vs 10/8: %+v", r)
	}
	// A /16 query walks past the stored terminal and falls off at bit 8.
	r = tr.Lookup(0x0a636363, 16)
	if r.CanMatch || r.CheckBits != 9 {
		t.Fatalf("/16 query over /8 store: %+v", r)
	}
}

func TestLookupPlenZero(t *testing.T) {
	tr := New(16)
	r := tr.Lookup(0x1234, 0)
	if r.CanMatch || r.CheckBits != 0 {
		t.Fatalf("empty trie, plen 0: %+v", r)
	}
	tr.Insert(0, 0) // catch-all prefix
	r = tr.Lookup(0x1234, 0)
	if !r.CanMatch || r.CheckBits != 0 {
		t.Fatalf("catch-all prefix: %+v", r)
	}
}

func TestRemovePrunes(t *testing.T) {
	tr := New(32)
	tr.Insert(0x0a000000, 8)
	tr.Insert(0x0a010000, 16)
	if tr.Len() != 2 {
		t.Fatalf("Len = %d", tr.Len())
	}
	if !tr.Remove(0x0a010000, 16) {
		t.Fatal("Remove /16 failed")
	}
	// The /8 must be intact, and lookups beyond it must now diverge at 9.
	if r := tr.Lookup(0x0a010000, 8); !r.CanMatch {
		t.Fatal("/8 lost after removing /16")
	}
	if r := tr.Lookup(0x0a010000, 16); r.CanMatch || r.CheckBits != 9 {
		t.Fatalf("pruning left stale path: %+v", r)
	}
	if tr.Remove(0x0a010000, 16) {
		t.Fatal("Remove of absent prefix reported success")
	}
}

func TestRefcounting(t *testing.T) {
	tr := New(16)
	tr.Insert(0xabcd, 16)
	tr.Insert(0xabcd, 16)
	if !tr.Remove(0xabcd, 16) {
		t.Fatal("first remove failed")
	}
	if r := tr.Lookup(0xabcd, 16); !r.CanMatch {
		t.Fatal("prefix vanished while still referenced")
	}
	if !tr.Remove(0xabcd, 16) {
		t.Fatal("second remove failed")
	}
	if r := tr.Lookup(0xabcd, 16); r.CanMatch {
		t.Fatal("prefix survived final remove")
	}
}

func TestIgnoresBitsBelowPrefix(t *testing.T) {
	tr := New(32)
	tr.Insert(0x0affffff, 8) // junk below /8 must be ignored
	r := tr.Lookup(0x0a000001, 8)
	if !r.CanMatch {
		t.Fatalf("low bits of inserted value leaked into trie: %+v", r)
	}
}

func TestNewPanicsOnBadWidth(t *testing.T) {
	for _, w := range []int{0, -1, 65} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("New(%d) did not panic", w)
				}
			}()
			New(w)
		}()
	}
}

func TestLookupPanicsOnBadPlen(t *testing.T) {
	tr := New(8)
	defer func() {
		if recover() == nil {
			t.Fatal("Lookup with plen > width did not panic")
		}
	}()
	tr.Lookup(0, 9)
}

func TestPrefixesEnumeration(t *testing.T) {
	tr := New(8)
	tr.Insert(0x0a, 8)
	tr.Insert(0x0a, 8)
	tr.Insert(0x80, 1)
	ps := tr.Prefixes()
	if len(ps) != 2 {
		t.Fatalf("Prefixes() = %v", ps)
	}
	// Lexicographic: 00001010/8 before 1/1.
	if ps[0].Value != 0x0a || ps[0].Len != 8 || ps[0].Count != 2 {
		t.Errorf("first prefix: %+v", ps[0])
	}
	if ps[1].Value != 0x80 || ps[1].Len != 1 || ps[1].Count != 1 {
		t.Errorf("second prefix: %+v", ps[1])
	}
}

// reference is a naive prefix store used to cross-check the trie.
type reference struct {
	width    int
	prefixes []Prefix
}

func (r *reference) insert(v uint64, plen int) {
	v = topBits(v, plen, r.width)
	for i := range r.prefixes {
		if r.prefixes[i].Value == v && r.prefixes[i].Len == plen {
			r.prefixes[i].Count++
			return
		}
	}
	r.prefixes = append(r.prefixes, Prefix{Value: v, Len: plen, Count: 1})
}

// remove drops one reference to the plen-bit prefix of v, reporting whether
// it was stored.
func (r *reference) remove(v uint64, plen int) bool {
	v = topBits(v, plen, r.width)
	for j := range r.prefixes {
		if r.prefixes[j].Value == v && r.prefixes[j].Len == plen {
			if r.prefixes[j].Count--; r.prefixes[j].Count == 0 {
				r.prefixes = append(r.prefixes[:j], r.prefixes[j+1:]...)
			}
			return true
		}
	}
	return false
}

func topBits(v uint64, plen, width int) uint64 {
	if plen == 0 {
		return 0
	}
	keep := ^uint64(0) << uint(width-plen)
	if width < 64 {
		keep &= (1 << uint(width)) - 1
	}
	return v & keep
}

func (r *reference) lookup(v uint64, plen int) Result {
	// CanMatch: some stored prefix with Len == plen agrees on plen bits.
	for _, p := range r.prefixes {
		if p.Len == plen && topBits(v, plen, r.width) == p.Value {
			return Result{CanMatch: true, CheckBits: plen}
		}
	}
	// CheckBits: 1 + length of the longest stored-prefix path v follows,
	// capped at plen. Equivalently the first depth d where no stored
	// prefix agrees with v on d+1 leading bits (prefixes shorter than d+1
	// agree only if their whole length agrees and they extend... the trie
	// path exists wherever any stored prefix shares that many leading
	// bits).
	d := 0
	for d < plen {
		any := false
		for _, p := range r.prefixes {
			if p.Len >= d+1 && topBits(v, d+1, r.width) == topBits(p.Value, d+1, r.width) {
				any = true
				break
			}
		}
		if !any {
			return Result{CanMatch: false, CheckBits: d + 1}
		}
		d++
	}
	return Result{CanMatch: false, CheckBits: plen}
}

// TestTrieMatchesReference drives random insert/remove/lookup traffic and
// cross-checks every lookup against the naive reference store.
func TestTrieMatchesReference(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	const width = 16
	tr := New(width)
	ref := &reference{width: width}

	type stored struct {
		v    uint64
		plen int
	}
	var live []stored

	for step := 0; step < 5000; step++ {
		switch op := rng.Intn(10); {
		case op < 4: // insert
			v := rng.Uint64() & 0xffff
			plen := rng.Intn(width + 1)
			tr.Insert(v, plen)
			ref.insert(v, plen)
			live = append(live, stored{v, plen})
		case op < 6 && len(live) > 0: // remove
			i := rng.Intn(len(live))
			s := live[i]
			if !tr.Remove(s.v, s.plen) {
				t.Fatalf("step %d: Remove(%#x/%d) failed", step, s.v, s.plen)
			}
			ref.remove(s.v, s.plen)
			live = append(live[:i], live[i+1:]...)
		default: // lookup
			v := rng.Uint64() & 0xffff
			plen := rng.Intn(width + 1)
			got := tr.Lookup(v, plen)
			want := ref.lookup(v, plen)
			if got != want {
				t.Fatalf("step %d: Lookup(%#x, %d) = %+v, reference %+v\nstore: %v",
					step, v, plen, got, want, ref.prefixes)
			}
		}
	}
}

// Property: after inserting a single prefix of length L, every probe value
// yields CheckBits in [1, L] (or [0,0] for L=0), and CheckBits == L when
// the probe shares L-1 leading bits with the prefix.
func TestDivergenceDepthBounds(t *testing.T) {
	prop := func(seed uint64, plenRaw uint8) bool {
		const width = 32
		plen := int(plenRaw%width) + 1 // 1..32
		tr := New(width)
		tr.Insert(seed, plen)
		probe := seed ^ 0xdeadbeef
		r := tr.Lookup(probe&0xffffffff, plen)
		return r.CheckBits >= 1 && r.CheckBits <= plen
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 500}); err != nil {
		t.Error(err)
	}
}

// Property: the attacker's lever — flipping bit d of a value that matches
// a stored prefix produces CheckBits exactly d+1.
func TestAttackerControlsDivergenceDepth(t *testing.T) {
	const width = 32
	tr := New(width)
	base := uint64(0x0a141e28) // arbitrary allow value
	tr.Insert(base, width)
	for d := 0; d < width; d++ {
		probe := base ^ (1 << uint(width-1-d))
		r := tr.Lookup(probe, width)
		if r.CanMatch || r.CheckBits != d+1 {
			t.Fatalf("flip bit %d: %+v", d, r)
		}
	}
}

// TestMinMax pins Min/Max against the first/last element of Prefixes(),
// across random populations and under removals — the bookkeeping the
// megaflow ports range filter depends on.
func TestMinMax(t *testing.T) {
	tr := New(16)
	if _, ok := tr.Min(); ok {
		t.Fatal("Min on empty trie reported a prefix")
	}
	if _, ok := tr.Max(); ok {
		t.Fatal("Max on empty trie reported a prefix")
	}

	rng := rand.New(rand.NewSource(7))
	type pv struct {
		v    uint64
		plen int
	}
	var pop []pv
	check := func() {
		t.Helper()
		all := tr.Prefixes()
		mn, okMin := tr.Min()
		mx, okMax := tr.Max()
		if len(all) == 0 {
			if okMin || okMax {
				t.Fatalf("empty trie: Min ok=%v Max ok=%v", okMin, okMax)
			}
			return
		}
		if !okMin || !okMax {
			t.Fatalf("non-empty trie: Min ok=%v Max ok=%v", okMin, okMax)
		}
		if mn != all[0] {
			t.Fatalf("Min = %v, Prefixes()[0] = %v", mn, all[0])
		}
		if mx != all[len(all)-1] {
			t.Fatalf("Max = %v, Prefixes()[last] = %v", mx, all[len(all)-1])
		}
	}
	for i := 0; i < 200; i++ {
		p := pv{v: rng.Uint64() & 0xffff, plen: 1 + rng.Intn(16)}
		tr.Insert(p.v, p.plen)
		pop = append(pop, p)
		check()
	}
	rng.Shuffle(len(pop), func(i, j int) { pop[i], pop[j] = pop[j], pop[i] })
	for _, p := range pop {
		if !tr.Remove(p.v, p.plen) {
			t.Fatalf("Remove(%#x/%d) = false for a stored prefix", p.v, p.plen)
		}
		check()
	}
}

// TestMinMaxSamePlen pins the single-plen regime the per-subtable ports
// filter actually runs in: Min/Max must be the numeric min/max of the
// masked values.
func TestMinMaxSamePlen(t *testing.T) {
	tr := New(16)
	const plen = 12
	vals := []uint64{0x5550, 0x0010, 0xfff0, 0x8880, 0x0020}
	for _, v := range vals {
		tr.Insert(v, plen)
	}
	mn, _ := tr.Min()
	mx, _ := tr.Max()
	if mn.Value != 0x0010&^0xf || mx.Value != 0xfff0 {
		t.Fatalf("min/max = %#x/%#x, want 0x0010/0xfff0", mn.Value, mx.Value)
	}
}

// nodeCount is the number of nodes of tr.
func nodeCount(tr *Trie) int {
	var count func(n *node) int
	count = func(n *node) int {
		if n == nil {
			return 0
		}
		return 1 + count(n.child[0]) + count(n.child[1])
	}
	return count(tr.root)
}

// checkAgainstReference holds every read of tr to ref's answer: Len,
// Prefixes (in order), Min, Max, Lookup of v at every plen, and the node
// bound of a canonical shape.
func checkAgainstReference(t *testing.T, tr *Trie, ref *reference, v uint64) {
	t.Helper()
	// Prefixes' order: by bit string (values are zero past Len, so the
	// first differing bit decides), a prefix before its extensions.
	want := slices.Clone(ref.prefixes)
	slices.SortFunc(want, func(a, b Prefix) int {
		return cmp.Or(cmp.Compare(a.Value, b.Value), cmp.Compare(a.Len, b.Len))
	})
	n := 0
	for _, p := range want {
		n += p.Count
	}
	if tr.Len() != n {
		t.Fatalf("Len = %d, reference %d", tr.Len(), n)
	}
	if got := tr.Prefixes(); !slices.Equal(got, want) {
		t.Fatalf("Prefixes = %v, reference %v", got, want)
	}
	mn, okMin := tr.Min()
	mx, okMax := tr.Max()
	if okMin != (len(want) > 0) || okMax != (len(want) > 0) {
		t.Fatalf("Min ok=%v Max ok=%v over %d prefixes", okMin, okMax, len(want))
	}
	if len(want) > 0 && (mn != want[0] || mx != want[len(want)-1]) {
		t.Fatalf("Min = %v, Max = %v, reference %v and %v", mn, mx, want[0], want[len(want)-1])
	}
	for plen := 0; plen <= tr.Width(); plen++ {
		if got, exp := tr.Lookup(v, plen), ref.lookup(v, plen); got != exp {
			t.Fatalf("Lookup(%#x, %d) = %+v, reference %+v\nstore: %v", v, plen, got, exp, want)
		}
	}
	if nodes := nodeCount(tr); nodes > 2*len(want)+1 {
		t.Fatalf("%d nodes for %d distinct prefixes: the shape is not canonical", nodes, len(want))
	}
}

// FuzzTrie drives an insert/remove/lookup op stream through a trie and the
// bit-per-bit reference, checking every read after every op. The first
// byte picks the width (1..64); each op is ten bytes: the op, a prefix
// length, and a big-endian value. Op%4 is 0 or 1: insert; 2: remove one of
// the stored prefixes (picked by the value) or, on an empty store, the
// given one; 3: remove the given prefix, which is usually absent.
func FuzzTrie(f *testing.F) {
	seed := func(width byte, ops ...[3]uint64) []byte {
		b := []byte{width - 1}
		for _, op := range ops {
			b = append(b, byte(op[0]), byte(op[1]))
			b = binary.BigEndian.AppendUint64(b, op[2])
		}
		return b
	}
	f.Add(seed(8, [3]uint64{0, 8, 0x0a}, [3]uint64{0, 3, 0x00}, [3]uint64{0, 8, 0x0b}, [3]uint64{2, 0, 0}, [3]uint64{3, 8, 0x0b}))
	f.Add(seed(32, [3]uint64{0, 8, 0x0a000000}, [3]uint64{0, 16, 0x0a010000}, [3]uint64{0, 0, 0}, [3]uint64{0, 32, 0xffffffff},
		[3]uint64{2, 0, 1}, [3]uint64{2, 0, 0}, [3]uint64{0, 24, 0x0a010100}))
	f.Add(seed(64, [3]uint64{0, 64, 1 << 63}, [3]uint64{0, 64, 1<<63 | 1}, [3]uint64{0, 1, 1 << 63}, [3]uint64{0, 63, 0},
		[3]uint64{2, 0, 0}, [3]uint64{2, 0, 0}, [3]uint64{3, 64, 1 << 63}))
	f.Add(seed(16, [3]uint64{0, 16, 0x5550}, [3]uint64{1, 12, 0x5550}, [3]uint64{0, 12, 0x0010}, [3]uint64{0, 4, 0xf000},
		[3]uint64{2, 0, 3}, [3]uint64{2, 0, 2}, [3]uint64{2, 0, 1}))
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) == 0 {
			return
		}
		width := 1 + int(data[0]%64)
		tr, ref := New(width), &reference{width: width}
		field := ^uint64(0) >> uint(64-width)
		for data = data[1:]; len(data) >= 10; data = data[10:] {
			plen, v := int(data[1])%(width+1), binary.BigEndian.Uint64(data[2:10])&field
			switch op := data[0] % 4; {
			case op < 2:
				tr.Insert(v, plen)
				ref.insert(v, plen)
			case op == 2 && len(ref.prefixes) > 0:
				p := ref.prefixes[v%uint64(len(ref.prefixes))]
				if !tr.Remove(p.Value, p.Len) {
					t.Fatalf("Remove(%#x/%d) of a stored prefix = false", p.Value, p.Len)
				}
				ref.remove(p.Value, p.Len)
			default:
				if got, want := tr.Remove(v, plen), ref.remove(v, plen); got != want {
					t.Fatalf("Remove(%#x/%d) = %v, reference %v", v, plen, got, want)
				}
			}
			checkAgainstReference(t, tr, ref, v)
		}
	})
}
