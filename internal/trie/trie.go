// Package trie implements the per-field binary prefix tries the slow-path
// classifier uses for subtable skipping, modelled on the tries of Open
// vSwitch's lib/classifier.
//
// The classifier keeps one Trie per prefix-tracked field, containing the
// prefixes of every rule that matches on that field. Before hashing a
// packet against a subtable, it asks the trie whether any stored prefix of
// the subtable's length can match the packet. The answer comes with the
// number of leading field bits that had to be *examined* to prove it —
// the "divergence depth" — and exactly those bits are folded into the
// megaflow mask.
//
// This is the algorithmic deficiency the policy-injection attack exploits:
// the examined-bit count varies with the packet, one distinct depth per
// leading-bit position, so an adversary can mint one distinct megaflow mask
// per depth combination across fields.
package trie

import (
	"fmt"
	"math/bits"
)

// Trie stores bit-string prefixes of a fixed-width field, MSB first, with
// reference counts so the same prefix may be inserted by multiple rules.
// The zero Trie is not usable; construct with New. Trie is not safe for
// concurrent mutation; the classifier serialises access. Lookup, Min, Max
// and Prefixes only read, so concurrent readers are safe between
// mutations.
//
// The trie is path-compressed, as OVS's trie_node is: a node holds a run
// of bits, not one bit, so a walk takes one step per branch or stored
// prefix, not one per bit. The shape is canonical — a node with no
// terminals has two children, and only the root's run may be empty — so a
// trie of n distinct prefixes has at most 2n-1 nodes, whatever order they
// were inserted and removed in.
type Trie struct {
	width int
	root  *node // nil when empty
	size  int   // number of stored (refcounted) prefixes, counting multiplicity
}

// node is one run of the trie. prefix is the whole path from the root to
// the run's end, left-aligned in the word (bit 63 is the field's MSB) and
// zero past end; the run itself is its bits from the parent's end to end.
// Keeping the whole path, not the run alone, lets Lookup compare a run
// with one XOR against the left-aligned value, with no shift per step, and
// lets Min, Max and Prefixes read a prefix off the node it ends at.
// child[b] continues with bit end = b.
type node struct {
	prefix    uint64
	child     [2]*node
	terminals int32 // prefixes ending exactly at end
	end       uint8 // path length in bits: the depth the run ends at
}

// New returns an empty trie over a field of the given width in bits
// (1..64).
func New(width int) *Trie {
	if width < 1 || width > 64 {
		panic(fmt.Sprintf("trie: invalid field width %d", width))
	}
	return &Trie{width: width}
}

// Width returns the field width the trie was built for.
func (t *Trie) Width() int { return t.width }

// Len returns the number of stored prefixes, counting multiplicity.
func (t *Trie) Len() int { return t.size }

// align left-aligns a right-aligned field value, bits above the field
// width dropped.
func (t *Trie) align(value uint64) uint64 { return value << uint(64-t.width) }

// top keeps the first n bits of a left-aligned word (n in 0..64).
func top(v uint64, n int) uint64 { return v &^ (^uint64(0) >> uint(n)) }

// bitAt is bit i (0 = MSB) of a left-aligned word, i < 64.
func bitAt(v uint64, i int) int { return int(v >> uint(63-i) & 1) }

// common is how many leading bits v shares with n's path, at most n.end.
func (n *node) common(v uint64) int {
	return min(bits.LeadingZeros64(v^n.prefix), int(n.end))
}

func (t *Trie) checkPlen(plen int) {
	if plen < 0 || plen > t.width {
		panic(fmt.Sprintf("trie: prefix length %d out of range [0,%d]", plen, t.width))
	}
}

// Insert adds the plen-bit prefix of value. Bits of value below the prefix
// are ignored. Inserting the same prefix twice increments its reference
// count. A prefix that ends inside a run, or leaves it early, splits it.
func (t *Trie) Insert(value uint64, plen int) {
	t.checkPlen(plen)
	v := top(t.align(value), plen)
	p := &t.root
	for {
		n := *p
		if n == nil {
			*p = &node{prefix: v, end: uint8(plen), terminals: 1}
			break
		}
		if c := min(n.common(v), plen); c < int(n.end) {
			// The new prefix ends or diverges inside n's run: split the run
			// at c, n keeping the part past the split.
			m := &node{prefix: top(v, c), end: uint8(c)}
			m.child[bitAt(n.prefix, c)] = n
			*p, n = m, m
		}
		if int(n.end) == plen {
			n.terminals++
			break
		}
		p = &n.child[bitAt(v, int(n.end))]
	}
	t.size++
}

// Remove drops one reference to the plen-bit prefix of value, reporting
// whether the prefix was present. A node left with no terminals is pruned
// when it has no children and merged into its child when it has one,
// which may in turn leave its parent to merge: the shape stays canonical.
func (t *Trie) Remove(value uint64, plen int) bool {
	t.checkPlen(plen)
	v := top(t.align(value), plen)
	var up **node // the slot holding the parent of *p
	p := &t.root
	for {
		n := *p
		if n == nil || int(n.end) > plen || n.common(v) < int(n.end) {
			return false
		}
		if int(n.end) == plen {
			break
		}
		up, p = p, &n.child[bitAt(v, int(n.end))]
	}
	n := *p
	if n.terminals == 0 {
		return false
	}
	n.terminals--
	t.size--
	if n.terminals > 0 || n.child[0] != nil && n.child[1] != nil {
		return true
	}
	if c := n.only(); c != nil {
		*p = c // a child's path already spells n's run out
		return true
	}
	*p = nil
	if up != nil && (*up).terminals == 0 {
		*up = (*up).only() // the parent branched here and now has one child
	}
	return true
}

// only returns n's child when it has at most one, nil when it has none.
func (n *node) only() *node {
	if n.child[0] != nil {
		return n.child[0]
	}
	return n.child[1]
}

// Result is the outcome of a Lookup.
type Result struct {
	// CanMatch reports whether some stored prefix of exactly the requested
	// length matches the value, i.e. whether the subtable that asked may
	// contain a matching rule and must be hash-probed.
	CanMatch bool
	// CheckBits is the number of leading bits of the value that were
	// examined to decide CanMatch. The classifier must reveal (unwildcard)
	// exactly these bits in the megaflow it synthesises: a packet agreeing
	// with the lookup value on CheckBits leading bits would have taken the
	// same trie path and received the same answer.
	CheckBits int
}

// Lookup asks whether a stored prefix of length plen matches value,
// reporting how many leading bits of value were examined.
//
// The answer is the one-bit-per-step walk's: follow value's bits from the
// root; if the walk reaches depth plen, a terminal there answers
// CanMatch=true with plen bits examined; if it falls off the trie at depth
// d < plen, no stored prefix of length >= d+1 agrees with value, so
// CanMatch=false after examining d+1 bits — the divergence depth the
// attack manipulates. Here a step takes a whole run: one XOR and a
// leading-zero count find where value leaves it. Depth plen reached inside
// a run is a path no stored prefix ends on: CanMatch=false, plen bits.
func (t *Trie) Lookup(value uint64, plen int) Result {
	t.checkPlen(plen)
	v := t.align(value)
	n := t.root
	if n == nil {
		return Result{CheckBits: min(plen, 1)}
	}
	for {
		c := n.common(v)
		if c >= plen {
			return Result{CanMatch: int(n.end) == plen && n.terminals > 0, CheckBits: plen}
		}
		if c < int(n.end) {
			return Result{CheckBits: c + 1}
		}
		if n = n.child[bitAt(v, c)]; n == nil {
			return Result{CheckBits: c + 1}
		}
	}
}

// prefixOf is the stored prefix that ends at n.
func (t *Trie) prefixOf(n *node) Prefix {
	return Prefix{Value: n.prefix >> uint(64-t.width), Len: int(n.end), Count: int(n.terminals)}
}

// Min returns the first stored prefix in Prefixes() order — the one with
// the lexicographically smallest bit string (shorter prefixes before
// their extensions) — and false when the trie is empty. Together with Max
// it bounds the stored values, which is what the megaflow cache's
// per-subtable ports range filter consults on every burst.
func (t *Trie) Min() (Prefix, bool) {
	n := t.root
	if n == nil {
		return Prefix{}, false
	}
	for n.terminals == 0 {
		n = n.only() // a terminal-free node branches: child 0 is there
	}
	return t.prefixOf(n), true
}

// Max returns the last stored prefix in Prefixes() order — the one with
// the lexicographically largest bit string — and false when the trie is
// empty. See Min.
func (t *Trie) Max() (Prefix, bool) {
	n := t.root
	if n == nil {
		return Prefix{}, false
	}
	for {
		switch {
		case n.child[1] != nil:
			n = n.child[1]
		case n.child[0] != nil:
			n = n.child[0]
		default:
			// Deepest node on the rightmost path; pruning guarantees it
			// carries a terminal.
			return t.prefixOf(n), true
		}
	}
}

// Prefixes returns all stored prefixes as (value, plen, count) triples in
// lexicographic order, for diagnostics and tests.
func (t *Trie) Prefixes() []Prefix {
	var out []Prefix
	var walk func(n *node)
	walk = func(n *node) {
		if n == nil {
			return
		}
		if n.terminals > 0 {
			out = append(out, t.prefixOf(n))
		}
		walk(n.child[0])
		walk(n.child[1])
	}
	walk(t.root)
	return out
}

// Prefix is one stored prefix: the top Len bits of Value (right-padded with
// zeros to the field width) with reference count Count.
type Prefix struct {
	Value uint64
	Len   int
	Count int
}

func (p Prefix) String() string {
	return fmt.Sprintf("%#x/%d(x%d)", p.Value, p.Len, p.Count)
}
