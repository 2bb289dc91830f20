package classifier

import (
	"math/rand"
	"testing"

	"policyinject/internal/flow"
	"policyinject/internal/flowtable"
)

// install inserts r into both the reference table and the classifier,
// returning the stored rule.
func install(tbl *flowtable.Table, c *Classifier, r flowtable.Rule) *flowtable.Rule {
	stored := tbl.Insert(r)
	c.Insert(stored)
	return stored
}

func ipSrcRule(prefix uint64, plen, prio int, v flowtable.Verdict) flowtable.Rule {
	var m flow.Match
	m.Key.Set(flow.FieldIPSrc, prefix)
	m.Mask.SetPrefix(flow.FieldIPSrc, plen)
	return flowtable.Rule{Match: m, Priority: prio, Action: flowtable.Action{Verdict: v}}
}

func keyIPSrc(ip uint64) flow.Key {
	var k flow.Key
	k.Set(flow.FieldIPSrc, ip)
	return k
}

// paperACL installs the paper's Fig. 2a ACL: allow ip_src 10.0.0.0/8,
// default deny.
func paperACL(t testing.TB) (*flowtable.Table, *Classifier) {
	t.Helper()
	var tbl flowtable.Table
	c := New(Config{})
	install(&tbl, c, ipSrcRule(0x0a000000, 8, 10, flowtable.Allow))
	install(&tbl, c, flowtable.Rule{Priority: 0}) // deny *
	return &tbl, c
}

func TestLookupVerdicts(t *testing.T) {
	_, c := paperACL(t)
	if r := c.Lookup(keyIPSrc(0x0a636363)); r.Rule == nil || r.Rule.Action.Verdict != flowtable.Allow {
		t.Fatalf("10.99.99.99: %+v", r.Rule)
	}
	if r := c.Lookup(keyIPSrc(0xc0a80001)); r.Rule == nil || r.Rule.Action.Verdict != flowtable.Deny {
		t.Fatalf("192.168.0.1: %+v", r.Rule)
	}
}

// TestFig2bMegaflows reproduces paper Fig. 2b exactly: the megaflow
// key/mask pairs OVS generates for the single-field ACL, viewed through
// the first octet of ip_src. One probe packet per divergence depth; -v
// prints the table row by row.
func TestFig2bMegaflows(t *testing.T) {
	_, c := paperACL(t)

	cases := []struct {
		probe    uint64 // first octet of the probing packet's ip_src
		wantKey  uint64 // expected megaflow key, first octet
		wantMask uint64 // expected megaflow mask, first octet
		verdict  flowtable.Verdict
	}{
		{0x0a, 0x0a, 0xff, flowtable.Allow}, // 00001010/11111111 allow
		{0x80, 0x80, 0x80, flowtable.Deny},  // 10000000/10000000 deny
		{0x40, 0x40, 0xc0, flowtable.Deny},  // 01000000/11000000 deny
		{0x20, 0x20, 0xe0, flowtable.Deny},  // 00100000/11100000 deny
		{0x10, 0x10, 0xf0, flowtable.Deny},  // 00010000/11110000 deny
		{0x00, 0x00, 0xf8, flowtable.Deny},  // 00000000/11111000 deny
		{0x0c, 0x0c, 0xfc, flowtable.Deny},  // 00001100/11111100 deny
		{0x08, 0x08, 0xfe, flowtable.Deny},  // 00001000/11111110 deny
		{0x0b, 0x0b, 0xff, flowtable.Deny},  // 00001011/11111111 deny
	}
	seenMasks := map[flow.Mask]bool{}
	for _, tc := range cases {
		res := c.Lookup(keyIPSrc(tc.probe << 24))
		if res.Rule == nil || res.Rule.Action.Verdict != tc.verdict {
			t.Fatalf("probe %#02x: verdict %v", tc.probe, res.Rule)
		}
		gotKey := res.Megaflow.Key.Get(flow.FieldIPSrc) >> 24
		gotMask := res.Megaflow.Mask.Apply(flow.Key(flow.ExactMask)).Get(flow.FieldIPSrc) >> 24
		t.Logf("probe %08b  key/mask %08b/%08b  %s", tc.probe, gotKey, gotMask, res.Rule.Action)
		if gotKey != tc.wantKey || gotMask != tc.wantMask {
			t.Errorf("probe %#08b: megaflow %#08b/%#08b, want %#08b/%#08b",
				tc.probe, gotKey, gotMask, tc.wantKey, tc.wantMask)
		}
		seenMasks[res.Megaflow.Mask] = true
	}
	// Fig. 2b: 9 entries but 8 distinct masks — prefix lengths 1..8, with
	// the exact-allow and the last deny sharing the full /8 mask. The
	// paper: "This technique creates 8 masks and so 8 iterations".
	t.Logf("entries: %d, distinct masks: %d", len(cases), len(seenMasks))
	if len(seenMasks) != 8 {
		t.Errorf("distinct masks = %d, want 8", len(seenMasks))
	}
}

func TestLookupStats(t *testing.T) {
	_, c := paperACL(t)
	// A diverging packet skips the allow subtable and probes only deny.
	res := c.Lookup(keyIPSrc(0xc0000000))
	if res.Stats.SubtablesSkipped != 1 || res.Stats.SubtablesProbed != 1 || res.Stats.TrieConsults != 1 {
		t.Errorf("stats = %+v", res.Stats)
	}
}

func TestTotalMissMegaflow(t *testing.T) {
	var tbl flowtable.Table
	c := New(Config{})
	install(&tbl, c, ipSrcRule(0x0a000000, 8, 10, flowtable.Allow))
	// No catch-all: 192.x misses entirely.
	res := c.Lookup(keyIPSrc(0xc0000001))
	if res.Rule != nil {
		t.Fatalf("rule = %v, want nil", res.Rule)
	}
	// The megaflow must still cover the examined bit (divergence depth 1).
	if plen, ok := res.Megaflow.Mask.PrefixLen(flow.FieldIPSrc); !ok || plen != 1 {
		t.Errorf("miss megaflow prefix = %d,%v", plen, ok)
	}
}

func TestRemoveRestoresState(t *testing.T) {
	var tbl flowtable.Table
	c := New(Config{})
	allow := install(&tbl, c, ipSrcRule(0x0a000000, 8, 10, flowtable.Allow))
	install(&tbl, c, flowtable.Rule{Priority: 0})

	if !c.Remove(allow) {
		t.Fatal("Remove failed")
	}
	if c.Remove(allow) {
		t.Fatal("double Remove succeeded")
	}
	if c.nRules != 1 || c.NumSubtables() != 1 {
		t.Fatalf("len=%d subtables=%d", c.nRules, c.NumSubtables())
	}
	// 10.x packets now hit deny, and the allow trie gate must be gone:
	// the megaflow should not unwildcard any ip_src bits.
	res := c.Lookup(keyIPSrc(0x0a000001))
	if res.Rule == nil || res.Rule.Action.Verdict != flowtable.Deny {
		t.Fatalf("verdict after remove: %v", res.Rule)
	}
	if res.Megaflow.Mask != (flow.Mask{}) {
		t.Errorf("megaflow mask not empty after removing the only prefix rule: %v", res.Megaflow)
	}
}

func TestInsertPanicsWithoutSeq(t *testing.T) {
	c := New(Config{})
	defer func() {
		if recover() == nil {
			t.Fatal("Insert without sequence did not panic")
		}
	}()
	r := ipSrcRule(0, 0, 0, flowtable.Deny)
	c.Insert(&r)
}

func TestFirstAddedWinsAcrossSubtables(t *testing.T) {
	var tbl flowtable.Table
	c := New(Config{})
	// Same priority, overlapping, different masks -> different subtables.
	first := install(&tbl, c, ipSrcRule(0x0a000000, 8, 5, flowtable.Allow))
	install(&tbl, c, ipSrcRule(0x0a000000, 4, 5, flowtable.Deny))
	res := c.Lookup(keyIPSrc(0x0a000001))
	if res.Rule != first {
		t.Fatalf("got %v, want first-added allow", res.Rule)
	}
}

func TestPrefixTrackingDisabled(t *testing.T) {
	var tbl flowtable.Table
	c := New(Config{PrefixFields: []flow.FieldID{}}) // explicit: none
	install(&tbl, c, ipSrcRule(0x0a000000, 8, 10, flowtable.Allow))
	install(&tbl, c, flowtable.Rule{Priority: 0})

	res := c.Lookup(keyIPSrc(0xc0000001))
	if res.Rule.Action.Verdict != flowtable.Deny {
		t.Fatal("wrong verdict")
	}
	// Without tries every subtable is probed and contributes its full
	// mask: the megaflow is /8, not the divergence prefix /1.
	if plen, _ := res.Megaflow.Mask.PrefixLen(flow.FieldIPSrc); plen != 8 {
		t.Errorf("megaflow prefix = %d, want 8 (full subtable mask)", plen)
	}
	if res.Stats.TrieConsults != 0 || res.Stats.SubtablesSkipped != 0 {
		t.Errorf("stats = %+v", res.Stats)
	}
}

func TestNonPrefixMaskGetsNoTrieGate(t *testing.T) {
	var tbl flowtable.Table
	c := New(Config{})
	var m flow.Match
	flow.FieldByID(flow.FieldIPSrc).SetMask(&m.Mask, 0x00ff00ff) // not a prefix
	m.Key.Set(flow.FieldIPSrc, 0x000a0001)
	install(&tbl, c, flowtable.Rule{Match: m, Priority: 3, Action: flowtable.Action{Verdict: flowtable.Allow}})

	res := c.Lookup(keyIPSrc(0xff0aff01))
	if res.Rule == nil || res.Rule.Action.Verdict != flowtable.Allow {
		t.Fatalf("rule = %v", res.Rule)
	}
	if res.Stats.TrieConsults != 0 {
		t.Errorf("non-prefix mask consulted a trie: %+v", res.Stats)
	}
}

// randomRules builds a random two-field rule set in the style CMS ACLs
// produce: prefix matches on ip_src, exact-or-absent tp_dst, a catch-all.
func randomRules(rng *rand.Rand, n int) []flowtable.Rule {
	rules := make([]flowtable.Rule, 0, n+1)
	for i := 0; i < n; i++ {
		var m flow.Match
		plen := rng.Intn(33)
		m.Key.Set(flow.FieldIPSrc, rng.Uint64()&0xffffffff)
		m.Mask.SetPrefix(flow.FieldIPSrc, plen)
		if rng.Intn(2) == 0 {
			m.Key.Set(flow.FieldTPDst, uint64(rng.Intn(1024)))
			m.Mask.SetExact(flow.FieldTPDst)
		}
		rules = append(rules, flowtable.Rule{
			Match:    m,
			Priority: rng.Intn(4),
			Action:   flowtable.Action{Verdict: flowtable.Verdict(rng.Intn(2))},
		})
	}
	rules = append(rules, flowtable.Rule{Priority: -1}) // catch-all deny
	return rules
}

func randomKey(rng *rand.Rand) flow.Key {
	var k flow.Key
	// Bias keys toward rule space so matches actually happen.
	if rng.Intn(2) == 0 {
		k.Set(flow.FieldIPSrc, rng.Uint64()&0xff)
	} else {
		k.Set(flow.FieldIPSrc, rng.Uint64()&0xffffffff)
	}
	k.Set(flow.FieldTPDst, uint64(rng.Intn(1024)))
	return k
}

// TestDifferentialAgainstLinearTable cross-checks classifier verdicts
// against the reference linear table on random rule sets and probes.
func TestDifferentialAgainstLinearTable(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	for trial := 0; trial < 60; trial++ {
		var tbl flowtable.Table
		c := New(Config{})
		for _, r := range randomRules(rng, 1+rng.Intn(20)) {
			install(&tbl, c, r)
		}
		for probe := 0; probe < 200; probe++ {
			k := randomKey(rng)
			want := tbl.Lookup(k)
			got := c.Lookup(k).Rule
			if want != got {
				t.Fatalf("trial %d: lookup(%v):\n got %v\nwant %v\n%s", trial, k, got, want, c)
			}
		}
	}
}

// TestMegaflowSoundness verifies THE invariant megaflow caching relies on:
// every key covered by a synthesised megaflow receives the same rule as
// the key that synthesised it. Violations would mean the fast path serves
// wrong verdicts — cache poisoning, not just slowness.
func TestMegaflowSoundness(t *testing.T) {
	rng := rand.New(rand.NewSource(13))
	for trial := 0; trial < 40; trial++ {
		var tbl flowtable.Table
		c := New(Config{})
		for _, r := range randomRules(rng, 1+rng.Intn(15)) {
			install(&tbl, c, r)
		}
		for probe := 0; probe < 60; probe++ {
			k := randomKey(rng)
			res := c.Lookup(k)
			if !res.Megaflow.Matches(k) {
				t.Fatalf("trial %d: megaflow does not cover its own key", trial)
			}
			// Mutate k arbitrarily outside the megaflow mask; verdict must
			// be identical.
			for mut := 0; mut < 20; mut++ {
				k2 := k
				k2.Set(flow.FieldIPSrc, rng.Uint64()&0xffffffff)
				k2.Set(flow.FieldTPDst, rng.Uint64()&0xffff)
				k2.Set(flow.FieldTPSrc, rng.Uint64()&0xffff)
				for i := range k2 {
					k2[i] = k2[i]&^res.Megaflow.Mask[i] | k[i]&res.Megaflow.Mask[i]
				}
				if !res.Megaflow.Matches(k2) {
					continue
				}
				want := tbl.Lookup(k2)
				if want != res.Rule {
					t.Fatalf("trial %d: megaflow %v unsound:\nk  = %v -> %v\nk2 = %v -> %v",
						trial, res.Megaflow, k, res.Rule, k2, want)
				}
			}
		}
	}
}

// TestMaskCrossProduct verifies the attack's multiplication law at
// classifier level: two single-field whitelist rules produce one distinct
// megaflow mask per (depth_a, depth_b) combination.
func TestMaskCrossProduct(t *testing.T) {
	var tbl flowtable.Table
	c := New(Config{})
	// Rule 1: allow from one exact IP (32-bit field).
	var m1 flow.Match
	m1.Key.Set(flow.FieldIPSrc, 0x0a000001)
	m1.Mask.SetExact(flow.FieldIPSrc)
	install(&tbl, c, flowtable.Rule{Match: m1, Priority: 10, Action: flowtable.Action{Verdict: flowtable.Allow}})
	// Rule 2: allow to one exact port (16-bit field).
	var m2 flow.Match
	m2.Key.Set(flow.FieldTPDst, 80)
	m2.Mask.SetExact(flow.FieldTPDst)
	install(&tbl, c, flowtable.Rule{Match: m2, Priority: 10, Action: flowtable.Action{Verdict: flowtable.Allow}})
	install(&tbl, c, flowtable.Rule{Priority: 0}) // deny *

	masks := map[flow.Mask]bool{}
	for d1 := 0; d1 < 32; d1++ {
		for d2 := 0; d2 < 16; d2++ {
			var k flow.Key
			k.Set(flow.FieldIPSrc, 0x0a000001^(1<<uint(31-d1)))
			k.Set(flow.FieldTPDst, uint64(80^(1<<uint(15-d2))))
			res := c.Lookup(k)
			if res.Rule == nil || res.Rule.Action.Verdict != flowtable.Deny {
				t.Fatalf("d1=%d d2=%d: verdict %v", d1, d2, res.Rule)
			}
			masks[res.Megaflow.Mask] = true
		}
	}
	if len(masks) != 512 {
		t.Fatalf("distinct masks = %d, want 512 (32x16)", len(masks))
	}
}

// TestIPv6TrieGating: the v6 address halves are prefix-tracked like the
// v4 fields, so divergence depths (and hence megaflow masks) ladder over
// 64 bits per half.
func TestIPv6TrieGating(t *testing.T) {
	var tbl flowtable.Table
	c := New(Config{})
	var m flow.Match
	m.Key.Set(flow.FieldIPv6SrcHi, 0x20010db800000001)
	m.Mask.SetExact(flow.FieldIPv6SrcHi)
	install(&tbl, c, flowtable.Rule{Match: m, Priority: 10, Action: flowtable.Action{Verdict: flowtable.Allow}})
	install(&tbl, c, flowtable.Rule{Priority: 0})

	masks := map[flow.Mask]bool{}
	for d := 0; d < 64; d++ {
		var k flow.Key
		k.Set(flow.FieldIPv6SrcHi, 0x20010db800000001^(1<<uint(63-d)))
		res := c.Lookup(k)
		if res.Rule == nil || res.Rule.Action.Verdict != flowtable.Deny {
			t.Fatalf("depth %d: %v", d, res.Rule)
		}
		if plen, ok := res.Megaflow.Mask.PrefixLen(flow.FieldIPv6SrcHi); !ok || plen != d+1 {
			t.Fatalf("depth %d: megaflow prefix %d,%v", d, plen, ok)
		}
		masks[res.Megaflow.Mask] = true
	}
	if len(masks) != 64 {
		t.Fatalf("distinct masks = %d, want 64", len(masks))
	}
}

// TestCTStateNonPrefixMaskNoGate: ct_state matches use partial bit masks
// (e.g. +trk+new is 0x3/0x3), which must never acquire a trie gate — the
// field is flags, not a prefix space.
func TestCTStateSubtablesProbeCorrectly(t *testing.T) {
	var tbl flowtable.Table
	c := New(Config{})
	var m flow.Match
	flow.FieldByID(flow.FieldCTState).SetMask(&m.Mask, flow.CTTracked|flow.CTEstablished)
	m.Key.Set(flow.FieldCTState, flow.CTTracked|flow.CTEstablished)
	install(&tbl, c, flowtable.Rule{Match: m, Priority: 5, Action: flowtable.Action{Verdict: flowtable.Allow}})
	install(&tbl, c, flowtable.Rule{Priority: 0})

	var est flow.Key
	est.Set(flow.FieldCTState, flow.CTTracked|flow.CTEstablished|flow.CTReply)
	res := c.Lookup(est)
	if res.Rule == nil || res.Rule.Action.Verdict != flowtable.Allow {
		t.Fatalf("est key: %v", res.Rule)
	}
	if res.Stats.TrieConsults != 0 {
		t.Fatalf("flag-field subtable consulted a trie: %+v", res.Stats)
	}
	var newK flow.Key
	newK.Set(flow.FieldCTState, flow.CTTracked|flow.CTNew)
	if res := c.Lookup(newK); res.Rule == nil || res.Rule.Action.Verdict != flowtable.Deny {
		t.Fatalf("new key: %v", res.Rule)
	}
}

// refTrie is the one-bit-per-node prefix trie the classifier's lookups were
// first written against: a walk takes one pointer hop per bit.
type refTrie struct {
	width int
	root  refNode
}

type refNode struct {
	child     [2]*refNode
	terminals int
}

func (t *refTrie) bit(v uint64, i int) int { return int(v >> uint(t.width-1-i) & 1) }

func (t *refTrie) insert(v uint64, plen int) {
	n := &t.root
	for i := 0; i < plen; i++ {
		b := t.bit(v, i)
		if n.child[b] == nil {
			n.child[b] = &refNode{}
		}
		n = n.child[b]
	}
	n.terminals++
}

func (t *refTrie) remove(v uint64, plen int) {
	path := []*refNode{&t.root}
	for i := 0; i < plen; i++ {
		path = append(path, path[i].child[t.bit(v, i)])
	}
	path[plen].terminals--
	for i := plen; i > 0; i-- { // prune childless, terminal-free nodes
		if n := path[i]; n.terminals > 0 || n.child[0] != nil || n.child[1] != nil {
			break
		}
		path[i-1].child[t.bit(v, i-1)] = nil
	}
}

func (t *refTrie) lookup(v uint64, plen int) (bool, int) {
	n := &t.root
	for i := 0; i < plen; i++ {
		if n = n.child[t.bit(v, i)]; n == nil {
			return false, i + 1
		}
	}
	return n.terminals > 0, plen
}

// refClassifier keeps the classifier's original lookup beside it: per-field
// tries in a map, gates derived from each subtable's mask at every lookup,
// field values read through Key.Get, the megaflow built by SetPrefix, Union
// and Apply. It walks the classifier's own subtables, so scan order and rule
// buckets are shared and the lookups differ in nothing but the gates.
type refClassifier struct {
	fields []flow.FieldID
	tries  map[flow.FieldID]*refTrie
}

func newRefClassifier(cfg Config) *refClassifier {
	r := &refClassifier{fields: cfg.PrefixFields, tries: map[flow.FieldID]*refTrie{}}
	if r.fields == nil {
		r.fields = DefaultPrefixFields
	}
	for _, f := range r.fields {
		r.tries[f] = &refTrie{width: f.Bits()}
	}
	return r
}

// gates lists the (field, plen) consults of a subtable of mask.
func (r *refClassifier) gates(mask flow.Mask) (fs []flow.FieldID, plens []int) {
	for _, f := range r.fields {
		if plen, ok := mask.PrefixLen(f); ok && plen > 0 {
			fs, plens = append(fs, f), append(plens, plen)
		}
	}
	return fs, plens
}

func (r *refClassifier) insert(m flow.Match) {
	fs, plens := r.gates(m.Mask)
	for i, f := range fs {
		r.tries[f].insert(m.Key.Get(f), plens[i])
	}
}

func (r *refClassifier) remove(m flow.Match) {
	fs, plens := r.gates(m.Mask)
	for i, f := range fs {
		r.tries[f].remove(m.Key.Get(f), plens[i])
	}
}

func (r *refClassifier) lookup(c *Classifier, k flow.Key) Result {
	var wc flow.Mask
	var best *flowtable.Rule
	var stats Stats
	for _, st := range c.subtables {
		if best != nil && best.Priority > st.maxPriority {
			break
		}
		skip := false
		fs, plens := r.gates(st.mask)
		for i, f := range fs {
			can, check := r.tries[f].lookup(k.Get(f), plens[i])
			stats.TrieConsults++
			wc.SetPrefix(f, check)
			if !can {
				skip = true
				break
			}
		}
		if skip {
			stats.SubtablesSkipped++
			continue
		}
		stats.SubtablesProbed++
		for i := range wc {
			wc[i] |= st.mask[i]
		}
		if b := st.rules[st.mask.Apply(k)]; len(b) > 0 && (best == nil || better(b[0], best)) {
			best = b[0]
		}
	}
	return Result{Rule: best, Megaflow: flow.Match{Key: wc.Apply(k), Mask: wc}, Stats: stats}
}

// diffFields are the fields the differential rule sets match on: v4 and v6
// prefix fields, the ports, and two that are never prefix-tracked.
var diffFields = []flow.FieldID{
	flow.FieldIPSrc, flow.FieldIPDst, flow.FieldTPSrc, flow.FieldTPDst,
	flow.FieldIPv6SrcHi, flow.FieldIPv6SrcLo, flow.FieldIPv6DstHi,
	flow.FieldEthType, flow.FieldCTState,
}

// diffValue draws a value of f near its base: the base with one of its bits
// flipped, or its top bits kept and the rest random, so rules and keys share
// prefixes of every depth.
func diffValue(rng *rand.Rand, f flow.FieldID, base uint64) uint64 {
	bits := f.Bits()
	field := ^uint64(0) >> uint(64-bits)
	switch rng.Intn(3) {
	case 0:
		return base & field
	case 1:
		return (base ^ 1<<uint(rng.Intn(bits))) & field
	default:
		keep := rng.Intn(bits + 1)
		top := field &^ (field >> uint(keep))
		return (base&top | rng.Uint64()&^top) & field
	}
}

// diffRule draws a rule over one to three of diffFields: each a prefix of
// length 0, full width or anything between, or now and then a mask that is
// no prefix.
func diffRule(rng *rand.Rand, bases []uint64) flowtable.Rule {
	var m flow.Match
	for n := rng.Intn(4); n > 0; n-- {
		i := rng.Intn(len(diffFields))
		f, fd := diffFields[i], flow.FieldByID(diffFields[i])
		m.Key.Set(f, diffValue(rng, f, bases[i]))
		switch rng.Intn(6) {
		case 0: // plen 0
		case 1:
			m.Mask.SetExact(f)
		case 2:
			fd.SetMask(&m.Mask, rng.Uint64()) // no prefix, almost surely
		default:
			m.Mask.SetPrefix(f, 1+rng.Intn(f.Bits()))
		}
	}
	m.Normalize()
	return flowtable.Rule{Match: m, Priority: rng.Intn(4), Action: flowtable.Action{Verdict: flowtable.Verdict(rng.Intn(2))}}
}

// TestLookupMatchesReference is the differential test of the compiled gates
// and the path-compressed tries: over random rule sets, with inserts and
// removes interleaved, every lookup's rule, megaflow key and mask, and
// stats must equal the reference lookup's exactly.
func TestLookupMatchesReference(t *testing.T) {
	rng := rand.New(rand.NewSource(29))
	configs := []Config{
		{},
		{PrefixFields: []flow.FieldID{flow.FieldIPSrc, flow.FieldTPDst, flow.FieldIPv6SrcHi}},
		{PrefixFields: []flow.FieldID{}},
	}
	lookups, consults := 0, 0
	for trial := 0; trial < 90; trial++ {
		cfg := configs[trial%len(configs)]
		var tbl flowtable.Table
		c, ref := New(cfg), newRefClassifier(cfg)
		bases := make([]uint64, len(diffFields))
		for i := range bases {
			bases[i] = rng.Uint64()
		}
		var live []*flowtable.Rule
		for step := 0; step < 200; step++ {
			switch op := rng.Intn(10); {
			case op < 4:
				r := install(&tbl, c, diffRule(rng, bases))
				ref.insert(r.Match)
				live = append(live, r)
			case op < 6 && len(live) > 0:
				i := rng.Intn(len(live))
				if !c.Remove(live[i]) {
					t.Fatalf("trial %d: Remove of a live rule failed", trial)
				}
				ref.remove(live[i].Match)
				live = append(live[:i], live[i+1:]...)
			default:
				for range 8 {
					var k flow.Key
					for i, f := range diffFields {
						k.Set(f, diffValue(rng, f, bases[i]))
					}
					got, want := c.Lookup(k), ref.lookup(c, k)
					if got.Rule != want.Rule || got.Megaflow != want.Megaflow || got.Stats != want.Stats {
						t.Fatalf("trial %d step %d: Lookup(%v)\n got %v %v %+v\nwant %v %v %+v\n%s",
							trial, step, k, got.Rule, got.Megaflow, got.Stats, want.Rule, want.Megaflow, want.Stats, c)
					}
					lookups++
					consults += got.Stats.TrieConsults
				}
			}
		}
	}
	t.Logf("%d lookups, %d consults", lookups, consults)
	if consults < lookups {
		t.Fatalf("%d trie consults over %d lookups: the rule sets hardly reach the tries", consults, lookups)
	}
}
