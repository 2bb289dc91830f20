package cache

import (
	"math/rand"
	"net/netip"
	"runtime"
	"testing"

	"policyinject/internal/acl"
	"policyinject/internal/classifier"
	"policyinject/internal/flow"
	"policyinject/internal/flowtable"
)

// tableMasks are the mask shapes the table tests run over, by number of
// significant words: the catch-all, one word, the attack's three (in_port,
// addresses, ports) and all ten.
func tableMasks() []flow.Mask {
	var one, three flow.Mask
	one.SetPrefix(flow.FieldIPSrc, 24)
	three.SetExact(flow.FieldInPort)
	three.SetPrefix(flow.FieldIPSrc, 20)
	three.SetExact(flow.FieldTPDst)
	return []flow.Mask{{}, one, three, flow.ExactMask}
}

// splitmix is the test's key scrambler.
func splitmix(x uint64) uint64 {
	x += 0x9e3779b97f4a7c15
	x = (x ^ x>>30) * 0xbf58476d1ce4e5b9
	x = (x ^ x>>27) * 0x94d049bb133111eb
	return x ^ x>>31
}

// tableKey derives the id-th key of a 512-key universe, with noise mixed
// into every bit mask leaves out (a probe must not see it). ip_src's /24
// takes only 64 values, so masked keys repeat under the narrow masks and
// stay distinct under the wide ones.
func tableKey(id uint16, mask flow.Mask, noise uint64) flow.Key {
	var k flow.Key
	id %= 512
	for i := range k {
		k[i] = splitmix(uint64(id)<<4 | uint64(i))
	}
	k.Set(flow.FieldIPSrc, splitmix(uint64(id%64))<<8&0xffffff00|uint64(id>>6))
	for i := range k {
		k[i] ^= splitmix(noise+uint64(i)) &^ mask[i]
	}
	return k
}

// tableModel drives one subtable and the reference map side by side.
type tableModel struct {
	t    *testing.T
	st   *mfSubtable
	seed uint64              // probe-hash seed (Megaflow.seed's stand-in)
	ref  map[flow.Key]*Entry // masked key -> resident entry
}

// newTableModel pins the probe-hash seed, which is per process outside
// tests, so a failing stream fails again on the next run.
func newTableModel(t *testing.T, mask flow.Mask, seed uint64) *tableModel {
	return &tableModel{t: t, st: newSubtable(mask, 0), seed: seed | 1, ref: make(map[flow.Key]*Entry)}
}

// probe checks the table against the reference for one raw key.
func (tm *tableModel) probe(raw flow.Key) {
	tm.t.Helper()
	if got, want := tm.st.probe(&raw, tm.seed), tm.ref[tm.st.mask.Apply(raw)]; got != want {
		tm.t.Fatalf("probe(%v) = %p, reference holds %p", raw, got, want)
	}
}

func (tm *tableModel) put(raw flow.Key) {
	mk := tm.st.mask.Apply(raw)
	if tm.ref[mk] != nil {
		return
	}
	ent := &Entry{Key: mk, st: tm.st}
	_, h := tm.st.find(&mk, tm.seed)
	tm.st.put(ent, h)
	tm.ref[mk] = ent
}

func (tm *tableModel) del(raw flow.Key) {
	mk := tm.st.mask.Apply(raw)
	ent := tm.ref[mk]
	if ent == nil {
		return
	}
	tm.st.del(ent, tm.seed)
	delete(tm.ref, mk)
}

// sweep drops every resident whose first varying word is selected by sel
// (sel 0 drops them all) while walking, and demands exactly one visit per
// resident.
func (tm *tableModel) sweep(sel uint64) {
	tm.t.Helper()
	seen := make(map[*Entry]int)
	tm.st.sweep(func(ent *Entry) bool {
		seen[ent]++
		if sel != 0 && ent.Key[3]>>40&sel == 0 {
			return false
		}
		delete(tm.ref, ent.Key)
		return true
	})
	for ent, n := range seen {
		if n != 1 {
			tm.t.Fatalf("sweep visited %v %d times", ent.Key, n)
		}
	}
	tm.check()
	for ent := range seen {
		if tm.ref[ent.Key] == nil && tm.st.probe(&ent.Key, tm.seed) != nil {
			tm.t.Fatalf("sweep left dropped entry %v resident", ent.Key)
		}
	}
}

// check compares the whole table with the reference and verifies the
// table's own invariants.
func (tm *tableModel) check() {
	tm.t.Helper()
	st := tm.st
	if st.n != len(tm.ref) {
		tm.t.Fatalf("table holds %d entries, reference %d", st.n, len(tm.ref))
	}
	if l := len(st.slots); l < minSlots || l&(l-1) != 0 || 2*st.n > l {
		tm.t.Fatalf("%d entries in %d slots: want a power of two at load <= 1/2", st.n, l)
	}
	walked := 0
	for ent := range st.residents {
		walked++
		if tm.ref[ent.Key] != ent {
			tm.t.Fatalf("resident %v is not the reference's entry", ent.Key)
		}
	}
	if walked != len(tm.ref) {
		tm.t.Fatalf("residents walked %d entries, reference %d", walked, len(tm.ref))
	}
	for mk, ent := range tm.ref {
		if got := st.probe(&mk, tm.seed); got != ent {
			tm.t.Fatalf("resident %v not found by probe (got %p)", mk, got)
		}
	}
	for i, s := range st.slots {
		if (s.ent == nil) != (s.hash == 0) {
			tm.t.Fatalf("slot %d: hash %#x with entry %p", i, s.hash, s.ent)
		}
	}
}

// runTableOps interprets ops as a put/del/probe/sweep stream over one
// subtable hashing from seed: two bytes an operation, the first choosing it (puts weighted
// so tables grow), the second the key.
func runTableOps(t *testing.T, mask flow.Mask, seed uint64, ops []byte) {
	tm := newTableModel(t, mask, seed)
	for i := 0; i+1 < len(ops); i += 2 {
		op, id := ops[i], uint16(ops[i+1])|uint16(ops[i]&0x80)<<1
		raw := tableKey(id, mask, uint64(i))
		switch op & 7 {
		case 0, 1, 2:
			tm.put(raw)
		case 3, 4:
			tm.del(raw)
		case 5:
			tm.sweep(uint64(id & 3)) // 0: every resident
		}
		tm.probe(raw)
		if i%64 == 0 {
			tm.check()
		}
	}
	tm.check()
	tm.sweep(0)
	if tm.st.n != 0 {
		t.Fatalf("full sweep left %d entries", tm.st.n)
	}
	// Re-insert after the table has been emptied by deletion.
	for id := uint16(0); id < 40; id++ {
		tm.put(tableKey(id, mask, 7))
	}
	tm.check()
}

// TestSubtableTableMatchesMap is the property test of the open-addressed
// table: random operation streams agree with a reference map under every
// mask shape, through growth, wrap-around shifts, sweeps that delete
// while walking, and re-insertion.
func TestSubtableTableMatchesMap(t *testing.T) {
	rng := rand.New(rand.NewSource(13))
	for mi, mask := range tableMasks() {
		for trial := 0; trial < 40; trial++ {
			ops := make([]byte, 2*(20+rng.Intn(600)))
			rng.Read(ops)
			runTableOps(t, mask, rng.Uint64(), ops)
		}
		if t.Failed() {
			t.Fatalf("mask shape %d failed", mi)
		}
	}
}

// FuzzSubtableTable feeds arbitrary operation streams, mask shapes and
// hash seeds to the same interpreter.
func FuzzSubtableTable(f *testing.F) {
	f.Add(uint8(0), uint64(0), []byte{0, 1, 0, 2, 5, 0})
	f.Add(uint8(2), uint64(1), []byte{0, 1, 1, 2, 2, 3, 3, 1, 0, 1, 5, 1, 0x80, 9, 3, 2})
	f.Add(uint8(3), ^uint64(0), []byte("put a few, drop a few, sweep the rest"))
	f.Fuzz(func(t *testing.T, shape uint8, seed uint64, ops []byte) {
		masks := tableMasks()
		runTableOps(t, masks[int(shape)%len(masks)], seed, ops)
	})
}

// TestSubtableBackwardShiftAcrossWrap builds a run of colliding entries
// that starts in the last slot and continues at slot 0, deletes its head,
// and checks the survivors were pulled back across the wrap-around rather
// than stranded behind an empty slot.
func TestSubtableBackwardShiftAcrossWrap(t *testing.T) {
	tm := newTableModel(t, flow.ExactMask, 0)
	// Grow to 16 slots with keys homed away from the last slot, then find
	// three keys whose home is slot 15.
	var homed []flow.Key
	for id := uint16(0); len(tm.ref) < 5 || len(homed) < 3; id++ {
		raw := tableKey(id, flow.ExactMask, 0)
		_, h := tm.st.find(&raw, tm.seed)
		switch {
		case len(tm.st.slots) == 16 && h&15 == 15 && len(homed) < 3:
			homed = append(homed, raw)
		case len(tm.ref) < 5 && h&15 > 2 && h&15 < 11:
			tm.put(raw)
		}
	}
	if len(tm.st.slots) != 16 {
		t.Fatalf("table has %d slots, want 16", len(tm.st.slots))
	}
	for _, raw := range homed {
		tm.put(raw)
	}
	if tm.st.slots[15].ent == nil || tm.st.slots[0].ent == nil || tm.st.slots[1].ent == nil {
		t.Fatal("colliding run does not wrap past the last slot")
	}
	tm.del(homed[0])
	tm.check()
	if tm.st.slots[15].ent == nil || tm.st.slots[0].ent == nil || tm.st.slots[1].ent != nil {
		t.Fatal("deleting the run's head did not shift its tail back across the wrap-around")
	}
	tm.del(homed[1])
	tm.del(homed[2])
	tm.check()
}

// Bounds of the subtable table (README, "Megaflow subtable layout"): what
// entry keys chosen by an adversary inside one subtable can cost a probe,
// and what one attack-minted subtable costs in memory.
const (
	maxMeanProbeLen     = 2.0 // slots examined per resident lookup, mean
	maxProbeLen         = 64  // ... and worst resident, up to 8192 entries
	maxSingletonBytes   = 432 // heap per one-entry subtable, entry, 64-byte row and index share included
	singletonSampleSize = 4096
)

// boundSeeds are the probe-hash seeds the bound tests run under, random
// 64-bit numbers like the one a process draws for itself (tableSeed). The
// seed is the hash's multiplier, so a regular one (1, -1, a power of two)
// would not mix at all.
var boundSeeds = []uint64{splitmix(1), splitmix(2), splitmix(3), splitmix(4), splitmix(5), splitmix(6), splitmix(7), splitmix(8)}

// portsMask selects in_port, ip_src and both ports: the words an entry
// key's owner is free to choose inside an ACL-minted subtable.
func portsMask() flow.Mask {
	var mask flow.Mask
	mask.SetExact(flow.FieldInPort)
	mask.SetExact(flow.FieldIPSrc)
	mask.SetExact(flow.FieldTPSrc)
	mask.SetExact(flow.FieldTPDst)
	return mask
}

func portsKey(ipSrc, tpSrc, tpDst uint64) flow.Key {
	var k flow.Key
	k.Set(flow.FieldInPort, 66)
	k.Set(flow.FieldIPSrc, ipSrc)
	k.Set(flow.FieldTPSrc, tpSrc)
	k.Set(flow.FieldTPDst, tpDst)
	return k
}

// probeLengths fills a subtable hashing from seed with keys and returns
// the mean and the largest number of slots a lookup of a resident examines
// (its displacement from the home slot, plus one).
func probeLengths(t *testing.T, seed uint64, keys []flow.Key) (mean float64, worst int) {
	tm := newTableModel(t, portsMask(), seed)
	for _, k := range keys {
		tm.put(k)
	}
	tm.check()
	m := uint64(len(tm.st.slots) - 1)
	total := 0
	for i, s := range tm.st.slots {
		if s.ent == nil {
			continue
		}
		n := int((uint64(i)-s.hash)&m) + 1
		total += n
		worst = max(worst, n)
	}
	return float64(total) / float64(tm.st.n), worst
}

// TestSubtableProbeLengthBound fills one subtable with regular key
// populations — sequential ports, single-bit flips of one flow, the covert
// stream's bit-flip products — and holds the displacement of every
// resident from its home slot to the stated bounds, under every seed.
func TestSubtableProbeLengthBound(t *testing.T) {
	populations := map[string][]flow.Key{}
	for i := 0; i < 8192; i++ {
		populations["sequential ports"] = append(populations["sequential ports"], portsKey(0x0a000001, uint64(i), 53211))
	}
	for w := 0; w < flow.Words; w++ {
		for b := 0; b < 64; b++ {
			k := portsKey(0x0a000001, 40000, 53211)
			k[w] ^= 1 << uint(b)
			populations["single-bit flips"] = append(populations["single-bit flips"], k)
		}
	}
	for a := 0; a < 32; a++ {
		for b := 0; b < 16; b++ {
			for c := 0; c < 16; c++ {
				populations["covert stream"] = append(populations["covert stream"],
					portsKey(0x0a000001^1<<uint(a), 40000^1<<uint(b), 53211^1<<uint(c)))
			}
		}
	}
	for name, keys := range populations {
		for _, seed := range boundSeeds {
			mean, worst := probeLengths(t, seed, keys)
			t.Logf("%s, seed %#x: probe length mean %.2f max %d", name, seed, mean, worst)
			if mean > maxMeanProbeLen || worst > maxProbeLen {
				t.Errorf("%s, seed %#x: probe length mean %.2f max %d, bounds %.1f / %d", name, seed, mean, worst, maxMeanProbeLen, maxProbeLen)
			}
		}
	}
}

// TestSubtableCraftedCollisions plays the owner of a mask who knows the
// hash but not the seed: against a guessed seed it searches offline for
// 512 entry keys that all land in one home slot of the 1024-slot table
// they fill, then installs them. Under the guessed seed that is one run
// of 512 slots (the attack works, so the population is the adversarial
// one); under any other seed the same keys must stay inside the bounds.
func TestSubtableCraftedCollisions(t *testing.T) {
	const guessed, want, homeBits = 0x9e3779b97f4a7c15, 512, 12
	scout := newSubtable(portsMask(), 0)
	var keys []flow.Key
	for i := uint64(0); len(keys) < want; i++ {
		k := portsKey(0x0a000000|i>>32, i>>16&0xffff, i&0xffff)
		if _, h := scout.find(&k, guessed|1); h&(1<<homeBits-1) == 0 {
			keys = append(keys, k)
		}
	}
	if mean, worst := probeLengths(t, guessed, keys); worst < want {
		t.Fatalf("crafted keys under the guessed seed: probe length mean %.1f max %d, want one run of %d", mean, worst, want)
	}
	for _, seed := range boundSeeds {
		mean, worst := probeLengths(t, seed, keys)
		t.Logf("crafted keys, seed %#x: probe length mean %.2f max %d", seed, mean, worst)
		if mean > maxMeanProbeLen || worst > maxProbeLen {
			t.Errorf("crafted keys, seed %#x: probe length mean %.2f max %d, bounds %.1f / %d", seed, mean, worst, maxMeanProbeLen, maxProbeLen)
		}
	}
}

// threeFieldMasks returns the masks of attack8192_flat's megaflow cache: on
// the benchmark's policy — the victim's whitelist of 10.10.0.0/24 and default
// deny on in_port 1, then the attack's ACL (allow 10.0.0.1/32, tcp to port 80,
// tcp from port 5201, default deny) scoped to in_port 66 — a victim flow's
// megaflow, then the covert stream's: one key per triple of divergence depths,
// the whitelisted value of each field with one bit flipped. Keys go through
// the cache, so one an earlier megaflow covers mints nothing.
func threeFieldMasks(t *testing.T) []flow.Mask {
	t.Helper()
	var table flowtable.Table
	cls := classifier.New(classifier.Config{})
	var victim, victimDeny flow.Match
	victim.Key.Set(flow.FieldInPort, 1)
	victim.Mask.SetExact(flow.FieldInPort)
	victimDeny = victim
	victim.Key.Set(flow.FieldEthType, flow.EthTypeIPv4)
	victim.Mask.SetExact(flow.FieldEthType)
	victim.Key.Set(flow.FieldIPSrc, 0x0a0a0000)
	victim.Mask.SetPrefix(flow.FieldIPSrc, 24)
	cls.Insert(table.Insert(flowtable.Rule{Match: victim, Priority: 100, Action: flowtable.Action{Verdict: flowtable.Allow}}))
	cls.Insert(table.Insert(flowtable.Rule{Match: victimDeny}))
	var policy acl.ACL
	policy.Allow(acl.Entry{Src: netip.MustParsePrefix("10.0.0.1/32")})
	policy.Allow(acl.Entry{Proto: 6, DstPort: acl.Port(80)})
	policy.Allow(acl.Entry{Proto: 6, SrcPort: acl.Port(5201)})
	rules, err := policy.Compile()
	if err != nil {
		t.Fatal(err)
	}
	for _, r := range rules {
		r.Match.Key.Set(flow.FieldInPort, 66)
		r.Match.Mask.SetExact(flow.FieldInPort)
		cls.Insert(table.Insert(r))
	}
	mf := NewMegaflow(MegaflowConfig{FlowLimit: -1})
	send := func(k flow.Key) {
		if _, _, hit := mf.Lookup(k, 1); !hit {
			if _, err := mf.Insert(cls.Lookup(k).Megaflow, deny, 1); err != nil {
				t.Fatal(err)
			}
		}
	}
	tuple := flow.FiveTuple{
		Src: netip.MustParseAddr("10.10.0.7"), Dst: netip.MustParseAddr("172.16.0.2"),
		Proto: 6, SrcPort: 40000, DstPort: 5001,
	}
	send(tuple.Key(1)) // the victim's own megaflow
	tuple.Src, tuple.DstPort = netip.MustParseAddr("172.16.0.66"), 53211
	for src := range 32 {
		for dport := range 16 {
			for sport := range 16 {
				k := tuple.Key(66)
				k.Set(flow.FieldIPSrc, 0x0a000001^1<<uint(31-src))
				k.Set(flow.FieldTPDst, 80^1<<uint(15-dport))
				k.Set(flow.FieldTPSrc, 5201^1<<uint(15-sport))
				send(k)
			}
		}
	}
	masks := make([]flow.Mask, 0, mf.NumMasks())
	for _, row := range mf.subtables {
		masks = append(masks, row.st.mask)
	}
	return masks
}

// TestMaskIndexProbeLengthBound mints regular mask populations — the
// three-field attack's masks, and a prefix ladder of masks one bit apart — and
// holds the displacement of every subtable in the mask index from its home
// slot to the subtable tables' bounds, under every seed.
func TestMaskIndexProbeLengthBound(t *testing.T) {
	populations := map[string][]flow.Mask{"three-field attack": threeFieldMasks(t)}
	if n := len(populations["three-field attack"]); n != 7937 {
		t.Fatalf("the three-field attack mints %d masks, want 7937", n)
	}
	for plen := 1; plen <= 128; plen++ {
		for dport := 1; dport <= 16; dport++ {
			var mask flow.Mask
			mask.SetExact(flow.FieldInPort)
			mask.SetPrefix(flow.FieldIPv6SrcHi, min(plen, 64))
			mask.SetPrefix(flow.FieldIPv6SrcLo, max(plen-64, 0))
			mask.SetPrefix(flow.FieldTPDst, dport)
			populations["prefix ladder"] = append(populations["prefix ladder"], mask)
		}
	}
	for name, masks := range populations {
		for _, seed := range boundSeeds {
			m := NewMegaflow(MegaflowConfig{FlowLimit: -1})
			m.seed = seed | 1
			for _, mask := range masks {
				if _, err := m.Insert(flow.Match{Mask: mask}, allow, 1); err != nil {
					t.Fatal(err)
				}
			}
			checkScanRows(t, m)
			n, total, worst := uint64(len(m.index)-1), 0, 0
			for i, st := range m.index {
				if st == nil {
					continue
				}
				d := int((uint64(i)-st.mhash)&n) + 1
				total += d
				worst = max(worst, d)
			}
			mean := float64(total) / float64(len(masks))
			t.Logf("%s (%d masks), seed %#x: probe length mean %.2f max %d", name, len(masks), seed, mean, worst)
			if mean > maxMeanProbeLen || worst > maxProbeLen {
				t.Errorf("%s, seed %#x: probe length mean %.2f max %d, bounds %.1f / %d", name, seed, mean, worst, maxMeanProbeLen, maxProbeLen)
			}
		}
	}
}

// TestSingletonSubtableHeapBound mints one-entry subtables the way the
// attack does and holds the live heap each costs — entry, descriptor with
// its inline two-slot table, mask index and scan-order share — to the
// stated budget. The input matches stay live to the second reading: freed
// between the two, their 160 bytes a mask would come off the cache's cost.
func TestSingletonSubtableHeapBound(t *testing.T) {
	matches := make([]flow.Match, singletonSampleSize)
	for i := range matches {
		m := &matches[i]
		m.Mask.SetExact(flow.FieldInPort)
		m.Mask.SetPrefix(flow.FieldIPSrc, 1+i%32)
		m.Mask.SetPrefix(flow.FieldTPSrc, 1+i/32%16)
		m.Mask.SetPrefix(flow.FieldTPDst, 1+i/512%16)
		m.Key.Set(flow.FieldInPort, 66)
		m.Key.Set(flow.FieldIPSrc, 0xffffffff)
		m.Key.Set(flow.FieldTPSrc, 0xffff)
		m.Key.Set(flow.FieldTPDst, 0xffff)
	}
	var before, after runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&before)
	mf := NewMegaflow(MegaflowConfig{})
	for _, m := range matches {
		if _, err := mf.Insert(m, Verdict{}, 1); err != nil {
			t.Fatal(err)
		}
	}
	runtime.GC()
	runtime.ReadMemStats(&after)
	if mf.NumMasks() != singletonSampleSize {
		t.Fatalf("minted %d masks, want %d", mf.NumMasks(), singletonSampleSize)
	}
	per := (float64(after.HeapAlloc) - float64(before.HeapAlloc)) / singletonSampleSize
	t.Logf("%.0f bytes of live heap per singleton subtable", per)
	if per > maxSingletonBytes {
		t.Errorf("%.0f bytes per singleton subtable, budget %d", per, maxSingletonBytes)
	}
	runtime.KeepAlive(mf)
	runtime.KeepAlive(matches)
}
