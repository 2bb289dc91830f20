package cache

import (
	"math/rand"
	"slices"
	"testing"

	"policyinject/internal/burst"
	"policyinject/internal/flow"
)

// stagedEqualFlat asserts that a staged-pruning cache and a flat cache
// holding the same entries classify k identically (hit set + verdict).
// Costs are intentionally not compared: the staged scan reports physical
// visits, the flat scan reports scan depth.
func stagedEqualFlat(t *testing.T, staged, flat *Megaflow, k flow.Key, now uint64) {
	t.Helper()
	sEnt, _, sOK := staged.Lookup(k, now)
	fEnt, _, fOK := flat.Lookup(k, now)
	if sOK != fOK {
		t.Fatalf("staged hit=%v, flat hit=%v for key %v", sOK, fOK, k)
	}
	if sOK && sEnt.Verdict != fEnt.Verdict {
		t.Fatalf("staged verdict %v, flat verdict %v for key %v", sEnt.Verdict, fEnt.Verdict, k)
	}
}

// checkStagedInvariants rebuilds every subtable's staged prefilters from
// its resident entries and demands the live structures agree — the
// consistency contract Flush/TrimToLimit/EvictIdle/Remove must maintain.
func checkStagedInvariants(t *testing.T, m *Megaflow) {
	t.Helper()
	for si, row := range m.subtables {
		st := row.st
		if st.staged == nil {
			t.Fatalf("subtable %d has no staged state", si)
		}
		ref := newSubtable(st.mask(), 0)
		ref.staged = newStagedState(st.mask())
		for ent := range st.residents {
			ref.addEntry(ent.Key)
		}
		got, want := st.staged, ref.staged
		if len(got.w0vals) != len(want.w0vals) {
			t.Fatalf("subtable %d: w0vals size %d, want %d", si, len(got.w0vals), len(want.w0vals))
		}
		for v, n := range want.w0vals {
			if got.w0vals[v] != n {
				t.Fatalf("subtable %d: w0vals[%#x] = %d, want %d", si, v, got.w0vals[v], n)
			}
		}
		if len(got.idx) != len(want.idx) {
			t.Fatalf("subtable %d: %d stage indices, want %d", si, len(got.idx), len(want.idx))
		}
		for i := range want.idx {
			if got.idx[i].stage != want.idx[i].stage || len(got.idx[i].hashes) != len(want.idx[i].hashes) {
				t.Fatalf("subtable %d stage %v: index size %d, want %d",
					si, want.idx[i].stage, len(got.idx[i].hashes), len(want.idx[i].hashes))
			}
			for h, n := range want.idx[i].hashes {
				if got.idx[i].hashes[h] != n {
					t.Fatalf("subtable %d stage %v: hash %#x refcount %d, want %d",
						si, want.idx[i].stage, h, got.idx[i].hashes[h], n)
				}
			}
		}
		if len(got.ports) != len(want.ports) {
			t.Fatalf("subtable %d: %d port filters, want %d", si, len(got.ports), len(want.ports))
		}
		for i := range want.ports {
			g, w := &got.ports[i], &want.ports[i]
			if g.vals.Len() != w.vals.Len() || g.min != w.min || g.max != w.max {
				t.Fatalf("subtable %d port %v: len/min/max = %d/%#x/%#x, want %d/%#x/%#x",
					si, w.field.Name, g.vals.Len(), g.min, g.max, w.vals.Len(), w.min, w.max)
			}
		}
	}
}

func stagedCfg() MegaflowConfig { return MegaflowConfig{StagedPruning: true} }

// TestStagedVsFlatDifferential drives the same random non-overlapping
// insert/remove/lookup/maintenance traffic (the shape the slow path
// synthesises) through a staged-pruning cache and a flat one, demanding
// identical classification throughout — the pruned sweep must be an
// optimisation, never a semantic change.
func TestStagedVsFlatDifferential(t *testing.T) {
	rng := rand.New(rand.NewSource(47))
	staged := NewMegaflow(stagedCfg())
	flat := NewMegaflow(MegaflowConfig{})
	verdicts := []Verdict{allow, deny}

	var live []flow.Match
	for step := uint64(1); step < 8000; step++ {
		switch op := rng.Intn(12); {
		case op < 4: // insert
			m := randomNonOverlapMatch(rng)
			v := verdicts[rng.Intn(2)]
			if _, err := staged.Insert(m, v, step); err != nil {
				t.Fatalf("step %d: staged insert: %v", step, err)
			}
			if _, err := flat.Insert(m, v, step); err != nil {
				t.Fatalf("step %d: flat insert: %v", step, err)
			}
			live = append(live, m)
		case op < 5 && len(live) > 0: // remove
			i := rng.Intn(len(live))
			if got, want := staged.Remove(live[i]), flat.Remove(live[i]); got != want {
				t.Fatalf("step %d: staged Remove=%v flat=%v", step, got, want)
			}
			live = append(live[:i], live[i+1:]...)
		case op < 6 && step%512 == 0: // idle sweep
			if got, want := staged.EvictIdle(step-64), flat.EvictIdle(step-64); got != want {
				t.Fatalf("step %d: staged EvictIdle=%d flat=%d", step, got, want)
			}
			live = live[:0]
			for _, ent := range flat.Entries() {
				live = append(live, ent.Match())
			}
		default: // lookup
			var k flow.Key
			k.Set(flow.FieldInPort, uint64(rng.Intn(3)))
			k.Set(flow.FieldIPSrc, uint64(0x0a000001)^(1<<uint(rng.Intn(32))))
			k.Set(flow.FieldTPDst, uint64(80^(1<<uint(rng.Intn(16)))))
			stagedEqualFlat(t, staged, flat, k, step)
		}
		if staged.Len() != flat.Len() || staged.NumMasks() != flat.NumMasks() {
			t.Fatalf("step %d: staged %d/%d vs flat %d/%d (entries/masks)",
				step, staged.Len(), staged.NumMasks(), flat.Len(), flat.NumMasks())
		}
	}
	if staged.Hits != flat.Hits || staged.Misses != flat.Misses {
		t.Fatalf("hit/miss diverge: staged %d/%d, flat %d/%d",
			staged.Hits, staged.Misses, flat.Hits, flat.Misses)
	}
	checkStagedInvariants(t, staged)
}

// TestStagedL4RangeMasks pins the ports-filter corner the satellite calls
// out: masks that differ only in their L4 prefix length must still
// classify identically to the flat scan, for keys inside and outside the
// resident port ranges.
func TestStagedL4RangeMasks(t *testing.T) {
	staged := NewMegaflow(stagedCfg())
	flat := NewMegaflow(MegaflowConfig{})
	// One subtable per tp_dst prefix length; identical everywhere else.
	for plen := 1; plen <= 16; plen++ {
		var m flow.Match
		m.Key.Set(flow.FieldInPort, 1)
		m.Mask.SetExact(flow.FieldInPort)
		m.Key.Set(flow.FieldTPDst, uint64(0x8000>>uint(plen-1)))
		m.Mask.SetPrefix(flow.FieldTPDst, plen)
		m.Normalize()
		for _, c := range []*Megaflow{staged, flat} {
			if _, err := c.Insert(m, allow, 1); err != nil {
				t.Fatal(err)
			}
		}
	}
	for port := uint64(0); port < 1<<16; port += 97 {
		var k flow.Key
		k.Set(flow.FieldInPort, 1)
		k.Set(flow.FieldTPDst, port)
		stagedEqualFlat(t, staged, flat, k, 2)
	}
	checkStagedInvariants(t, staged)
}

// TestStagedBatchEqualsScalar pins exact batch==scalar equivalence for
// the staged sweep: hits, verdicts, per-key costs and every cache
// counter — including the new visit/prune/bail counters — must match the
// scalar staged sequence over the same keys.
func TestStagedBatchEqualsScalar(t *testing.T) {
	build := func() *Megaflow {
		m := NewMegaflow(stagedCfg())
		rng := rand.New(rand.NewSource(9))
		for i := 0; i < 64; i++ {
			if _, err := m.Insert(randomNonOverlapMatch(rng), allow, 1); err != nil {
				t.Fatal(err)
			}
		}
		return m
	}
	rng := rand.New(rand.NewSource(10))
	keys := make([]flow.Key, 48)
	for i := range keys {
		keys[i].Set(flow.FieldInPort, uint64(rng.Intn(3)))
		keys[i].Set(flow.FieldIPSrc, uint64(0x0a000001)^(1<<uint(rng.Intn(32))))
		keys[i].Set(flow.FieldTPDst, uint64(80^(1<<uint(rng.Intn(16)))))
	}
	seqM, batchM := build(), build()
	type res struct {
		ok   bool
		cost int
	}
	seq := make([]res, len(keys))
	for i, k := range keys {
		_, cost, ok := seqM.Lookup(k, 5)
		seq[i] = res{ok: ok, cost: cost}
	}
	var miss burst.Bitmap
	miss.Reset(len(keys))
	miss.SetAll()
	ents := make([]*Entry, len(keys))
	costs := make([]int, len(keys))
	batchM.LookupBatch(keys, 5, ents, costs, &miss)
	for i := range keys {
		if got := !miss.Test(i); got != seq[i].ok || costs[i] != seq[i].cost {
			t.Errorf("key %d: batch (hit=%v cost=%d) vs scalar (hit=%v cost=%d)",
				i, !miss.Test(i), costs[i], seq[i].ok, seq[i].cost)
		}
	}
	type counters struct{ l, h, mi, ms, v, p, b uint64 }
	snap := func(m *Megaflow) counters {
		return counters{m.Lookups, m.Hits, m.Misses, m.MasksScanned,
			m.SubtableVisits, m.SubtablePrunes, m.StageBails}
	}
	if a, b := snap(seqM), snap(batchM); a != b {
		t.Errorf("counters diverge:\n scalar %+v\n batch  %+v", a, b)
	}
}

// TestStagedOrderingIndependence inserts the same disjoint megaflow
// population in shuffled orders (so the initial scan orders differ) and
// demands identical classification — the property that makes re-ranking
// the scan safe.
func TestStagedOrderingIndependence(t *testing.T) {
	rng := rand.New(rand.NewSource(21))
	var pop []flow.Match
	for i := 0; i < 48; i++ {
		pop = append(pop, randomNonOverlapMatch(rng))
	}
	build := func(perm []int) *Megaflow {
		// Every step is a tick, so re-ranking fires throughout and must not
		// change results either.
		m := NewMegaflow(stagedCfg())
		for _, i := range perm {
			if _, err := m.Insert(pop[i], allow, 1); err != nil {
				t.Fatal(err)
			}
		}
		return m
	}
	fwd := make([]int, len(pop))
	shuf := make([]int, len(pop))
	for i := range fwd {
		fwd[i], shuf[i] = i, i
	}
	rng.Shuffle(len(shuf), func(i, j int) { shuf[i], shuf[j] = shuf[j], shuf[i] })
	a, b := build(fwd), build(shuf)
	for step := uint64(2); step < 600; step++ {
		var k flow.Key
		k.Set(flow.FieldInPort, uint64(rng.Intn(3)))
		k.Set(flow.FieldIPSrc, uint64(0x0a000001)^(1<<uint(rng.Intn(32))))
		k.Set(flow.FieldTPDst, uint64(80^(1<<uint(rng.Intn(16)))))
		aEnt, _, aOK := a.Lookup(k, step)
		bEnt, _, bOK := b.Lookup(k, step)
		if aOK != bOK {
			t.Fatalf("step %d: insertion order changed the hit set", step)
		}
		if aOK && aEnt.Verdict != bEnt.Verdict {
			t.Fatalf("step %d: insertion order changed the verdict", step)
		}
	}
	if a.Hits != b.Hits || a.Misses != b.Misses {
		t.Fatalf("hit/miss diverge across insertion orders: %d/%d vs %d/%d",
			a.Hits, a.Misses, b.Hits, b.Misses)
	}
}

// TestStagedRankingPromotesHot pins the staged ranking: a hot subtable
// inserted last must float to the front of the scan at the tick after its
// hits, dropping its lookup cost to a single visit.
func TestStagedRankingPromotesHot(t *testing.T) {
	m := NewMegaflow(stagedCfg())
	// 8 cold decoy subtables, same in_port so the signature filter cannot
	// hide them (distinct ip_src prefix depths mint distinct masks).
	for d := 1; d <= 8; d++ {
		var dm flow.Match
		dm.Key.Set(flow.FieldInPort, 1)
		dm.Mask.SetExact(flow.FieldInPort)
		dm.Key.Set(flow.FieldIPSrc, 0x20000000>>uint(d))
		dm.Mask.SetPrefix(flow.FieldIPSrc, d)
		dm.Normalize()
		if _, err := m.Insert(dm, deny, 1); err != nil {
			t.Fatal(err)
		}
	}
	var hot flow.Match
	hot.Key.Set(flow.FieldInPort, 1)
	hot.Mask.SetExact(flow.FieldInPort)
	hot.Key.Set(flow.FieldIPSrc, 0xc0a80101)
	hot.Mask.SetPrefix(flow.FieldIPSrc, 32)
	hot.Normalize()
	if _, err := m.Insert(hot, allow, 1); err != nil {
		t.Fatal(err)
	}
	var k flow.Key
	k.Set(flow.FieldInPort, 1)
	k.Set(flow.FieldIPSrc, 0xc0a80101)
	if m.subtables[len(m.subtables)-1].st.mask() != hot.Mask {
		t.Fatal("precondition: hot subtable should start last in scan order")
	}
	for i := 0; i < 2*64; i++ {
		if _, _, ok := m.Lookup(k, 2); !ok {
			t.Fatal("hot key missed")
		}
	}
	_, cost, ok := m.Lookup(k, 3)
	if m.subtables[0].st.mask() != hot.Mask {
		t.Fatal("hot subtable not ranked to the front at the tick after its hits")
	}
	if !ok || cost != 1 {
		t.Fatalf("ranked hot lookup: cost=%d ok=%v, want cost 1", cost, ok)
	}
}

// TestStagedFlushTrimConsistency is the regression test for the
// maintenance paths: TrimToLimit and EvictIdle must keep the ranked scan
// order (relative order of survivors) and every staged prefilter
// consistent, and Flush must reset the whole staged state.
func TestStagedFlushTrimConsistency(t *testing.T) {
	m := NewMegaflow(stagedCfg())
	rng := rand.New(rand.NewSource(33))
	for i := uint64(1); i <= 40; i++ {
		if _, err := m.Insert(randomNonOverlapMatch(rng), allow, i); err != nil {
			t.Fatal(err)
		}
	}
	// Heat a few subtables so ranking produces a non-insertion order; the
	// next tick's first lookup ranks them.
	hot := m.Entries()[10:20]
	for _, ent := range hot {
		for i := 0; i < 20; i++ {
			if _, _, ok := m.Lookup(ent.Key, 50); !ok {
				t.Fatal("resident masked key missed its own subtable")
			}
		}
	}
	m.Lookup(hot[0].Key, 51)
	if !slices.ContainsFunc(hot, func(e *Entry) bool { return e.st == m.subtables[0].st }) {
		t.Fatal("the heated subtables were not ranked ahead of the rest")
	}
	checkStagedInvariants(t, m)

	order := func() []flow.Mask {
		out := make([]flow.Mask, len(m.subtables))
		for i, row := range m.subtables {
			out[i] = row.st.mask()
		}
		return out
	}
	before := order()

	m.SetFlowLimit(m.Len() / 2)
	if n := m.TrimToLimit(); n == 0 {
		t.Fatal("TrimToLimit evicted nothing below the cut")
	}
	checkStagedInvariants(t, m)
	// Survivor subtables must keep their relative ranked order.
	after := order()
	pos := make(map[flow.Mask]int, len(before))
	for i, mk := range before {
		pos[mk] = i
	}
	for i := 1; i < len(after); i++ {
		if pos[after[i-1]] > pos[after[i]] {
			t.Fatalf("TrimToLimit reordered the ranked scan: %v before %v", after[i-1], after[i])
		}
	}

	if m.EvictIdle(49) == 0 {
		t.Fatal("EvictIdle evicted nothing despite stale residents")
	}
	checkStagedInvariants(t, m)

	m.Flush()
	if m.Len() != 0 || m.NumMasks() != 0 {
		t.Fatalf("Flush left %d entries / %d masks", m.Len(), m.NumMasks())
	}
	// The cache must keep working (and stay consistent) after a flush.
	if _, err := m.Insert(randomNonOverlapMatch(rng), allow, 100); err != nil {
		t.Fatal(err)
	}
	checkStagedInvariants(t, m)
}

// TestStagedPrunesAttackLadder reproduces the mechanism that bends the
// paper's curve: with a covert ladder resident behind the attacker's
// port, victim traffic must reject every attacker subtable on the
// stage-0 signature alone — zero full probes beyond the victim's own
// subtables, in both the scalar and the batched sweep.
func TestStagedPrunesAttackLadder(t *testing.T) {
	m := NewMegaflow(stagedCfg())
	// Covert ladder: 64 masks pinned to the attacker's in_port 66.
	for d := 1; d <= 32; d++ {
		for _, dport := range []int{4, 8} {
			var am flow.Match
			am.Key.Set(flow.FieldInPort, 66)
			am.Mask.SetExact(flow.FieldInPort)
			am.Key.Set(flow.FieldEthType, 0x0800)
			am.Mask.SetExact(flow.FieldEthType)
			am.Key.Set(flow.FieldIPSrc, 0x0a000001)
			am.Mask.SetPrefix(flow.FieldIPSrc, d)
			am.Key.Set(flow.FieldTPDst, 80)
			am.Mask.SetPrefix(flow.FieldTPDst, dport)
			am.Normalize()
			if _, err := m.Insert(am, deny, 1); err != nil {
				t.Fatal(err)
			}
		}
	}
	// Victim megaflow on port 1.
	var vm flow.Match
	vm.Key.Set(flow.FieldInPort, 1)
	vm.Mask.SetExact(flow.FieldInPort)
	vm.Key.Set(flow.FieldEthType, 0x0800)
	vm.Mask.SetExact(flow.FieldEthType)
	vm.Key.Set(flow.FieldIPSrc, 0x0a0a0005)
	vm.Mask.SetPrefix(flow.FieldIPSrc, 24)
	vm.Normalize()
	if _, err := m.Insert(vm, allow, 1); err != nil {
		t.Fatal(err)
	}

	var vk flow.Key
	vk.Set(flow.FieldInPort, 1)
	vk.Set(flow.FieldEthType, 0x0800)
	vk.Set(flow.FieldIPSrc, 0x0a0a0007)

	_, cost, ok := m.Lookup(vk, 2)
	if !ok {
		t.Fatal("victim key missed")
	}
	if cost != 1 {
		t.Fatalf("victim scalar cost = %d subtable visits, want 1 (ladder pruned)", cost)
	}

	// Batched: the whole ladder must be skipped at burst level.
	keys := make([]flow.Key, 16)
	for i := range keys {
		keys[i] = vk
		keys[i].Set(flow.FieldIPSrc, uint64(0x0a0a0001+i))
	}
	visitsBefore := m.SubtableVisits
	var miss burst.Bitmap
	miss.Reset(len(keys))
	miss.SetAll()
	ents := make([]*Entry, len(keys))
	costs := make([]int, len(keys))
	m.LookupBatch(keys, 3, ents, costs, &miss)
	if !miss.Empty() {
		t.Fatal("victim burst missed")
	}
	if got := m.SubtableVisits - visitsBefore; got != uint64(len(keys)) {
		t.Fatalf("burst visited %d subtables, want %d (one per key, ladder pruned)", got, len(keys))
	}
}

// FuzzStagedVsFlatLookup is the staged-vs-flat differential as a fuzz
// target: arbitrary bytes drive inserts and lookups of slow-path-shaped
// matches through both configurations; any divergence in hit set or
// verdict is a crash. Run by the CI fuzz smoke.
func FuzzStagedVsFlatLookup(f *testing.F) {
	f.Add([]byte{1, 2, 3, 4, 5, 6, 7, 8})
	f.Add([]byte{0xff, 0x00, 0x80, 0x41, 0x13, 0x37})
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) < 4 {
			return
		}
		staged := NewMegaflow(stagedCfg())
		flat := NewMegaflow(MegaflowConfig{})
		byteAt := func(i int) uint64 { return uint64(data[i%len(data)]) }
		now := uint64(1)
		for i := 0; i+3 < len(data); i += 4 {
			op, b1, b2, b3 := byteAt(i), byteAt(i+1), byteAt(i+2), byteAt(i+3)
			now++
			if op%3 == 0 {
				// Insert a divergence-prefix match: exact in_port plus
				// ip_src / tp_dst prefixes — the shapes the slow path mints,
				// including masks differing only in L4 depth.
				var mt flow.Match
				mt.Key.Set(flow.FieldInPort, b1%3)
				mt.Mask.SetExact(flow.FieldInPort)
				d1 := 1 + int(b2%32)
				mt.Key.Set(flow.FieldIPSrc, uint64(0x0a000001)^(1<<uint(32-d1)))
				mt.Mask.SetPrefix(flow.FieldIPSrc, d1)
				d2 := 1 + int(b3%16)
				mt.Key.Set(flow.FieldTPDst, uint64(80^(1<<uint(16-d2))))
				mt.Mask.SetPrefix(flow.FieldTPDst, d2)
				mt.Normalize()
				v := allow
				if b1&0x80 != 0 {
					v = deny
				}
				if _, err := staged.Insert(mt, v, now); err != nil {
					t.Fatal(err)
				}
				if _, err := flat.Insert(mt, v, now); err != nil {
					t.Fatal(err)
				}
				continue
			}
			var k flow.Key
			k.Set(flow.FieldInPort, b1%3)
			k.Set(flow.FieldIPSrc, uint64(0x0a000001)^(1<<uint(b2%32)))
			k.Set(flow.FieldTPDst, uint64(80^(1<<uint(b3%16))))
			sEnt, _, sOK := staged.Lookup(k, now)
			fEnt, _, fOK := flat.Lookup(k, now)
			if sOK != fOK {
				t.Fatalf("staged hit=%v flat hit=%v", sOK, fOK)
			}
			if sOK && sEnt.Verdict != fEnt.Verdict {
				t.Fatalf("staged verdict %v, flat %v", sEnt.Verdict, fEnt.Verdict)
			}
		}
		if staged.Len() != flat.Len() || staged.Hits != flat.Hits || staged.Misses != flat.Misses {
			t.Fatalf("state diverged: staged %d/%d/%d, flat %d/%d/%d",
				staged.Len(), staged.Hits, staged.Misses, flat.Len(), flat.Hits, flat.Misses)
		}
	})
}
