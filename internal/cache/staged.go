package cache

import (
	"math/bits"

	"policyinject/internal/burst"
	"policyinject/internal/flow"
	"policyinject/internal/trie"
)

// stagedState is the per-subtable staged-lookup and pruning state the
// megaflow cache maintains when MegaflowConfig.StagedPruning is set. It
// models the two real-world OVS countermeasures to the paper's attack:
//
//   - staged lookups (lib/classifier subtable indices): the subtable's
//     mask is split along flow.Stage boundaries and a refcounted index of
//     incremental stage hashes is kept per intermediate stage, so a probe
//     can bail at the first stage whose partial hash matches no resident
//     entry — without masking or hashing the rest of the key;
//   - the L4 ports filter (the classifier's ports trie): for a mask that
//     is a pure prefix over tp_src/tp_dst, the distinct masked port
//     values are tracked in a trie whose min/max bound lets both a single
//     key and a whole burst be rejected in O(1).
//
// On top of those, the stage-0 signature (the masked word-0 values:
// in_port, eth_type, vlan_tci) is tracked exactly, because it is the
// field the attack cannot vary — every minted mask pins the attacker's
// in_port, so victim traffic rejects the entire covert ladder on this
// check alone.
type stagedState struct {
	w0mask uint64         // mask word 0 (stage-0 signature mask)
	w0vals map[uint64]int // refcounted masked word-0 values; nil when w0mask == 0

	used uint8        // bitmap of flow.Stages the mask selects
	idx  []stageIndex // intermediate stage-hash indices, ascending stage

	ports []portFilter // L4 ports filters (masks with a pure port prefix)
}

type stageIndex struct {
	stage  flow.Stage
	hashes map[uint64]int // refcounted incremental stage-chain hashes
}

// portFilter tracks the population of masked values of one L4 port field
// across a subtable's entries. A key (or a whole burst) whose masked
// value falls outside [min, max] cannot match any entry, because entries
// store masked keys and a match requires field equality.
type portFilter struct {
	field flow.Field
	pm    uint64 // right-aligned prefix mask over the field
	plen  int
	vals  *trie.Trie // distinct masked values, refcounted (ports-trie shape)
	min   uint64
	max   uint64
}

// portFields are the fields the ports filter covers.
var portFields = [...]flow.FieldID{flow.FieldTPSrc, flow.FieldTPDst}

// newStagedState derives the staged layout of a subtable from its mask.
func newStagedState(mask flow.Mask) *stagedState {
	ss := &stagedState{w0mask: mask[0]}
	if ss.w0mask != 0 {
		ss.w0vals = make(map[uint64]int)
	}
	last, anyUsed := mask.LastStage()
	for s := flow.Stage(0); s < flow.NumStages; s++ {
		if mask.StageUsed(s) {
			ss.used |= 1 << s
		}
	}
	if anyUsed {
		// One hash index per used intermediate stage after the metadata
		// stage (covered exactly by w0vals) and before the final stage
		// (covered by the subtable's table itself).
		for s := flow.StageL2; s < last; s++ {
			if mask.StageUsed(s) {
				ss.idx = append(ss.idx, stageIndex{stage: s, hashes: make(map[uint64]int)})
			}
		}
	}
	for _, id := range portFields {
		if plen, ok := mask.PrefixLen(id); ok && plen > 0 {
			f := flow.FieldByID(id)
			ss.ports = append(ss.ports, portFilter{
				field: f,
				pm:    ((uint64(1) << uint(plen)) - 1) << uint(f.Bits-plen),
				plen:  plen,
				vals:  trie.New(f.Bits),
			})
		}
	}
	return ss
}

// chainTo advances the incremental stage-hash chain h (seeded with
// flow.StageHashSeed) from stage next through stage s inclusive, skipping
// stages the mask does not use, and returns the new accumulator plus the
// next stage to resume from.
func (ss *stagedState) chainTo(h uint64, k *flow.Key, mask *flow.Mask, next, s flow.Stage) (uint64, flow.Stage) {
	for ; next <= s; next++ {
		if ss.used&(1<<next) != 0 {
			h = k.HashStage(h, mask, next)
		}
	}
	return h, next
}

// addEntry indexes a freshly inserted entry key (already masked) into the
// subtable's staged structures.
func (st *mfSubtable) addEntry(k flow.Key) {
	ss := st.staged
	if ss == nil {
		return
	}
	if ss.w0vals != nil {
		ss.w0vals[k[0]]++
	}
	mask := st.mask()
	h, next := flow.StageHashSeed, flow.Stage(0)
	for i := range ss.idx {
		h, next = ss.chainTo(h, &k, &mask, next, ss.idx[i].stage)
		ss.idx[i].hashes[h]++
	}
	for i := range ss.ports {
		ss.ports[i].insert(ss.ports[i].field.Get(&k))
	}
}

// dropEntry removes an entry key (already masked) from the subtable's
// staged structures.
func (st *mfSubtable) dropEntry(k flow.Key) {
	ss := st.staged
	if ss == nil {
		return
	}
	if ss.w0vals != nil {
		if ss.w0vals[k[0]]--; ss.w0vals[k[0]] <= 0 {
			delete(ss.w0vals, k[0])
		}
	}
	mask := st.mask()
	h, next := flow.StageHashSeed, flow.Stage(0)
	for i := range ss.idx {
		h, next = ss.chainTo(h, &k, &mask, next, ss.idx[i].stage)
		if ss.idx[i].hashes[h]--; ss.idx[i].hashes[h] <= 0 {
			delete(ss.idx[i].hashes, h)
		}
	}
	for i := range ss.ports {
		ss.ports[i].remove(ss.ports[i].field.Get(&k))
	}
}

func (pf *portFilter) insert(v uint64) {
	if pf.vals.Len() == 0 {
		pf.min, pf.max = v, v
	} else {
		if v < pf.min {
			pf.min = v
		}
		if v > pf.max {
			pf.max = v
		}
	}
	pf.vals.Insert(v, pf.plen)
}

func (pf *portFilter) remove(v uint64) {
	pf.vals.Remove(v, pf.plen)
	if pf.vals.Len() == 0 {
		// Empty range rejects everything; the subtable is about to be
		// dropped anyway once its last entry goes.
		pf.min, pf.max = 1, 0
		return
	}
	// The trie stores masked values (low bits zero), so a stored prefix's
	// left-aligned Value is the masked value itself.
	if v == pf.min {
		if p, ok := pf.vals.Min(); ok {
			pf.min = p.Value
		}
	}
	if v == pf.max {
		if p, ok := pf.vals.Max(); ok {
			pf.max = p.Value
		}
	}
}

// probeOutcome classifies one staged subtable visit.
type probeOutcome uint8

const (
	probePruned probeOutcome = iota // rejected by a zero-cost prefilter (not billed as a visit)
	probeBailed                     // visited, bailed at a stage-hash index
	probeMissed                     // visited, full probe found no entry
	probeHit                        // visited, full probe hit
)

// stagedProbe classifies k against the subtable: signature and ports
// prefilters first (free rejects), then the incremental stage-hash chain
// (bail at the first non-matching stage), then the full table probe.
// Only bails and full probes count as visits — that is the physical cost
// the staged sweep reports. skipW0 elides the signature check when the
// caller already proved it passes (the sweep does, for bursts with a
// single word-0 signature); eliding a check that can only pass changes no
// counter.
func (st *mfSubtable) stagedProbe(k *flow.Key, seed uint64, skipW0 bool) (*Entry, probeOutcome) {
	ss := st.staged
	if !skipW0 && ss.w0vals != nil {
		if _, ok := ss.w0vals[k[0]&ss.w0mask]; !ok {
			return nil, probePruned
		}
	}
	for i := range ss.ports {
		pf := &ss.ports[i]
		if v := pf.field.Get(k) & pf.pm; v < pf.min || v > pf.max {
			return nil, probePruned
		}
	}
	mask := st.mask()
	h, next := flow.StageHashSeed, flow.Stage(0)
	for i := range ss.idx {
		h, next = ss.chainTo(h, k, &mask, next, ss.idx[i].stage)
		if _, ok := ss.idx[i].hashes[h]; !ok {
			return nil, probeBailed
		}
	}
	if ent := st.probe(k, seed); ent != nil {
		return ent, probeHit
	}
	return nil, probeMissed
}

// maxBurstSignatures caps the distinct word-0 signatures the burst-level
// prefilter tracks; bursts with more fall back to per-key checks only.
const maxBurstSignatures = 16

// sweepStaged is the one staged scan, the staged-pruning variant of the
// inverted subtable sweep: ranked subtable order, free prefilter rejects,
// stage-hash bails, full probes only where the prefilters pass. On top of
// the per-key staged probes it adds a burst-level prefilter: a subtable
// whose stage-0 signature set matches none of the burst's word-0 values,
// or whose L4 port range cannot intersect the burst's, is skipped for the
// whole burst in O(1) — the per-key prefilters would have rejected every
// key anyway (prefix masking is monotonic, and the signature sets are
// exact), so per-key counter effects equal those of sweeping the keys one
// at a time. The scan is ranked between ticks (Megaflow.rank), never inside
// a sweep, so a burst equals its key-by-key sequence exactly.
//
//lint:hotpath
func (m *Megaflow) sweepStaged(keys []flow.Key, now uint64, ents []*Entry, costs []int, miss *burst.Bitmap) {
	if cap(m.batchCost) < len(keys) {
		m.batchCost = make([]int, len(keys))
	}
	mfCost := m.batchCost[:len(keys)]

	// One pass over the unresolved keys: distinct word-0 signatures and
	// raw L4 port ranges. Both are conservative for the whole sweep (keys
	// only leave the miss set), so the burst-level skips stay sound as
	// the burst drains.
	var w0 [maxBurstSignatures]uint64
	nW0, w0ok := 0, true
	tpSrc, tpDst := flow.FieldByID(flow.FieldTPSrc), flow.FieldByID(flow.FieldTPDst)
	var srcMin, srcMax, dstMin, dstMax uint64
	first := true
	preWords := miss.Words()
	for wi := range preWords {
		w := preWords[wi]
		for w != 0 {
			i := wi<<6 + bits.TrailingZeros64(w)
			w &= w - 1
			mfCost[i] = 0
			if w0ok {
				kw := keys[i][0]
				seen := false
				for _, have := range w0[:nW0] {
					if have == kw {
						seen = true
						break
					}
				}
				if !seen {
					if nW0 < maxBurstSignatures {
						w0[nW0] = kw
						nW0++
					} else {
						w0ok = false
					}
				}
			}
			sp, dp := tpSrc.Get(&keys[i]), tpDst.Get(&keys[i])
			if first {
				srcMin, srcMax, dstMin, dstMax = sp, sp, dp, dp
				first = false
				continue
			}
			if sp < srcMin {
				srcMin = sp
			}
			if sp > srcMax {
				srcMax = sp
			}
			if dp < dstMin {
				dstMin = dp
			}
			if dp > dstMax {
				dstMax = dp
			}
		}
	}

	for ri := range m.subtables {
		if miss.Empty() {
			break
		}
		st := m.subtables[ri].st
		ss := st.staged
		// With a single burst-wide signature, the burst-level check settles
		// the per-key signature checks too: they would all pass (skipW0) or
		// the subtable is skipped outright.
		skipW0 := false
		if w0ok && ss.w0vals != nil {
			match := false
			for _, w := range w0[:nW0] {
				if _, ok := ss.w0vals[w&ss.w0mask]; ok {
					match = true
					break
				}
			}
			if !match {
				m.SubtablePrunes += uint64(miss.Count())
				continue
			}
			skipW0 = nW0 == 1
		}
		skip := false
		for i := range ss.ports {
			pf := &ss.ports[i]
			lo, hi := dstMin&pf.pm, dstMax&pf.pm
			if pf.field.ID == flow.FieldTPSrc {
				lo, hi = srcMin&pf.pm, srcMax&pf.pm
			}
			if lo > pf.max || hi < pf.min {
				skip = true
				break
			}
		}
		if skip {
			m.SubtablePrunes += uint64(miss.Count())
			continue
		}
		words := miss.Words()
		for wi := range words {
			w := words[wi]
			for w != 0 {
				i := wi<<6 + bits.TrailingZeros64(w)
				w &= w - 1
				ent, outcome := st.stagedProbe(&keys[i], m.seed, skipW0)
				switch outcome {
				case probePruned:
					m.SubtablePrunes++
					continue
				case probeBailed:
					mfCost[i]++
					m.SubtableVisits++
					m.StageBails++
					continue
				case probeMissed:
					mfCost[i]++
					m.SubtableVisits++
					continue
				}
				mfCost[i]++
				m.SubtableVisits++
				credit(m.shared, ent, 1, now)
				st.hits++
				st.lastHit = now
				m.Lookups++
				m.Hits++
				m.MasksScanned += uint64(mfCost[i])
				ents[i] = ent
				costs[i] += mfCost[i]
				miss.Clear(i)
			}
		}
	}
	// Survivors paid their pruned sweep: bill each its own miss.
	tailWords := miss.Words()
	for wi := range tailWords {
		w := tailWords[wi]
		for w != 0 {
			i := wi<<6 + bits.TrailingZeros64(w)
			w &= w - 1
			m.Lookups++
			m.Misses++
			m.MasksScanned += uint64(mfCost[i])
			costs[i] += mfCost[i]
		}
	}
}
