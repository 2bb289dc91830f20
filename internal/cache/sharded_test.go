// Sharded wrapper tests: shard routing, the cross-shard mask ledger,
// flow-limit splitting, snapshot aggregation, and the concurrent
// install/lookup/trim fuzz property. The sharded==unsharded differential
// against a whole switch lives in internal/dataplane.
package cache_test

import (
	"errors"
	"sync"
	"testing"

	"policyinject/internal/burst"
	"policyinject/internal/cache"
	"policyinject/internal/flow"
)

func exactMatch(k flow.Key) flow.Match {
	return flow.Match{Key: k, Mask: flow.ExactMask}
}

// TestShardedMegaflowRoutingAndLookup: entries land in the shard of the
// triggering key's hash, lookups (scalar and batch) find them wherever
// they live, and Len aggregates the shards.
func TestShardedMegaflowRoutingAndLookup(t *testing.T) {
	sm := cache.NewShardedMegaflow(cache.MegaflowConfig{}, 4)
	if sm.NumShards() != 4 {
		t.Fatalf("NumShards = %d, want 4", sm.NumShards())
	}
	const n = 64
	keys := make([]flow.Key, n)
	for i := range keys {
		keys[i] = confKey(uint64(0x0a000000+i), 443)
		h := keys[i].Hash()
		if _, err := sm.InsertHashed(exactMatch(keys[i]), allowVerdict(), 1, h); err != nil {
			t.Fatal(err)
		}
	}
	if sm.Len() != n {
		t.Fatalf("Len = %d, want %d", sm.Len(), n)
	}
	perShard := 0
	seen := make(map[int]bool)
	for si := 0; si < sm.NumShards(); si++ {
		l := sm.ShardSnapshot(si).Entries
		perShard += l
		if l > 0 {
			seen[si] = true
		}
	}
	if perShard != n {
		t.Fatalf("shard lens sum to %d, want %d", perShard, n)
	}
	if len(seen) < 2 {
		t.Fatalf("only %d shards populated by %d distinct keys; hash routing looks broken", len(seen), n)
	}
	// Scalar lookups resolve every key; each lives where its hash says.
	for i, k := range keys {
		ent, _, ok := sm.Lookup(k, 2)
		if !ok || ent == nil {
			t.Fatalf("key %d missed after insert", i)
		}
	}
	// The batched sweep resolves a full-miss burst identically.
	hashes := make([]uint64, n)
	for i := range keys {
		hashes[i] = keys[i].Hash()
	}
	ents := make([]*cache.Entry, n)
	costs := make([]int, n)
	var miss burst.Bitmap
	miss.Reset(n)
	miss.SetAll()
	sm.LookupBatch(keys, hashes, 3, ents, costs, &miss)
	if !miss.Empty() {
		t.Fatalf("batch sweep left misses: %v", miss)
	}
	for i := range ents {
		if ents[i] == nil {
			t.Fatalf("batch left ents[%d] nil", i)
		}
	}
}

// TestShardedMegaflowMaskLedger: a mask resident in several shards
// counts once globally, the user Minted/Dropped hooks fire on the
// 0->1/1->0 residency edges only, and the global MaxMasks cap holds
// across shards.
func TestShardedMegaflowMaskLedger(t *testing.T) {
	sm := cache.NewShardedMegaflow(cache.MegaflowConfig{MaxMasks: 2}, 4)
	var minted, dropped int
	sm.SetMaskHooks(cache.MaskHooks{
		Minted:  func(flow.Match) { minted++ },
		Dropped: func(flow.Mask) { dropped++ },
	})

	// One wildcard mask (src/24), installed for keys that hash to
	// different shards: one logical mask, several shard subtables.
	mask24 := func() flow.Mask {
		var m flow.Match
		m.Mask.SetPrefix(flow.FieldIPSrc, 24)
		return m.Mask
	}()
	placed := make(map[int]bool)
	i := 0
	for len(placed) < 2 && i < 4096 {
		k := confKey(uint64(0x0a000000+i), 443)
		h := k.Hash()
		si := sm.ShardIndex(h)
		if !placed[si] {
			var m flow.Match
			m.Key = k
			m.Mask = mask24
			m.Normalize()
			if _, err := sm.InsertHashed(m, allowVerdict(), 1, h); err != nil {
				t.Fatal(err)
			}
			placed[si] = true
		}
		i++
	}
	if len(placed) < 2 {
		t.Fatal("could not spread one mask over two shards")
	}
	if sm.NumMasks() != 1 {
		t.Fatalf("NumMasks = %d, want 1 (mask resident in %d shards)", sm.NumMasks(), len(placed))
	}
	if minted != 1 {
		t.Fatalf("Minted hook fired %d times, want once", minted)
	}

	// A second distinct mask fills the global cap; a third is rejected
	// regardless of which shard it would land in.
	k2 := confKey(0x0b000000, 443)
	if _, err := sm.InsertHashed(exactMatch(k2), allowVerdict(), 1, k2.Hash()); err != nil {
		t.Fatal(err)
	}
	if sm.NumMasks() != 2 {
		t.Fatalf("NumMasks = %d, want 2", sm.NumMasks())
	}
	var m3 flow.Match
	m3.Key = confKey(0x0c000000, 443)
	m3.Mask.SetPrefix(flow.FieldIPSrc, 16)
	m3.Normalize()
	if _, err := sm.InsertHashed(m3, allowVerdict(), 1, flow.Key(m3.Key).Hash()); !errors.Is(err, cache.ErrMaskLimit) {
		t.Fatalf("third mask: err = %v, want ErrMaskLimit", err)
	}

	// Flushing drops everything; the Dropped hook fires once per logical
	// mask, after the last shard releases it.
	sm.Flush()
	if sm.NumMasks() != 0 {
		t.Fatalf("NumMasks = %d after flush", sm.NumMasks())
	}
	if dropped != 2 {
		t.Fatalf("Dropped hook fired %d times, want 2", dropped)
	}
}

// TestShardedMegaflowFlowLimitSplit: the total limit splits across
// shards (ceiling), trims enforce it, and SetFlowLimit retargets it.
func TestShardedMegaflowFlowLimitSplit(t *testing.T) {
	sm := cache.NewShardedMegaflow(cache.MegaflowConfig{FlowLimit: 16}, 4)
	if sm.FlowLimit() != 16 {
		t.Fatalf("FlowLimit = %d, want 16", sm.FlowLimit())
	}
	for i := 0; i < 256; i++ {
		k := confKey(uint64(0x0a000000+i), 443)
		sm.InsertHashed(exactMatch(k), allowVerdict(), uint64(i), k.Hash())
	}
	// Each shard holds at most its ceil(16/4)=4 slice.
	for si := 0; si < sm.NumShards(); si++ {
		if l := sm.ShardSnapshot(si).Entries; l > 4 {
			t.Fatalf("shard %d holds %d entries, per-shard slice is 4", si, l)
		}
	}
	sm.SetFlowLimit(8)
	sm.TrimToLimit()
	if got := sm.Len(); got > 8 {
		t.Fatalf("Len = %d after trim to total 8", got)
	}
	for si := 0; si < sm.NumShards(); si++ {
		if l := sm.ShardSnapshot(si).Entries; l > 2 {
			t.Fatalf("shard %d holds %d entries after trim, slice is 2", si, l)
		}
	}
}

// TestShardedMegaflowSnapshotAggregates: the aggregate snapshot folds
// per-shard counters and the wrapper's coalesced-run accounting, and
// Lookups == Hits + Misses holds through both.
func TestShardedMegaflowSnapshotAggregates(t *testing.T) {
	sm := cache.NewShardedMegaflow(cache.MegaflowConfig{}, 2)
	k := confKey(0x0a000001, 443)
	ent, err := sm.InsertHashed(exactMatch(k), allowVerdict(), 1, k.Hash())
	if err != nil {
		t.Fatal(err)
	}
	sm.Lookup(k, 2)                      // hit
	sm.Lookup(confKey(0x0bb00001, 9), 2) // miss
	sm.AccountRun(ent, 7, 1, 3)          // coalesced run: 7 hits
	s := sm.Snapshot()
	if s.Hits != 1+7 {
		t.Fatalf("Hits = %d, want 8 (1 scalar + 7 coalesced)", s.Hits)
	}
	if s.Misses != 1 {
		t.Fatalf("Misses = %d, want 1", s.Misses)
	}
	if s.Lookups != s.Hits+s.Misses {
		t.Fatalf("Lookups = %d, want Hits+Misses = %d", s.Lookups, s.Hits+s.Misses)
	}
	if s.Entries != 1 || s.Masks != 1 {
		t.Fatalf("Entries/Masks = %d/%d, want 1/1", s.Entries, s.Masks)
	}
	if ent.Hits != 8 {
		t.Fatalf("entry Hits = %d, want 8", ent.Hits)
	}
}

// TestShardedEMCAndSMCBasics: per-shard routing, capacity splitting and
// snapshot aggregation of the sharded reference tiers.
func TestShardedEMCAndSMCBasics(t *testing.T) {
	backing := cache.NewMegaflow(cache.MegaflowConfig{})
	seed := func(k flow.Key) *cache.Entry {
		ent, err := backing.Insert(exactMatch(k), allowVerdict(), 1)
		if err != nil {
			t.Fatal(err)
		}
		return ent
	}
	emc := cache.NewShardedEMC(cache.EMCConfig{Entries: 64}, 4)
	smc := cache.NewShardedSMC(cache.SMCConfig{Entries: 64}, 4)
	if emc.Cap() != 64 || smc.Cap() < 64 {
		t.Fatalf("caps: emc %d (want 64), smc %d (want >= 64)", emc.Cap(), smc.Cap())
	}
	const n = 32
	keys := make([]flow.Key, n)
	for i := range keys {
		keys[i] = confKey(uint64(0x0a000100+i), 80)
		ent := seed(keys[i])
		emc.Insert(keys[i], ent)
		smc.Insert(keys[i], ent)
		// The SMC is a lossy fingerprint cache (a later key may overwrite
		// an earlier slot), so its contract is probed right after insert.
		if _, ok := smc.Lookup(keys[i], 2); !ok {
			t.Fatalf("SMC missed key %d immediately after insert", i)
		}
	}
	for i, k := range keys {
		if _, ok := emc.Lookup(k, 2); !ok {
			t.Fatalf("EMC missed key %d", i)
		}
	}
	if emc.Len() != n {
		t.Fatalf("EMC Len = %d, want %d", emc.Len(), n)
	}
	es, ss := emc.Snapshot(), smc.Snapshot()
	if es.Hits != n || ss.Hits != n {
		t.Fatalf("snapshot hits emc/smc = %d/%d, want %d each", es.Hits, ss.Hits, n)
	}
	// Dead backing entries read as stale misses (no purge under the
	// shard read lock).
	backing.Remove(exactMatch(keys[0]))
	if _, ok := emc.Lookup(keys[0], 3); ok {
		t.Fatal("EMC returned a dead reference")
	}
	if es := emc.Snapshot(); es.Stale != 1 {
		t.Fatalf("EMC Stale = %d, want 1", es.Stale)
	}
	emc.Flush()
	smc.Flush()
	if emc.Len() != 0 || smc.Len() != 0 {
		t.Fatalf("post-flush lens emc/smc = %d/%d", emc.Len(), smc.Len())
	}
}

// FuzzShardedMegaflowConcurrent is the concurrent install/lookup/trim
// property: under an adversarial interleaving of writers (inserts,
// evictions, trims, flow-limit cuts) and readers (scalar and batched
// lookups), the sharded cache neither loses internal consistency
// (Lookups == Hits+Misses, Len within the limit after a final trim) nor
// races (the CI race leg runs this corpus under -race).
func FuzzShardedMegaflowConcurrent(f *testing.F) {
	f.Add(uint64(1), uint8(4), uint8(3))
	f.Add(uint64(0xdeadbeef), uint8(2), uint8(7))
	f.Add(uint64(42), uint8(8), uint8(1))
	f.Fuzz(func(t *testing.T, seed uint64, shards uint8, writers uint8) {
		nsh := int(shards%8) + 2
		nwr := int(writers%4) + 1
		sm := cache.NewShardedMegaflow(cache.MegaflowConfig{FlowLimit: 64}, nsh)
		keyAt := func(i uint64) flow.Key {
			return confKey(0x0a000000|(seed+i)%509, 443)
		}
		var wg sync.WaitGroup
		// Writers: install a rolling window of exact megaflows, with
		// periodic maintenance (idle eviction, trim, limit cuts).
		for w := 0; w < nwr; w++ {
			wg.Add(1)
			go func(w int) {
				defer wg.Done()
				for i := uint64(0); i < 256; i++ {
					k := keyAt(i + uint64(w)*131)
					sm.InsertHashed(exactMatch(k), allowVerdict(), i, k.Hash())
					switch i % 64 {
					case 13:
						sm.EvictIdle(i / 2)
					case 29:
						sm.SetFlowLimit(32 + int(i%64))
					case 47:
						sm.TrimToLimit()
					}
				}
			}(w)
		}
		// Readers: scalar probes plus full-burst batched sweeps.
		for r := 0; r < 2; r++ {
			wg.Add(1)
			go func(r int) {
				defer wg.Done()
				const bn = 32
				keys := make([]flow.Key, bn)
				hashes := make([]uint64, bn)
				ents := make([]*cache.Entry, bn)
				costs := make([]int, bn)
				var miss burst.Bitmap
				for i := uint64(0); i < 128; i++ {
					sm.Lookup(keyAt(i*3+uint64(r)), i)
					for j := range keys {
						keys[j] = keyAt(i + uint64(j))
						hashes[j] = keys[j].Hash()
						ents[j] = nil
						costs[j] = 0
					}
					miss.Reset(bn)
					miss.SetAll()
					sm.LookupBatch(keys, hashes, i, ents, costs, &miss)
				}
			}(r)
		}
		wg.Wait()
		sm.SetFlowLimit(64)
		sm.TrimToLimit()
		if got := sm.Len(); got > 64+nsh {
			t.Fatalf("Len = %d after final trim to 64 across %d shards", got, nsh)
		}
		s := sm.Snapshot()
		if s.Lookups != s.Hits+s.Misses {
			t.Fatalf("Lookups %d != Hits %d + Misses %d", s.Lookups, s.Hits, s.Misses)
		}
	})
}
