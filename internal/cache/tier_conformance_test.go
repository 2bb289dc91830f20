// Tier conformance suite: every cache tier the dataplane can stack — EMC,
// SMC, megaflow TSS — must satisfy the same behavioural contract, checked
// here against the dataplane.Tier adapters. New tier implementations
// should be added to the fixture table.
package cache_test

import (
	"slices"
	"testing"

	"policyinject/internal/burst"
	"policyinject/internal/cache"
	"policyinject/internal/dataplane"
	"policyinject/internal/flow"
	"policyinject/internal/flowtable"
)

func confKey(src, dport uint64) flow.Key {
	var k flow.Key
	k.Set(flow.FieldEthType, flow.EthTypeIPv4)
	k.Set(flow.FieldIPProto, flow.ProtoTCP)
	k.Set(flow.FieldIPSrc, src)
	k.Set(flow.FieldTPDst, dport)
	return k
}

func allowVerdict() cache.Verdict { return cache.Verdict{Verdict: flowtable.Allow} }

// tierFixture builds one tier under test. seed makes key k resident with
// verdict v at time now, going through the tier's own installation route
// (InsertMegaflow for the authoritative tier, Install of a live backing
// megaflow entry for reference tiers). kill marks k's backing entry dead,
// or is nil for tiers whose entries cannot dangle.
type tierFixture struct {
	tier dataplane.Tier
	seed func(t *testing.T, k flow.Key, v cache.Verdict, now uint64) *cache.Entry
	kill func(k flow.Key)
}

func fixtures(t *testing.T) map[string]func() tierFixture {
	t.Helper()
	// Reference tiers (EMC, SMC) cache pointers into an authoritative
	// megaflow cache, exactly as they do inside the switch.
	refFixture := func(tier dataplane.Tier) tierFixture {
		backing := cache.NewMegaflow(cache.MegaflowConfig{})
		matchFor := func(k flow.Key) flow.Match {
			return flow.Match{Key: k, Mask: flow.ExactMask}
		}
		return tierFixture{
			tier: tier,
			seed: func(t *testing.T, k flow.Key, v cache.Verdict, now uint64) *cache.Entry {
				t.Helper()
				ent, err := backing.Insert(matchFor(k), v, now)
				if err != nil {
					t.Fatal(err)
				}
				tier.Install(k, ent)
				return ent
			},
			kill: func(k flow.Key) { backing.Remove(matchFor(k)) },
		}
	}
	return map[string]func() tierFixture{
		"emc": func() tierFixture {
			return refFixture(dataplane.NewEMCTier(cache.EMCConfig{}))
		},
		"smc": func() tierFixture {
			return refFixture(dataplane.NewSMCTier(cache.SMCConfig{}))
		},
		"megaflow": func() tierFixture {
			return megaflowFixture(cache.MegaflowConfig{})
		},
		// The staged-pruning megaflow variant must satisfy the exact same
		// behavioural contract — pruning is an optimisation, not a
		// semantic change.
		"megaflow-staged": func() tierFixture {
			return megaflowFixture(cache.MegaflowConfig{StagedPruning: true})
		},
		// The sharded wrappers are the same caches behind shard locks: the
		// same contract, scalar and batch, whatever shard a key lands in.
		"emc-sharded": func() tierFixture {
			return refFixture(dataplane.NewShardedEMCTier(cache.EMCConfig{}, 4))
		},
		"smc-sharded": func() tierFixture {
			return refFixture(dataplane.NewShardedSMCTier(cache.SMCConfig{}, 4))
		},
		"megaflow-sharded": func() tierFixture {
			return shardedMegaflowFixture(cache.MegaflowConfig{})
		},
		"megaflow-staged-sharded": func() tierFixture {
			return shardedMegaflowFixture(cache.MegaflowConfig{StagedPruning: true})
		},
	}
}

func megaflowFixture(cfg cache.MegaflowConfig) tierFixture {
	tier := dataplane.NewMegaflowTier(cfg)
	return installerFixture(tier, func(m flow.Match, v cache.Verdict, now uint64) (*cache.Entry, error) {
		return tier.InsertMegaflow(m, v, now)
	})
}

func shardedMegaflowFixture(cfg cache.MegaflowConfig) tierFixture {
	tier := dataplane.NewShardedMegaflowTier(cfg, 4)
	return installerFixture(tier, func(m flow.Match, v cache.Verdict, now uint64) (*cache.Entry, error) {
		return tier.InsertMegaflowHashed(m, v, now, flow.Key(m.Key).Hash())
	})
}

// installerFixture seeds an authoritative tier through insert, with an
// exact-match megaflow for the key.
func installerFixture(tier dataplane.Tier, insert func(flow.Match, cache.Verdict, uint64) (*cache.Entry, error)) tierFixture {
	return tierFixture{
		tier: tier,
		seed: func(t *testing.T, k flow.Key, v cache.Verdict, now uint64) *cache.Entry {
			t.Helper()
			ent, err := insert(flow.Match{Key: k, Mask: flow.ExactMask}, v, now)
			if err != nil {
				t.Fatal(err)
			}
			return ent
		},
		kill: nil, // authoritative: its entries cannot dangle
	}
}

func TestTierConformance(t *testing.T) {
	for name, build := range fixtures(t) {
		t.Run(name, func(t *testing.T) {
			t.Run("identity", func(t *testing.T) {
				f := build()
				if f.tier.Name() == "" {
					t.Error("tier has no name")
				}
				if f.tier.Path() == dataplane.PathSlow {
					t.Error("a cache tier must not report the slow path")
				}
			})

			t.Run("fresh tier misses", func(t *testing.T) {
				f := build()
				if _, _, ok := f.tier.Lookup(confKey(0x0a000001, 80), 1); ok {
					t.Fatal("empty tier reported a hit")
				}
				if f.tier.Stats().Misses == 0 {
					t.Error("miss not counted")
				}
			})

			t.Run("seeded key hits with its verdict", func(t *testing.T) {
				f := build()
				k := confKey(0x0a000001, 80)
				seeded := f.seed(t, k, allowVerdict(), 5)
				ent, _, ok := f.tier.Lookup(k, 7)
				if !ok {
					t.Fatal("seeded key missed")
				}
				if ent != seeded {
					t.Fatal("hit returned a different entry than was seeded")
				}
				if ent.Verdict != allowVerdict() {
					t.Fatalf("verdict = %v", ent.Verdict)
				}
				if ent.Hits == 0 {
					t.Error("hit did not credit the entry")
				}
				if ent.LastHit != 7 {
					t.Errorf("LastHit = %d, want 7 (hits must refresh idle state)", ent.LastHit)
				}
				st := f.tier.Stats()
				if st.Hits == 0 {
					t.Error("hit not counted in stats")
				}
				if st.Entries == 0 {
					t.Error("stats report an empty tier after a seed")
				}
			})

			t.Run("other keys still miss", func(t *testing.T) {
				f := build()
				f.seed(t, confKey(0x0a000001, 80), allowVerdict(), 1)
				if _, _, ok := f.tier.Lookup(confKey(0x0a000002, 80), 2); ok {
					t.Fatal("unseeded key hit")
				}
			})

			t.Run("flush empties the tier", func(t *testing.T) {
				f := build()
				k := confKey(0x0a000001, 80)
				f.seed(t, k, allowVerdict(), 1)
				f.tier.Flush()
				if _, _, ok := f.tier.Lookup(k, 2); ok {
					t.Fatal("hit after Flush")
				}
			})

			t.Run("evict idle does not panic and hits refresh", func(t *testing.T) {
				f := build()
				k := confKey(0x0a000001, 80)
				f.seed(t, k, allowVerdict(), 1)
				f.tier.Lookup(k, 50) // refresh
				evicted := f.tier.EvictIdle(40)
				if evicted < 0 {
					t.Fatalf("evicted = %d", evicted)
				}
				// A recently-hit entry must survive any tier's idle sweep.
				if _, _, ok := f.tier.Lookup(k, 51); !ok {
					t.Fatal("recently-hit entry evicted by idle sweep")
				}
			})

			if build().kill != nil {
				t.Run("dead references purge lazily", func(t *testing.T) {
					f := build()
					k := confKey(0x0a000001, 80)
					f.seed(t, k, allowVerdict(), 1)
					f.kill(k)
					if _, _, ok := f.tier.Lookup(k, 2); ok {
						t.Fatal("dead reference served as a hit")
					}
				})
			}
		})
	}
}

// TestBatchTierConformance pins the BatchTier contract for every tier
// that implements it: LookupBatch over a burst must be observably
// identical to the scalar Lookup sequence over the same keys — same
// hit set, same verdicts, same per-key costs, same tier counters.
func TestBatchTierConformance(t *testing.T) {
	mkKeys := func() []flow.Key {
		keys := make([]flow.Key, 0, 12)
		for i := 0; i < 12; i++ {
			keys = append(keys, confKey(uint64(0x0a000001+i), uint64(80+i%3)))
		}
		return keys
	}
	for name, build := range fixtures(t) {
		t.Run(name, func(t *testing.T) {
			seqFix, batchFix := build(), build()
			bt, ok := batchFix.tier.(dataplane.BatchTier)
			if !ok {
				t.Fatalf("tier %s does not implement BatchTier", name)
			}
			keys := mkKeys()
			// Make a subset resident in both fixtures, identically.
			resident := []int{0, 3, 4, 9, 11}
			for _, i := range resident {
				seqFix.seed(t, keys[i], allowVerdict(), 1)
				batchFix.seed(t, keys[i], allowVerdict(), 1)
			}

			// Scalar reference walk.
			type res struct {
				ok      bool
				cost    int
				verdict cache.Verdict
			}
			seq := make([]res, len(keys))
			for i, k := range keys {
				ent, cost, ok := seqFix.tier.Lookup(k, 7)
				seq[i] = res{ok: ok, cost: cost}
				if ok {
					seq[i].verdict = ent.Verdict
				}
			}

			// Vectorized walk over the same burst.
			var miss burst.Bitmap
			miss.Reset(len(keys))
			miss.SetAll()
			ents := make([]*cache.Entry, len(keys))
			costs := make([]int, len(keys))
			bt.LookupBatch(keys, flow.HashKeys(keys, nil), 7, ents, costs, &miss)

			for i := range keys {
				gotOK := !miss.Test(i)
				if gotOK != seq[i].ok {
					t.Errorf("key %d: batch hit=%v, scalar hit=%v", i, gotOK, seq[i].ok)
					continue
				}
				if costs[i] != seq[i].cost {
					t.Errorf("key %d: batch cost=%d, scalar cost=%d", i, costs[i], seq[i].cost)
				}
				if gotOK {
					if ents[i] == nil {
						t.Errorf("key %d: hit without entry", i)
					} else if ents[i].Verdict != seq[i].verdict {
						t.Errorf("key %d: batch verdict=%v, scalar=%v", i, ents[i].Verdict, seq[i].verdict)
					}
				}
			}
			if a, b := seqFix.tier.Stats(), bt.Stats(); a != b {
				t.Errorf("stats diverge:\n scalar %+v\n batch  %+v", a, b)
			}
		})
	}
}

// TestMegaflowBatchSweepMultiSubtable drives the inverted subtable sweep
// through a genuinely multi-mask table (distinct prefix lengths at
// distinct scan depths) and checks batch == sequential on hits at every
// depth, full-scan misses, costs, and cache counters.
func TestMegaflowBatchSweepMultiSubtable(t *testing.T) {
	// Disjoint prefixes, one per subtable, in insertion (= scan) order:
	// a key matching the /24 must miss the /8 and /16 first, so it pays
	// scan depth 3.
	prefixes := []struct {
		ip   uint64
		plen int
	}{
		{0x0a000000, 8},  // 10.0.0.0/8      depth 1
		{0xc0a80000, 16}, // 192.168.0.0/16  depth 2
		{0xac100500, 24}, // 172.16.5.0/24   depth 3
		{0x08080808, 32}, // 8.8.8.8/32      depth 4
	}
	build := func() *cache.Megaflow {
		m := cache.NewMegaflow(cache.MegaflowConfig{})
		for _, p := range prefixes {
			var match flow.Match
			match.Key.Set(flow.FieldIPSrc, p.ip)
			match.Mask.SetPrefix(flow.FieldIPSrc, p.plen)
			if _, err := m.Insert(match, allowVerdict(), 1); err != nil {
				t.Fatal(err)
			}
		}
		return m
	}
	keyFor := func(ip uint64) flow.Key {
		var k flow.Key
		k.Set(flow.FieldIPSrc, ip)
		return k
	}
	// Hits at every depth plus full-scan misses, interleaved.
	keys := []flow.Key{
		keyFor(0x0a7f0001), // depth 1
		keyFor(0xc0a80101), // depth 2
		keyFor(0x0b000000), // miss (full scan)
		keyFor(0xac100507), // depth 3
		keyFor(0x08080808), // depth 4
		keyFor(0xdeadbeef), // miss
		keyFor(0x0a7f0002), // depth 1 again
	}
	seqM, batchM := build(), build()
	type res struct {
		ok   bool
		cost int
	}
	seq := make([]res, len(keys))
	for i, k := range keys {
		_, cost, ok := seqM.Lookup(k, 9)
		seq[i] = res{ok: ok, cost: cost}
	}
	var miss burst.Bitmap
	miss.Reset(len(keys))
	miss.SetAll()
	ents := make([]*cache.Entry, len(keys))
	costs := make([]int, len(keys))
	batchM.LookupBatch(keys, 9, ents, costs, &miss)
	for i := range keys {
		if got := !miss.Test(i); got != seq[i].ok || costs[i] != seq[i].cost {
			t.Errorf("key %d: batch (hit=%v cost=%d) vs scalar (hit=%v cost=%d)",
				i, !miss.Test(i), costs[i], seq[i].ok, seq[i].cost)
		}
	}
	if seqM.Lookups != batchM.Lookups || seqM.Hits != batchM.Hits ||
		seqM.Misses != batchM.Misses || seqM.MasksScanned != batchM.MasksScanned {
		t.Errorf("counters diverge: scalar {L%d H%d M%d S%d} batch {L%d H%d M%d S%d}",
			seqM.Lookups, seqM.Hits, seqM.Misses, seqM.MasksScanned,
			batchM.Lookups, batchM.Hits, batchM.Misses, batchM.MasksScanned)
	}
}

// TestMegaflowBatchSortedTSSTicks: with hit-count ranking the scan order
// moves only between ticks, so a burst equals its key-by-key sequence exactly
// — the burst that opens a tick ranks first, as its first key's Lookup would —
// tick after tick as the ranking moves the hot subtable forward.
func TestMegaflowBatchSortedTSSTicks(t *testing.T) {
	build := func() *cache.Megaflow {
		m := cache.NewMegaflow(cache.MegaflowConfig{SortByHits: true})
		for _, p := range []struct {
			ip   uint64
			plen int
		}{{0x0b000000, 8}, {0x0a010000, 16}, {0x0a000200, 24}} {
			var match flow.Match
			match.Key.Set(flow.FieldIPSrc, p.ip)
			match.Mask.SetPrefix(flow.FieldIPSrc, p.plen)
			if _, err := m.Insert(match, allowVerdict(), 1); err != nil {
				t.Fatal(err)
			}
		}
		return m
	}
	keys := make([]flow.Key, 16)
	for i := range keys {
		ip := uint64(0x0a000201) // the last subtable's, three hits in four
		if i%4 == 3 {
			ip = 0x0a010005 // the middle one's
		}
		keys[i].Set(flow.FieldIPSrc, ip)
	}
	seqM, batchM := build(), build()
	for now := uint64(3); now <= 5; now++ {
		seqCosts := make([]int, len(keys))
		for i := range keys {
			_, seqCosts[i], _ = seqM.Lookup(keys[i], now)
		}
		var miss burst.Bitmap
		miss.Reset(len(keys))
		miss.SetAll()
		ents := make([]*cache.Entry, len(keys))
		costs := make([]int, len(keys))
		batchM.LookupBatch(keys, now, ents, costs, &miss)
		if !miss.Empty() {
			t.Fatalf("tick %d: resident key missed under SortByHits", now)
		}
		if !slices.Equal(costs, seqCosts) {
			t.Errorf("tick %d: batch costs %v, scalar costs %v", now, costs, seqCosts)
		}
		if want := []int{3, 1, 1}[now-3]; costs[0] != want {
			t.Errorf("tick %d: the hot key cost %d, want %d as the ranking moves its subtable first", now, costs[0], want)
		}
	}
	if seqM.Lookups != batchM.Lookups || seqM.Hits != batchM.Hits || seqM.MasksScanned != batchM.MasksScanned {
		t.Errorf("counters diverge: scalar {L%d H%d S%d} batch {L%d H%d S%d}",
			seqM.Lookups, seqM.Hits, seqM.MasksScanned, batchM.Lookups, batchM.Hits, batchM.MasksScanned)
	}
}

// TestMegaflowTierEvictsIdle pins the authoritative tier's extra duty: the
// idle sweep actually removes stale megaflows (reference tiers instead
// invalidate lazily and return 0).
func TestMegaflowTierEvictsIdle(t *testing.T) {
	tier := dataplane.NewMegaflowTier(cache.MegaflowConfig{})
	hot := confKey(0x0a000001, 80)
	cold := confKey(0x0a000002, 81)
	for _, k := range []flow.Key{hot, cold} {
		if _, err := tier.InsertMegaflow(flow.Match{Key: k, Mask: flow.ExactMask}, allowVerdict(), 1); err != nil {
			t.Fatal(err)
		}
	}
	tier.Lookup(hot, 30)
	if evicted := tier.EvictIdle(20); evicted != 1 {
		t.Fatalf("evicted = %d, want 1 (the cold entry)", evicted)
	}
	if _, _, ok := tier.Lookup(hot, 31); !ok {
		t.Fatal("hot entry evicted")
	}
	if _, _, ok := tier.Lookup(cold, 31); ok {
		t.Fatal("cold entry survived")
	}
}
