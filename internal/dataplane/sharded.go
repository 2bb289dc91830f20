// Sharded datapath assembly: the ConcurrentTier adapters over the
// cache package's sharded wrappers, the WithShards option that swaps
// them into the default hierarchy, and the per-shard revalidation
// targets that supersede the coarse AttachLocked mutex.
package dataplane

import (
	"fmt"

	"policyinject/internal/burst"
	"policyinject/internal/cache"
	"policyinject/internal/classifier"
	"policyinject/internal/conntrack"
	"policyinject/internal/flow"
)

// WithShards shards the default hierarchy's caches by flow hash into n
// shards (rounded to a power of two in [2, 256]; n <= 0 means
// cache.DefaultShards), making every tier a ConcurrentTier: lookups
// proceed under per-shard read locks concurrently with installs,
// evictions and revalidation on other shards (and with readers on the
// same shard). This is the multi-writer switch — the prerequisite for
// NewSharedPMDPool and for per-shard revalidator attachment
// (Switch.ShardTargets).
//
// New panics on combinations the concurrency contract cannot honour:
// WithTiers tiers that do not declare ConcurrentTier, a megaflow config
// with SortByHits (lookups would reorder the subtable vector under
// readers) or MaskEvictLRU (cross-shard LRU eviction would invert the
// shard/ledger lock order), and WithTierWrapper (fault-injection
// wrappers are not concurrency-safe and would mask the capability).
func WithShards(n int) Option {
	return func(c *config) {
		c.shards = n
		c.shardsSet = true
	}
}

// validateSharded rejects option combinations that violate the
// ConcurrentTier contract, mirroring NewPMDPool's WithTiers panic.
func validateSharded(cfg *config) {
	if cfg.tiersSet {
		for _, t := range cfg.tiers {
			if _, ok := t.(ConcurrentTier); !ok {
				panic(fmt.Sprintf("dataplane: WithShards requires every WithTiers tier to declare ConcurrentTier; %q does not", t.Name()))
			}
		}
	}
	if cfg.megaflow.SortByHits {
		panic("dataplane: WithShards is incompatible with Megaflow SortByHits (hit-count ranking races concurrent readers)")
	}
	if cfg.megaflow.MaskEvictLRU {
		panic("dataplane: WithShards is incompatible with MaskEvictLRU (cross-shard mask eviction would deadlock the shard/ledger lock order)")
	}
	if cfg.tierWrap != nil {
		panic("dataplane: WithShards is incompatible with WithTierWrapper (wrapped tiers lose the ConcurrentTier capability)")
	}
}

// ShardedRefTier adapts cache.ShardedRef — a sharded EMC or SMC — to the
// Tier interface: the reference tiers of the sharded hierarchy
// (ConcurrentTier).
type ShardedRefTier struct {
	name string
	path Path
	ref  *cache.ShardedRef
}

// NewShardedEMCTier builds the sharded hierarchy's exact-match front
// tier with the given shard count (<= 0: cache.DefaultShards).
func NewShardedEMCTier(cfg cache.EMCConfig, shards int) *ShardedRefTier {
	return &ShardedRefTier{name: "emc", path: PathEMC, ref: cache.NewShardedEMC(cfg, shards)}
}

// NewShardedSMCTier builds the sharded hierarchy's signature-match
// middle tier with the given shard count (<= 0: cache.DefaultShards).
func NewShardedSMCTier(cfg cache.SMCConfig, shards int) *ShardedRefTier {
	return &ShardedRefTier{name: "smc", path: PathSMC, ref: cache.NewShardedSMC(cfg, shards)}
}

func (t *ShardedRefTier) Name() string     { return t.name }
func (t *ShardedRefTier) Path() Path       { return t.path }
func (t *ShardedRefTier) ConcurrencySafe() {}

// UsesFlowHashes: the shard index is derived from the burst's cached
// flow hashes (and reused for the insert side; the SMC's fingerprint
// derives from them too).
func (t *ShardedRefTier) UsesFlowHashes() {}

func (t *ShardedRefTier) Lookup(k flow.Key, now uint64) (*cache.Entry, int, bool) {
	ent, ok := t.ref.Lookup(k, now)
	return ent, 0, ok
}

// LookupBatch resolves the burst's still-missing keys shard by shard
// under per-shard read locks.
func (t *ShardedRefTier) LookupBatch(keys []flow.Key, hashes []uint64, now uint64, ents []*cache.Entry, _ []int, miss *burst.Bitmap) {
	t.ref.LookupBatch(keys, hashes, now, ents, miss)
}

// AccountRun coalesces a same-flow run into n billed hits (atomic).
func (t *ShardedRefTier) AccountRun(ent *cache.Entry, n int, _ int, now uint64) bool {
	t.ref.AccountRun(ent, n, now)
	return true
}

func (t *ShardedRefTier) Install(k flow.Key, ent *cache.Entry) { t.ref.Insert(k, ent) }

// InstallHashed is Install reusing the burst's cached flow hash for
// shard selection.
func (t *ShardedRefTier) InstallHashed(k flow.Key, hash uint64, ent *cache.Entry) {
	t.ref.InsertHashed(k, hash, ent)
}

func (t *ShardedRefTier) Flush()               { t.ref.Flush() }
func (t *ShardedRefTier) EvictIdle(uint64) int { return 0 } // stale refs invalidate lazily

func (t *ShardedRefTier) Stats() TierStats {
	s := t.ref.Snapshot()
	return TierStats{
		Name: t.name, Hits: s.Hits, Misses: s.Misses,
		Inserts: s.Inserts, Evictions: s.Evictions,
		Entries: s.Entries, Capacity: s.Capacity,
	}
}

// ShardedMegaflowTier adapts cache.ShardedMegaflow to the Tier
// interface — the authoritative tier of the sharded hierarchy
// (ConcurrentTier, HashedMegaflowInstaller).
type ShardedMegaflowTier struct{ sm *cache.ShardedMegaflow }

// NewShardedMegaflowTier builds a sharded megaflow tier with the given
// shard count (<= 0: cache.DefaultShards).
func NewShardedMegaflowTier(cfg cache.MegaflowConfig, shards int) *ShardedMegaflowTier {
	return &ShardedMegaflowTier{sm: cache.NewShardedMegaflow(cfg, shards)}
}

// ShardedMegaflow exposes the wrapped cache for inspection and
// experiments.
func (t *ShardedMegaflowTier) ShardedMegaflow() *cache.ShardedMegaflow { return t.sm }

func (t *ShardedMegaflowTier) Name() string     { return "megaflow" }
func (t *ShardedMegaflowTier) Path() Path       { return PathMegaflow }
func (t *ShardedMegaflowTier) ConcurrencySafe() {}
func (t *ShardedMegaflowTier) UsesFlowHashes()  {}

func (t *ShardedMegaflowTier) Lookup(k flow.Key, now uint64) (*cache.Entry, int, bool) {
	return t.sm.Lookup(k, now)
}

// LookupBatch runs the inverted subtable sweep shard by shard: each
// shard's lock is taken once per burst and its subtables visited once
// over the burst's keys hashing to that shard.
func (t *ShardedMegaflowTier) LookupBatch(keys []flow.Key, hashes []uint64, now uint64, ents []*cache.Entry, costs []int, miss *burst.Bitmap) {
	t.sm.LookupBatch(keys, hashes, now, ents, costs, miss)
}

// AccountRun coalesces a same-flow run into n billed hits at the run's
// scan depth (atomic wrapper counters).
func (t *ShardedMegaflowTier) AccountRun(ent *cache.Entry, n int, cost int, now uint64) bool {
	t.sm.AccountRun(ent, n, cost, now)
	return true
}

// Install is a no-op: the megaflow tier mints its own entries via
// InsertMegaflowHashed.
func (t *ShardedMegaflowTier) Install(flow.Key, *cache.Entry) {}

func (t *ShardedMegaflowTier) Flush()                        { t.sm.Flush() }
func (t *ShardedMegaflowTier) EvictIdle(deadline uint64) int { return t.sm.EvictIdle(deadline) }

// FlowLimit, SetFlowLimit and TrimToLimit expose the total (cross-shard)
// entry limit as the revalidator's dynamic lever (LimitedTier).
func (t *ShardedMegaflowTier) FlowLimit() int     { return t.sm.FlowLimit() }
func (t *ShardedMegaflowTier) SetFlowLimit(n int) { t.sm.SetFlowLimit(n) }
func (t *ShardedMegaflowTier) TrimToLimit() int   { return t.sm.TrimToLimit() }

// Revalidate runs the consistency pass shard by shard
// (RevalidatableTier).
func (t *ShardedMegaflowTier) Revalidate(check func(*cache.Entry) (cache.Verdict, bool)) int {
	return t.sm.Revalidate(check)
}

// InsertMegaflow installs without a key hash — correct but degraded
// (the masked-key hash only places exact-match megaflows in the shard
// their lookups probe). The switch always uses InsertMegaflowHashed.
func (t *ShardedMegaflowTier) InsertMegaflow(match flow.Match, v cache.Verdict, now uint64) (*cache.Entry, error) {
	return t.sm.Insert(match, v, now)
}

// InsertMegaflowHashed installs into the shard of the triggering key's
// flow hash (HashedMegaflowInstaller).
func (t *ShardedMegaflowTier) InsertMegaflowHashed(match flow.Match, v cache.Verdict, now uint64, keyHash uint64) (*cache.Entry, error) {
	return t.sm.InsertHashed(match, v, now, keyHash)
}

// Reprobe is Lookup: a shard keeps no put log, its readers sweep together.
func (t *ShardedMegaflowTier) Reprobe(k flow.Key, now uint64) (*cache.Entry, int, bool) {
	return t.sm.Lookup(k, now)
}

func (t *ShardedMegaflowTier) Stats() TierStats { return mfStats(t.Name(), t.sm.Snapshot()) }

// mfStats renders a sharded megaflow snapshot (one shard's or the
// aggregate) as a tier's counters.
func mfStats(name string, s cache.MegaflowShardSnapshot) TierStats {
	return TierStats{
		Name: name, Hits: s.Hits, Misses: s.Misses,
		Entries: s.Entries, Masks: s.Masks,
		SubtableVisits: s.SubtableVisits, SubtablePrunes: s.SubtablePrunes,
	}
}

// mfShardTier is one shard of a ShardedMegaflowTier viewed as a Tier:
// the unit of per-shard revalidation. Its maintenance methods (EvictIdle,
// FlowLimit, SetFlowLimit, TrimToLimit, Revalidate, Flush) are the
// embedded cache.MegaflowShard's and operate on the one shard only — a
// revalidator worker sweeping shard i excludes only that shard's
// readers, not the switch; SetFlowLimit receives the revalidator's
// *total* limit and takes the shard's 1/S slice. The lookup-side methods
// delegate to the whole sharded cache (a shard view is not a datapath
// tier; they exist to satisfy the interface).
type mfShardTier struct {
	cache.MegaflowShard
	sm   *cache.ShardedMegaflow
	name string
}

func (t *mfShardTier) Name() string     { return t.name }
func (t *mfShardTier) Path() Path       { return PathMegaflow }
func (t *mfShardTier) ConcurrencySafe() {}

func (t *mfShardTier) Lookup(k flow.Key, now uint64) (*cache.Entry, int, bool) {
	return t.sm.Lookup(k, now)
}
func (t *mfShardTier) Install(flow.Key, *cache.Entry) {}

func (t *mfShardTier) Stats() TierStats { return mfStats(t.name, t.Snapshot()) }

// ShardTarget is one shard of a sharded switch as a revalidation
// target: revalidator.Revalidator.AttachSharded attaches each as its
// own dump shard, so workers sweep shard-by-shard — each sweep excludes
// only its shard's readers instead of serializing the whole switch
// behind one AttachLocked mutex. Shard 0's target additionally carries
// the switch's conntrack table (expired once per round) and every
// target exposes the (read-pure) slow-path classifier for the policy
// consistency pass.
type ShardTarget struct {
	name  string
	tiers []Tier
	ct    *conntrack.Table
	cls   *classifier.Classifier
}

// Name identifies the shard target ("<switch>/shard<i>").
func (t *ShardTarget) Name() string { return t.name }

// Tiers returns the shard's maintenance view (the one per-shard
// megaflow tier; reference tiers invalidate lazily and need no sweep).
func (t *ShardTarget) Tiers() []Tier { return t.tiers }

// Conntrack exposes the owning switch's connection tracker on shard 0's
// target (nil elsewhere), so a sharded attachment still expires state.
func (t *ShardTarget) Conntrack() *conntrack.Table { return t.ct }

// Classifier exposes the owning switch's slow path for the revalidator
// policy check (classification is read-pure, so concurrent shard sweeps
// may share it).
func (t *ShardTarget) Classifier() *classifier.Classifier { return t.cls }

// ShardTargets returns one revalidation target per megaflow shard, or
// nil when the hierarchy is not sharded. This is the per-shard
// attachment surface superseding revalidator.AttachLocked for sharded
// switches: pass them to revalidator.Revalidator.AttachSharded (or
// Attach each) and maintenance proceeds shard-by-shard, concurrent with
// datapath traffic, with no switch-wide lock.
func (s *Switch) ShardTargets() []*ShardTarget {
	smt := s.shardedMegaflowTier()
	if smt == nil {
		return nil
	}
	sm := smt.ShardedMegaflow()
	out := make([]*ShardTarget, sm.NumShards())
	for i := range out {
		out[i] = &ShardTarget{
			name:  fmt.Sprintf("%s/shard%d", s.name, i),
			tiers: []Tier{&mfShardTier{MegaflowShard: sm.Shard(i), sm: sm, name: fmt.Sprintf("megaflow/s%d", i)}},
			cls:   s.cls,
		}
	}
	out[0].ct = s.ct
	return out
}

// shardedMegaflowTier finds the hierarchy's sharded authoritative tier,
// or nil.
func (s *Switch) shardedMegaflowTier() *ShardedMegaflowTier {
	for _, t := range s.tiers {
		if smt, ok := t.(*ShardedMegaflowTier); ok {
			return smt
		}
	}
	return nil
}

// ShardedMegaflow exposes the sharded megaflow cache for inspection and
// experiments, or nil when the hierarchy is not sharded (the sharded
// counterpart of Switch.Megaflow, which reports nil on sharded
// hierarchies).
func (s *Switch) ShardedMegaflow() *cache.ShardedMegaflow {
	if smt := s.shardedMegaflowTier(); smt != nil {
		return smt.ShardedMegaflow()
	}
	return nil
}
