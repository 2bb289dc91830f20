package dataplane

import (
	"fmt"

	"policyinject/internal/burst"
	"policyinject/internal/cache"
	"policyinject/internal/flow"
)

// Tier is one layer of the fast-path cache hierarchy. The switch walks
// its tiers in order, a burst at a time: a key's first hit wins and the
// winning entry is promoted into every earlier tier, so upper tiers behave
// as cheap front caches for the authoritative megaflow store below them.
//
// The cost returned by Lookup is in "megaflow subtables visited" — the
// paper's per-packet cost metric. Exact-match tiers (EMC, SMC) cost 0;
// the TSS tier reports its scan length whether it hits or misses.
//
// Concurrency contract: a plain Tier is owned by one goroutine. Its read
// side (Name, Path, Lookup, Stats, and the BatchTier / RunCoalescer
// extensions — what the packet walk calls on its hot path) shares that
// goroutine with its write side (Install, Flush, EvictIdle, and the
// LimitedTier / RevalidatableTier extensions the revalidator drives):
// the switch serializes every call, and experiments drive the switch like
// a single PMD thread. Only tiers declaring ConcurrentTier may be shared
// across goroutines; dataplane.New enforces the declaration for sharded
// hierarchies (WithShards) and NewSharedPMDPool for pools sharing one
// switch.
type Tier interface {
	// Name identifies the tier in counters and dumps ("emc", "smc",
	// "megaflow", ...).
	Name() string
	// Path is the Decision.Path value reported for hits on this tier.
	Path() Path
	// Lookup consults the tier at logical time now.
	Lookup(k flow.Key, now uint64) (ent *cache.Entry, cost int, ok bool)
	// Stats returns a snapshot of the tier's counters.
	Stats() TierStats
	// Install caches a reference produced by a lower tier or the slow
	// path. Authoritative tiers (which mint their own entries via
	// MegaflowInstaller) may treat this as a no-op.
	Install(k flow.Key, ent *cache.Entry)
	// Flush empties the tier (policy change invalidation).
	Flush()
	// EvictIdle removes entries idle since before deadline, returning the
	// eviction count. Reference tiers that invalidate lazily return 0.
	EvictIdle(deadline uint64) int
}

// ConcurrentTier is the capability marking a tier safe for multi-writer
// use — the contract of the sharded wrappers:
//
//   - the read side (Lookup, LookupBatch, AccountRun) may run from any
//     number of goroutines concurrently with each other AND with the
//     write side (Install, InstallHashed, InsertMegaflow(Hashed),
//     EvictIdle, TrimToLimit, SetFlowLimit, Revalidate and Flush);
//   - write-side calls serialize internally (per-shard locks), so two
//     goroutines may install concurrently;
//   - Stats and Name/Path are always safe.
//
// Counter snapshots taken while traffic is in flight are coherent per
// shard, not across shards. dataplane.New panics when a WithShards
// hierarchy (or a WithTiers hierarchy combined with WithShards) contains
// a tier that does not declare this capability.
type ConcurrentTier interface {
	Tier
	// ConcurrencySafe is a marker; implementations do nothing.
	ConcurrencySafe()
}

// BatchTier is the vectorized capability of a tier: resolving a whole
// burst in one call. The switch's tier walk calls it for every pass, a
// burst of one included; tiers without it are probed key by key through
// Lookup, so custom WithTiers hierarchies keep working unchanged.
type BatchTier interface {
	Tier
	// LookupBatch consults the tier for every key whose index is set in
	// miss, at logical time now. A resolved key writes its entry into
	// ents[i], accumulates its scan cost into costs[i] and clears bit i;
	// an unresolved key accumulates cost and keeps its bit. hashes[i] is
	// keys[i]'s flow hash (flow.Key.Hash), computed once at burst entry
	// and reused by every hash-consuming tier. Counter effects must equal
	// the scalar Lookup sequence over the same keys — the conformance
	// suite checks exactly that.
	LookupBatch(keys []flow.Key, hashes []uint64, now uint64, ents []*cache.Entry, costs []int, miss *burst.Bitmap)
}

// HashUser marks a BatchTier whose LookupBatch consumes the burst's
// cached flow hashes — every in-tree reference tier does: the EMC probes
// its index by them, the SMC takes its fingerprint from them, the sharded
// tiers their shard. The switch pays for the batch-entry hash pass only
// when some tier declares it (or when the PMD pool already computed the
// hashes for RSS steering), so a kernel-model hierarchy of a bare megaflow
// tier skips it; a BatchTier that reads hashes without implementing
// HashUser may receive nil.
type HashUser interface {
	UsesFlowHashes()
}

// HashedInstaller is the install-side counterpart of HashUser: a tier
// whose Install can consume the burst's cached flow hash instead of
// re-hashing the key. The tier walk's promotion and upcall-install paths
// always take it: declaring it makes the switch run the batch-entry hash
// pass. Install remains for callers without a hash and must have identical
// effects given hash == k.Hash().
type HashedInstaller interface {
	Tier
	InstallHashed(k flow.Key, hash uint64, ent *cache.Entry)
}

// RunCoalescer is the same-flow run capability of a tier: billing n
// further hits of a key's resident entry without re-probing, which is what
// lets a burst of consecutive identical keys (an elephant-flow burst)
// collapse into one lookup plus n accountings.
type RunCoalescer interface {
	Tier
	// AccountRun bills n additional hits of ent at scan cost cost, as if
	// Lookup ran n more times at logical time now. Returns false when the
	// tier cannot coalesce exactly (the switch then walks each of the
	// run's remaining copies); every in-tree tier coalesces.
	AccountRun(ent *cache.Entry, n int, cost int, now uint64) bool
}

// LimitedTier is the capability of a tier whose entry limit can be
// adjusted at run time — the flow-limit lever the revalidator pulls when a
// dump overruns its interval. TrimToLimit evicts the stalest entries down
// to the current limit (a cut below the resident count must sweep the
// squatters out on the next dump, not just reject new inserts).
type LimitedTier interface {
	Tier
	FlowLimit() int
	SetFlowLimit(n int)
	TrimToLimit() int
}

// RevalidatableTier is the capability of a tier whose entries can be
// re-checked against the slow path: the revalidator's consistency pass.
// check returns the fresh verdict and whether the entry may stay; entries
// whose verdict changed or that must go are flushed, and the flush count
// returned.
type RevalidatableTier interface {
	Tier
	Revalidate(check func(*cache.Entry) (cache.Verdict, bool)) int
}

// MegaflowInstaller is the capability of an authoritative tier: accepting
// the wildcard megaflow the slow path synthesises on an upcall. The switch
// installs upcall results into its last MegaflowInstaller tier and
// promotes the returned entry into every tier above it.
type MegaflowInstaller interface {
	Tier
	InsertMegaflow(match flow.Match, v cache.Verdict, now uint64) (*cache.Entry, error)
	// Reprobe is Lookup — same entry, cost and counter effects — for the
	// walk's upcall tail, under a precondition a tier may answer it for
	// less by: k missed this tier no earlier than its last LookupBatch
	// began. A tier with nothing cheaper returns Lookup.
	Reprobe(k flow.Key, now uint64) (ent *cache.Entry, cost int, ok bool)
}

// HashedMegaflowInstaller is the hash-aware install capability of a
// sharded authoritative tier: keyHash is the flow hash of the *key whose
// upcall synthesised the match* (not of the masked match key), which is
// what selects the shard that key's future lookups will probe. The
// switch prefers it over InsertMegaflow whenever present; declaring it
// makes the burst's hash pass run.
type HashedMegaflowInstaller interface {
	MegaflowInstaller
	InsertMegaflowHashed(match flow.Match, v cache.Verdict, now uint64, keyHash uint64) (*cache.Entry, error)
}

// TierStats is a uniform counter snapshot across tier implementations.
// Snapshots are value copies assembled by the owning tier, so the
// counteratomic discipline for every field is "always plain".
//
//lint:atomiccounters
type TierStats struct {
	Name                             string
	Hits, Misses, Inserts, Evictions uint64
	Entries, Capacity                int
	Masks                            int // distinct masks, for TSS tiers (0 otherwise)

	// Staged-pruning counters of the megaflow sweep (zero unless
	// cache.MegaflowConfig.StagedPruning is enabled): subtables actually
	// probed vs rejected for free by the signature/ports prefilters.
	// Identical whether the tier is driven key by key or in bursts; the burst
	// count lives on cache.Megaflow.BurstSweeps.
	SubtableVisits, SubtablePrunes uint64
}

func (ts TierStats) String() string {
	s := fmt.Sprintf("%s: %d entries", ts.Name, ts.Entries)
	if ts.Capacity > 0 {
		s = fmt.Sprintf("%s: %d/%d entries", ts.Name, ts.Entries, ts.Capacity)
	}
	if ts.Masks > 0 {
		s += fmt.Sprintf(", %d masks", ts.Masks)
	}
	s += fmt.Sprintf(" (hit %d / miss %d)", ts.Hits, ts.Misses)
	if ts.SubtableVisits+ts.SubtablePrunes > 0 {
		s += fmt.Sprintf(", staged: %d visited / %d pruned",
			ts.SubtableVisits, ts.SubtablePrunes)
	}
	return s
}

// EMCTier adapts the exact-match cache to the Tier interface.
type EMCTier struct{ emc *cache.EMC }

// NewEMCTier builds an EMC tier per cfg.
func NewEMCTier(cfg cache.EMCConfig) *EMCTier { return &EMCTier{emc: cache.NewEMC(cfg)} }

// EMC exposes the wrapped cache for inspection and experiments.
func (t *EMCTier) EMC() *cache.EMC { return t.emc }

func (t *EMCTier) Name() string { return "emc" }
func (t *EMCTier) Path() Path   { return PathEMC }

func (t *EMCTier) Lookup(k flow.Key, now uint64) (*cache.Entry, int, bool) {
	ent, ok := t.emc.Lookup(k, now)
	return ent, 0, ok
}

// LookupBatch resolves the burst's still-missing keys in one pass, probing
// the EMC's index by the burst's precomputed flow hashes.
func (t *EMCTier) LookupBatch(keys []flow.Key, hashes []uint64, now uint64, ents []*cache.Entry, _ []int, miss *burst.Bitmap) {
	t.emc.LookupBatch(keys, hashes, now, ents, miss)
}

// AccountRun coalesces a same-flow run into n billed hits.
func (t *EMCTier) AccountRun(ent *cache.Entry, n int, _ int, now uint64) bool {
	t.emc.AccountRun(ent, n, now)
	return true
}

// UsesFlowHashes declares that the EMC's batch pass consumes the cached
// burst hashes (its index is probed by the flow hash).
func (t *EMCTier) UsesFlowHashes() {}

func (t *EMCTier) Install(k flow.Key, ent *cache.Entry) { t.emc.Insert(k, ent) }

// InstallHashed is Install reusing the burst's cached flow hash, which
// places the key in the index and picks the eviction victim.
func (t *EMCTier) InstallHashed(k flow.Key, hash uint64, ent *cache.Entry) {
	t.emc.InsertHashed(k, hash, ent)
}

func (t *EMCTier) Flush()               { t.emc.Flush() }
func (t *EMCTier) EvictIdle(uint64) int { return 0 } // stale refs invalidate lazily

func (t *EMCTier) Stats() TierStats {
	return TierStats{
		Name: t.Name(), Hits: t.emc.Hits, Misses: t.emc.Misses,
		Inserts: t.emc.Inserts, Evictions: t.emc.Evictions,
		Entries: t.emc.Len(), Capacity: t.emc.Cap(),
	}
}

// SMCTier adapts the signature-match cache to the Tier interface.
type SMCTier struct{ smc *cache.SMC }

// NewSMCTier builds an SMC tier per cfg.
func NewSMCTier(cfg cache.SMCConfig) *SMCTier { return &SMCTier{smc: cache.NewSMC(cfg)} }

// SMC exposes the wrapped cache for inspection and experiments.
func (t *SMCTier) SMC() *cache.SMC { return t.smc }

func (t *SMCTier) Name() string { return "smc" }
func (t *SMCTier) Path() Path   { return PathSMC }

func (t *SMCTier) Lookup(k flow.Key, now uint64) (*cache.Entry, int, bool) {
	ent, ok := t.smc.Lookup(k, now)
	return ent, 0, ok
}

// LookupBatch resolves the burst's still-missing keys in one pass over
// the burst's precomputed flow hashes.
func (t *SMCTier) LookupBatch(keys []flow.Key, hashes []uint64, now uint64, ents []*cache.Entry, _ []int, miss *burst.Bitmap) {
	t.smc.LookupBatch(keys, hashes, now, ents, miss)
}

// UsesFlowHashes declares that the SMC's batch pass consumes the cached
// burst hashes (its fingerprints are the flow hash).
func (t *SMCTier) UsesFlowHashes() {}

// AccountRun coalesces a same-flow run into n billed hits.
func (t *SMCTier) AccountRun(ent *cache.Entry, n int, _ int, now uint64) bool {
	t.smc.AccountRun(ent, n, now)
	return true
}

func (t *SMCTier) Install(k flow.Key, ent *cache.Entry) { t.smc.Insert(k, ent) }

// InstallHashed is Install reusing the burst's cached flow hash: the SMC's
// fingerprint is derived from the hash it was about to recompute, so batch
// promotions skip one Key.Hash per install.
func (t *SMCTier) InstallHashed(k flow.Key, hash uint64, ent *cache.Entry) {
	t.smc.InsertHashed(k, hash, ent)
}

func (t *SMCTier) Flush()               { t.smc.Flush() }
func (t *SMCTier) EvictIdle(uint64) int { return 0 } // stale refs invalidate lazily

func (t *SMCTier) Stats() TierStats {
	return TierStats{
		Name: t.Name(), Hits: t.smc.Hits, Misses: t.smc.Misses,
		Inserts: t.smc.Inserts, Evictions: t.smc.Evictions,
		Entries: t.smc.Len(), Capacity: t.smc.Cap(),
	}
}

// MegaflowTier adapts the TSS megaflow cache to the Tier interface. It is
// the authoritative tier: upcall results are installed here and promoted
// upward.
type MegaflowTier struct{ mfc *cache.Megaflow }

// NewMegaflowTier builds a megaflow tier per cfg.
func NewMegaflowTier(cfg cache.MegaflowConfig) *MegaflowTier {
	return &MegaflowTier{mfc: cache.NewMegaflow(cfg)}
}

// Megaflow exposes the wrapped cache for inspection and experiments.
func (t *MegaflowTier) Megaflow() *cache.Megaflow { return t.mfc }

func (t *MegaflowTier) Name() string { return "megaflow" }
func (t *MegaflowTier) Path() Path   { return PathMegaflow }

func (t *MegaflowTier) Lookup(k flow.Key, now uint64) (*cache.Entry, int, bool) {
	return t.mfc.Lookup(k, now)
}

// LookupBatch runs the inverted subtable sweep: each resident mask is
// visited once per burst instead of once per key (see
// cache.Megaflow.LookupBatch).
func (t *MegaflowTier) LookupBatch(keys []flow.Key, _ []uint64, now uint64, ents []*cache.Entry, costs []int, miss *burst.Bitmap) {
	t.mfc.LookupBatch(keys, now, ents, costs, miss)
}

// AccountRun coalesces a same-flow run into n billed hits at the run's
// scan depth.
func (t *MegaflowTier) AccountRun(ent *cache.Entry, n int, cost int, now uint64) bool {
	t.mfc.AccountRun(ent, n, cost, now)
	return true
}

// Install is a no-op: the megaflow tier mints its own entries via
// InsertMegaflow.
func (t *MegaflowTier) Install(flow.Key, *cache.Entry) {}

func (t *MegaflowTier) Flush()                        { t.mfc.Flush() }
func (t *MegaflowTier) EvictIdle(deadline uint64) int { return t.mfc.EvictIdle(deadline) }

// FlowLimit, SetFlowLimit and TrimToLimit expose the megaflow entry limit
// as the revalidator's dynamic lever (LimitedTier).
func (t *MegaflowTier) FlowLimit() int     { return t.mfc.FlowLimit() }
func (t *MegaflowTier) SetFlowLimit(n int) { t.mfc.SetFlowLimit(n) }
func (t *MegaflowTier) TrimToLimit() int   { return t.mfc.TrimToLimit() }

// Revalidate runs the megaflow consistency pass (RevalidatableTier).
func (t *MegaflowTier) Revalidate(check func(*cache.Entry) (cache.Verdict, bool)) int {
	return t.mfc.Revalidate(check)
}

func (t *MegaflowTier) InsertMegaflow(match flow.Match, v cache.Verdict, now uint64) (*cache.Entry, error) {
	return t.mfc.Insert(match, v, now)
}

// Reprobe probes only the subtables installed into since the burst's sweep.
func (t *MegaflowTier) Reprobe(k flow.Key, now uint64) (*cache.Entry, int, bool) {
	return t.mfc.Reprobe(k, now)
}

func (t *MegaflowTier) Stats() TierStats {
	return TierStats{
		Name: t.Name(), Hits: t.mfc.Hits, Misses: t.mfc.Misses,
		Entries: t.mfc.Len(), Masks: t.mfc.NumMasks(),
		SubtableVisits: t.mfc.SubtableVisits, SubtablePrunes: t.mfc.SubtablePrunes,
	}
}
