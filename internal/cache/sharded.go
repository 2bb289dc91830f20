// Sharded caches — the concurrent datapath's fast path: S ordinary caches
// behind S locks, and nothing more.
//
// One generic core (shards) holds the children, one RWMutex each, and
// maps bits [32,40) of the flow hash to a shard — disjoint from the SMC
// fingerprint (low bits), the SMC signature (top 16 bits) and PMD RSS
// steering (hash mod nPMD), so sharding stays decorrelated from the other
// hash consumers. Two wrappers sit on it: ShardedRef shards a reference
// cache (EMC or SMC), and ShardedMegaflow shards the megaflow TSS, adding
// only what is its own — the cross-shard mask ledger, the total flow limit
// and the run accounting.
//
// A child is the very type a single goroutine would own, running the same
// lookup bodies; the constructors here set its shared flag, which makes
// those bodies bump counters atomically and leave dead references for the
// next write to overwrite (see bump). So:
//
//   - the read side (Lookup/LookupBatch) takes the shard *read* lock and
//     calls the child's ordinary lookup — any number of PMD readers proceed
//     concurrently on one shard. LookupBatch deals the burst's miss bitmap
//     out by shard and hands each shard its own slice, one lock and one
//     child LookupBatch per shard per burst. Staged megaflow children
//     rank their scan order at a tick's first lookup, so their reads take
//     the write lock instead (still S-way parallel across shards);
//   - the write side (Insert, EvictIdle, TrimToLimit, Revalidate, Flush)
//     takes the shard *write* lock around the child's own method, excluding
//     readers of that shard only.
//
// A wildcard megaflow is installed into the shard of the *triggering
// key's* hash — the shard where that key's future lookups probe. Two
// keys covered by one megaflow but hashed to different shards therefore
// each mint their own copy (one extra upcall), exactly like OVS keeps an
// independent dpcls per PMD thread. Verdicts are identical either way;
// scan-cost and upcall attribution shifts per shard, which is the
// "counters modulo shard attribution" clause of the differential suite.
package cache

import (
	"sync"
	"sync/atomic"

	"policyinject/internal/burst"
	"policyinject/internal/flow"
)

// DefaultShards is the shard count used when a caller asks for sharding
// without picking one.
const DefaultShards = 8

// shardShift positions the shard-index bits of the flow hash.
const shardShift = 32

// shardCount resolves a requested shard count: non-positive means
// DefaultShards, anything else is clamped and rounded up to a power of two
// in [2, 256].
func shardCount(n int) int {
	if n <= 0 {
		n = DefaultShards
	}
	if n > 256 {
		n = 256
	}
	p := 2
	for p < n {
		p <<= 1
	}
	return p
}

// perShardLimit splits a total entry limit across n shards (ceiling, so
// the shards jointly admit at least the total; non-positive passes
// through as "unlimited").
func perShardLimit(total, n int) int {
	if total <= 0 {
		return total
	}
	return (total + n - 1) / n
}

// shard is one child cache and the lock that guards it. Readers hold
// mu.RLock around the child's lookups; every mutation holds mu. Touching
// c outside the lock is a bug the lockdiscipline analyzer's sharded rule
// flags.
//
//lint:sharded
type shard[C any] struct {
	mu sync.RWMutex
	c  C
}

// shards is the core every sharded cache embeds: the children, their
// locks and the hash-to-shard map.
type shards[C any] struct {
	smask uint64 // shard index mask (len(all)-1)
	all   []shard[C]
}

// newShards builds n (a shardCount result) shards, child i from child(i).
func newShards[C any](n int, child func(i int) C) shards[C] {
	s := shards[C]{smask: uint64(n - 1), all: make([]shard[C], n)}
	for i := range s.all {
		s.all[i].c = child(i)
	}
	return s
}

// NumShards returns the shard count.
func (s *shards[C]) NumShards() int { return len(s.all) }

// ShardIndex returns the shard a flow hash selects.
func (s *shards[C]) ShardIndex(h uint64) int { return int((h >> shardShift) & s.smask) }

// at returns the shard a flow hash selects.
func (s *shards[C]) at(h uint64) *shard[C] { return &s.all[(h>>shardShift)&s.smask] }

// write runs fn on shard i's child under the shard's write lock.
func (s *shards[C]) write(i int, fn func(C)) {
	sh := &s.all[i]
	sh.mu.Lock()
	defer sh.mu.Unlock()
	fn(sh.c)
}

// each runs fn on every child in shard order, one write lock at a time.
// The write lock also settles the counters readers bump atomically, so fn
// may read them plainly.
func (s *shards[C]) each(fn func(C)) {
	for i := range s.all {
		s.write(i, fn)
	}
}

// sum adds up fn over every child (see each).
func (s *shards[C]) sum(fn func(C) int) (n int) {
	s.each(func(c C) { n += fn(c) })
	return n
}

// CacheSnapshot is a reference-cache (EMC/SMC) stats snapshot.
type CacheSnapshot struct {
	Hits, Misses, Inserts, Evictions, Stale uint64
	Entries, Capacity                       int
}

func (a *CacheSnapshot) add(b CacheSnapshot) {
	a.Hits += b.Hits
	a.Misses += b.Misses
	a.Inserts += b.Inserts
	a.Evictions += b.Evictions
	a.Stale += b.Stale
	a.Entries += b.Entries
	a.Capacity += b.Capacity
}

// refChild is what ShardedRef needs of a reference cache; EMC and SMC
// both provide it.
type refChild interface {
	LookupHashed(k flow.Key, h uint64, now uint64) (*Entry, bool)
	LookupBatch(keys []flow.Key, hashes []uint64, now uint64, ents []*Entry, miss *burst.Bitmap)
	InsertHashed(k flow.Key, h uint64, f *Entry)
	Flush()
	snapshot() CacheSnapshot
}

// ShardedRef is the concurrent reference cache — a sharded EMC or SMC:
// reads under per-shard read locks, inserts under per-shard write locks.
// Total capacity is split evenly across shards.
type ShardedRef struct {
	shards[refChild]
	runHits uint64 // coalesced-run hits (atomic; a run's shard is unknown)
}

// NewShardedEMC builds a sharded exact-match cache with the given shard
// count (see shardCount). Each shard draws its probabilistic-insertion
// sequence from its own deterministic PRNG.
func NewShardedEMC(cfg EMCConfig, shards int) *ShardedRef {
	n := shardCount(shards)
	max := cfg.Entries
	if max == 0 {
		max = DefaultEMCEntries
	}
	child := cfg
	child.Entries = perShardLimit(max, n)
	return &ShardedRef{shards: newShards(n, func(i int) refChild {
		c := child
		// Distinct, reproducible per-shard PRNG streams.
		c.Seed = cfg.Seed + uint64(i+1)*0x9e3779b97f4a7c15
		e := NewEMC(c)
		e.shared = true
		return e
	})}
}

// NewShardedSMC builds a sharded signature-match cache with the given
// shard count (see shardCount). The shard bits [32,40) are disjoint from
// both the fingerprint (low bits) and the signature (top 16 bits), so
// per-shard tables keep full discrimination.
func NewShardedSMC(cfg SMCConfig, shards int) *ShardedRef {
	n := shardCount(shards)
	max := cfg.Entries
	if max == 0 {
		max = DefaultSMCEntries
	}
	child := cfg
	child.Entries = perShardLimit(max, n)
	return &ShardedRef{shards: newShards(n, func(int) refChild {
		s := NewSMC(child)
		s.shared = true
		return s
	})}
}

// Lookup probes the key's shard under its read lock.
func (r *ShardedRef) Lookup(k flow.Key, now uint64) (*Entry, bool) {
	return r.LookupHashed(k, k.Hash(), now)
}

// LookupHashed is Lookup with the flow hash precomputed.
func (r *ShardedRef) LookupHashed(k flow.Key, h uint64, now uint64) (*Entry, bool) {
	sh := r.at(h)
	sh.mu.RLock()
	ent, ok := sh.c.LookupHashed(k, h, now)
	sh.mu.RUnlock()
	return ent, ok
}

// LookupBatch resolves the burst's still-missing keys shard by shard: one
// read lock and one child LookupBatch per shard that owns any of them.
// hashes must be the burst's flow hashes (the sharded tiers declare
// HashUser, so the switch always provides them).
//
//lint:hotpath
func (r *ShardedRef) LookupBatch(keys []flow.Key, hashes []uint64, now uint64, ents []*Entry, miss *burst.Bitmap) {
	subs := miss.Deal(hashes, shardShift, r.smask)
	for i := range subs {
		sub := &subs[i]
		if sub.Empty() {
			continue
		}
		sh := &r.all[i]
		sh.mu.RLock()
		sh.c.LookupBatch(keys, hashes, now, ents, sub)
		sh.mu.RUnlock()
		miss.Or(sub)
	}
}

// AccountRun bills n coalesced hits of resident entry f — all atomic, no
// shard lock (the run's shard is unknown and unneeded).
func (r *ShardedRef) AccountRun(f *Entry, n int, now uint64) {
	atomic.AddUint64(&r.runHits, uint64(n))
	credit(true, f, uint64(n), now)
}

// Insert caches a reference in the key's shard under its write lock.
func (r *ShardedRef) Insert(k flow.Key, f *Entry) { r.InsertHashed(k, k.Hash(), f) }

// InsertHashed is Insert with the flow hash precomputed.
func (r *ShardedRef) InsertHashed(k flow.Key, h uint64, f *Entry) {
	sh := r.at(h)
	sh.mu.Lock()
	sh.c.InsertHashed(k, h, f)
	sh.mu.Unlock()
}

// Flush empties every shard.
func (r *ShardedRef) Flush() { r.each(refChild.Flush) }

// Len returns the total cached references.
func (r *ShardedRef) Len() int { return r.Snapshot().Entries }

// Cap returns the total configured capacity.
func (r *ShardedRef) Cap() int { return r.Snapshot().Capacity }

// Snapshot aggregates every shard's counters plus the wrapper's
// coalesced-run hits.
func (r *ShardedRef) Snapshot() CacheSnapshot {
	var agg CacheSnapshot
	r.each(func(c refChild) { agg.add(c.snapshot()) })
	agg.Hits += atomic.LoadUint64(&r.runHits)
	return agg
}

// MegaflowShardSnapshot is one shard's (or the aggregated) stats
// snapshot, assembled under the shard lock so plain reads are safe.
type MegaflowShardSnapshot struct {
	Entries, Masks                      int
	Hits, Misses, Lookups, MasksScanned uint64
	SubtableVisits, SubtablePrunes      uint64
}

// ShardedMegaflow is the concurrent megaflow cache: per-shard insert
// locks, lock-shared readers, per-shard maintenance. Safe for any mix of
// concurrent Lookup/LookupBatch/AccountRun with concurrent Insert,
// EvictIdle, TrimToLimit, Revalidate and Flush. The one exception is
// SetMaskHooks, which must run before traffic starts.
type ShardedMegaflow struct {
	shards[*Megaflow]
	staged bool // children run staged pruning: reads serialize per shard
	limit  atomic.Int64

	// Run-coalescing accounting (AccountRun cannot know its entry's
	// shard, so coalesced hits bill wrapper-level atomic counters that
	// Snapshot folds into the totals).
	runLookups, runHits, runScans uint64

	// hookMu guards the cross-shard mask ledger below: the same logical
	// mask may be resident in several shards (one subtable per shard),
	// but the user-facing mask lifecycle — quota admission, Minted,
	// Dropped, NumMasks — must see each mask once. The refcount map
	// tracks per-mask shard residency; user hooks fire on the 0->1 and
	// 1->0 edges only.
	hookMu    sync.Mutex
	userHooks MaskHooks
	maskRef   map[flow.Mask]int
	maxMasks  int
}

// NewShardedMegaflow builds a sharded megaflow cache with the given
// shard count (see shardCount). The per-entry flow limit is split evenly
// across shards; the MaxMasks quota is enforced globally through the
// wrapper's mask ledger. SortByHits is incompatible with concurrent
// readers (a tick's first lookup would rank the scan under them) and is
// forced off; staged children rank under their shard's write lock;
// MaskEvictLRU would need cross-shard eviction and is not supported
// (callers reject it — see dataplane.WithShards).
func NewShardedMegaflow(cfg MegaflowConfig, shards int) *ShardedMegaflow {
	n := shardCount(shards)
	total := cfg.FlowLimit
	if total == 0 {
		total = DefaultFlowLimit
	}
	sm := &ShardedMegaflow{
		staged:   cfg.StagedPruning,
		maskRef:  make(map[flow.Mask]int),
		maxMasks: cfg.MaxMasks,
	}
	sm.limit.Store(int64(total))
	child := cfg
	child.SortByHits = false
	child.MaxMasks = 0 // the wrapper's ledger owns the global cap
	child.MaskEvictLRU = false
	child.FlowLimit = perShardLimit(total, n)
	sm.shards = newShards(n, func(int) *Megaflow {
		mf := NewMegaflow(child)
		mf.shared = true
		mf.SetMaskHooks(MaskHooks{Admit: sm.admitShardMask, Minted: sm.shardMaskMinted, Dropped: sm.shardMaskDropped})
		return mf
	})
	return sm
}

// admitShardMask is the per-child Admit hook: a mask already live in any
// shard is admitted for free (the logical subtable exists), the global
// MaxMasks cap gates next, and the user's quota hook decides last.
func (sm *ShardedMegaflow) admitShardMask(m flow.Match) error {
	sm.hookMu.Lock()
	defer sm.hookMu.Unlock()
	if sm.maskRef[m.Mask] > 0 {
		return nil
	}
	if sm.maxMasks > 0 && len(sm.maskRef) >= sm.maxMasks {
		return ErrMaskLimit
	}
	if sm.userHooks.Admit != nil {
		return sm.userHooks.Admit(m)
	}
	return nil
}

// shardMaskMinted refcounts a shard-level subtable mint, surfacing the
// user Minted hook only when the mask goes live globally.
func (sm *ShardedMegaflow) shardMaskMinted(m flow.Match) {
	sm.hookMu.Lock()
	defer sm.hookMu.Unlock()
	sm.maskRef[m.Mask]++
	if sm.maskRef[m.Mask] == 1 && sm.userHooks.Minted != nil {
		sm.userHooks.Minted(m)
	}
}

// shardMaskDropped refcounts a shard-level subtable drop, surfacing the
// user Dropped hook when the last shard releases the mask.
func (sm *ShardedMegaflow) shardMaskDropped(mask flow.Mask) {
	sm.hookMu.Lock()
	defer sm.hookMu.Unlock()
	if sm.maskRef[mask] == 0 {
		return
	}
	sm.maskRef[mask]--
	if sm.maskRef[mask] == 0 {
		delete(sm.maskRef, mask)
		if sm.userHooks.Dropped != nil {
			sm.userHooks.Dropped(mask)
		}
	}
}

// SetMaskHooks installs the user-facing mask lifecycle hooks. Must be
// called before concurrent traffic starts (hooks themselves are then
// invoked under the wrapper's ledger lock, serialized across shards).
func (sm *ShardedMegaflow) SetMaskHooks(h MaskHooks) {
	sm.hookMu.Lock()
	defer sm.hookMu.Unlock()
	sm.userHooks = h
}

// NumMasks returns the number of globally distinct masks (a mask
// resident in k shards counts once).
func (sm *ShardedMegaflow) NumMasks() int {
	sm.hookMu.Lock()
	defer sm.hookMu.Unlock()
	return len(sm.maskRef)
}

// Lookup probes the key's shard. Safe under any concurrency.
func (sm *ShardedMegaflow) Lookup(k flow.Key, now uint64) (*Entry, int, bool) {
	return sm.LookupHashed(k, k.Hash(), now)
}

// LookupHashed is Lookup with the flow hash precomputed.
func (sm *ShardedMegaflow) LookupHashed(k flow.Key, h uint64, now uint64) (*Entry, int, bool) {
	sh := sm.at(h)
	if sm.staged {
		sh.mu.Lock()
		ent, cost, ok := sh.c.Lookup(k, now)
		sh.mu.Unlock()
		return ent, cost, ok
	}
	sh.mu.RLock()
	ent, cost, ok := sh.c.Lookup(k, now)
	sh.mu.RUnlock()
	return ent, cost, ok
}

// LookupBatch resolves the burst's still-missing keys shard by shard:
// each shard that owns any of them is locked once per burst and swept by
// its child's LookupBatch — the inverted per-subtable loop, flat or
// staged — over its own slice of the miss bitmap. hashes must be the
// burst's flow hashes (the sharded tier declares HashUser, so the switch
// always provides them).
//
//lint:hotpath
func (sm *ShardedMegaflow) LookupBatch(keys []flow.Key, hashes []uint64, now uint64, ents []*Entry, costs []int, miss *burst.Bitmap) {
	subs := miss.Deal(hashes, shardShift, sm.smask)
	for i := range subs {
		sub := &subs[i]
		if sub.Empty() {
			continue
		}
		sh := &sm.all[i]
		if sm.staged {
			sh.mu.Lock()
			sh.c.LookupBatch(keys, now, ents, costs, sub)
			sh.mu.Unlock()
		} else {
			sh.mu.RLock()
			sh.c.LookupBatch(keys, now, ents, costs, sub)
			sh.mu.RUnlock()
		}
		miss.Or(sub)
	}
}

// AccountRun bills n coalesced hits of ent at scan depth cost. The
// entry's shard is unknown here (runs are keyed by entry, not hash), so
// the hits land on wrapper-level atomic counters and the entry itself —
// no shard lock needed, everything is atomic.
func (sm *ShardedMegaflow) AccountRun(ent *Entry, n int, cost int, now uint64) {
	nn := uint64(n)
	atomic.AddUint64(&sm.runLookups, nn)
	atomic.AddUint64(&sm.runHits, nn)
	atomic.AddUint64(&sm.runScans, nn*uint64(cost))
	credit(true, ent, nn, now)
}

// Insert installs a megaflow into the shard of the triggering key's
// hash. Callers on the batched path use InsertHashed with the burst's
// cached hash; this variant hashes the *masked* key as a last resort,
// which only places correctly for exact-match (full-mask) megaflows —
// the dataplane always provides the real key hash.
func (sm *ShardedMegaflow) Insert(match flow.Match, v Verdict, now uint64) (*Entry, error) {
	return sm.InsertHashed(match, v, now, flow.Key(match.Key).Hash())
}

// InsertHashed installs a megaflow into the shard selected by keyHash,
// the flow hash of the key whose upcall synthesised the match.
func (sm *ShardedMegaflow) InsertHashed(match flow.Match, v Verdict, now uint64, keyHash uint64) (*Entry, error) {
	sh := sm.at(keyHash)
	sh.mu.Lock()
	ent, err := sh.c.Insert(match, v, now)
	sh.mu.Unlock()
	return ent, err
}

// EvictIdle sweeps every shard in turn, each under its own lock.
func (sm *ShardedMegaflow) EvictIdle(deadline uint64) int {
	return sm.sum(func(m *Megaflow) int { return m.EvictIdle(deadline) })
}

// FlowLimit returns the total entry limit across shards.
func (sm *ShardedMegaflow) FlowLimit() int { return int(sm.limit.Load()) }

// SetFlowLimit sets the total entry limit, splitting it evenly across
// shards (ceiling). Safe to call concurrently with traffic — the
// revalidator's flow-limit lever.
func (sm *ShardedMegaflow) SetFlowLimit(n int) {
	for i := range sm.all {
		sm.Shard(i).SetFlowLimit(n)
	}
}

// TrimToLimit trims every shard to its slice of the flow limit.
func (sm *ShardedMegaflow) TrimToLimit() int { return sm.sum((*Megaflow).TrimToLimit) }

// Revalidate re-checks every shard's entries against check, shard by
// shard. check runs under the shard's write lock and may be invoked from
// multiple shards' sweeps concurrently when the revalidator dumps shards
// on different workers — it must be pure (the classifier's read path
// is).
func (sm *ShardedMegaflow) Revalidate(check func(*Entry) (Verdict, bool)) int {
	return sm.sum(func(m *Megaflow) int { return m.Revalidate(check) })
}

// Flush drops everything, shard by shard.
func (sm *ShardedMegaflow) Flush() { sm.each((*Megaflow).Flush) }

// Len returns the total resident entries across shards.
func (sm *ShardedMegaflow) Len() int { return sm.sum((*Megaflow).Len) }

// ShardSnapshot returns shard i's counters (see MegaflowShard.Snapshot).
func (sm *ShardedMegaflow) ShardSnapshot(i int) MegaflowShardSnapshot {
	return sm.Shard(i).Snapshot()
}

// Snapshot aggregates every shard's counters plus the wrapper's
// run-coalescing accounting; Masks is the global distinct-mask count.
func (sm *ShardedMegaflow) Snapshot() MegaflowShardSnapshot {
	var agg MegaflowShardSnapshot
	for i := range sm.all {
		s := sm.ShardSnapshot(i)
		agg.Entries += s.Entries
		agg.Hits += s.Hits
		agg.Misses += s.Misses
		agg.Lookups += s.Lookups
		agg.MasksScanned += s.MasksScanned
		agg.SubtableVisits += s.SubtableVisits
		agg.SubtablePrunes += s.SubtablePrunes
	}
	agg.Masks = sm.NumMasks()
	agg.Hits += atomic.LoadUint64(&sm.runHits)
	agg.Lookups += atomic.LoadUint64(&sm.runLookups)
	agg.MasksScanned += atomic.LoadUint64(&sm.runScans)
	return agg
}

// MegaflowShard is one shard of a ShardedMegaflow as a maintenance
// target — the unit of per-shard revalidation. Every method takes that
// shard's write lock only: a revalidator worker sweeping shard i excludes
// shard i's readers, not the switch.
type MegaflowShard struct {
	sm *ShardedMegaflow
	i  int
}

// Shard returns the maintenance view of shard i.
func (sm *ShardedMegaflow) Shard(i int) MegaflowShard { return MegaflowShard{sm, i} }

// EvictIdle sweeps the shard — the per-shard revalidation dump.
func (v MegaflowShard) EvictIdle(deadline uint64) (n int) {
	v.sm.write(v.i, func(m *Megaflow) { n = m.EvictIdle(deadline) })
	return n
}

// FlowLimit returns the total entry limit across shards.
func (v MegaflowShard) FlowLimit() int { return v.sm.FlowLimit() }

// SetFlowLimit installs the shard's slice of a *total* limit of n
// entries: each shard view receives the same total and takes its 1/S
// share (ceiling), so a full round over the shards is equivalent to one
// ShardedMegaflow.SetFlowLimit(n).
func (v MegaflowShard) SetFlowLimit(n int) {
	v.sm.limit.Store(int64(n))
	per := perShardLimit(n, len(v.sm.all))
	v.sm.write(v.i, func(m *Megaflow) { m.SetFlowLimit(per) })
}

// TrimToLimit trims the shard to its slice of the flow limit.
func (v MegaflowShard) TrimToLimit() (n int) {
	v.sm.write(v.i, func(m *Megaflow) { n = m.TrimToLimit() })
	return n
}

// Revalidate runs the consistency pass on the shard.
func (v MegaflowShard) Revalidate(check func(*Entry) (Verdict, bool)) (n int) {
	v.sm.write(v.i, func(m *Megaflow) { n = m.Revalidate(check) })
	return n
}

// Flush drops the shard's entries.
func (v MegaflowShard) Flush() { v.sm.write(v.i, (*Megaflow).Flush) }

// Snapshot returns the shard's counters, read under its write lock so the
// child's reader-atomic counters settle first.
func (v MegaflowShard) Snapshot() (s MegaflowShardSnapshot) {
	v.sm.write(v.i, func(m *Megaflow) {
		s = MegaflowShardSnapshot{
			Entries: m.Len(), Masks: m.NumMasks(),
			Hits: m.Hits, Misses: m.Misses,
			Lookups: m.Lookups, MasksScanned: m.MasksScanned,
			SubtableVisits: m.SubtableVisits, SubtablePrunes: m.SubtablePrunes,
		}
	})
	return s
}
