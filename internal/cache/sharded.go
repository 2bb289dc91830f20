// Sharded cache wrappers: the concurrent datapath's fast path.
//
// Each wrapper (ShardedMegaflow, ShardedEMC, ShardedSMC) partitions its
// single-goroutine cache by flow hash into S power-of-two shards, each a
// private child instance behind a per-shard RWMutex:
//
//   - the read side (Lookup/LookupBatch) takes the shard *read* lock and
//     probes through the lookupShared variants, which replace every
//     counter and entry mutation with an atomic — so any number of PMD
//     readers proceed concurrently on one shard;
//   - the write side (Insert, EvictIdle, TrimToLimit, Revalidate, Flush)
//     takes the shard *write* lock and reuses the child's single-threaded
//     code unchanged, excluding readers of that shard only.
//
// Shard placement uses bits [32,40) of the flow hash: disjoint from the
// SMC fingerprint (low bits), the SMC signature (top 16 bits) and PMD
// RSS steering (hash mod nPMD), so sharding stays decorrelated from the
// other hash consumers.
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
	"math/bits"
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

// roundShards clamps and rounds a requested shard count to a power of
// two in [2, 256].
func roundShards(n int) int {
	if n < 2 {
		n = 2
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

// mfShard is one megaflow shard: the child cache and the lock that
// guards it. Readers hold mu.RLock around lookupShared probes; every
// mutation holds mu. Cross-shard access outside the lock is a bug the
// lockdiscipline analyzer's sharded rule flags.
//
//lint:sharded
type mfShard struct {
	mu sync.RWMutex
	mf *Megaflow
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
	smask  uint64 // shard index mask (nShards-1)
	staged bool   // children run staged pruning: reads serialize per shard
	limit  atomic.Int64
	shards []mfShard

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
// shard count (rounded to a power of two in [2, 256]; <= 0 means
// DefaultShards). The per-entry flow limit is split evenly across
// shards; the MaxMasks quota is enforced globally through the wrapper's
// mask ledger. SortByHits is incompatible with concurrent readers
// (lookups would reorder the scan) and is forced off; MaskEvictLRU
// would need cross-shard eviction and is not supported (callers reject
// it — see dataplane.WithShards).
func NewShardedMegaflow(cfg MegaflowConfig, shards int) *ShardedMegaflow {
	if shards <= 0 {
		shards = DefaultShards
	}
	n := roundShards(shards)
	total := cfg.FlowLimit
	if total == 0 {
		total = DefaultFlowLimit
	}
	sm := &ShardedMegaflow{
		smask:    uint64(n - 1),
		staged:   cfg.StagedPruning,
		shards:   make([]mfShard, n),
		maskRef:  make(map[flow.Mask]int),
		maxMasks: cfg.MaxMasks,
	}
	sm.limit.Store(int64(total))
	child := cfg
	child.SortByHits = false
	child.MaxMasks = 0 // the wrapper's ledger owns the global cap
	child.MaskEvictLRU = false
	child.FlowLimit = perShardLimit(total, n)
	for i := range sm.shards {
		mf := NewMegaflow(child)
		mf.shared = true
		mf.SetMaskHooks(MaskHooks{Admit: sm.admitShardMask, Minted: sm.shardMaskMinted, Dropped: sm.shardMaskDropped})
		sm.shards[i].mf = mf
	}
	return sm
}

// NumShards returns the shard count.
func (sm *ShardedMegaflow) NumShards() int { return len(sm.shards) }

// ShardIndex returns the shard a flow hash selects.
func (sm *ShardedMegaflow) ShardIndex(h uint64) int {
	return int((h >> shardShift) & sm.smask)
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
	sh := &sm.shards[sm.ShardIndex(h)]
	if sm.staged {
		// Staged pruning mutates ranking state on lookup: staged shards
		// serialize their readers behind the write lock (still S-way
		// parallel across shards).
		sh.mu.Lock()
		ent, cost, ok := sh.mf.Lookup(k, now)
		sh.mu.Unlock()
		return ent, cost, ok
	}
	sh.mu.RLock()
	ent, cost, ok := sh.mf.lookupShared(k, now)
	sh.mu.RUnlock()
	return ent, cost, ok
}

// LookupBatch resolves the burst's still-missing keys shard by shard:
// each shard is locked once per burst and swept with the inverted
// per-subtable loop over its own keys. hashes must be the burst's flow
// hashes (the sharded tier declares HashUser so the switch always
// provides them); a nil hashes falls back to per-key scalar probes.
//
//lint:hotpath
func (sm *ShardedMegaflow) LookupBatch(keys []flow.Key, hashes []uint64, now uint64, ents []*Entry, costs []int, miss *burst.Bitmap) {
	if hashes == nil {
		words := miss.Words()
		for wi := range words {
			w := words[wi]
			for w != 0 {
				i := wi<<6 + bits.TrailingZeros64(w)
				w &= w - 1
				ent, cost, ok := sm.Lookup(keys[i], now)
				costs[i] += cost
				if ok {
					ents[i] = ent
					miss.Clear(i)
				}
			}
		}
		return
	}
	for si := range sm.shards {
		if miss.Empty() {
			break
		}
		sid := uint64(si)
		sh := &sm.shards[si]
		if sm.staged {
			sh.mu.Lock()
			sm.shardScalarSweep(sh.mf, sid, keys, hashes, now, ents, costs, miss)
			sh.mu.Unlock()
			continue
		}
		sh.mu.RLock()
		sh.mf.lookupBatchShared(keys, hashes, now, sm.smask, sid, ents, costs, miss)
		sh.mu.RUnlock()
	}
}

// shardScalarSweep probes one (already locked) staged shard key by key
// for the miss-bitmap entries that hash to shard sid.
func (sm *ShardedMegaflow) shardScalarSweep(mf *Megaflow, sid uint64, keys []flow.Key, hashes []uint64, now uint64, ents []*Entry, costs []int, miss *burst.Bitmap) {
	words := miss.Words()
	for wi := range words {
		w := words[wi]
		for w != 0 {
			i := wi<<6 + bits.TrailingZeros64(w)
			w &= w - 1
			if (hashes[i]>>shardShift)&sm.smask != sid {
				continue
			}
			ent, cost, ok := mf.Lookup(keys[i], now)
			costs[i] += cost
			if ok {
				ents[i] = ent
				miss.Clear(i)
			}
		}
	}
}

// AccountRun bills n coalesced hits of ent at scan depth cost. The
// entry's shard is unknown here (runs are keyed by entry, not hash), so
// the hits land on wrapper-level atomic counters and the entry itself —
// no shard lock needed, everything is atomic.
func (sm *ShardedMegaflow) AccountRun(ent *Entry, n int, cost int, now uint64) bool {
	nn := uint64(n)
	atomic.AddUint64(&sm.runLookups, nn)
	atomic.AddUint64(&sm.runHits, nn)
	atomic.AddUint64(&sm.runScans, nn*uint64(cost))
	atomic.AddUint64(&ent.Hits, nn)
	atomic.StoreUint64(&ent.LastHit, now)
	return true
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
	sh := &sm.shards[sm.ShardIndex(keyHash)]
	sh.mu.Lock()
	ent, err := sh.mf.Insert(match, v, now)
	sh.mu.Unlock()
	return ent, err
}

// EvictIdle sweeps every shard in turn, each under its own lock.
func (sm *ShardedMegaflow) EvictIdle(deadline uint64) int {
	n := 0
	for si := range sm.shards {
		n += sm.ShardEvictIdle(si, deadline)
	}
	return n
}

// ShardEvictIdle sweeps one shard — the per-shard revalidation dump.
func (sm *ShardedMegaflow) ShardEvictIdle(si int, deadline uint64) int {
	sh := &sm.shards[si]
	sh.mu.Lock()
	n := sh.mf.EvictIdle(deadline)
	sh.mu.Unlock()
	return n
}

// FlowLimit returns the total entry limit across shards.
func (sm *ShardedMegaflow) FlowLimit() int { return int(sm.limit.Load()) }

// SetFlowLimit sets the total entry limit, splitting it evenly across
// shards (ceiling). Safe to call concurrently with traffic — the
// revalidator's flow-limit lever.
func (sm *ShardedMegaflow) SetFlowLimit(n int) {
	sm.limit.Store(int64(n))
	per := perShardLimit(n, len(sm.shards))
	for si := range sm.shards {
		sh := &sm.shards[si]
		sh.mu.Lock()
		sh.mf.SetFlowLimit(per)
		sh.mu.Unlock()
	}
}

// ShardSetFlowLimit installs one shard's slice of a total limit of n
// entries — the per-shard revalidator view's lever: each shard view
// receives the same total and takes its 1/S share, so a full round over
// the shards is equivalent to one SetFlowLimit(n).
func (sm *ShardedMegaflow) ShardSetFlowLimit(si int, n int) {
	sm.limit.Store(int64(n))
	per := perShardLimit(n, len(sm.shards))
	sh := &sm.shards[si]
	sh.mu.Lock()
	sh.mf.SetFlowLimit(per)
	sh.mu.Unlock()
}

// TrimToLimit trims every shard to its slice of the flow limit.
func (sm *ShardedMegaflow) TrimToLimit() int {
	n := 0
	for si := range sm.shards {
		n += sm.ShardTrimToLimit(si)
	}
	return n
}

// ShardTrimToLimit trims one shard to its slice of the flow limit.
func (sm *ShardedMegaflow) ShardTrimToLimit(si int) int {
	sh := &sm.shards[si]
	sh.mu.Lock()
	n := sh.mf.TrimToLimit()
	sh.mu.Unlock()
	return n
}

// Revalidate re-checks every shard's entries against check, shard by
// shard. check runs under the shard's write lock and may be invoked from
// multiple shards' sweeps concurrently when the revalidator dumps shards
// on different workers — it must be pure (the classifier's read path
// is).
func (sm *ShardedMegaflow) Revalidate(check func(*Entry) (Verdict, bool)) int {
	n := 0
	for si := range sm.shards {
		n += sm.ShardRevalidate(si, check)
	}
	return n
}

// ShardRevalidate runs the consistency pass on one shard.
func (sm *ShardedMegaflow) ShardRevalidate(si int, check func(*Entry) (Verdict, bool)) int {
	sh := &sm.shards[si]
	sh.mu.Lock()
	n := sh.mf.Revalidate(check)
	sh.mu.Unlock()
	return n
}

// Flush drops everything, shard by shard.
func (sm *ShardedMegaflow) Flush() {
	for si := range sm.shards {
		sm.ShardFlush(si)
	}
}

// ShardFlush drops one shard's entries.
func (sm *ShardedMegaflow) ShardFlush(si int) {
	sh := &sm.shards[si]
	sh.mu.Lock()
	sh.mf.Flush()
	sh.mu.Unlock()
}

// Len returns the total resident entries across shards.
func (sm *ShardedMegaflow) Len() int {
	n := 0
	for si := range sm.shards {
		sh := &sm.shards[si]
		sh.mu.RLock()
		n += sh.mf.Len()
		sh.mu.RUnlock()
	}
	return n
}

// ShardLen returns one shard's resident entry count.
func (sm *ShardedMegaflow) ShardLen(si int) int {
	sh := &sm.shards[si]
	sh.mu.RLock()
	n := sh.mf.Len()
	sh.mu.RUnlock()
	return n
}

// Entries returns every resident entry, shard by shard in shard order.
// The snapshot is taken under the shard locks; the entries themselves
// may keep accruing hits after the call returns.
func (sm *ShardedMegaflow) Entries() []*Entry {
	var out []*Entry
	for si := range sm.shards {
		sh := &sm.shards[si]
		sh.mu.Lock()
		out = append(out, sh.mf.Entries()...)
		sh.mu.Unlock()
	}
	return out
}

// ShardSnapshot returns one shard's counters, read under the shard's
// write lock so the child's reader-atomic counters settle first.
func (sm *ShardedMegaflow) ShardSnapshot(si int) MegaflowShardSnapshot {
	sh := &sm.shards[si]
	sh.mu.Lock()
	defer sh.mu.Unlock()
	return MegaflowShardSnapshot{
		Entries: sh.mf.Len(), Masks: sh.mf.NumMasks(),
		Hits: sh.mf.Hits, Misses: sh.mf.Misses,
		Lookups: sh.mf.Lookups, MasksScanned: sh.mf.MasksScanned,
		SubtableVisits: sh.mf.SubtableVisits, SubtablePrunes: sh.mf.SubtablePrunes,
	}
}

// Snapshot aggregates every shard's counters plus the wrapper's
// run-coalescing accounting; Masks is the global distinct-mask count.
func (sm *ShardedMegaflow) Snapshot() MegaflowShardSnapshot {
	var agg MegaflowShardSnapshot
	for si := range sm.shards {
		s := sm.ShardSnapshot(si)
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

// lookupShared is the read-side scalar probe of a shared child: safe
// under the shard's read lock concurrently with other readers. Every
// counter and entry mutation is atomic; no resorting, no staged state,
// no table writes.
func (m *Megaflow) lookupShared(k flow.Key, now uint64) (*Entry, int, bool) {
	scanned := 0
	for _, st := range m.subtables {
		scanned++
		if ent := st.probe(&k); ent != nil {
			atomic.AddUint64(&ent.Hits, 1)
			atomic.StoreUint64(&ent.LastHit, now)
			atomic.AddUint64(&st.hits, 1)
			atomic.StoreUint64(&st.lastHit, now)
			atomic.AddUint64(&m.Lookups, 1)
			atomic.AddUint64(&m.Hits, 1)
			atomic.AddUint64(&m.MasksScanned, uint64(scanned))
			return ent, scanned, true
		}
	}
	atomic.AddUint64(&m.Lookups, 1)
	atomic.AddUint64(&m.Misses, 1)
	atomic.AddUint64(&m.MasksScanned, uint64(scanned))
	return nil, scanned, false
}

// lookupBatchShared is the read-side inverted sweep of a shared child,
// restricted to the miss-bitmap keys whose hash selects shard sid: each
// subtable is visited once per burst, counter effects are atomic, and
// only this shard's bits are resolved or billed.
//
//lint:hotpath
func (m *Megaflow) lookupBatchShared(keys []flow.Key, hashes []uint64, now uint64, smask, sid uint64, ents []*Entry, costs []int, miss *burst.Bitmap) {
	// Count this shard's share of the burst up front so the subtable
	// sweep can stop as soon as the last of them resolves.
	remaining := 0
	words := miss.Words()
	for wi := range words {
		w := words[wi]
		for w != 0 {
			i := wi<<6 + bits.TrailingZeros64(w)
			w &= w - 1
			if (hashes[i]>>shardShift)&smask == sid {
				remaining++
			}
		}
	}
	if remaining == 0 {
		return
	}
	var lookups, hits, scanned uint64
	nSub := len(m.subtables)
	for si, st := range m.subtables {
		if remaining == 0 {
			break
		}
		pos := uint64(si + 1)
		words := miss.Words()
		for wi := range words {
			w := words[wi]
			for w != 0 {
				i := wi<<6 + bits.TrailingZeros64(w)
				w &= w - 1
				if (hashes[i]>>shardShift)&smask != sid {
					continue
				}
				ent := st.probe(&keys[i])
				if ent == nil {
					continue
				}
				atomic.AddUint64(&ent.Hits, 1)
				atomic.StoreUint64(&ent.LastHit, now)
				atomic.AddUint64(&st.hits, 1)
				atomic.StoreUint64(&st.lastHit, now)
				lookups++
				hits++
				scanned += pos
				ents[i] = ent
				costs[i] += int(pos)
				miss.Clear(i)
				remaining--
			}
		}
	}
	// This shard's survivors paid its full scan: bill them as misses.
	var misses uint64
	if remaining > 0 {
		words := miss.Words()
		for wi := range words {
			w := words[wi]
			for w != 0 {
				i := wi<<6 + bits.TrailingZeros64(w)
				w &= w - 1
				if (hashes[i]>>shardShift)&smask != sid {
					continue
				}
				costs[i] += nSub
				misses++
			}
		}
		lookups += misses
		scanned += misses * uint64(nSub)
	}
	if lookups > 0 {
		atomic.AddUint64(&m.Lookups, lookups)
		atomic.AddUint64(&m.MasksScanned, scanned)
	}
	if hits > 0 {
		atomic.AddUint64(&m.Hits, hits)
	}
	if misses > 0 {
		atomic.AddUint64(&m.Misses, misses)
	}
}

// emcShard is one exact-match shard (see mfShard).
//
//lint:sharded
type emcShard struct {
	mu  sync.RWMutex
	emc *EMC
}

// CacheSnapshot is a reference-tier (EMC/SMC) stats snapshot.
type CacheSnapshot struct {
	Hits, Misses, Inserts, Evictions, Stale uint64
	Entries, Capacity                       int
}

// ShardedEMC is the concurrent exact-match cache: reads under per-shard
// read locks with atomic accounting, inserts under per-shard write
// locks. Total capacity is split evenly across shards; each shard draws
// its probabilistic-insertion sequence from its own deterministic PRNG.
type ShardedEMC struct {
	smask   uint64
	shards  []emcShard
	runHits uint64 // coalesced-run hits (atomic; shard unknown for runs)
}

// NewShardedEMC builds a sharded EMC with the given shard count
// (rounded to a power of two in [2, 256]; <= 0 means DefaultShards).
func NewShardedEMC(cfg EMCConfig, shards int) *ShardedEMC {
	if shards <= 0 {
		shards = DefaultShards
	}
	n := roundShards(shards)
	max := cfg.Entries
	if max == 0 {
		max = DefaultEMCEntries
	}
	if max < 0 {
		max = 0
	}
	se := &ShardedEMC{smask: uint64(n - 1), shards: make([]emcShard, n)}
	child := cfg
	child.Entries = perShardLimit(max, n)
	if max == 0 {
		child.Entries = -1
	}
	for i := range se.shards {
		c := child
		// Distinct, reproducible per-shard PRNG streams.
		c.Seed = cfg.Seed + uint64(i+1)*0x9e3779b97f4a7c15
		se.shards[i].emc = NewEMC(c)
	}
	return se
}

// NumShards returns the shard count.
func (se *ShardedEMC) NumShards() int { return len(se.shards) }

// ShardIndex returns the shard a flow hash selects.
func (se *ShardedEMC) ShardIndex(h uint64) int {
	return int((h >> shardShift) & se.smask)
}

// Lookup probes the key's shard under its read lock.
func (se *ShardedEMC) Lookup(k flow.Key, now uint64) (*Entry, bool) {
	return se.LookupHashed(k, k.Hash(), now)
}

// LookupHashed is Lookup with the flow hash precomputed.
func (se *ShardedEMC) LookupHashed(k flow.Key, h uint64, now uint64) (*Entry, bool) {
	sh := &se.shards[se.ShardIndex(h)]
	sh.mu.RLock()
	ent, ok := sh.emc.lookupShared(k, now)
	sh.mu.RUnlock()
	return ent, ok
}

// LookupBatch resolves the burst's still-missing keys shard by shard,
// one read lock per shard per burst.
//
//lint:hotpath
func (se *ShardedEMC) LookupBatch(keys []flow.Key, hashes []uint64, now uint64, ents []*Entry, miss *burst.Bitmap) {
	for si := range se.shards {
		if miss.Empty() {
			return
		}
		sid := uint64(si)
		sh := &se.shards[si]
		sh.mu.RLock()
		words := miss.Words()
		for wi := range words {
			w := words[wi]
			for w != 0 {
				i := wi<<6 + bits.TrailingZeros64(w)
				w &= w - 1
				if (hashes[i]>>shardShift)&se.smask != sid {
					continue
				}
				if ent, ok := sh.emc.lookupShared(keys[i], now); ok {
					ents[i] = ent
					miss.Clear(i)
				}
			}
		}
		sh.mu.RUnlock()
	}
}

// AccountRun bills n coalesced hits of resident entry f — all atomic,
// no shard lock (the run's shard is unknown and unneeded).
func (se *ShardedEMC) AccountRun(f *Entry, n int, now uint64) {
	nn := uint64(n)
	atomic.AddUint64(&se.runHits, nn)
	atomic.AddUint64(&f.Hits, nn)
	atomic.StoreUint64(&f.LastHit, now)
}

// Insert caches a reference in the key's shard under its write lock.
func (se *ShardedEMC) Insert(k flow.Key, f *Entry) {
	se.InsertHashed(k, k.Hash(), f)
}

// InsertHashed is Insert with the flow hash precomputed.
func (se *ShardedEMC) InsertHashed(k flow.Key, h uint64, f *Entry) {
	sh := &se.shards[se.ShardIndex(h)]
	sh.mu.Lock()
	sh.emc.Insert(k, f)
	sh.mu.Unlock()
}

// Flush empties every shard.
func (se *ShardedEMC) Flush() {
	for si := range se.shards {
		sh := &se.shards[si]
		sh.mu.Lock()
		sh.emc.Flush()
		sh.mu.Unlock()
	}
}

// Len returns the total cached microflows.
func (se *ShardedEMC) Len() int {
	n := 0
	for si := range se.shards {
		sh := &se.shards[si]
		sh.mu.RLock()
		n += sh.emc.Len()
		sh.mu.RUnlock()
	}
	return n
}

// Cap returns the total configured capacity.
func (se *ShardedEMC) Cap() int {
	n := 0
	for si := range se.shards {
		sh := &se.shards[si]
		sh.mu.RLock()
		n += sh.emc.Cap()
		sh.mu.RUnlock()
	}
	return n
}

// Snapshot aggregates every shard's counters (under the shard write
// locks) plus the wrapper's coalesced-run hits.
func (se *ShardedEMC) Snapshot() CacheSnapshot {
	var agg CacheSnapshot
	for si := range se.shards {
		sh := &se.shards[si]
		sh.mu.Lock()
		agg.Hits += sh.emc.Hits
		agg.Misses += sh.emc.Misses
		agg.Inserts += sh.emc.Inserts
		agg.Evictions += sh.emc.Evictions
		agg.Stale += sh.emc.Stale
		agg.Entries += sh.emc.Len()
		agg.Capacity += sh.emc.Cap()
		sh.mu.Unlock()
	}
	agg.Hits += atomic.LoadUint64(&se.runHits)
	return agg
}

// lookupShared is the EMC's read-side probe for sharded use: atomic
// accounting, and — critically — no purge of stale references (that
// would be a map write under a read lock); a dead reference keeps
// missing until an insert overwrites it or a flush sweeps it.
func (e *EMC) lookupShared(k flow.Key, now uint64) (*Entry, bool) {
	if e.max == 0 {
		return nil, false
	}
	ent, ok := e.entries[k]
	if !ok {
		atomic.AddUint64(&e.Misses, 1)
		return nil, false
	}
	f := ent.flow
	if f.Dead() {
		atomic.AddUint64(&e.Stale, 1)
		atomic.AddUint64(&e.Misses, 1)
		return nil, false
	}
	atomic.AddUint64(&f.Hits, 1)
	atomic.StoreUint64(&f.LastHit, now)
	atomic.AddUint64(&e.Hits, 1)
	return f, true
}

// smcShard is one signature-match shard (see mfShard).
//
//lint:sharded
type smcShard struct {
	mu  sync.RWMutex
	smc *SMC
}

// ShardedSMC is the concurrent signature-match cache; sharding and
// locking mirror ShardedEMC. The shard index uses hash bits [32,40),
// disjoint from both the fingerprint (low bits) and the signature (top
// 16 bits), so per-shard tables keep full discrimination.
type ShardedSMC struct {
	smask   uint64
	shards  []smcShard
	runHits uint64 // coalesced-run hits (atomic)
}

// NewShardedSMC builds a sharded SMC with the given shard count
// (rounded to a power of two in [2, 256]; <= 0 means DefaultShards).
func NewShardedSMC(cfg SMCConfig, shards int) *ShardedSMC {
	if shards <= 0 {
		shards = DefaultShards
	}
	n := roundShards(shards)
	max := cfg.Entries
	if max == 0 {
		max = DefaultSMCEntries
	}
	ss := &ShardedSMC{smask: uint64(n - 1), shards: make([]smcShard, n)}
	child := cfg
	if max > 0 {
		child.Entries = perShardLimit(max, n)
	}
	for i := range ss.shards {
		ss.shards[i].smc = NewSMC(child)
	}
	return ss
}

// NumShards returns the shard count.
func (ss *ShardedSMC) NumShards() int { return len(ss.shards) }

// ShardIndex returns the shard a flow hash selects.
func (ss *ShardedSMC) ShardIndex(h uint64) int {
	return int((h >> shardShift) & ss.smask)
}

// Lookup probes the key's shard under its read lock.
func (ss *ShardedSMC) Lookup(k flow.Key, now uint64) (*Entry, bool) {
	return ss.LookupHashed(k, k.Hash(), now)
}

// LookupHashed is Lookup with the flow hash precomputed.
func (ss *ShardedSMC) LookupHashed(k flow.Key, h uint64, now uint64) (*Entry, bool) {
	sh := &ss.shards[ss.ShardIndex(h)]
	sh.mu.RLock()
	ent, ok := sh.smc.lookupHashedShared(k, h, now)
	sh.mu.RUnlock()
	return ent, ok
}

// LookupBatch resolves the burst's still-missing keys shard by shard
// over the burst's precomputed hashes.
//
//lint:hotpath
func (ss *ShardedSMC) LookupBatch(keys []flow.Key, hashes []uint64, now uint64, ents []*Entry, miss *burst.Bitmap) {
	for si := range ss.shards {
		if miss.Empty() {
			return
		}
		sid := uint64(si)
		sh := &ss.shards[si]
		sh.mu.RLock()
		words := miss.Words()
		for wi := range words {
			w := words[wi]
			for w != 0 {
				i := wi<<6 + bits.TrailingZeros64(w)
				w &= w - 1
				if (hashes[i]>>shardShift)&ss.smask != sid {
					continue
				}
				if ent, ok := sh.smc.lookupHashedShared(keys[i], hashes[i], now); ok {
					ents[i] = ent
					miss.Clear(i)
				}
			}
		}
		sh.mu.RUnlock()
	}
}

// AccountRun bills n coalesced hits of resident entry f atomically.
func (ss *ShardedSMC) AccountRun(f *Entry, n int, now uint64) {
	nn := uint64(n)
	atomic.AddUint64(&ss.runHits, nn)
	atomic.AddUint64(&f.Hits, nn)
	atomic.StoreUint64(&f.LastHit, now)
}

// Insert caches a reference in the key's shard under its write lock.
func (ss *ShardedSMC) Insert(k flow.Key, f *Entry) {
	ss.InsertHashed(k, k.Hash(), f)
}

// InsertHashed is Insert with the flow hash precomputed.
func (ss *ShardedSMC) InsertHashed(k flow.Key, h uint64, f *Entry) {
	sh := &ss.shards[ss.ShardIndex(h)]
	sh.mu.Lock()
	sh.smc.InsertHashed(k, h, f)
	sh.mu.Unlock()
}

// Flush empties every shard.
func (ss *ShardedSMC) Flush() {
	for si := range ss.shards {
		sh := &ss.shards[si]
		sh.mu.Lock()
		sh.smc.Flush()
		sh.mu.Unlock()
	}
}

// Len returns the total occupied fingerprint slots.
func (ss *ShardedSMC) Len() int {
	n := 0
	for si := range ss.shards {
		sh := &ss.shards[si]
		sh.mu.RLock()
		n += sh.smc.Len()
		sh.mu.RUnlock()
	}
	return n
}

// Cap returns the total configured capacity.
func (ss *ShardedSMC) Cap() int {
	n := 0
	for si := range ss.shards {
		sh := &ss.shards[si]
		sh.mu.RLock()
		n += sh.smc.Cap()
		sh.mu.RUnlock()
	}
	return n
}

// Snapshot aggregates every shard's counters plus coalesced-run hits.
func (ss *ShardedSMC) Snapshot() CacheSnapshot {
	var agg CacheSnapshot
	for si := range ss.shards {
		sh := &ss.shards[si]
		sh.mu.Lock()
		agg.Hits += sh.smc.Hits
		agg.Misses += sh.smc.Misses
		agg.Inserts += sh.smc.Inserts
		agg.Evictions += sh.smc.Evictions
		agg.Stale += sh.smc.Stale
		agg.Entries += sh.smc.Len()
		agg.Capacity += sh.smc.Cap()
		sh.mu.Unlock()
	}
	agg.Hits += atomic.LoadUint64(&ss.runHits)
	return agg
}

// lookupHashedShared is the SMC's read-side probe for sharded use:
// atomic accounting and no lazy purge of dead slots (a map delete under
// a read lock is illegal; the slot keeps missing until overwritten).
func (s *SMC) lookupHashedShared(k flow.Key, h uint64, now uint64) (*Entry, bool) {
	if s.max == 0 {
		return nil, false
	}
	fp, sig := s.indexHash(h)
	slot, ok := s.slots[fp]
	if !ok || slot.sig != sig {
		atomic.AddUint64(&s.Misses, 1)
		return nil, false
	}
	if slot.ent.Dead() {
		atomic.AddUint64(&s.Stale, 1)
		atomic.AddUint64(&s.Misses, 1)
		return nil, false
	}
	if slot.ent.Match.Mask.Apply(k) != slot.ent.Match.Key {
		atomic.AddUint64(&s.Misses, 1)
		return nil, false
	}
	atomic.AddUint64(&slot.ent.Hits, 1)
	atomic.StoreUint64(&slot.ent.LastHit, now)
	atomic.AddUint64(&s.Hits, 1)
	return slot.ent, true
}
