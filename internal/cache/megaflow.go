package cache

import (
	"cmp"
	"errors"
	"fmt"
	"math/bits"
	"slices"
	"sort"
	"strings"
	"sync/atomic"

	"policyinject/internal/burst"
	"policyinject/internal/flow"
	"policyinject/internal/flowtable"
)

// Verdict is the cached outcome of a megaflow or microflow: the policy
// action the slow path decided.
type Verdict = flowtable.Action

// DefaultFlowLimit matches the OVS datapath default flow limit.
const DefaultFlowLimit = 200000

// ErrFlowLimit is returned by Insert when the entry limit is reached.
var ErrFlowLimit = errors.New("cache: megaflow flow limit reached")

// ErrMaskLimit is returned by Insert when a new mask would exceed the
// configured mask cap (a mitigation, not stock OVS behaviour).
var ErrMaskLimit = errors.New("cache: megaflow mask limit reached")

// MegaflowConfig tunes the megaflow cache.
type MegaflowConfig struct {
	// FlowLimit caps the number of cached entries; 0 means
	// DefaultFlowLimit, negative means unlimited.
	FlowLimit int
	// MaxMasks, when positive, caps the number of distinct masks — the
	// "mask quota" mitigation evaluated in the mitigation benches. Stock
	// OVS has no such cap. By default inserts needing a new mask beyond
	// the cap are rejected with ErrMaskLimit; with MaskEvictLRU the
	// coldest subtable is evicted instead.
	MaxMasks int
	// MaskEvictLRU selects evict-coldest-subtable behaviour at the mask
	// cap instead of rejecting new masks: the last row of a ranked scan,
	// the least recently hit subtable of an unranked one.
	MaskEvictLRU bool
	// SortByHits ranks the subtable scan by hit count ("sorted TSS"), OVS's
	// pragmatic optimisation (dpcls_sort_subtable_vector): once a tick, at
	// the first lookup whose logical time is past the last rank, the rows
	// are stable-sorted by the hits each subtable took since, most first.
	// It helps skewed benign traffic and does nothing against the attack,
	// which is exactly the point the mitigation benches make.
	SortByHits bool
	// StagedPruning enables staged subtable lookups with signature and
	// L4-ports pruning — the OVS countermeasure pair (classifier staged
	// indices + ports trie) that lets most subtables be rejected without a
	// full hash probe — over the scan SortByHits ranks. Lookup results
	// (hits, verdicts) are identical to the flat scan; the reported scan
	// cost becomes *physical* — subtables actually hashed — instead of the
	// flat scan position, and the SubtableVisits / SubtablePrunes /
	// StageBails counters open up. Staged pruning assumes megaflows are
	// disjoint (which slow-path synthesis guarantees), since ranking
	// reorders the scan.
	StagedPruning bool
}

// Entry is one cached megaflow: its normalised masked key and verdict. The
// mask is its subtable's, shared by every resident of that subtable as OVS's
// dpcls_rule shares its subtable's mask; Match reads it through st. Hits and
// LastHit are the entry's activity accounting: on a cache built for
// single-goroutine use they are plain fields, while the sharded wrappers
// (ShardedMegaflow and friends) credit them atomically because an EMC shard's
// readers and a megaflow shard's sweeps touch the same entry under different
// locks. An entry is 128 bytes, exactly a size class (TestScanRowLayout); a
// subtable's first entry is allocated inside the subtable (mfSubtable.ent0).
type Entry struct {
	Key     flow.Key // normalised: every word already under the subtable's mask
	Verdict Verdict

	// dead is set on eviction so EMC/SMC references invalidate lazily.
	// Atomic because in sharded hierarchies the evicting shard and a
	// reference tier's reader hold different locks. It sits in the padding
	// behind Verdict's 8 bytes: between the 8-byte fields it would add 8
	// bytes and move the entry out of its size class.
	dead atomic.Bool

	Hits    uint64
	Added   uint64 // logical insert time
	LastHit uint64 // logical last-hit time

	// st is the subtable the entry was inserted into. It is set once, by
	// Insert, and outlives eviction, so a dead entry an EMC slot, an SMC slot
	// or a trace still holds answers Match; dead, not st, says residency.
	st *mfSubtable
}

// Match returns the entry's megaflow: its key under its subtable's mask.
func (e *Entry) Match() flow.Match { return flow.Match{Key: e.Key, Mask: e.st.mask()} }

// Dead reports whether the entry has been evicted from the megaflow cache
// (EMC references to it are stale).
func (e *Entry) Dead() bool { return e.dead.Load() }

// Megaflow is the TSS-based megaflow cache. Not safe for concurrent use
// on its own; ShardedMegaflow composes per-shard instances behind
// per-shard locks for the concurrent datapath.
type Megaflow struct {
	cfg       MegaflowConfig
	limit     int
	hooks     MaskHooks
	subtables []scanRow     // scan order, one compiled row per subtable
	index     []*mfSubtable // the mask index, over the same subtables (see subtableOf)
	nEntries  int
	seed      uint64 // probe-hash secret, odd; tableSeed outside tests

	// shared marks a shard child of ShardedMegaflow: flat lookups run
	// under the shard's read lock, so their counters go through bump, and
	// entries may be referenced by EMC/SMC shards guarded by *other* locks,
	// so all Hits/LastHit traffic on entries goes through atomics (credit,
	// entryLastHit) even on the write-side sweeps under this instance's
	// own lock.
	shared bool

	// rankedAt is the logical time of the last rank (see rank); ^0 on an
	// unranked cache, which no now is past.
	rankedAt uint64

	batchCost []int        // per-key scan-cost scratch of the staged sweep
	oneMiss   burst.Bitmap // the staged Lookup's one-key miss bitmap

	// putLog is Reprobe's: the subtables whose table took an entry since the
	// last LookupBatch began, each once; at putLogCap, overflowed. A shard
	// child keeps none.
	putLog []*mfSubtable

	// Stats
	Lookups, Hits, Misses uint64
	// MasksScanned accumulates the subtables visited across lookups; the
	// average per lookup is the paper's cost metric. Flat, it is *logical*:
	// the positions a key-by-key scan would visit, whatever was probed. With
	// StagedPruning it counts *physical* visits (stage-hash or full
	// probes), so the pruning win shows up directly.
	MasksScanned uint64

	// RunBilledScans is the portion of MasksScanned billed with no physical
	// probe behind it: AccountRun's scans for coalesced same-flow runs, and
	// the positions Reprobe bills that the burst's sweep already proved a
	// miss. MasksScanned - RunBilledScans is the physical probe count of a
	// flat scan (the staged SubtableVisits equivalent).
	RunBilledScans uint64

	// Staged-pruning stats (zero unless StagedPruning is enabled):
	// SubtableVisits counts subtables actually costed (a stage hash or a
	// full probe ran); SubtablePrunes counts per-key visits avoided by
	// the signature/ports prefilters (burst-level skips bill one prune
	// per remaining key, so scalar and batch sweeps count identically);
	// StageBails is the subset of visits rejected at a stage-hash index
	// before the full probe; BurstSweeps counts LookupBatch sweeps.
	SubtableVisits, SubtablePrunes, StageBails, BurstSweeps uint64
}

// NewMegaflow builds a megaflow cache per cfg.
func NewMegaflow(cfg MegaflowConfig) *Megaflow {
	limit := cfg.FlowLimit
	if limit == 0 {
		limit = DefaultFlowLimit
	}
	m := &Megaflow{
		cfg:   cfg,
		limit: limit,
		seed:  tableSeed,
	}
	if !m.ranked() {
		m.rankedAt = ^uint64(0)
	}
	return m
}

// ranked reports whether the cache ranks its scan order (see rank).
func (m *Megaflow) ranked() bool { return m.cfg.SortByHits || m.cfg.StagedPruning }

// bump adds n to a cache counter: plain when one goroutine owns the cache,
// atomic when the cache is a shard child (shared) and its readers hold the
// shard's read lock together. This is the one switch between the two ways
// a cache is driven, and who built the cache throws it — never a caller,
// never an option. Always-atomic was measured and costs the EMC-hit path
// 15 % and the SMC mix 9 %.
func bump(shared bool, c *uint64, n uint64) {
	if shared {
		atomic.AddUint64(c, n)
		return
	}
	*c += n
}

// stamp stores logical time now into a last-hit clock, under bump's rule.
func stamp(shared bool, c *uint64, now uint64) {
	if shared {
		atomic.StoreUint64(c, now)
		return
	}
	*c = now
}

// credit bills n hits of ent at logical time now. Shard children credit
// atomically even under their own write lock: EMC/SMC shard readers reach
// the same entry under different shard locks.
func credit(shared bool, ent *Entry, n, now uint64) {
	bump(shared, &ent.Hits, n)
	stamp(shared, &ent.LastHit, now)
}

// entryLastHit reads ent's idle clock, atomically on shard children (a
// concurrent EMC shard hit may be refreshing it).
func (m *Megaflow) entryLastHit(ent *Entry) uint64 {
	if m.shared {
		return atomic.LoadUint64(&ent.LastHit)
	}
	return ent.LastHit
}

// Len returns the number of cached entries.
func (m *Megaflow) Len() int { return m.nEntries }

// NumMasks returns the number of distinct masks (subtables) — the paper's
// headline quantity.
func (m *Megaflow) NumMasks() int { return len(m.subtables) }

// Lookup scans the subtables in order, one hash probe per mask, returning
// the first hit. The returned scan count is the number of subtables
// visited, the direct cost measure of TSS (with StagedPruning: physically
// costed, bails + full probes). Flat or staged, it is a one-key sweep.
func (m *Megaflow) Lookup(k flow.Key, now uint64) (*Entry, int, bool) {
	if now > m.rankedAt {
		m.rank(now)
	}
	var (
		key  = [1]flow.Key{k}
		ent  [1]*Entry
		cost [1]int
	)
	if m.cfg.StagedPruning {
		m.oneMiss.Reset(1)
		m.oneMiss.Set(0)
		m.sweepStaged(key[:], now, ent[:], cost[:], &m.oneMiss)
	} else {
		miss, buf := [1]uint64{1}, [1][4]uint64{}
		m.sweep(key[:], now, ent[:], cost[:], miss[:], buf[:])
	}
	return ent[0], cost[0], ent[0] != nil
}

// LookupBatch is the burst-vectorized lookup: the loop is inverted so each
// subtable is visited once per *burst* — one probe of its significant
// words per still-unresolved key, bitmap-masked — instead of the full
// subtable list being re-walked per packet (the dpcls_lookup structure of
// the OVS userspace datapath); see sweep and scan.
//
// For every key index set in miss: a hit writes ents[i], adds the scan
// depth to costs[i] and clears the bit; a miss adds the full scan length
// to costs[i] and keeps the bit. Counter and per-entry effects equal the
// scalar Lookup sequence over the same keys: a ranked scan moves only
// between ticks (see rank), so a burst sees one order, as its keys would.
//
//lint:hotpath
func (m *Megaflow) LookupBatch(keys []flow.Key, now uint64, ents []*Entry, costs []int, miss *burst.Bitmap) {
	if now > m.rankedAt {
		m.rank(now)
	}
	if len(m.putLog) > 0 { // never on a shard child, whose readers sweep together
		m.resetPutLog()
	}
	if m.cfg.StagedPruning {
		m.BurstSweeps++
		m.sweepStaged(keys, now, ents, costs, miss)
		return
	}
	var buf [64][4]uint64 // 2 KiB zeroed a call; the callers skip a tier when miss is empty
	m.sweep(keys, now, ents, costs, miss.Words(), buf[:])
}

// rank orders a ranked cache's scan (SortByHits, StagedPruning) by the hits
// each subtable took since the last rank, most first, stably, and zeroes
// them, as OVS's dp_netdev_pmd_try_optimize sorts the subtable vector once an
// optimisation interval on that interval's hits. Lookup, LookupBatch and
// Reprobe call it at the first lookup whose logical time now is past the last
// rank: once a tick, the model's second, between bursts and never inside one.
// Any order finds the same entry, since megaflows are disjoint. A shard child
// ranks only if staged, under its shard's write lock.
func (m *Megaflow) rank(now uint64) {
	m.rankedAt = now
	slices.SortStableFunc(m.subtables, func(a, b scanRow) int { return cmp.Compare(b.st.hits, a.st.hits) })
	for i := range m.subtables {
		st := m.subtables[i].st
		st.pos, st.hits = uint32(i), 0
	}
}

// sweep is the one flat scan: miss holds a bit per unresolved key, and each
// word of 64 keys goes down the scan order on its own — scan proves the
// misses, walk settles the visits scan leaves open (find, where scan computed
// no hash: a single row, a mask of over three words), a hit is credited here.
// Visits, positions and credits equal the key-by-key scan's; all are sums, so
// the order of visits shows in none. buf is scan's scratch, on the caller's
// stack: a shard child's readers sweep together under the read lock.
func (m *Megaflow) sweep(keys []flow.Key, now uint64, ents []*Entry, costs []int, miss []uint64, buf [][4]uint64) {
	nSub := len(m.subtables)
	g := gathered{w: buf}
	for wi, live := range miss {
		base := wi << 6
		g.keys, g.live, g.shape = keys[base:], live, ^uint32(0) // no row's shape: nothing gathered
		for ri := 0; g.live != 0; ri++ {
			var open uint64
			if ri, open = m.scan(ri, &g); open == 0 {
				break
			}
			row := &m.subtables[ri]
			for st := row.st; open != 0; open &= open - 1 {
				b := bits.TrailingZeros64(open)
				k, slot := &g.keys[b], 0
				if row.single || row.nw > 3 {
					slot, _ = st.find(k, m.seed)
				} else {
					slot = st.walk(k, g.w[b][3])
				}
				if slot < 0 {
					continue
				}
				ent, pos := st.slots[slot].ent, ri+1
				credit(m.shared, ent, 1, now)
				bump(m.shared, &st.hits, 1)
				stamp(m.shared, &st.lastHit, now)
				bump(m.shared, &m.Lookups, 1)
				bump(m.shared, &m.Hits, 1)
				bump(m.shared, &m.MasksScanned, uint64(pos))
				ents[base+b] = ent
				costs[base+b] += pos
				g.live &^= 1 << b
			}
		}
		miss[wi] = g.live
		// Survivors paid the full sweep: bill them exactly as scalar misses.
		if left := uint64(bits.OnesCount64(g.live)); left > 0 {
			bump(m.shared, &m.Lookups, left)
			bump(m.shared, &m.Misses, left)
			bump(m.shared, &m.MasksScanned, left*uint64(nSub))
			for w := g.live; w != 0; w &= w - 1 {
				costs[base+bits.TrailingZeros64(w)] += nSub
			}
		}
	}
}

// putLogCap bounds the put log, and so what a Reprobe costs whoever fills it:
// two NIC bursts of installs; a longer upcall tail re-probes by full sweeps.
const putLogCap = 64

// logPut records that st's table took an entry. A full log stays full, and so
// reads as overflowed, until the next LookupBatch or Flush empties it. A
// subtable already logged is found by scanning the log, which an upcall's
// insert can afford at putLogCap entries; a flag in the subtable would take
// a byte its second line has no room for.
func (m *Megaflow) logPut(st *mfSubtable) {
	if !m.shared && len(m.putLog) < putLogCap && !slices.Contains(m.putLog, st) {
		if m.putLog == nil {
			m.putLog = make([]*mfSubtable, 0, putLogCap)
		}
		m.putLog = append(m.putLog, st)
	}
}

// resetPutLog empties the put log in place; what it logged may have retired.
func (m *Megaflow) resetPutLog() {
	clear(m.putLog)
	m.putLog = m.putLog[:0]
}

// Reprobe is Lookup for a key the cache missed no earlier than its last
// LookupBatch began: the post-upcall re-probe of a burst's later misses. Only
// an entry put since can match it, so only the logged subtables are probed —
// by pointer: a reorder moves none, one retired since is empty — and the
// lowest scan position wins, as the scan's first hit would. It bills what
// Lookup bills, and books the positions billed beyond the probes made in
// RunBilledScans. A rank due at now runs first, as in Lookup; the log holds
// subtables, not rows, so it survives it. Where the log cannot vouch for
// itself (overflow, a shard child), the cost is physical (StagedPruning) or
// the log is no shorter than the scan order, it is the full Lookup: a stale
// log may cost a sweep, never a wrong miss.
func (m *Megaflow) Reprobe(k flow.Key, now uint64) (*Entry, int, bool) {
	if m.shared || m.cfg.StagedPruning || len(m.putLog) == putLogCap || len(m.putLog) >= len(m.subtables) {
		return m.Lookup(k, now)
	}
	if now > m.rankedAt {
		m.rank(now)
	}
	var ent *Entry
	cost := len(m.subtables)
	for _, st := range m.putLog {
		// A subtable at or past the best hit so far cannot win, and one
		// emptied since it was logged, retired or not, cannot hit: neither
		// is probed. Any other is resident, at its row; a single row decides
		// the probe by its three-word compare, with no hash, and find only
		// confirms an equal one.
		if int(st.pos) >= cost || st.n == 0 {
			continue
		}
		if row := &m.subtables[st.pos]; row.single {
			kw, mw, ew := &k, &row.mw, &row.ew
			w0, w1, w2 := row.shape&0xff, row.shape>>8&0xff, row.shape>>16&0xff
			if (kw[w0]&mw[0]^ew[0])|(kw[w1]&mw[1]^ew[1])|(kw[w2]&mw[2]^ew[2]) != 0 {
				continue
			}
		}
		if slot, _ := st.find(&k, m.seed); slot >= 0 {
			ent, cost = st.slots[slot].ent, int(st.pos)+1
		}
	}
	m.Lookups++
	if ent == nil {
		m.Misses++
	} else {
		m.Hits++
		credit(false, ent, 1, now)
		ent.st.hits++
		ent.st.lastHit = now
	}
	m.MasksScanned += uint64(cost)
	m.RunBilledScans += uint64(max(cost-len(m.putLog), 0)) // a hit may lie less deep than the log is long
	return ent, cost, ent != nil
}

// gathered is scan's working set: the unresolved keys of one miss-bitmap
// word (bit b of live stands for keys[b]) and, in w[b], the three words shape
// selects of keys[b], then the probe hash of a visit scan hashed and leaves
// open. grp[:groups] holds those three words again, for the keys live at the
// gather, four to a group with no gaps — grp[j][i][l] is word i of the group's
// l-th key: what a single row tests first. and2 and or2 are the AND and the OR
// of the same keys' third word: a summary that tests a row's deepest word
// once for all of them. It lives on sweep's stack, as w on its caller's: shard
// readers share nothing.
type gathered struct {
	w         [][4]uint64
	keys      []flow.Key
	live      uint64
	shape     uint32
	groups    int
	and2, or2 uint64
	grp       [16][3][4]uint64
}

// load gathers the live keys' words; out of line, to keep scan on registers.
// A short last group is filled up with its first member: a copy adds no pass,
// and adds nothing to the summary either.
//
//go:noinline
func (g *gathered) load(shape uint32) {
	g.shape = shape
	n, and2, or2 := 0, ^uint64(0), uint64(0)
	for w := g.live; w != 0; w &= w - 1 {
		b := bits.TrailingZeros64(w)
		k, grp := &g.keys[b], &g.grp[n>>2]
		g.w[b] = [4]uint64{k[shape&0xff], k[shape>>8&0xff], k[shape>>16&0xff]}
		grp[0][n&3], grp[1][n&3], grp[2][n&3] = g.w[b][0], g.w[b][1], g.w[b][2]
		and2, or2 = and2&g.w[b][2], or2|g.w[b][2]
		n++
	}
	g.and2, g.or2 = and2, or2
	for ; n&3 != 0; n++ {
		grp := &g.grp[n>>2]
		grp[0][n&3], grp[1][n&3], grp[2][n&3] = grp[0][0], grp[1][0], grp[2][0]
	}
	g.groups = n >> 2
}

// anyPasses reports whether the first word of any group member passes the row
// word m, e: key&m == e on that word, a necessary condition of the probe.
func anyPasses(grp [][3][4]uint64, m, e uint64) bool {
	for j := range grp {
		if f := &grp[j][0]; f[0]&m == e || f[1]&m == e || f[2]&m == e || f[3]&m == e {
			return true
		}
	}
	return false
}

// scan walks the scan order from row ri with g's live keys and returns the
// first row where it cannot prove every one of them a miss, with the bits of
// those it cannot (none past the last row). A visit calls nothing, so the
// loop runs on registers, and rows of one shape — all 7 937 masks of the
// three-field attack — read their key words from one gather.
//
// A visit is one probe per subtable per unresolved key, and the row says which
// probe. A single row (one resident, at most three mask words: 7 681 of the
// attack's 7 937) is the probe: the key's three words under the row's mask
// words against the resident's — it loads the row, the next line in sequence,
// and nothing of the subtable; equal words are a hit, which sweep confirms
// through find. The compare is cut short by a cascade, each test a necessary
// condition of the probe on some live key, so a row is skipped only on proof:
// does a member pass the row's first word (over the gather's groups, four keys
// a test) — no on any row pinned to another in-port, the attack's whole ladder
// for its victim; then does the gather's summary of the third word, the
// deepest, admit the row — one test for all keys: some key has each bit the
// row wants set, and some key lacks each bit it wants clear; it is the exact
// test when the keys share that word, as a covert burst's do, whose keys share
// the first word too; then does one member pass the second and third words
// together, which no summary can ask. A row all three pass goes to the
// three-word compare, differences OR-ed, over the live keys. A key resolved
// since the gather stays in its group and in the summary, and a short last
// group repeats its first member: either can pass a row for nothing, never
// hide one. Any other row of at most three words takes three ANDs, the probe
// hash, and the pair of slots it points to in the subtable's first line; an
// empty slot and no equal hash there prove the miss (walk's first step). Masks
// of over three words are left to find whole.
func (m *Megaflow) scan(ri int, g *gathered) (int, uint64) {
	rows, seed := m.subtables, m.seed
	for ; ri < len(rows); ri++ {
		row := &rows[ri]
		if row.nw > 3 {
			return ri, g.live
		}
		if row.shape != g.shape {
			g.load(row.shape)
		}
		var open uint64
		if row.single {
			grp := g.grp[:g.groups]
			// After the first word, the summary: a bit the row wants set is
			// clear in every gathered key, or one it wants clear is set in
			// every one.
			if !anyPasses(grp, row.mw[0], row.ew[0]) ||
				row.ew[2]&^g.or2|row.mw[2]&^row.ew[2]&g.and2 != 0 {
				continue
			}
			pass, m1, e1, m2, e2 := false, row.mw[1], row.ew[1], row.mw[2], row.ew[2]
			for j := range grp {
				a, c := &grp[j][1], &grp[j][2]
				if (a[0]&m1^e1)|(c[0]&m2^e2) == 0 || (a[1]&m1^e1)|(c[1]&m2^e2) == 0 ||
					(a[2]&m1^e1)|(c[2]&m2^e2) == 0 || (a[3]&m1^e1)|(c[3]&m2^e2) == 0 {
					pass = true
					break
				}
			}
			if !pass {
				continue
			}
			for w := g.live; w != 0; w &= w - 1 {
				kw := &g.w[bits.TrailingZeros64(w)]
				// ^ and | bind alike: each difference is bracketed, or the
				// terms chain left to right and differences can cancel.
				if ((kw[0]&row.mw[0])^row.ew[0])|((kw[1]&row.mw[1])^row.ew[1])|((kw[2]&row.mw[2])^row.ew[2]) == 0 {
					open |= w & -w // the key's bit
				}
			}
		} else {
			slots := row.st.slots
			if len(slots) == 0 {
				continue // never (minSlots); proves the masked indices in range
			}
			for w := g.live; w != 0; w &= w - 1 {
				kw := &g.w[bits.TrailingZeros64(w)]
				h := probeHash(seed, kw[0]&row.mw[0], kw[1]&row.mw[1], kw[2]&row.mw[2], nil, nil)
				h0, h1 := slots[h&uint64(len(slots)-1)].hash, slots[(h+1)&uint64(len(slots)-1)].hash
				if h0 == h || h1 == h || int64(h0&h1) < 0 {
					kw[3] = h
					open |= w & -w
				}
			}
		}
		if open != 0 {
			return ri, open
		}
	}
	return ri, 0
}

// AccountRun bills n additional lookups that hit ent at scan depth cost
// without re-probing — the same-flow run coalescing fast path, equivalent
// to n Lookup calls for a key resident at that depth at the same now as the
// lookup that found it (so no rank falls between them).
func (m *Megaflow) AccountRun(ent *Entry, n int, cost int, now uint64) {
	nn := uint64(n)
	m.Lookups += nn
	m.Hits += nn
	m.MasksScanned += nn * uint64(cost)
	m.RunBilledScans += nn * uint64(cost)
	credit(m.shared, ent, nn, now)
	if st := ent.st; !ent.Dead() {
		st.hits += nn
		st.lastHit = now
	}
}

// Insert installs a megaflow produced by the slow path. The match is
// normalised. Inserting an entry whose masked key already exists replaces
// the stale entry (revalidation after a policy change does this).
func (m *Megaflow) Insert(match flow.Match, v Verdict, now uint64) (*Entry, error) {
	match.Normalize()
	st, mh := m.subtableOf(&match.Mask)
	if st == nil {
		// The flow limit gates *before* a new subtable is minted: a mask
		// with no subtable cannot hold the entry either, and creating one
		// for a rejected insert would leak an empty subtable into the scan
		// order — the attacker would keep inflating the mask count even
		// with every flow refused, which matters once the revalidator cuts
		// the limit below the covert stream's flow count.
		if m.limit > 0 && m.nEntries >= m.limit {
			return nil, ErrFlowLimit
		}
		if m.cfg.MaxMasks > 0 && len(m.subtables) >= m.cfg.MaxMasks {
			if !m.cfg.MaskEvictLRU {
				return nil, ErrMaskLimit
			}
			m.evictColdestSubtable()
		}
		// Mask admission (per-tenant quotas) gates last, after the
		// structural limits, and rejects without minting for the same
		// reason the flow limit does: a refused tenant must not inflate
		// the scan order.
		if m.hooks.Admit != nil {
			if err := m.hooks.Admit(match); err != nil {
				return nil, err
			}
		}
		st = newSubtable(match.Mask, now)
		if m.cfg.StagedPruning {
			st.staged = newStagedState(match.Mask)
		}
		st.mhash = mh
		m.indexAdd(st)
		st.pos = uint32(len(m.subtables))
		if n := len(m.subtables); n >= 256 && n == cap(m.subtables) {
			// Past 256 rows append grows a slice by less than double,
			// tending to 1.25x; the rows grow to the next power of two
			// instead, doubling from there on, so minting n masks
			// allocates the scan order log2(n) times and leaves it at
			// most half empty.
			m.subtables = append(make([]scanRow, 0, 1<<bits.Len(uint(n))), m.subtables...)
		}
		m.subtables = append(m.subtables, st.row())
		if m.hooks.Minted != nil {
			m.hooks.Minted(match)
		}
	}
	slot, hash := st.find(&match.Key, m.seed)
	if slot >= 0 {
		old := st.slots[slot].ent
		if m.shared {
			// Concurrent readers may hold old: never mutate its verdict in
			// place. Equal verdicts (the common duplicate-upcall case) just
			// refresh the clocks; a changed verdict retires the entry and
			// mints a fresh one, RCU-style — stale references die via the
			// Dead check.
			if old.Verdict == v {
				old.Added = now
				atomic.StoreUint64(&old.LastHit, now)
				return old, nil
			}
			m.removeEntry(old)
		} else {
			old.Verdict = v
			old.Added = now
			// Refresh the idle clock too: a just-replaced entry is as live
			// as a just-inserted one, and must not be swept by the next
			// EvictIdle.
			old.LastHit = now
			return old, nil
		}
	}
	if m.limit > 0 && m.nEntries >= m.limit {
		return nil, ErrFlowLimit
	}
	ent := &st.ent0
	if ent.st != nil { // taken by the subtable's first insert
		ent = new(Entry)
	}
	*ent = Entry{Key: match.Key, Verdict: v, Added: now, LastHit: now, st: st}
	st.put(ent, hash)
	m.syncRow(st)
	m.logPut(st)
	st.addEntry(match.Key)
	m.nEntries++
	return ent, nil
}

// syncRow recompiles st's row in place. A row is a copy of what its subtable
// holds, so every edit of a subtable's table is followed by this (Insert's
// put, removeEntry) or by dropEmptySubtables, which rewrites the survivors of
// a maintenance sweep; all of them run on the write side, which a shard child
// holds for them already.
func (m *Megaflow) syncRow(st *mfSubtable) { m.subtables[st.pos] = st.row() }

// removeEntry evicts one resident entry outside a sweep.
func (m *Megaflow) removeEntry(ent *Entry) {
	ent.st.del(ent, m.seed)
	m.syncRow(ent.st)
	m.retireEntry(ent)
}

// retireEntry is the single exit door for a resident entry: every
// eviction path funnels through it, next to the table delete (removeEntry,
// or the sweep it runs under), so the staged prefilters (stage indices,
// signature sets, ports tries) stay consistent with the table.
func (m *Megaflow) retireEntry(ent *Entry) {
	ent.dead.Store(true)
	ent.st.dropEntry(ent.Key)
	m.nEntries--
}

// Remove deletes the entry with exactly the given match.
func (m *Megaflow) Remove(match flow.Match) bool {
	match.Normalize()
	st, _ := m.subtableOf(&match.Mask)
	if st == nil {
		return false
	}
	ent := st.probe(&match.Key, m.seed)
	if ent == nil {
		return false
	}
	m.removeEntry(ent)
	if st.n == 0 {
		m.dropSubtable(st)
	}
	return true
}

// evictColdestSubtable removes the coldest subtable and all of its entries —
// the LRU flavour of the mask-quota mitigation. On a ranked scan that is the
// last row, the scan order being the recency order there: the fewest hits
// last tick, or the newest mint since. Otherwise it is the least recently
// hit, ties going to the first in scan order, the oldest.
func (m *Megaflow) evictColdestSubtable() {
	if len(m.subtables) == 0 {
		return
	}
	coldest := m.subtables[len(m.subtables)-1].st
	if !m.ranked() {
		coldest = m.subtables[0].st
		for _, row := range m.subtables[1:] {
			if row.st.lastHit < coldest.lastHit {
				coldest = row.st
			}
		}
	}
	coldest.sweep(func(ent *Entry) bool {
		m.retireEntry(ent)
		return true
	})
	m.dropSubtable(coldest)
}

// forgetSubtable reports a dying subtable to the mask hooks and unlists
// its mask; the caller takes it out of the scan order.
func (m *Megaflow) forgetSubtable(st *mfSubtable) {
	if m.hooks.Dropped != nil {
		m.hooks.Dropped(st.mask())
	}
	m.indexDel(st)
}

// subtableOf returns the subtable of mask, or nil, and the mask's hash.
//
// The mask index holds a pointer to every subtable of the scan order in a
// power-of-two table at load <= 1/2, probed linearly from the home slot the
// mask's hash names and deleted from by backward shift — the subtables' own
// conventions (put, place, delAt). The hash is maskHash under the cache's
// secret seed, since whoever writes an ACL chooses its masks; each subtable
// keeps its own (mhash), so a probe compares masks only on an equal hash and
// a grow re-homes without hashing. It is read and written by Insert, Remove
// and the retirement of subtables only, all on the write side.
func (m *Megaflow) subtableOf(mask *flow.Mask) (*mfSubtable, uint32) {
	h := maskHash(m.seed, mask)
	if len(m.index) == 0 {
		return nil, h
	}
	n := uint64(len(m.index) - 1)
	for i := uint64(h) & n; m.index[i] != nil; i = (i + 1) & n {
		if st := m.index[i]; st.mhash == h && st.mask() == *mask {
			return st, h
		}
	}
	return nil, h
}

// indexAdd enters st, minted for a mask subtableOf did not find and not yet
// in the scan order, in the mask index, doubling the index first if st would
// take it past load 1/2.
func (m *Megaflow) indexAdd(st *mfSubtable) {
	if 2*(len(m.subtables)+1) > len(m.index) {
		old := m.index
		m.index = make([]*mfSubtable, max(2*len(old), 2))
		for _, s := range old {
			if s != nil {
				m.indexPlace(s)
			}
		}
	}
	m.indexPlace(st)
}

// indexPlace stores st in the first empty index slot at or after its home.
func (m *Megaflow) indexPlace(st *mfSubtable) {
	n := uint64(len(m.index) - 1)
	i := uint64(st.mhash) & n
	for m.index[i] != nil {
		i = (i + 1) & n
	}
	m.index[i] = st
}

// indexDel takes st out of the mask index and closes the gap by backward
// shift, as delAt does in a subtable.
func (m *Megaflow) indexDel(st *mfSubtable) {
	n := uint64(len(m.index) - 1)
	i := uint64(st.mhash) & n
	for m.index[i] != st {
		i = (i + 1) & n
	}
	for j := i; ; {
		j = (j + 1) & n
		s := m.index[j]
		if s == nil {
			m.index[i] = nil
			return
		}
		if (j-uint64(s.mhash))&n >= (j-i)&n {
			m.index[i] = s
			i = j
		}
	}
}

// dropSubtable retires one subtable: its row is cut out of the scan order
// (the vacated tail row zeroed) and the rows shifted down are renumbered, for
// callers that empty one subtable.
func (m *Megaflow) dropSubtable(st *mfSubtable) {
	m.forgetSubtable(st)
	i := int(st.pos)
	m.subtables = slices.Delete(m.subtables, i, i+1)
	m.renumber(i)
}

// renumber points the subtables of rows i and later back at their rows,
// after a removal or a sort moved them.
func (m *Megaflow) renumber(i int) {
	for ; i < len(m.subtables); i++ {
		m.subtables[i].st.pos = uint32(i)
	}
}

// dropEmptySubtables retires every subtable a maintenance sweep emptied
// in one compaction of the scan order, keeping the survivors' relative
// order: linear in the subtable count however many die together (the
// attack's masks expire in one revalidator round). A survivor's row is
// recompiled at its new position: the sweep may have taken it down to one
// resident.
func (m *Megaflow) dropEmptySubtables() {
	kept := m.subtables[:0]
	for _, row := range m.subtables {
		st := row.st
		if st.n == 0 {
			m.forgetSubtable(st)
			continue
		}
		st.pos = uint32(len(kept))
		kept = append(kept, st.row())
	}
	clear(m.subtables[len(kept):])
	m.subtables = kept
}

// MaskHooks observe (and may veto) the lifecycle of masks — one hook
// call per subtable, every path funneled: Admit runs before a new
// subtable is minted and a non-nil error rejects the insert without
// minting; Minted runs right after a subtable is created; Dropped runs
// whenever one dies (mask-cap eviction, flow-limit trim, idle expiry,
// revalidation, or a wholesale Flush). This is the attachment point for
// per-tenant mask quota attribution (internal/guard's MaskLedger).
type MaskHooks struct {
	Admit   func(flow.Match) error
	Minted  func(flow.Match)
	Dropped func(flow.Mask)
}

// SetMaskHooks installs the mask lifecycle hooks. Hooks are fields on
// the cache rather than MegaflowConfig so the config stays comparable.
func (m *Megaflow) SetMaskHooks(h MaskHooks) { m.hooks = h }

// FlowLimit returns the current entry limit (non-positive: unlimited).
func (m *Megaflow) FlowLimit() int { return m.limit }

// SetFlowLimit adjusts the entry limit at run time — the revalidator's
// flow-limit lever (OVS's udpif flow_limit backoff). A non-positive n
// removes the limit. Cutting the limit below the resident entry count does
// not evict anything by itself: Insert starts rejecting new flows
// immediately, and the next maintenance dump calls TrimToLimit to sweep
// the stalest residents out.
func (m *Megaflow) SetFlowLimit(n int) { m.limit = n }

// TrimToLimit evicts the stalest entries — oldest LastHit, with Added and
// the match as deterministic tie-breaks — until the entry count is back
// within the flow limit, returning the eviction count. This is the
// staleness sweep a dynamic flow-limit cut triggers on the next
// revalidator dump; without it a cut below the resident count would only
// reject new inserts while the stale population squats forever.
func (m *Megaflow) TrimToLimit() int {
	if m.limit <= 0 || m.nEntries <= m.limit {
		return 0
	}
	all := m.Entries()
	sort.Slice(all, func(i, j int) bool {
		a, b := all[i], all[j]
		if al, bl := m.entryLastHit(a), m.entryLastHit(b); al != bl {
			return al < bl
		}
		if a.Added != b.Added {
			return a.Added < b.Added
		}
		return matchLess(a.Match(), b.Match())
	})
	n := m.nEntries - m.limit
	for _, ent := range all[:n] {
		m.removeEntry(ent)
	}
	m.dropEmptySubtables()
	return n
}

// matchLess orders matches lexicographically (mask, then key) so staleness
// ties trim deterministically regardless of table order.
func matchLess(a, b flow.Match) bool {
	for i := range a.Mask {
		if a.Mask[i] != b.Mask[i] {
			return a.Mask[i] < b.Mask[i]
		}
	}
	for i := range a.Key {
		if a.Key[i] != b.Key[i] {
			return a.Key[i] < b.Key[i]
		}
	}
	return false
}

// EvictIdle removes entries whose LastHit is older than deadline,
// returning how many were evicted. This is the revalidator's idle-timeout
// sweep (OVS max-idle, default 10s).
func (m *Megaflow) EvictIdle(deadline uint64) int {
	evicted := 0
	idle := func(ent *Entry) bool {
		if m.entryLastHit(ent) >= deadline {
			return false
		}
		m.retireEntry(ent)
		evicted++
		return true
	}
	for _, row := range m.subtables {
		row.st.sweep(idle)
	}
	m.dropEmptySubtables()
	return evicted
}

// Revalidate re-checks every entry against the slow path via check, which
// returns the fresh verdict and whether the entry may stay. Entries whose
// verdict changed or that must go are removed; the flush count is
// returned. This models the OVS revalidator's consistency pass after
// flow-table changes.
func (m *Megaflow) Revalidate(check func(*Entry) (Verdict, bool)) int {
	flushed := 0
	stale := func(ent *Entry) bool {
		if v, keep := check(ent); keep && v == ent.Verdict {
			return false
		}
		m.retireEntry(ent)
		flushed++
		return true
	}
	for _, row := range m.subtables {
		row.st.sweep(stale)
	}
	m.dropEmptySubtables()
	return flushed
}

// Flush drops everything.
func (m *Megaflow) Flush() {
	for _, row := range m.subtables {
		for ent := range row.st.residents {
			ent.dead.Store(true)
		}
		if m.hooks.Dropped != nil {
			m.hooks.Dropped(row.st.mask())
		}
	}
	m.subtables = nil
	m.index = nil
	m.nEntries = 0
	m.resetPutLog() // Flush leaves the tables of the subtables it drops as they were
}

// Entries returns all cached entries, subtable scan order first.
func (m *Megaflow) Entries() []*Entry {
	out := make([]*Entry, 0, m.nEntries)
	for _, row := range m.subtables {
		for ent := range row.st.residents {
			out = append(out, ent)
		}
	}
	return out
}

// AvgMasksScanned returns the running average subtables visited per
// lookup.
func (m *Megaflow) AvgMasksScanned() float64 {
	if m.Lookups == 0 {
		return 0
	}
	return float64(m.MasksScanned) / float64(m.Lookups)
}

// String summarises cache state like `ovs-dpctl show`.
func (m *Megaflow) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "megaflow cache: %d entries, %d masks, %.2f avg masks/lookup (hit %d / miss %d)\n",
		m.nEntries, len(m.subtables), m.AvgMasksScanned(), m.Hits, m.Misses)
	if m.cfg.StagedPruning {
		total := m.SubtableVisits + m.SubtablePrunes
		pruned := 0.0
		if total > 0 {
			pruned = 100 * float64(m.SubtablePrunes) / float64(total)
		}
		fmt.Fprintf(&b, "  staged pruning: %d visited / %d pruned (%.1f%%), %d stage bails, %d burst sweeps\n",
			m.SubtableVisits, m.SubtablePrunes, pruned, m.StageBails, m.BurstSweeps)
	}
	return b.String()
}
