// Package dataplane assembles the hypervisor switch the paper attacks: the
// slow-path classifier (package classifier) behind a composable hierarchy
// of fast-path cache tiers (package cache), with upcall handling,
// revalidation and counters — a functional model of the Open vSwitch
// datapath pipeline:
//
//	packet -> tier 0 (EMC) -> tier 1 (SMC, optional) -> tier N (megaflow TSS) -> upcall
//	                                                                                |
//	                            every tier  <---  install + promote  <-------------+
//
// The hierarchy is assembled with functional options (WithEMC, WithSMC,
// WithMegaflow, ...) or fully custom via WithTiers; the switch walks
// whatever tiers it was given, so real OVS variants — the 2.6 default
// (EMC+TSS), the 2.10 signature-match cache, EMC-off kernel deployments —
// and per-tier mitigations are all constructions, not forks.
//
// The switch is driven by a logical clock supplied by the caller (the
// simulator or the benchmarks), keeping every experiment deterministic.
package dataplane

import (
	"fmt"
	"math/bits"
	"strings"

	"policyinject/internal/burst"
	"policyinject/internal/cache"
	"policyinject/internal/classifier"
	"policyinject/internal/conntrack"
	"policyinject/internal/flow"
	"policyinject/internal/flowtable"
	"policyinject/internal/telemetry"
)

// Path identifies which layer decided a packet's fate.
type Path uint8

const (
	PathEMC Path = iota
	PathSMC
	PathMegaflow
	PathSlow
)

func (p Path) String() string {
	switch p {
	case PathEMC:
		return "emc"
	case PathSMC:
		return "smc"
	case PathMegaflow:
		return "megaflow"
	default:
		return "slowpath"
	}
}

// config collects what the options assemble. It is internal: switches are
// built with New(name, opts...).
type config struct {
	emc        *cache.EMCConfig
	smc        *cache.SMCConfig
	megaflow   cache.MegaflowConfig
	maxIdle    uint64
	conntrack  *conntrack.Config
	tiers      []Tier // custom hierarchy (tiersSet): other cache opts ignored
	tiersSet   bool
	shards     int // WithShards: shard the default hierarchy's caches
	shardsSet  bool
	noCoalesce bool
	staged     bool
	upGuard    UpcallGuard
	maskGuard  MaskGuard
	tierWrap   func(Tier) Tier
	telemetry  *telemetry.Registry
}

// UpcallGuard is the upcall admission hook: consulted once per slow-path
// miss with the logical clock and the ingress port, a false return drops
// the packet at the datapath — no classification, no install
// (guard.Admission implements it).
type UpcallGuard interface {
	AdmitUpcall(now uint64, inPort uint32) bool
}

// MaskGuard observes and vetoes megaflow mask minting — the
// cache.MaskHooks trio as one interface, so per-tenant mask quota
// ledgers (guard.MaskLedger) attach through one option.
type MaskGuard interface {
	AdmitMask(flow.Match) error
	MaskMinted(flow.Match)
	MaskDropped(flow.Mask)
}

// Option configures a Switch under construction.
type Option func(*config)

// WithEMC sets the exact-match (microflow) cache configuration. The EMC is
// on by default; pass a negative Entries (or use WithoutEMC) to disable.
func WithEMC(cfg cache.EMCConfig) Option { return func(c *config) { c.emc = &cfg } }

// WithoutEMC removes the exact-match cache — the OVS *kernel* datapath
// model the paper's Kubernetes demo exercises.
func WithoutEMC() Option {
	return WithEMC(cache.EMCConfig{Entries: -1})
}

// WithSMC inserts OVS 2.10's signature-match cache between the EMC and the
// megaflow TSS (off by default, as in OVS).
func WithSMC(cfg cache.SMCConfig) Option { return func(c *config) { c.smc = &cfg } }

// WithMegaflow sets the megaflow TSS configuration (flow limits, mask
// quotas, sorted-TSS mitigation).
func WithMegaflow(cfg cache.MegaflowConfig) Option { return func(c *config) { c.megaflow = cfg } }

// WithStagedPruning enables staged subtable lookups with signature and
// L4-ports pruning over a hit-ranked scan in the default megaflow tier
// (cache.MegaflowConfig.StagedPruning) — the OVS countermeasure that
// rejects most subtables without a full hash probe, bending the paper's
// attack curve. Composes with WithMegaflow in any order.
func WithStagedPruning() Option { return func(c *config) { c.staged = true } }

// WithMaxIdle sets the revalidator idle timeout in logical time units
// (default 10, the OVS max-idle of 10s at one unit per second).
func WithMaxIdle(units uint64) Option { return func(c *config) { c.maxIdle = units } }

// WithConntrack attaches a connection tracker so stateful ACLs
// (Recirc/Commit actions) work. Stateless rule sets are unaffected.
func WithConntrack(cfg conntrack.Config) Option { return func(c *config) { c.conntrack = &cfg } }

// WithUpcallGuard gates every slow-path upcall behind an admission
// check. Refused upcalls count in Counters.UpcallDrops and resolve to
// Deny without visiting the classifier.
func WithUpcallGuard(g UpcallGuard) Option { return func(c *config) { c.upGuard = g } }

// WithMaskGuard wires a mask-lifecycle guard (per-tenant quotas with
// attribution) into the hierarchy's megaflow cache.
func WithMaskGuard(g MaskGuard) Option { return func(c *config) { c.maskGuard = g } }

// WithTierWrapper interposes wrap on every tier of the assembled
// hierarchy before capability discovery — the fault-injection seam
// (internal/chaos wraps the megaflow tier through it).
func WithTierWrapper(wrap func(Tier) Tier) Option { return func(c *config) { c.tierWrap = wrap } }

// WithTiers replaces the default hierarchy with an explicit tier list,
// walked in order. The cache options (WithEMC/WithSMC/WithMegaflow) are
// ignored when this is used. Upcall results are installed into the last
// tier implementing MegaflowInstaller; without one the switch still
// classifies correctly but caches nothing. WithTiers() with no tiers is the
// flow-cache-less datapath (the paper's ref [4], ESWITCH-style): every
// packet is one classification in the switch's classifier, and there is no
// cache for a policy-injection attack to fill.
func WithTiers(tiers ...Tier) Option {
	return func(c *config) { c.tiers, c.tiersSet = tiers, true }
}

// Decision is the outcome of processing one packet: 16 bytes, the record
// the datapath writes for every packet (TestDecisionLayout).
type Decision struct {
	Verdict      cache.Verdict
	Path         Path
	Recirculated bool
	MasksScanned int32 // megaflow subtables visited, summed over recirculations
}

// TierHit is one tier's hit count in a Counters snapshot, in tier walk
// order.
type TierHit struct {
	Tier string
	Hits uint64
}

// Counters aggregates switch-level statistics. Cache hits are per tier
// (TierHits, in walk order); the EMCHits/SMCHits accessors cover the common
// hierarchies. The whole struct is owned by the single-threaded switch
// loop, so the discipline counteratomic holds every field to is "always
// plain" — never mix in atomic access.
//
//lint:atomiccounters
type Counters struct {
	Packets    uint64
	TierHits   []TierHit
	Upcalls    uint64
	Allowed    uint64
	Denied     uint64
	ParseError uint64
	InstallErr uint64 // upcalls whose megaflow could not be installed

	// UpcallDrops counts misses refused by the upcall admission guard:
	// never classified, resolved to Deny at the datapath. Always zero
	// without WithUpcallGuard.
	UpcallDrops uint64
}

// HitsFor returns the hit count of the named tier (0 when absent).
func (c Counters) HitsFor(tier string) uint64 {
	for _, th := range c.TierHits {
		if th.Tier == tier {
			return th.Hits
		}
	}
	return 0
}

// EMCHits returns the exact-match tier's hit count.
func (c Counters) EMCHits() uint64 { return c.HitsFor("emc") }

// SMCHits returns the signature-match tier's hit count.
func (c Counters) SMCHits() uint64 { return c.HitsFor("smc") }

// Port is a virtual port of the switch (a pod/VM attachment point).
type Port struct {
	ID   uint32
	Name string

	RxPackets, RxBytes uint64
	RxErrors           uint64 // malformed frames received (also counted in RxDropped)
	RxDropped          uint64
	TxPackets, TxBytes uint64
}

// Switch is the hypervisor switch instance. Not safe for concurrent use;
// experiments drive it from one goroutine, as a single PMD thread would.
// For the multi-core view, see PMDPool.
type Switch struct {
	name    string
	maxIdle uint64
	table   flowtable.Table
	cls     *classifier.Classifier
	ports   map[uint32]*Port

	tiers      []Tier
	tierHits   []uint64
	hashedInst []HashedInstaller       // per-tier hashed-install capability (nil entries: plain Install)
	batchTiers []BatchTier             // per-tier batch capability (nil entries: key-by-key Lookup)
	coalescer  RunCoalescer            // tiers[0]'s same-flow run capability, nil without
	installer  MegaflowInstaller       // last installer tier, nil if none
	hashedMF   HashedMegaflowInstaller // installer's hash-aware capability, nil without
	promoteTo  int                     // tiers[:promoteTo] receive upcall promotions
	noCoalesce bool                    // disable same-flow run coalescing
	needHashes bool                    // some tier consumes burst flow hashes (HashUser/HashedInstaller)
	upGuard    UpcallGuard             // optional upcall admission guard

	ct *conntrack.Table

	tel *telemetryHooks // live-telemetry handles, nil without WithTelemetry

	counters Counters
	batch    batchScratch

	oneFrame   FrameBatch  // Process's burst of one frame
	oneKey     [1]flow.Key // ProcessKey's burst of one key
	oneOut     []Decision
	recircKey  [1]flow.Key // conntrack's second pass: the restamped key, a burst of one
	recircHash [1]uint64
}

// batchScratch is the per-switch working set processBatch reuses across
// bursts, so steady-state batch classification allocates nothing.
type batchScratch struct {
	hashes []uint64
	ents   []*cache.Entry
	costs  []int
	runs   []int // start index of each same-key run, ascending, then the burst length
	miss   burst.Bitmap
	prev   burst.Bitmap
}

func (bs *batchScratch) grow(n int) {
	if cap(bs.hashes) < n {
		bs.hashes = make([]uint64, n)
		bs.ents = make([]*cache.Entry, n)
		bs.costs = make([]int, n)
	}
	bs.hashes = bs.hashes[:n]
	bs.ents = bs.ents[:n]
	bs.costs = bs.costs[:n]
	bs.runs = bs.runs[:0]
}

// New builds a Switch with the given name and options. With no options the
// hierarchy is the stock OVS userspace datapath: default EMC in front of a
// default megaflow TSS.
func New(name string, opts ...Option) *Switch {
	var cfg config
	for _, o := range opts {
		o(&cfg)
	}
	if cfg.maxIdle == 0 {
		cfg.maxIdle = 10
	}
	if cfg.staged {
		cfg.megaflow.StagedPruning = true
	}
	if cfg.shardsSet {
		validateSharded(&cfg)
	}
	tiers := cfg.tiers
	if !cfg.tiersSet {
		emcCfg := cache.EMCConfig{}
		if cfg.emc != nil {
			emcCfg = *cfg.emc
		}
		smcOn := cfg.smc != nil && cfg.smc.Entries >= 0
		if emcCfg.Entries >= 0 {
			// OVS couples smc-enable with probabilistic EMC insertion: the
			// SMC absorbs the flows the EMC no longer caches eagerly. Force
			// the stock emc-insert-inv-prob of 1/100 unless the caller set
			// an insertion policy explicitly; seed the PRNG from the switch
			// name so every experiment run draws the same sequence.
			if smcOn && emcCfg.InsertProb == 0 && emcCfg.InsertEvery == 0 {
				emcCfg.InsertProb = cache.DefaultEMCInsertProb
			}
			if emcCfg.Seed == 0 {
				emcCfg.Seed = nameSeed(name)
			}
			if cfg.shardsSet {
				tiers = append(tiers, NewShardedEMCTier(emcCfg, cfg.shards))
			} else {
				tiers = append(tiers, NewEMCTier(emcCfg))
			}
		}
		if smcOn {
			if cfg.shardsSet {
				tiers = append(tiers, NewShardedSMCTier(*cfg.smc, cfg.shards))
			} else {
				tiers = append(tiers, NewSMCTier(*cfg.smc))
			}
		}
		if cfg.shardsSet {
			tiers = append(tiers, NewShardedMegaflowTier(cfg.megaflow, cfg.shards))
		} else {
			tiers = append(tiers, NewMegaflowTier(cfg.megaflow))
		}
	}
	if cfg.tierWrap != nil {
		wrapped := make([]Tier, len(tiers))
		for i, t := range tiers {
			wrapped[i] = cfg.tierWrap(t)
		}
		tiers = wrapped
	}
	s := &Switch{
		name:       name,
		maxIdle:    cfg.maxIdle,
		cls:        classifier.New(classifier.Config{}),
		ports:      make(map[uint32]*Port),
		tiers:      tiers,
		tierHits:   make([]uint64, len(tiers)),
		noCoalesce: cfg.noCoalesce,
		upGuard:    cfg.upGuard,
	}
	for i := len(tiers) - 1; i >= 0; i-- {
		if inst, ok := tiers[i].(MegaflowInstaller); ok {
			s.installer = inst
			s.promoteTo = i
			if hmf, ok := inst.(HashedMegaflowInstaller); ok {
				// Hash-aware installs (sharded tiers): the upcall path
				// carries the triggering key's flow hash so the megaflow
				// lands in the shard that key's lookups probe.
				s.hashedMF = hmf
				s.needHashes = true
			}
			break
		}
	}
	// Each capability is asserted here, once: an assertion to an interface
	// type on the frame path goes through the runtime's per-call-site cache,
	// which the runtime now and then rebuilds, allocating.
	s.hashedInst = make([]HashedInstaller, len(tiers))
	s.batchTiers = make([]BatchTier, len(tiers))
	for i, t := range tiers {
		if _, ok := t.(HashUser); ok {
			s.needHashes = true
		}
		if hi, ok := t.(HashedInstaller); ok {
			s.hashedInst[i] = hi
			s.needHashes = true
		}
		s.batchTiers[i], _ = t.(BatchTier)
	}
	if len(tiers) > 0 {
		s.coalescer, _ = tiers[0].(RunCoalescer)
	}
	if cfg.conntrack != nil {
		s.ct = conntrack.New(*cfg.conntrack)
	}
	if g := cfg.maskGuard; g != nil {
		if mf := s.Megaflow(); mf != nil {
			mf.SetMaskHooks(cache.MaskHooks{Admit: g.AdmitMask, Minted: g.MaskMinted, Dropped: g.MaskDropped})
		} else if smf := s.ShardedMegaflow(); smf != nil {
			// Sharded hierarchy: the guard sits behind the wrapper's
			// cross-shard ledger, which refcounts per-shard subtable
			// copies so the guard sees each logical mask once.
			smf.SetMaskHooks(cache.MaskHooks{Admit: g.AdmitMask, Minted: g.MaskMinted, Dropped: g.MaskDropped})
		}
	}
	if cfg.telemetry != nil {
		s.tel = newTelemetryHooks(cfg.telemetry, s)
	}
	return s
}

// nameSeed derives the per-switch PRNG seed for probabilistic EMC
// insertion: FNV-1a over the switch name, so a named switch draws the
// same reproducible sequence in every run while distinct PMDs
// ("<name>/pmd<i>") draw distinct ones.
func nameSeed(name string) uint64 {
	const (
		offset64 = 14695981039346656037
		prime64  = 1099511628211
	)
	h := uint64(offset64)
	for i := 0; i < len(name); i++ {
		h ^= uint64(name[i])
		h *= prime64
	}
	return h
}

// Name returns the configured switch name.
func (s *Switch) Name() string { return s.name }

// Tiers returns the cache hierarchy in walk order.
func (s *Switch) Tiers() []Tier { return s.tiers }

// AddPort creates a port with the given id, returning it. Adding an
// existing id returns the existing port.
func (s *Switch) AddPort(id uint32, name string) *Port {
	if p, ok := s.ports[id]; ok {
		return p
	}
	p := &Port{ID: id, Name: name}
	s.ports[id] = p
	return p
}

// Port returns the port with the given id, or nil.
func (s *Switch) Port(id uint32) *Port { return s.ports[id] }

// InstallRule adds a policy rule to the slow path. Installed caches are
// flushed: a policy change invalidates cached verdicts wholesale, the
// conservative variant of the OVS revalidator's consistency pass.
func (s *Switch) InstallRule(r flowtable.Rule) *flowtable.Rule {
	stored := s.table.Insert(r)
	s.cls.Insert(stored)
	s.flushCaches()
	return stored
}

// RemoveRule removes a rule previously installed.
func (s *Switch) RemoveRule(r *flowtable.Rule) bool {
	if !s.table.Remove(r) {
		return false
	}
	s.cls.Remove(r)
	s.flushCaches()
	return true
}

func (s *Switch) flushCaches() {
	for _, t := range s.tiers {
		t.Flush()
	}
}

// Rules returns the installed rules in evaluation order.
func (s *Switch) Rules() []*flowtable.Rule { return s.table.Rules() }

// ValidateRules checks the rule table's invariants (flowtable.Table.Validate).
func (s *Switch) ValidateRules() error { return s.table.Validate() }

// Process runs one frame received on port inPort through the pipeline at
// logical time now: a burst of one through ProcessFrames, the one
// documented ingress of the switch, kept for tests and single-packet
// probes. Production-shaped callers (cmd/, examples/, the simulator)
// assemble FrameBatch bursts and call ProcessFrames — the burst is the
// unit of the datapath, and the one tier walk is where hash caching, run
// coalescing and the inverted subtable sweep live.
func (s *Switch) Process(now uint64, inPort uint32, frame []byte) (Decision, error) {
	fb := &s.oneFrame
	fb.Reset()
	fb.Append(frame, inPort)
	s.oneOut = s.ProcessFrames(now, fb, s.oneOut)
	return s.oneOut[0], fb.Err(0)
}

// ProcessKey classifies an already-extracted key as a burst of one and
// counts the packet: the one key-level entry of the switch. It is the
// sequential reference of the batch==sequential suites (run over a
// burst's extracted keys, FrameBatch.Key) and the seam for keys no frame
// renders, such as a probe of protocol 0. It is not an ingress: traffic
// enters through ProcessFrames.
func (s *Switch) ProcessKey(now uint64, k flow.Key) Decision {
	s.oneKey[0] = k
	s.oneOut = GrowDecisions(s.oneOut, 1)
	s.counters.Packets++
	s.processBatch(now, s.oneKey[:], nil, s.oneOut)
	return s.oneOut[0]
}

// recirculate completes a packet whose first pass hit a conntrack dispatch
// rule: the connection tracker classifies the 5-tuple, the ct_state field
// is stamped into the key, and the key walks the tiers again as a burst of
// one — both passes billed, as both cost the real switch. The caller
// accounts the verdict it leaves in d.
func (s *Switch) recirculate(now uint64, k *flow.Key, d *Decision) {
	if s.ct == nil {
		// A stateful rule set on a switch without conntrack: fail closed.
		d.Verdict = cache.Verdict{Verdict: flowtable.Deny}
		return
	}
	tuple := k.Tuple()
	state, _ := s.ct.Lookup(tuple, now)
	// The second pass's key and hash live beside the burst's, whose hashes
	// the runs still to settle need.
	k2 := s.recircKey[:]
	k2[0] = *k
	k2[0].Set(flow.FieldCTState, state.CTBits())
	var out [1]Decision
	s.walkOne(now, k2, flow.HashKeys(k2, s.recircHash[:0]), out[:], 0)
	d2 := out[0]
	d2.MasksScanned += d.MasksScanned
	d2.Recirculated = true
	if d2.Verdict.Recirc {
		// A second dispatch would loop; fail closed.
		d2.Verdict = cache.Verdict{Verdict: flowtable.Deny}
	}
	if d2.Verdict.Verdict == flowtable.Allow && d2.Verdict.Commit {
		if !s.ct.Commit(tuple, now) {
			// Table full: netfilter drops what it cannot track.
			d2.Verdict = cache.Verdict{Verdict: flowtable.Deny}
		}
	}
	*d = d2
}

// GrowDecisions returns out resized to n decisions, reallocating only
// when its capacity is insufficient — the shared output-buffer contract
// of every ProcessFrames implementation.
func GrowDecisions(out []Decision, n int) []Decision {
	if cap(out) < n {
		out = make([]Decision, n)
	}
	return out[:n]
}

// processBatch classifies a burst of keys at logical time now into out,
// which holds one slot per key; the caller counts the packets. hashes,
// when non-nil, carries the burst's precomputed flow hashes (Key.Hash,
// index-aligned with keys); nil computes them here.
//
// The burst is the unit of classification: flow hashes are computed once
// at batch entry, consecutive identical keys are coalesced into one lookup
// plus n accountings (same-flow runs, the shape heavy-tailed flow-size
// distributions produce), and the remaining distinct keys sweep the tier
// hierarchy one tier pass at a time over a miss bitmap — the megaflow pass
// visits each subtable once per burst instead of once per key.
func (s *Switch) processBatch(now uint64, keys []flow.Key, hashes []uint64, out []Decision) {
	n := len(keys)
	if n == 0 {
		return
	}
	bs := &s.batch
	bs.grow(n)

	// Same-flow run detection: a run of consecutive identical keys (an
	// elephant-flow burst) enters the tier walk once, through its first
	// key; the copies are settled against the warm cache afterwards. Where
	// the hash pass has run, unequal hashes tell two keys apart without the
	// 80-byte compare. Run ri is keys[runs[ri]:runs[ri+1]]. The same pass
	// marks the heads in the miss bitmap, each 64-key word assembled in a
	// register and stored once.
	bs.miss.Reset(n)
	words := bs.miss.Words()
	bs.runs = append(bs.runs, 0)
	w := uint64(1)
	for i := 1; i < n; i++ {
		if i&63 == 0 {
			words[i>>6-1], w = w, 0
		}
		if (hashes != nil && hashes[i] != hashes[i-1]) || keys[i] != keys[i-1] {
			bs.runs = append(bs.runs, i)
			w |= 1 << uint(i&63)
		}
	}
	words[(n-1)>>6] = w
	heads := bs.runs
	bs.runs = append(bs.runs, n)

	if hashes == nil && s.needHashes {
		// Batch-entry hash pass: one Hash per run head, reused by every
		// hash-consuming tier instead of re-hashing per probe; a run's
		// copies take the head's hash by assignment (identical keys,
		// identical hashes — and hashing dominates copying 40:1 on the
		// elephant mix). Skipped when no tier declares HashUser.
		for ri, r := range heads {
			h := flow.HashKeys(keys[r:r+1], bs.hashes[r:r+1])[0] // keys[r] where it lies, into bs.hashes[r]
			for i := r + 1; i < bs.runs[ri+1]; i++ {
				bs.hashes[i] = h
			}
		}
		hashes = bs.hashes
	}

	// The run heads walk the tiers as one burst, then settle in input
	// order; their verdicts are counted in a register and stored once.
	clear(bs.ents)
	clear(bs.costs)
	s.walk(now, keys, hashes, out)
	allowed := 0
	for _, r := range heads {
		if out[r].Verdict.Recirc {
			s.recirculate(now, &keys[r], &out[r])
		}
		if out[r].Verdict.Verdict == flowtable.Allow {
			allowed++
		}
	}
	s.counters.Allowed += uint64(allowed)
	s.counters.Denied += uint64(len(heads) - allowed)

	// Settle the runs: every non-representative copy classifies against
	// the cache its run's first key just warmed.
	for ri, start := range heads {
		if end := bs.runs[ri+1]; end-start > 1 {
			s.processRun(now, keys, hashes, out, start+1, end)
		}
	}
}

// walk is the one tier walk of the switch. The keys whose bits the caller
// set in the scratch miss bitmap (ents and costs slots cleared) descend the
// hierarchy one tier pass at a time: a hit on tier i is billed, promoted
// into tiers [0, i) and written to out; what misses every tier upcalls, in
// input order. Verdicts are left to the caller: recirculation, then
// accounting. It returns how many keys the top tier answered.
func (s *Switch) walk(now uint64, keys []flow.Key, hashes []uint64, out []Decision) (top int) {
	bs := &s.batch
	for ti, t := range s.tiers {
		if bs.miss.Empty() {
			break
		}
		bs.prev.CopyFrom(&bs.miss)
		var tierStart uint64
		if s.tel != nil {
			tierStart = telemetry.Clock()
		}
		if bt := s.batchTiers[ti]; bt != nil {
			bt.LookupBatch(keys, hashes, now, bs.ents, bs.costs, &bs.miss)
		} else {
			// Tiers without a batch path are probed key by key, so
			// WithTiers custom hierarchies keep working. The
			// word-at-a-time iteration keeps the hot loop closure-free.
			words := bs.prev.Words()
			for wi := range words {
				w := words[wi]
				for w != 0 {
					i := wi<<6 + bits.TrailingZeros64(w)
					w &= w - 1
					ent, cost, ok := t.Lookup(keys[i], now)
					bs.costs[i] += cost
					if ok {
						bs.ents[i] = ent
						bs.miss.Clear(i)
					}
				}
			}
		}
		if s.tel != nil {
			// Tier-pass latency: one observation per pass per tier, wall
			// time of the LookupBatch (or key-by-key) pass alone.
			s.tel.tierNs[ti].Record(telemetry.Clock() - tierStart)
		}
		// Bill and promote this pass's hits (prev &^ miss), a word at a
		// time: a hit on tier ti installs into tiers [0, ti) — none for the
		// top tier — and the pass's popcount is billed once.
		path, hits := t.Path(), 0
		prev, miss := bs.prev.Words(), bs.miss.Words()
		for wi := range prev {
			w := prev[wi] &^ miss[wi]
			hits += bits.OnesCount64(w)
			for w != 0 {
				i := wi<<6 + bits.TrailingZeros64(w)
				w &= w - 1
				if ti > 0 {
					s.promote(keys, hashes, i, bs.ents[i], ti)
				}
				out[i] = Decision{Verdict: bs.ents[i].Verdict, Path: path, MasksScanned: int32(bs.costs[i])}
			}
		}
		s.tierHits[ti] += uint64(hits)
		if ti == 0 {
			top = hits
		}
	}

	// Upcall tail, in input order. An upcall can install a megaflow that
	// covers later misses of the same walk, so once anything has been
	// installed the remaining misses re-probe the authoritative tier
	// before their own upcall — the post-upcall re-lookup real datapaths
	// do to avoid duplicate installs.
	installs := 0
	words := bs.miss.Words()
	for wi := range words {
		w := words[wi]
		for w != 0 {
			i := wi<<6 + bits.TrailingZeros64(w)
			w &= w - 1
			out[i] = s.upcallOne(now, keys, hashes, i, bs.costs[i], &installs)
		}
	}
	return top
}

// walkOne walks keys[i] alone, a burst of one in slot 0 of the scratch the
// run heads' walk has finished with; a hit leaves its entry in ents[0].
func (s *Switch) walkOne(now uint64, keys []flow.Key, hashes []uint64, out []Decision, i int) (top int) {
	bs := &s.batch
	bs.miss.Reset(1)
	bs.miss.Set(0)
	bs.ents[0], bs.costs[0] = nil, 0
	if hashes != nil {
		hashes = hashes[i : i+1]
	}
	return s.walk(now, keys[i:i+1], hashes, out[i:i+1])
}

// processRun classifies copies [from, to) of one key whose first copy the
// run heads' walk already settled. Each copy walks alone (it sees the
// promotions its predecessor installed); if the first lands stably in the
// top tier and the tier can coalesce, the remaining copies collapse into
// one AccountRun — one lookup plus n accountings for the whole elephant
// burst. Anything unstable (slow path, recirculation,
// probabilistic-insertion hierarchies still warming) stays exact, copy by
// copy.
func (s *Switch) processRun(now uint64, keys []flow.Key, hashes []uint64, out []Decision, from, to int) {
	for i := from; i < to; i++ {
		top := s.walkOne(now, keys, hashes, out, i)
		ent := s.batch.ents[0] // before a recirculated copy walks again
		if out[i].Verdict.Recirc {
			s.recirculate(now, &keys[i], &out[i])
		}
		d, rest := out[i], to-i-1
		s.account(d.Verdict)
		if i > from || rest == 0 || s.noCoalesce || top != 1 || d.Recirculated {
			continue
		}
		if rc := s.coalescer; rc != nil && rc.AccountRun(ent, rest, int(d.MasksScanned), now) {
			s.tierHits[0] += uint64(rest)
			if d.Verdict.Verdict == flowtable.Allow {
				s.counters.Allowed += uint64(rest)
			} else {
				s.counters.Denied += uint64(rest)
			}
			for j := i + 1; j < to; j++ {
				out[j] = d
			}
			return
		}
	}
}

// promote installs ent into tiers [0, upto) for keys[i]. A HashedInstaller
// tier takes the burst's hash (declaring it makes the hash pass run), so
// EMC and SMC promotions do not re-hash the key.
func (s *Switch) promote(keys []flow.Key, hashes []uint64, i int, ent *cache.Entry, upto int) {
	for ti, upper := range s.tiers[:upto] {
		if hi := s.hashedInst[ti]; hi != nil {
			hi.InstallHashed(keys[i], hashes[i], ent)
		} else {
			upper.Install(keys[i], ent)
		}
	}
}

// upcallOne settles one miss of the walk: re-probe the authoritative tier
// when an earlier upcall of the same walk may have covered the key, then
// fall to the slow path. sweepCost is the scan cost the walk already
// accrued for the key.
func (s *Switch) upcallOne(now uint64, keys []flow.Key, hashes []uint64, i, sweepCost int, installs *int) Decision {
	if *installs > 0 && s.installer != nil {
		ent, cost, ok := s.installer.Reprobe(keys[i], now)
		if ok {
			s.tierHits[s.promoteTo]++
			s.promote(keys, hashes, i, ent, s.promoteTo)
			return Decision{Verdict: ent.Verdict, Path: s.installer.Path(), MasksScanned: int32(cost)}
		}
		sweepCost = cost
	}
	d, up := s.upcall(now, keys, hashes, i, sweepCost)
	if up.installed {
		*installs++
	}
	return d
}

// slowPath is what one upcall did beyond its Decision: the walk counts the
// install (later misses must then re-probe), the trace renders the rest.
type slowPath struct {
	refused   bool              // dropped by the admission guard: nothing below ran
	res       classifier.Result // the slow path's rule and synthesised megaflow
	installed bool              // megaflow installed and promoted
	err       error             // install failure
}

// upcall runs the full slow-path classification of keys[i], then caches
// the synthesised megaflow in the authoritative tier and references it
// from the tiers above, so their hits keep the flow warm.
//
//lint:coldpath
func (s *Switch) upcall(now uint64, keys []flow.Key, hashes []uint64, i, scanned int) (Decision, slowPath) {
	var up slowPath
	k := &keys[i]
	if s.upGuard != nil && !s.upGuard.AdmitUpcall(now, uint32(k.Get(flow.FieldInPort))) {
		// Refused at admission: the packet is dropped at the datapath
		// without a slow-path visit — no classification, no install.
		s.counters.UpcallDrops++
		up.refused = true
		return Decision{Verdict: cache.Verdict{Verdict: flowtable.Deny}, Path: PathSlow, MasksScanned: int32(scanned)}, up
	}
	s.counters.Upcalls++
	up.res = s.cls.Lookup(*k)
	v := cache.Verdict{Verdict: flowtable.Deny}
	if up.res.Rule != nil {
		v = up.res.Rule.Action
	}
	if s.installer != nil {
		var ent *cache.Entry
		if s.hashedMF != nil {
			// Sharded installer: the megaflow must land in the shard the
			// triggering key's lookups probe, selected by the key's full
			// flow hash.
			ent, up.err = s.hashedMF.InsertMegaflowHashed(up.res.Megaflow, v, now, hashes[i])
		} else {
			ent, up.err = s.installer.InsertMegaflow(up.res.Megaflow, v, now)
		}
		if up.err != nil {
			s.counters.InstallErr++
		} else {
			s.promote(keys, hashes, i, ent, s.promoteTo)
			up.installed = true
		}
	}
	return Decision{Verdict: v, Path: PathSlow, MasksScanned: int32(scanned)}, up
}

func (s *Switch) account(v cache.Verdict) {
	if v.Verdict == flowtable.Allow {
		s.counters.Allowed++
	} else {
		s.counters.Denied++
	}
}

// RunRevalidator performs one inline maintenance sweep: evict cache
// entries idle past the configured timeout (tier by tier) and expire stale
// conntrack entries. Returns the eviction count.
//
// This is the legacy synchronous sweep, kept as the conformance baseline
// for the clock-driven actor that now owns cache maintenance (package
// revalidator: sharded dump workers, dump-duration measurement, adaptive
// flow-limit backoff). New timelines should attach the switch to a
// revalidator.Revalidator instead of calling this.
func (s *Switch) RunRevalidator(now uint64) int {
	if s.ct != nil {
		s.ct.Expire(now)
	}
	if now < s.maxIdle {
		return 0
	}
	evicted := 0
	for _, t := range s.tiers {
		evicted += t.EvictIdle(now - s.maxIdle)
	}
	return evicted
}

// Conntrack exposes the connection tracker, or nil when stateless.
func (s *Switch) Conntrack() *conntrack.Table { return s.ct }

// Counters returns a snapshot of the switch counters.
func (s *Switch) Counters() Counters {
	c := s.counters
	c.TierHits = make([]TierHit, len(s.tiers))
	for i, t := range s.tiers {
		c.TierHits[i] = TierHit{Tier: t.Name(), Hits: s.tierHits[i]}
	}
	return c
}

// megaflowBacked is any tier backed by a megaflow cache — the concrete
// MegaflowTier, but equally a fault-injection wrapper forwarding to one.
type megaflowBacked interface{ Megaflow() *cache.Megaflow }

// Megaflow exposes the megaflow cache for inspection and experiments, or
// nil when the hierarchy has no megaflow tier.
func (s *Switch) Megaflow() *cache.Megaflow {
	for _, t := range s.tiers {
		if mt, ok := t.(megaflowBacked); ok {
			return mt.Megaflow()
		}
	}
	return nil
}

// Classifier exposes the slow-path classifier for inspection.
func (s *Switch) Classifier() *classifier.Classifier { return s.cls }

// String renders a dpctl-style summary.
func (s *Switch) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "switch %q: %d rules, %d ports\n", s.name, s.table.Len(), len(s.ports))
	fmt.Fprintf(&b, "  counters: %+v\n", s.Counters())
	for _, t := range s.tiers {
		if mt, ok := t.(megaflowBacked); ok {
			fmt.Fprintf(&b, "  %s", mt.Megaflow().String())
			continue
		}
		fmt.Fprintf(&b, "  %s\n", t.Stats())
	}
	return b.String()
}
