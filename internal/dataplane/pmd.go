package dataplane

import (
	"fmt"
	"sync"

	"policyinject/internal/flow"
	"policyinject/internal/flowtable"
)

// PMDPool models the multi-core OVS datapath: one poll-mode-driver (PMD)
// instance per core, each with its *own* cache hierarchy (per-PMD EMC, SMC
// and megaflow TSS, exactly as OVS keeps dpcls instances per PMD), fed by
// RSS — packets are steered to a PMD by flow-key hash, so one flow's
// packets always land on the same core.
//
// The multi-queue view adds an honest nuance to the attack analysis: RSS
// spreads the covert stream's distinct 5-tuples across PMDs, so each core
// accumulates roughly 1/N of the masks — and the victim's flow, pinned to
// one core, scans only that core's share. The attacker's counter is
// equally mundane: the covert stream is so cheap that sending N times as
// many packets (or biasing the 5-tuples toward the victim's queue, where
// the RSS function is known) restores the full count.
type PMDPool struct {
	pmds   []*Switch
	lanes  []pmdLane // ProcessFrames' steering scratch, one lane per PMD
	shared bool      // NewSharedPMDPool: all PMDs view one sharded switch
}

// steerLanes clears the lanes and scatters keys (with their precomputed
// flow hashes) to their RSS-selected PMDs, recording each key's input
// index. idx maps key position to input position (nil: identity), so the
// frame path can steer a compacted sub-burst while scattering decisions
// back to frame order.
func (p *PMDPool) steerLanes(keys []flow.Key, hashes []uint64, idx []int) {
	if p.lanes == nil {
		p.lanes = make([]pmdLane, len(p.pmds))
	}
	for i := range p.lanes {
		l := &p.lanes[i]
		l.idx = l.idx[:0]
		l.keys = l.keys[:0]
		l.hashes = l.hashes[:0]
	}
	nPMD := uint64(len(p.pmds))
	for i, k := range keys {
		h := hashes[i]
		l := &p.lanes[h%nPMD]
		pos := i
		if idx != nil {
			pos = idx[i]
		}
		l.idx = append(l.idx, pos)
		l.keys = append(l.keys, k)
		l.hashes = append(l.hashes, h)
	}
}

// runLanes processes every non-empty lane as one sub-burst on its own PMD
// goroutine, then scatters the decisions back to input order in out.
func (p *PMDPool) runLanes(now uint64, out []Decision) {
	var wg sync.WaitGroup
	for li := range p.lanes {
		l := &p.lanes[li]
		if len(l.idx) == 0 {
			continue
		}
		wg.Add(1)
		go func(sw *Switch, l *pmdLane) {
			defer wg.Done()
			l.out = GrowDecisions(l.out, len(l.keys))
			sw.counters.Packets += uint64(len(l.keys))
			sw.processBatch(now, l.keys, l.hashes, l.out)
		}(p.pmds[li], l)
	}
	wg.Wait()
	for li := range p.lanes {
		l := &p.lanes[li]
		for j, i := range l.idx {
			out[i] = l.out[j]
		}
	}
}

// pmdLane is one PMD's share of a burst: the key indices it owns (input
// order), the compacted keys/hashes handed to its batch walk, and its
// decisions before the scatter back to input order.
type pmdLane struct {
	idx    []int
	keys   []flow.Key
	hashes []uint64
	out    []Decision
}

// NewPMDPool builds n PMD instances named "<name>/pmd<i>", each assembled
// from the same options (so each PMD gets its own tier instances). Rule
// installation is replicated to every PMD, as the shared classifier would
// be visible to each. WithTiers is rejected (panics): its explicit tier
// instances would be shared across PMDs and raced by ProcessFrames.
func NewPMDPool(n int, name string, opts ...Option) *PMDPool {
	var probe config
	for _, o := range opts {
		o(&probe)
	}
	if probe.tiersSet {
		panic("dataplane: NewPMDPool cannot take WithTiers; each PMD needs its own tier instances")
	}
	if n < 1 {
		n = 1
	}
	p := &PMDPool{}
	for i := 0; i < n; i++ {
		p.pmds = append(p.pmds, New(fmt.Sprintf("%s/pmd%d", name, i), opts...))
	}
	return p
}

// NewSharedPMDPool builds n PMDs sharing ONE sharded switch instead of
// owning disjoint tier instances: the real multi-writer regime, where
// every core installs into and reads from the same caches. PMD 0 is the
// primary (it owns the classifier, the flow table and telemetry); PMDs
// 1..n-1 are views sharing the primary's tiers, slow path and install
// capabilities while keeping their own counters, ports and batch
// scratch — so per-PMD counters stay single-writer plain and only the
// tiers themselves are contended, behind their ConcurrentTier contract.
//
// The default hierarchy is sharded automatically (WithShards, with
// cache.DefaultShards unless the options pick a count); a WithTiers
// hierarchy must consist of ConcurrentTier implementations. Panics on
// WithConntrack and WithUpcallGuard: conntrack.Table and the admission
// guard are single-goroutine state that cannot be shared across PMDs
// (use NewPMDPool's per-PMD instances for those experiments).
//
// Rule installation goes through the primary (InstallRule does this)
// and must quiesce traffic, exactly as on a single switch: the
// classifier itself is read-pure but not mutation-safe under readers.
func NewSharedPMDPool(n int, name string, opts ...Option) *PMDPool {
	var probe config
	for _, o := range opts {
		o(&probe)
	}
	if probe.conntrack != nil {
		panic("dataplane: NewSharedPMDPool cannot take WithConntrack; conntrack.Table is single-goroutine state")
	}
	if probe.upGuard != nil {
		panic("dataplane: NewSharedPMDPool cannot take WithUpcallGuard; admission guard state is single-goroutine")
	}
	if !probe.shardsSet && !probe.tiersSet {
		opts = append(opts, WithShards(probe.shards))
	}
	if n < 1 {
		n = 1
	}
	primary := New(fmt.Sprintf("%s/pmd0", name), opts...)
	for _, t := range primary.tiers {
		if _, ok := t.(ConcurrentTier); !ok {
			panic(fmt.Sprintf("dataplane: NewSharedPMDPool requires ConcurrentTier tiers; %q is not", t.Name()))
		}
	}
	p := &PMDPool{shared: true, pmds: []*Switch{primary}}
	for i := 1; i < n; i++ {
		p.pmds = append(p.pmds, newSharedView(primary, fmt.Sprintf("%s/pmd%d", name, i)))
	}
	return p
}

// newSharedView builds a PMD view of primary: shared slow path, tiers
// and install capabilities; private name, counters, ports and scratch.
func newSharedView(primary *Switch, name string) *Switch {
	return &Switch{
		name:       name,
		maxIdle:    primary.maxIdle,
		cls:        primary.cls,
		ports:      make(map[uint32]*Port),
		tiers:      primary.tiers,
		tierHits:   make([]uint64, len(primary.tiers)),
		hashedInst: primary.hashedInst,
		batchTiers: primary.batchTiers,
		coalescer:  primary.coalescer,
		installer:  primary.installer,
		hashedMF:   primary.hashedMF,
		promoteTo:  primary.promoteTo,
		noCoalesce: primary.noCoalesce,
		needHashes: primary.needHashes,
	}
}

// Shared reports whether all PMDs view one sharded switch
// (NewSharedPMDPool) rather than owning disjoint tier instances.
func (p *PMDPool) Shared() bool { return p.shared }

// N returns the number of PMDs.
func (p *PMDPool) N() int { return len(p.pmds) }

// PMD returns the i-th instance, for inspection.
func (p *PMDPool) PMD(i int) *Switch { return p.pmds[i] }

// InstallRule replicates a rule to every PMD — or, on a shared pool,
// installs it once through the primary (the classifier, flow table and
// tiers are the same objects on every view).
func (p *PMDPool) InstallRule(r flowtable.Rule) {
	if p.shared {
		p.pmds[0].InstallRule(r)
		return
	}
	for _, sw := range p.pmds {
		sw.InstallRule(r)
	}
}

// Steer returns the PMD index RSS would pick for the key.
func (p *PMDPool) Steer(k flow.Key) int {
	return int(k.Hash() % uint64(len(p.pmds)))
}

// ProcessFrames is the pool's ingress: one pass extracts and hashes the
// burst — RSS needs the hashes, so the pool always asks for them, and
// they steer *and* feed each PMD's batched tier walk — then each PMD's
// share runs as one sub-burst on its own goroutine, the actual
// parallelism of a multi-queue NIC. Each PMD sees its subsequence in
// input order, and decisions land in out (grown if needed) in frame
// order.
//
// Malformed frames never reach a PMD's classifier: each gets a Deny
// decision and is billed (Packets, ParseError) to PMD 0, the default
// queue a NIC steers unparseable frames to since RSS has no fields to
// hash. The pool does no per-port byte/packet accounting on any path —
// ports are a single-switch concept the pool does not replicate — so use
// Switch.ProcessFrames where port counters matter. Not safe for
// concurrent use.
func (p *PMDPool) ProcessFrames(now uint64, fb *FrameBatch, out []Decision) []Decision {
	n := fb.Len()
	out = GrowDecisions(out, n)
	if n == 0 {
		return out
	}
	keys, hashes, errs, bad := fb.extract(true)
	var idx []int
	if bad > 0 {
		keys, hashes = fb.compactValid(keys, hashes, errs)
		idx = fb.validIdx
		pmd0 := p.pmds[0]
		pmd0.counters.Packets += uint64(bad)
		pmd0.counters.ParseError += uint64(bad)
		for i, err := range errs {
			if err != nil {
				out[i] = denyDecision()
			}
		}
	}
	p.steerLanes(keys, hashes, idx)
	p.runLanes(now, out)
	return out
}

// MasksPerPMD reports each PMD's megaflow mask count — the per-core view
// of the attack's footprint. On a shared pool every PMD sees the same
// sharded cache, so each slot reports the global distinct-mask count.
func (p *PMDPool) MasksPerPMD() []int {
	out := make([]int, len(p.pmds))
	for i, sw := range p.pmds {
		if mf := sw.Megaflow(); mf != nil {
			out[i] = mf.NumMasks()
		} else if smf := sw.ShardedMegaflow(); smf != nil {
			out[i] = smf.NumMasks()
		}
	}
	return out
}
