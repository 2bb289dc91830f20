// Package chaos is the deterministic fault-injection harness of the
// scenario runner: seed-driven injectors that wrap the existing
// datapath and revalidator seams and break them on a schedule, so
// degradation-and-recovery becomes a declarative, expectation-checked
// experiment instead of a hand-run incident.
//
// Five fault kinds are modelled, each keyed to a window of the
// scenario's logical clock:
//
//   - stall-revalidator: maintenance rounds are skipped for the window
//     (the timeline loop asks StallRevalidator before Tick).
//   - drop-upcalls: a slow-path install is refused with probability
//     Prob — the handler-queue overflow of a saturated upcall path.
//   - delay-upcalls: installs are held back Delay ticks before landing,
//     so the slow path keeps re-resolving the flow meanwhile.
//   - slow-scan: megaflow scan costs are inflated by Factor — a
//     pathological subtable walk without the masks to show for it.
//   - ct-fill: the conntrack table is filled to capacity with synthetic
//     connections, so real commits bounce off a full table.
//
// All randomness comes from one splitmix64 stream seeded by the
// scenario seed; the same pack and seed replays the same faults
// byte-for-byte.
//
//lint:deterministic
package chaos

import (
	"fmt"

	"policyinject/internal/burst"
	"policyinject/internal/cache"
	"policyinject/internal/conntrack"
	"policyinject/internal/dataplane"
	"policyinject/internal/flow"
	"policyinject/internal/metrics"
)

// Fault kinds.
const (
	KindStallRevalidator = "stall-revalidator"
	KindDropUpcalls      = "drop-upcalls"
	KindDelayUpcalls     = "delay-upcalls"
	KindSlowScan         = "slow-scan"
	KindCtFill           = "ct-fill"
)

// Kinds lists every supported fault kind (the scenario binder's
// validation set).
var Kinds = []string{KindStallRevalidator, KindDropUpcalls, KindDelayUpcalls, KindSlowScan, KindCtFill}

// Fault is one scheduled fault: active on logical ticks in [Start,
// Stop), or from Start onward when Stop is 0.
type Fault struct {
	Kind  string
	Start int
	Stop  int
	// Prob is drop-upcalls' per-install drop probability (default 1).
	Prob float64
	// Delay is delay-upcalls' hold-back in ticks (default 1).
	Delay uint64
	// Factor is slow-scan's cost multiplier (default 4).
	Factor float64
}

func (f *Fault) active(now uint64) bool {
	return now >= uint64(f.Start) && (f.Stop == 0 || now < uint64(f.Stop))
}

// Config seeds an injector.
type Config struct {
	Seed   uint64
	Faults []Fault
}

// Stats counts the faults actually fired.
type Stats struct {
	DroppedUpcalls uint64 // installs refused by drop-upcalls
	DelayedUpcalls uint64 // installs held back by delay-upcalls
	LandedDelayed  uint64 // held-back installs that later landed
	StalledRounds  uint64 // revalidator ticks suppressed
	SlowScans      uint64 // lookups whose scan cost was inflated
	CtFilled       uint64 // synthetic conntrack commits
}

// Injector schedules the configured faults against one datapath. Wire
// it with dataplane.WithTierWrapper(inj.WrapTier) for the cache-side
// faults, ask StallRevalidator before each revalidator Tick, and call
// FillConntrack once per tick when a conntrack table exists.
type Injector struct {
	cfg   Config
	rng   uint64
	stats Stats

	delayed []delayedInstall
	ctNext  uint32 // next synthetic connection ordinal
}

// delayedInstall is one held-back megaflow install.
type delayedInstall struct {
	match flow.Match
	v     cache.Verdict
	due   uint64
}

// ErrInjected is returned for installs refused or deferred by a fault,
// so install-error counters attribute them like any real failure.
var ErrInjected = fmt.Errorf("chaos: injected install fault")

// New validates the fault list and builds an injector.
func New(cfg Config) (*Injector, error) {
	for i := range cfg.Faults {
		f := &cfg.Faults[i]
		known := false
		for _, k := range Kinds {
			if f.Kind == k {
				known = true
				break
			}
		}
		if !known {
			return nil, fmt.Errorf("chaos: unknown fault kind %q", f.Kind)
		}
		if f.Stop != 0 && f.Stop <= f.Start {
			return nil, fmt.Errorf("chaos: fault %s: stop %d must be after start %d", f.Kind, f.Stop, f.Start)
		}
		if f.Prob < 0 || f.Prob > 1 {
			return nil, fmt.Errorf("chaos: fault %s: prob %g outside [0,1]", f.Kind, f.Prob)
		}
		if f.Prob == 0 {
			f.Prob = 1
		}
		if f.Delay == 0 {
			f.Delay = 1
		}
		if f.Factor == 0 {
			f.Factor = 4
		}
		if f.Factor < 1 {
			return nil, fmt.Errorf("chaos: fault %s: factor %g must be >= 1", f.Kind, f.Factor)
		}
	}
	return &Injector{cfg: cfg, rng: cfg.Seed ^ 0x9e3779b97f4a7c15}, nil
}

// splitmix64: one deterministic draw.
func (inj *Injector) draw() uint64 {
	inj.rng += 0x9e3779b97f4a7c15
	z := inj.rng
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return z ^ (z >> 31)
}

// drawFloat returns a uniform draw in [0, 1).
func (inj *Injector) drawFloat() float64 { return float64(inj.draw()>>11) / (1 << 53) }

// faultFor returns the first active fault of the kind, or nil.
func (inj *Injector) faultFor(kind string, now uint64) *Fault {
	for i := range inj.cfg.Faults {
		f := &inj.cfg.Faults[i]
		if f.Kind == kind && f.active(now) {
			return f
		}
	}
	return nil
}

// StallRevalidator reports whether this tick's maintenance round should
// be suppressed.
func (inj *Injector) StallRevalidator(now uint64) bool {
	if inj.faultFor(KindStallRevalidator, now) == nil {
		return false
	}
	inj.stats.StalledRounds++
	return true
}

// FillConntrack tops the table up to capacity with synthetic
// connections while a ct-fill fault is active. The tuples are
// deterministic (a 10.254/16 counter) and age out through the table's
// own idle expiry after the window closes.
func (inj *Injector) FillConntrack(now uint64, ct *conntrack.Table) {
	if ct == nil || inj.faultFor(KindCtFill, now) == nil {
		return
	}
	for ct.Len() < ct.Cap() {
		n := inj.ctNext
		inj.ctNext++
		src := fmt.Sprintf("10.254.%d.%d", byte(n>>8), byte(n))
		ft := conntrack.MustTuple(src, "10.255.0.1", 6, uint16(2000+n%60000), 9)
		if !ct.Commit(ft, now) {
			break
		}
		inj.stats.CtFilled++
	}
}

// Observe records the injector's cumulative gauges at logical time t.
func (inj *Injector) Observe(tl *metrics.Group, t float64) {
	tl.Observe(t, "chaos_dropped", float64(inj.stats.DroppedUpcalls))
	tl.Observe(t, "chaos_delayed", float64(inj.stats.DelayedUpcalls))
	tl.Observe(t, "chaos_stalled", float64(inj.stats.StalledRounds))
}

// Summary returns the end-of-run fault counters, keyed the way scenario
// packs assert on them.
func (inj *Injector) Summary() map[string]float64 {
	return map[string]float64{
		"chaos_dropped_upcalls": float64(inj.stats.DroppedUpcalls),
		"chaos_delayed_upcalls": float64(inj.stats.DelayedUpcalls),
		"chaos_landed_delayed":  float64(inj.stats.LandedDelayed),
		"chaos_stalled_rounds":  float64(inj.stats.StalledRounds),
		"chaos_slow_scans":      float64(inj.stats.SlowScans),
		"chaos_ct_filled":       float64(inj.stats.CtFilled),
	}
}

// megaflowTier is the full capability set of the authoritative megaflow
// tier; the wrapper mirrors it exactly so capability discovery in
// dataplane.New sees the wrapped tier as the real thing.
type megaflowTier interface {
	dataplane.BatchTier
	dataplane.RunCoalescer
	dataplane.LimitedTier
	dataplane.RevalidatableTier
	dataplane.MegaflowInstaller
	Megaflow() *cache.Megaflow
}

// WrapTier is the dataplane.WithTierWrapper hook: authoritative megaflow
// tiers come back wrapped with the install/scan faults, every other tier
// passes through untouched.
func (inj *Injector) WrapTier(t dataplane.Tier) dataplane.Tier {
	mt, ok := t.(megaflowTier)
	if !ok {
		return t
	}
	return &faultyMegaflow{inj: inj, inner: mt}
}

// faultyMegaflow forwards the full megaflow tier capability set,
// injecting install drops/delays and scan-cost inflation.
type faultyMegaflow struct {
	inj   *Injector
	inner megaflowTier

	costScratch []int
}

// flushDue lands held-back installs whose due time has arrived. Install
// errors at landing time (flow limit, quotas) are absorbed: the upcall
// already paid for the delay.
func (f *faultyMegaflow) flushDue(now uint64) {
	if len(f.inj.delayed) == 0 {
		return
	}
	kept := f.inj.delayed[:0]
	for _, d := range f.inj.delayed {
		if d.due > now {
			kept = append(kept, d)
			continue
		}
		if _, err := f.inner.InsertMegaflow(d.match, d.v, d.due); err == nil {
			f.inj.stats.LandedDelayed++
		}
	}
	f.inj.delayed = kept
}

func (f *faultyMegaflow) Name() string                         { return f.inner.Name() }
func (f *faultyMegaflow) Path() dataplane.Path                 { return f.inner.Path() }
func (f *faultyMegaflow) Install(k flow.Key, ent *cache.Entry) { f.inner.Install(k, ent) }
func (f *faultyMegaflow) Flush()                               { f.inner.Flush() }
func (f *faultyMegaflow) EvictIdle(deadline uint64) int        { return f.inner.EvictIdle(deadline) }
func (f *faultyMegaflow) Stats() dataplane.TierStats           { return f.inner.Stats() }
func (f *faultyMegaflow) FlowLimit() int                       { return f.inner.FlowLimit() }
func (f *faultyMegaflow) SetFlowLimit(n int)                   { f.inner.SetFlowLimit(n) }
func (f *faultyMegaflow) TrimToLimit() int                     { return f.inner.TrimToLimit() }
func (f *faultyMegaflow) Megaflow() *cache.Megaflow            { return f.inner.Megaflow() }

func (f *faultyMegaflow) Revalidate(check func(*cache.Entry) (cache.Verdict, bool)) int {
	return f.inner.Revalidate(check)
}

func (f *faultyMegaflow) AccountRun(ent *cache.Entry, n int, cost int, now uint64) bool {
	return f.inner.AccountRun(ent, n, cost, now)
}

func (f *faultyMegaflow) Lookup(k flow.Key, now uint64) (*cache.Entry, int, bool) {
	f.flushDue(now)
	ent, cost, ok := f.inner.Lookup(k, now)
	return ent, f.slowScan(cost, now), ok
}

// Reprobe takes Lookup's faults: installs due land first (through the
// inner tier's InsertMegaflow, so its Reprobe sees them), the cost inflates.
func (f *faultyMegaflow) Reprobe(k flow.Key, now uint64) (*cache.Entry, int, bool) {
	f.flushDue(now)
	ent, cost, ok := f.inner.Reprobe(k, now)
	return ent, f.slowScan(cost, now), ok
}

// slowScan inflates one scalar lookup's cost inside a slow-scan window.
func (f *faultyMegaflow) slowScan(cost int, now uint64) int {
	if sf := f.inj.faultFor(KindSlowScan, now); sf != nil && cost > 0 {
		cost = int(float64(cost) * sf.Factor)
		f.inj.stats.SlowScans++
	}
	return cost
}

func (f *faultyMegaflow) LookupBatch(keys []flow.Key, hashes []uint64, now uint64, ents []*cache.Entry, costs []int, miss *burst.Bitmap) {
	f.flushDue(now)
	sf := f.inj.faultFor(KindSlowScan, now)
	if sf == nil {
		f.inner.LookupBatch(keys, hashes, now, ents, costs, miss)
		return
	}
	// Snapshot the incoming costs so only this tier's share inflates.
	if cap(f.costScratch) < len(costs) {
		f.costScratch = make([]int, len(costs))
	}
	before := f.costScratch[:len(costs)]
	copy(before, costs)
	f.inner.LookupBatch(keys, hashes, now, ents, costs, miss)
	for i := range costs {
		if d := costs[i] - before[i]; d > 0 {
			costs[i] = before[i] + int(float64(d)*sf.Factor)
			f.inj.stats.SlowScans++
		}
	}
}

func (f *faultyMegaflow) InsertMegaflow(match flow.Match, v cache.Verdict, now uint64) (*cache.Entry, error) {
	f.flushDue(now)
	if df := f.inj.faultFor(KindDropUpcalls, now); df != nil && f.inj.drawFloat() < df.Prob {
		f.inj.stats.DroppedUpcalls++
		return nil, ErrInjected
	}
	if df := f.inj.faultFor(KindDelayUpcalls, now); df != nil {
		f.inj.delayed = append(f.inj.delayed, delayedInstall{match: match, v: v, due: now + df.Delay})
		f.inj.stats.DelayedUpcalls++
		return nil, ErrInjected
	}
	return f.inner.InsertMegaflow(match, v, now)
}
