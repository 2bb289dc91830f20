// Package revalidator is the control-plane maintenance actor of the
// datapath: the model of OVS's udpif revalidator threads. Where the
// dataplane packages only expose the *mechanisms* of cache maintenance
// (Tier.EvictIdle, Megaflow.Revalidate, the dynamic flow limit), this
// package owns the *policy*: a clock-driven actor that periodically dumps
// the flows of every attached datapath, shards the dump across N workers,
// expires idle and hard-timed-out entries, re-checks cached verdicts
// against the slow path, and — the part the paper's attack economics hinge
// on — adapts the megaflow flow limit to the measured dump duration.
//
// The flow-limit heuristic is OVS's (ofproto-dpif-upcall.c): a dump that
// takes more than twice its interval slashes the limit proportionally, a
// moderately late dump cuts it to 3/4, and a healthy dump regrows it by a
// fixed step while demand warrants — bounded to [MinFlowLimit, FlowLimit].
// Under a tuple-space-explosion stream the heuristic turns on its owner:
// the attacker's flows slow the dump, the dump slashes the limit, the next
// dump trims thousands of resident flows by staleness, and the collapsed
// limit then refuses every install beyond the floor — so all traffic past
// the surviving flow set (the attacker's wide tail, but equally any new
// victim connection) is locked out of the cache and pays a full slow-path
// upcall per packet, for as long as the dump stays slow. The flow-limit
// figure plots the collapse and the trim; the steady state it settles
// into is the lockout.
//
// Time is the caller's logical clock, as everywhere in this repo: drive
// the actor with Tick(now) from the experiment timeline and every run is
// deterministic. Dump *duration* is logical too — flows dumped divided by
// the configured per-worker dump rate — so the backoff dynamics are a
// property of the scenario, not of the host the test runs on.
//
//lint:deterministic
package revalidator

import (
	"fmt"
	"sync"

	"policyinject/internal/cache"
	"policyinject/internal/classifier"
	"policyinject/internal/conntrack"
	"policyinject/internal/dataplane"
	"policyinject/internal/flowtable"
	"policyinject/internal/metrics"
	"policyinject/internal/telemetry"
)

// Target is one datapath instance under revalidator maintenance;
// dataplane.Switch satisfies it. Optional capabilities are discovered by
// type assertion: a Conntrack() *conntrack.Table method gets its table
// expired each round, and a Classifier() *classifier.Classifier method
// enables the policy consistency pass on revalidatable tiers.
type Target interface {
	Name() string
	Tiers() []dataplane.Tier
}

// conntracked and slowpathed are the optional Target capabilities.
type conntracked interface{ Conntrack() *conntrack.Table }
type slowpathed interface{ Classifier() *classifier.Classifier }

// Config tunes the revalidator. The zero value models stock OVS at one
// logical unit per second: rounds every unit, 10-unit max-idle, adaptive
// flow limit between 2000 and the datapath default of 200000.
type Config struct {
	// Workers is the number of revalidator threads sharing each dump
	// (default 2). Targets are sharded round-robin across workers and
	// swept concurrently; the dump-duration model divides the flow count
	// by Workers regardless, as OVS's revalidators all pull from one
	// shared dump.
	Workers int
	// Interval is the logical time between dump rounds (default 1; OVS
	// wakes its revalidators every 500 ms).
	Interval uint64
	// MaxIdle is the idle timeout applied via Tier.EvictIdle (default 10,
	// the OVS max-idle of 10 s).
	MaxIdle uint64
	// MaxHard, when positive, expires entries MaxHard units after install
	// regardless of activity (stock OVS has no hard timeout).
	MaxHard uint64
	// DumpRate is how many flows one worker dumps (and re-checks) per
	// logical unit; it converts flows dumped into the logical dump
	// duration the flow-limit heuristic feeds on. Default 10000 — high
	// enough that small experiments never self-sabotage; scenarios
	// modelling a slow dump path set it low.
	DumpRate float64
	// FlowLimit is the flow-limit ceiling and starting value (default
	// cache.DefaultFlowLimit). The revalidator owns the limit of every
	// attached LimitedTier: it overwrites the tier's own configured limit
	// on the first round.
	FlowLimit int
	// MinFlowLimit is the backoff floor (default 2000, as in OVS).
	MinFlowLimit int
	// GrowStep is the per-round regrowth when dumps are healthy (default
	// 1000, as in OVS).
	GrowStep int
	// FixedLimit disables the adaptive heuristic: the limit stays at
	// FlowLimit. This is the A/B knob the mitigation comparison flips.
	FixedLimit bool
	// PolicyCheck enables the consistency pass: every dumped entry is
	// re-classified against the target's slow path and flushed when the
	// verdict changed. Off by default — this repo's dataplane flushes
	// caches wholesale on rule changes, so the pass is usually redundant
	// (but it is the honest cost model for DumpRate).
	PolicyCheck bool
	// Overload, when set, is consulted at the start of every round with
	// the previous round's dumped-flow count and may substitute the idle
	// deadline the round sweeps with — the ofproto-dpif-upcall
	// kill-switch hook (guard.KillSwitch implements it).
	Overload OverloadController
}

// OverloadController is the per-round overload hook: given the previous
// round's flow count, the current flow limit and the configured MaxIdle,
// it returns the idle deadline this round should use.
type OverloadController interface {
	RoundMaxIdle(now uint64, flows, limit int, maxIdle uint64) uint64
}

func (c *Config) setDefaults() {
	if c.Workers <= 0 {
		c.Workers = 2
	}
	if c.Interval == 0 {
		c.Interval = 1
	}
	if c.MaxIdle == 0 {
		c.MaxIdle = 10
	}
	if c.DumpRate <= 0 {
		c.DumpRate = 10000
	}
	if c.FlowLimit == 0 {
		c.FlowLimit = cache.DefaultFlowLimit
	}
	if c.MinFlowLimit == 0 {
		c.MinFlowLimit = 2000
	}
	if c.MinFlowLimit > c.FlowLimit {
		c.MinFlowLimit = c.FlowLimit
	}
	if c.GrowStep <= 0 {
		c.GrowStep = 1000
	}
}

// RoundStats describes one dump round.
type RoundStats struct {
	At            uint64  // logical time the round ran
	Flows         int     // flows dumped (entries resident at dump start)
	Duration      float64 // logical dump duration: Flows / (DumpRate * Workers)
	Overrun       bool    // Duration exceeded twice the interval
	IdleEvicted   int     // entries expired by the idle sweep
	LimitEvicted  int     // entries trimmed by the flow-limit staleness sweep
	PolicyFlushed int     // entries flushed by the consistency/hard-timeout pass
	FlowLimit     int     // flow limit after this round's adaptation
}

// WorkerStats is one worker's share of the last round.
type WorkerStats struct {
	Targets       int
	Flows         int
	IdleEvicted   int
	LimitEvicted  int
	PolicyFlushed int
}

// Stats is a snapshot of the revalidator's state and counters.
type Stats struct {
	Rounds    uint64
	FlowLimit int
	Adaptive  bool
	Interval  uint64
	Workers   int

	Last      RoundStats    // the most recent round
	PerWorker []WorkerStats // the most recent round, per worker

	// Cumulative counters across all rounds.
	TotalFlows         uint64
	TotalIdleEvicted   uint64
	TotalLimitEvicted  uint64
	TotalPolicyFlushed uint64
	Overruns           uint64
}

func (s Stats) String() string {
	mode := "adaptive"
	if !s.Adaptive {
		mode = "fixed"
	}
	return fmt.Sprintf(
		"revalidator: %d workers, interval %d, %d rounds (%d overruns), flow limit %d (%s); last dump: %d flows in %.2f units, evicted idle=%d limit=%d policy=%d",
		s.Workers, s.Interval, s.Rounds, s.Overruns, s.FlowLimit, mode,
		s.Last.Flows, s.Last.Duration, s.Last.IdleEvicted, s.Last.LimitEvicted, s.Last.PolicyFlushed)
}

// target pairs an attached Target with its optional lock.
type target struct {
	t  Target
	mu sync.Locker
}

// Revalidator is the clock-driven maintenance actor. Attach targets, then
// drive it with Tick(now) from the experiment's timeline loop. Tick itself
// must be called from one goroutine at a time; within a round, targets
// attached with AttachLocked may be swept concurrently with datapath
// traffic serialized by the same lock.
type Revalidator struct {
	cfg     Config
	limit   int
	next    uint64
	started bool
	targets []target

	stats   Stats
	deltas  []roundDelta // per-worker scratch, reused each round
	workers []WorkerStats

	tel *revTelemetry // live instruments, nil without SetTelemetry
}

// roundDelta accumulates one worker's sweep results.
type roundDelta struct {
	targets, flows, idle, limit, policy int
}

// New builds a revalidator per cfg (zero value: stock OVS shape).
func New(cfg Config) *Revalidator {
	cfg.setDefaults()
	return &Revalidator{cfg: cfg, limit: cfg.FlowLimit}
}

// Attach puts a target under maintenance. The revalidator assumes the
// caller serializes datapath traffic and Tick externally (the timeline
// loops do, by construction).
func (r *Revalidator) Attach(t Target) { r.targets = append(r.targets, target{t: t}) }

// AttachLocked is Attach for a target that is processed concurrently with
// maintenance: the sweep takes mu for the duration of the target's dump,
// and the datapath driver must hold the same lock around its
// Process/ProcessFrames calls — one coarse mutex serializing the whole
// switch against its own maintenance.
//
// For sharded switches this is superseded by AttachSharded: the sweep
// then takes only per-shard locks, excluding one shard's readers at a
// time instead of the whole datapath, and no driver-side lock is needed
// at all. Keep AttachLocked for unsharded targets that must be swept
// concurrently with traffic.
func (r *Revalidator) AttachLocked(t Target, mu sync.Locker) {
	r.targets = append(r.targets, target{t: t, mu: mu})
}

// ShardedTarget is a datapath exposing per-shard revalidation targets —
// dataplane.Switch with a WithShards hierarchy satisfies it
// (Switch.ShardTargets returns nil on unsharded hierarchies, which
// AttachSharded reports as 0 targets attached).
type ShardedTarget interface {
	ShardTargets() []*dataplane.ShardTarget
}

// AttachSharded attaches every shard of a sharded datapath as its own
// dump target, returning how many were attached. The round-robin worker
// assignment then spreads the shards across revalidator threads, and
// each shard's sweep runs under that shard's write lock only — datapath
// traffic keeps flowing on every other shard (and on the swept shard's
// insert path as soon as the sweep releases it). This supersedes
// AttachLocked for sharded switches; no driver-side locking is
// required.
func (r *Revalidator) AttachSharded(t ShardedTarget) int {
	sts := t.ShardTargets()
	for _, st := range sts {
		r.Attach(st)
	}
	return len(sts)
}

// AttachPool attaches every PMD of a pool as its own dump shard, so the
// round-robin worker assignment spreads the per-core caches across the
// revalidator threads. A shared pool (NewSharedPMDPool) attaches its one
// sharded switch shard-by-shard instead — every view sees the same
// tiers, so attaching each PMD would sweep the same caches N times.
func (r *Revalidator) AttachPool(p *dataplane.PMDPool) {
	if p.Shared() {
		sw := p.PMD(0)
		if r.AttachSharded(sw) == 0 {
			// Custom ConcurrentTier hierarchy without shard targets:
			// sweep it whole (its tiers accept concurrent maintenance).
			r.Attach(sw)
		}
		return
	}
	for i := 0; i < p.N(); i++ {
		r.Attach(p.PMD(i))
	}
}

// FlowLimit returns the current (possibly backed-off) flow limit.
func (r *Revalidator) FlowLimit() int { return r.limit }

// Stats returns a snapshot of the revalidator's counters.
func (r *Revalidator) Stats() Stats {
	s := r.stats
	s.FlowLimit = r.limit
	s.Adaptive = !r.cfg.FixedLimit
	s.Interval = r.cfg.Interval
	s.Workers = r.cfg.Workers
	s.PerWorker = append([]WorkerStats(nil), r.workers...)
	return s
}

// Observe records the revalidator's gauges into a metrics group at logical
// time t — the hook the timeline experiments call once per tick.
func (r *Revalidator) Observe(g *metrics.Group, t float64) {
	g.Observe(t, "flow_limit", float64(r.limit))
	g.Observe(t, "dump_units", r.stats.Last.Duration)
	g.Observe(t, "flows_dumped", float64(r.stats.Last.Flows))
	g.Observe(t, "evicted_idle", float64(r.stats.Last.IdleEvicted))
	g.Observe(t, "evicted_limit", float64(r.stats.Last.LimitEvicted))
}

// Tick advances the actor to logical time now, running a dump round when
// one is due. Returns whether a round ran. The first Tick always runs a
// round; subsequent rounds run every Interval units.
func (r *Revalidator) Tick(now uint64) bool {
	if r.started && now < r.next {
		return false
	}
	r.started = true
	r.next = now + r.cfg.Interval
	r.runRound(now)
	return true
}

// runRound shards the attached targets across the workers, sweeps each
// shard (concurrently when there is real work to parallelise), then feeds
// the measured dump duration to the flow-limit heuristic.
func (r *Revalidator) runRound(now uint64) {
	var wall0 uint64
	if r.tel != nil {
		wall0 = telemetry.Clock()
	}
	w := r.cfg.Workers
	if cap(r.deltas) < w {
		r.deltas = make([]roundDelta, w)
		r.workers = make([]WorkerStats, w)
	}
	r.deltas = r.deltas[:w]
	for i := range r.deltas {
		r.deltas[i] = roundDelta{}
	}

	// The overload hook sees the previous round's flow count — the most
	// recent dump the actor has, one round of lag, fully deterministic —
	// and may collapse this round's idle deadline (the kill-switch).
	maxIdle := r.cfg.MaxIdle
	if r.cfg.Overload != nil {
		maxIdle = r.cfg.Overload.RoundMaxIdle(now, r.stats.Last.Flows, r.limit, maxIdle)
	}

	if len(r.targets) > 1 && w > 1 {
		var wg sync.WaitGroup
		for wi := 0; wi < w && wi < len(r.targets); wi++ {
			wg.Add(1)
			go func(wi int) {
				defer wg.Done()
				r.sweepShard(now, wi, maxIdle)
			}(wi)
		}
		wg.Wait()
	} else {
		for wi := 0; wi < w && wi < len(r.targets); wi++ {
			r.sweepShard(now, wi, maxIdle)
		}
	}

	var total roundDelta
	r.workers = r.workers[:w]
	for wi, d := range r.deltas {
		total.flows += d.flows
		total.idle += d.idle
		total.limit += d.limit
		total.policy += d.policy
		r.workers[wi] = WorkerStats{
			Targets: d.targets, Flows: d.flows,
			IdleEvicted: d.idle, LimitEvicted: d.limit, PolicyFlushed: d.policy,
		}
	}

	duration := float64(total.flows) / (r.cfg.DumpRate * float64(w))
	interval := float64(r.cfg.Interval)
	overrun := duration > 2*interval
	if !r.cfg.FixedLimit {
		prev := r.limit
		r.limit = AdaptLimit(r.limit, total.flows, duration, interval,
			r.cfg.MinFlowLimit, r.cfg.FlowLimit, r.cfg.GrowStep)
		if r.limit != prev {
			// Publish the adapted limit to the tiers immediately, under
			// their locks. The sweeps above applied the *previous* limit;
			// without this push, installs racing in before the next round
			// are admitted against the stale (higher) value and the cache
			// momentarily exceeds a freshly cut limit. The next round's
			// TrimToLimit still owns the eviction side.
			r.pushLimit()
		}
	}

	r.stats.Rounds++
	r.stats.TotalFlows += uint64(total.flows)
	r.stats.TotalIdleEvicted += uint64(total.idle)
	r.stats.TotalLimitEvicted += uint64(total.limit)
	r.stats.TotalPolicyFlushed += uint64(total.policy)
	if overrun {
		r.stats.Overruns++
	}
	r.stats.Last = RoundStats{
		At: now, Flows: total.flows, Duration: duration, Overrun: overrun,
		IdleEvicted: total.idle, LimitEvicted: total.limit, PolicyFlushed: total.policy,
		FlowLimit: r.limit,
	}
	if r.tel != nil {
		r.tel.record(&r.stats.Last, telemetry.Clock()-wall0)
	}
}

// pushLimit publishes the current flow limit to every attached limited
// tier, taking each target's lock — the between-rounds half of a limit
// adaptation (TrimToLimit stays with the next round's sweep).
func (r *Revalidator) pushLimit() {
	for i := range r.targets {
		tg := &r.targets[i]
		if tg.mu != nil {
			tg.mu.Lock()
		}
		for _, tier := range tg.t.Tiers() {
			if lt, ok := tier.(dataplane.LimitedTier); ok {
				lt.SetFlowLimit(r.limit)
			}
		}
		if tg.mu != nil {
			tg.mu.Unlock()
		}
	}
}

// sweepShard sweeps every target assigned to worker wi (round-robin by
// attach order), accumulating into the worker's delta slot.
func (r *Revalidator) sweepShard(now uint64, wi int, maxIdle uint64) {
	d := &r.deltas[wi]
	for ti := wi; ti < len(r.targets); ti += r.cfg.Workers {
		r.sweepTarget(now, &r.targets[ti], d, maxIdle)
		d.targets++
	}
}

// sweepTarget runs one target's share of the dump round: conntrack expiry,
// the idle sweep, the flow-limit staleness trim, and (when enabled) the
// policy/hard-timeout consistency pass.
func (r *Revalidator) sweepTarget(now uint64, tg *target, d *roundDelta, maxIdle uint64) {
	if tg.mu != nil {
		tg.mu.Lock()
		defer tg.mu.Unlock()
	}
	if ct, ok := tg.t.(conntracked); ok {
		if tbl := ct.Conntrack(); tbl != nil {
			tbl.Expire(now)
		}
	}
	check := r.checkFor(tg.t, now)
	for _, tier := range tg.t.Tiers() {
		lt, limited := tier.(dataplane.LimitedTier)
		if limited {
			// The flows the dump walks: the authoritative tier's residents
			// at round start, before any sweep shrinks them.
			d.flows += lt.Stats().Entries
		}
		if now >= maxIdle {
			d.idle += tier.EvictIdle(now - maxIdle)
		}
		if limited {
			lt.SetFlowLimit(r.limit)
			d.limit += lt.TrimToLimit()
		}
		if check != nil {
			if rt, ok := tier.(dataplane.RevalidatableTier); ok {
				d.policy += rt.Revalidate(check)
			}
		}
	}
}

// checkFor builds the consistency-pass predicate for a target: hard-timeout
// expiry plus (when PolicyCheck is on and the target exposes its slow
// path) re-classification of the entry's key. nil when neither applies.
func (r *Revalidator) checkFor(t Target, now uint64) func(*cache.Entry) (cache.Verdict, bool) {
	var cls *classifier.Classifier
	if r.cfg.PolicyCheck {
		if sp, ok := t.(slowpathed); ok {
			cls = sp.Classifier()
		}
	}
	hard := r.cfg.MaxHard
	if cls == nil && hard == 0 {
		return nil
	}
	return func(e *cache.Entry) (cache.Verdict, bool) {
		if hard > 0 && now >= hard && e.Added < now-hard {
			return e.Verdict, false
		}
		if cls == nil {
			return e.Verdict, true
		}
		res := cls.Lookup(e.Key)
		v := cache.Verdict{Verdict: flowtable.Deny}
		if res.Rule != nil {
			v = res.Rule.Action
		}
		return v, true
	}
}

// AdaptLimit applies OVS's udpif flow-limit heuristic to one dump round
// and returns the new limit, clamped to [min, max]:
//
//   - a dump taking more than twice its interval cuts the limit by the
//     overrun factor (duration/interval);
//   - a dump taking more than 4/3 of the interval cuts it to 3/4;
//   - a dump finishing inside the interval regrows the limit by growStep,
//     but only while demand warrants (limit below flows scaled by the
//     observed dump headroom) — an empty datapath does not regrow.
//
// Exposed as a pure function so the backoff/regrow property tests can
// drive it directly.
func AdaptLimit(limit, flows int, duration, interval float64, min, max, growStep int) int {
	if interval > 0 && duration > 0 {
		switch {
		case duration > 2*interval:
			limit = int(float64(limit) * interval / duration)
		case duration > interval*4/3:
			limit = limit * 3 / 4
		case duration < interval && float64(limit) < float64(flows)*interval/duration:
			limit += growStep
		}
	}
	if limit > max {
		limit = max
	}
	if limit < min {
		limit = min
	}
	return limit
}
