package revalidator

import (
	"math/rand"
	"net/netip"
	"sync"
	"testing"

	"policyinject/internal/cache"
	"policyinject/internal/dataplane"
	"policyinject/internal/flow"
	"policyinject/internal/flowtable"
	"policyinject/internal/metrics"
	"policyinject/internal/pkt"
)

// testSwitch builds a switch with an allow-all slow path (one wildcard
// megaflow covers everything — enough for the plumbing tests).
func testSwitch(name string, opts ...dataplane.Option) *dataplane.Switch {
	sw := dataplane.New(name, opts...)
	sw.InstallRule(flowtable.Rule{Priority: 0, Action: flowtable.Action{Verdict: flowtable.Allow}})
	return sw
}

// exactRules installs n allow rules exact-matching ip_src, so key(i) mints
// its own megaflow and the cache population tracks the traffic — what the
// dump/trim tests need.
func exactRules(install func(flowtable.Rule), n int) {
	for i := 0; i < n; i++ {
		var m flow.Match
		m.Key.Set(flow.FieldIPSrc, 0x0a000000|uint64(i))
		m.Mask.SetExact(flow.FieldIPSrc)
		install(flowtable.Rule{Match: m, Priority: 10, Action: flowtable.Action{Verdict: flowtable.Allow}})
	}
	install(flowtable.Rule{Priority: 0})
}

// key returns a distinct TCP flow key.
func key(i int) flow.Key {
	var k flow.Key
	k.Set(flow.FieldInPort, 1)
	k.Set(flow.FieldEthType, flow.EthTypeIPv4)
	k.Set(flow.FieldIPProto, flow.ProtoTCP)
	k.Set(flow.FieldIPSrc, 0x0a000000|uint64(i))
	k.Set(flow.FieldIPDst, 0xac100002)
	k.Set(flow.FieldTPSrc, 1024+uint64(i)%60000)
	k.Set(flow.FieldTPDst, 5201)
	return k
}

// TestActorMatchesLegacySweep is the conformance property: on idle traffic
// the clock-driven actor (one round per tick, defaults otherwise) leaves
// the datapath in exactly the state the legacy inline RunRevalidator sweep
// does, tick for tick.
func TestActorMatchesLegacySweep(t *testing.T) {
	legacy := dataplane.New("conf")
	actor := dataplane.New("conf") // same name: same EMC seed, same draws
	exactRules(func(r flowtable.Rule) { legacy.InstallRule(r) }, 64)
	exactRules(func(r flowtable.Rule) { actor.InstallRule(r) }, 64)
	rev := New(Config{})
	rev.Attach(actor)

	// Traffic with staggered last-hit times, then idle: installs at t=0,
	// a partial refresh at t=4, silence after.
	for i := 0; i < 64; i++ {
		legacy.ProcessKey(0, key(i))
		actor.ProcessKey(0, key(i))
	}
	for i := 0; i < 16; i++ {
		legacy.ProcessKey(4, key(i))
		actor.ProcessKey(4, key(i))
	}
	for now := uint64(0); now <= 40; now++ {
		legacyEv := legacy.RunRevalidator(now)
		rev.Tick(now)
		if lm, am := legacy.Megaflow().Len(), actor.Megaflow().Len(); lm != am {
			t.Fatalf("t=%d: legacy %d megaflows, actor %d", now, lm, am)
		}
		if lm, am := legacy.Megaflow().NumMasks(), actor.Megaflow().NumMasks(); lm != am {
			t.Fatalf("t=%d: legacy %d masks, actor %d", now, lm, am)
		}
		if legacyEv > 0 && rev.Stats().Last.IdleEvicted != legacyEv {
			t.Fatalf("t=%d: legacy evicted %d, actor %d", now, legacyEv, rev.Stats().Last.IdleEvicted)
		}
	}
	if got := actor.Megaflow().Len(); got != 0 {
		t.Fatalf("idle traffic should fully age out, %d megaflows left", got)
	}
	st := rev.Stats()
	if st.Rounds != 41 {
		t.Fatalf("rounds = %d, want 41 (one per tick at interval 1)", st.Rounds)
	}
	if st.Overruns != 0 {
		t.Fatalf("overruns = %d on a 64-flow dump at the default rate", st.Overruns)
	}
}

// TestTickHonoursInterval: rounds run on the configured cadence only.
func TestTickHonoursInterval(t *testing.T) {
	rev := New(Config{Interval: 5})
	rev.Attach(testSwitch("cadence"))
	ran := 0
	for now := uint64(0); now < 20; now++ {
		if rev.Tick(now) {
			ran++
		}
	}
	if ran != 4 { // t = 0, 5, 10, 15
		t.Fatalf("ran %d rounds in 20 ticks at interval 5, want 4", ran)
	}
}

// TestFlowLimitCutTrimsResidents: cutting the limit below the resident
// count evicts the stalest flows on the next dump — not just rejects new
// inserts — and the warm flows survive.
func TestFlowLimitCutTrimsResidents(t *testing.T) {
	sw := dataplane.New("trim", dataplane.WithoutEMC())
	exactRules(func(r flowtable.Rule) { sw.InstallRule(r) }, 64)
	// A dump rate low enough that 64 flows overrun a 1-unit interval
	// hard: duration 64/4 = 16 > 2, limit cut by 1/16 per round.
	rev := New(Config{DumpRate: 4, Workers: 1, MinFlowLimit: 8, FlowLimit: 64})
	rev.Attach(sw)
	for i := 0; i < 64; i++ {
		sw.ProcessKey(0, key(i))
	}
	// Keep flows 0..3 warm so staleness ordering has a survivor set.
	for i := 0; i < 4; i++ {
		sw.ProcessKey(1, key(i))
	}
	rev.Tick(1) // measures the overrun, cuts the limit
	if rev.FlowLimit() >= 64 {
		t.Fatalf("limit did not back off: %d", rev.FlowLimit())
	}
	rev.Tick(2) // applies the cut limit and trims
	st := rev.Stats()
	if st.TotalLimitEvicted == 0 {
		t.Fatal("no flows trimmed after the limit cut")
	}
	if got, limit := sw.Megaflow().Len(), rev.FlowLimit(); got > limit {
		t.Fatalf("%d megaflows resident over the %d limit after the trim dump", got, limit)
	}
	for i := 0; i < 4; i++ {
		if _, _, ok := sw.Megaflow().Lookup(key(i), 3); !ok {
			t.Fatalf("warm flow %d was trimmed while stale flows survived", i)
		}
	}
}

// TestAdaptLimitBackoffRegrowProperties drives the pure heuristic with
// random rounds and checks its invariants: the limit stays in bounds, an
// overrun always backs off (unless floored), a moderately late dump cuts
// to 3/4, and a healthy dump with demand regrows by exactly the step.
func TestAdaptLimitBackoffRegrowProperties(t *testing.T) {
	const (
		min, max, step = 2000, 200000, 1000
		interval       = 5.0
	)
	rng := rand.New(rand.NewSource(42))
	limit := max
	for round := 0; round < 10000; round++ {
		flows := rng.Intn(300000)
		duration := float64(flows) / (100 + rng.Float64()*10000)
		next := AdaptLimit(limit, flows, duration, interval, min, max, step)
		if next < min || next > max {
			t.Fatalf("round %d: limit %d out of [%d, %d]", round, next, min, max)
		}
		switch {
		case duration > 2*interval:
			if next >= limit && limit > min {
				t.Fatalf("round %d: overrun (d=%.1f) did not back off: %d -> %d", round, duration, limit, next)
			}
		case duration > interval*4/3:
			if want := clamp(limit*3/4, min, max); next != want {
				t.Fatalf("round %d: late dump: %d -> %d, want %d", round, limit, next, want)
			}
		case duration > 0 && duration < interval && float64(limit) < float64(flows)*interval/duration:
			if want := clamp(limit+step, min, max); next != want {
				t.Fatalf("round %d: healthy+demand: %d -> %d, want %d", round, limit, next, want)
			}
		default:
			if next != clamp(limit, min, max) {
				t.Fatalf("round %d: steady state moved: %d -> %d (d=%.2f flows=%d)", round, limit, next, duration, flows)
			}
		}
		limit = next
	}
}

func clamp(v, min, max int) int {
	if v > max {
		return max
	}
	if v < min {
		return min
	}
	return v
}

// TestAdaptLimitCollapseAndRecovery is the macro shape: sustained overruns
// drive the limit to the floor geometrically; once dumps are healthy and
// demand persists it climbs back one step per round.
func TestAdaptLimitCollapseAndRecovery(t *testing.T) {
	const min, max, step = 2000, 200000, 1000
	limit := max
	rounds := 0
	for limit > min {
		limit = AdaptLimit(limit, 8192, 20.48, 5, min, max, step)
		if rounds++; rounds > 64 {
			t.Fatalf("limit stuck at %d after %d overrun rounds", limit, rounds)
		}
	}
	if rounds > 8 {
		t.Errorf("collapse took %d rounds; the cut should be geometric", rounds)
	}
	// Recovery: healthy dumps, resident flows near the limit.
	for i := 0; i < 10; i++ {
		prev := limit
		limit = AdaptLimit(limit, limit, float64(limit)/10000, 5, min, max, step)
		if limit != prev+step {
			t.Fatalf("healthy round %d: %d -> %d, want +%d", i, prev, limit, step)
		}
	}
}

// TestEmptyDumpDoesNotRegrow: an idle datapath gives the heuristic no
// demand signal, so a collapsed limit stays put instead of creeping back.
func TestEmptyDumpDoesNotRegrow(t *testing.T) {
	if got := AdaptLimit(2000, 0, 0, 5, 2000, 200000, 1000); got != 2000 {
		t.Fatalf("empty dump regrew the limit to %d", got)
	}
}

// makeFrames builds n distinct TCP wire frames: frame i is key(i) on the
// wire.
func makeFrames(t *testing.T, n int) [][]byte {
	t.Helper()
	frames := make([][]byte, n)
	for i := range frames {
		frames[i] = pkt.MustBuild(pkt.Spec{
			Src:     netip.AddrFrom4([4]byte{10, 0, byte(i >> 8), byte(i)}),
			Dst:     netip.MustParseAddr("172.16.0.2"),
			Proto:   pkt.ProtoTCP,
			SrcPort: uint16(1024 + i),
			DstPort: 5201,
		})
	}
	return frames
}

// TestRevalidationConcurrentWithProcessFrames is the race check: a target
// attached with a lock is swept by the actor's workers while the datapath
// processes frame bursts under the same lock. Run with -race.
func TestRevalidationConcurrentWithProcessFrames(t *testing.T) {
	sw := testSwitch("race", dataplane.WithoutEMC())
	var mu sync.Mutex
	rev := New(Config{MaxIdle: 2, Workers: 2, DumpRate: 16})
	rev.AttachLocked(sw, &mu)
	// A second locked target so the round fans out across real worker
	// goroutines.
	sw2 := testSwitch("race2", dataplane.WithoutEMC())
	var mu2 sync.Mutex
	rev.AttachLocked(sw2, &mu2)

	frames := makeFrames(t, 32)
	done := make(chan struct{})
	go func() {
		defer close(done)
		for now := uint64(0); now < 200; now++ {
			rev.Tick(now)
		}
	}()
	var fb dataplane.FrameBatch
	var out []dataplane.Decision
	for now := uint64(0); now < 200; now++ {
		fb.Reset()
		for i := range frames {
			fb.Append(frames[i], 1)
		}
		mu.Lock()
		out = sw.ProcessFrames(now, &fb, out)
		mu.Unlock()
	}
	<-done
	mu.Lock()
	defer mu.Unlock()
	if got := sw.Counters().Packets; got != 200*32 {
		t.Fatalf("processed %d packets, want %d", got, 200*32)
	}
	if rev.Stats().Rounds == 0 {
		t.Fatal("no revalidator rounds ran")
	}
}

// TestAttachPool: every PMD becomes its own dump shard.
func TestAttachPool(t *testing.T) {
	pool := dataplane.NewPMDPool(4, "pool")
	exactRules(pool.InstallRule, 256)
	rev := New(Config{})
	rev.AttachPool(pool)
	if len(rev.targets) != 4 {
		t.Fatalf("attached %d targets, want 4", len(rev.targets))
	}
	var fb dataplane.FrameBatch
	for _, f := range makeFrames(t, 256) {
		fb.Append(f, 1)
	}
	pool.ProcessFrames(0, &fb, nil)
	rev.Tick(0)
	if got := rev.Stats().Last.Flows; got != 256 {
		t.Fatalf("round dumped %d flows across the pool, want 256", got)
	}
	rev.Tick(20) // all idle by now
	total := 0
	for i := 0; i < pool.N(); i++ {
		total += pool.PMD(i).Megaflow().Len()
	}
	if total != 0 {
		t.Fatalf("%d megaflows survived the idle sweep across PMDs", total)
	}
}

// TestObserveRecordsGauges: the metrics hook emits the advertised series.
func TestObserveRecordsGauges(t *testing.T) {
	rev := New(Config{})
	rev.Attach(testSwitch("obs"))
	rev.Tick(0)
	var g metrics.Group
	rev.Observe(&g, 0)
	for _, name := range []string{"flow_limit", "dump_units", "flows_dumped", "evicted_idle", "evicted_limit"} {
		if g.Series(name) == nil {
			t.Errorf("Observe did not record %q", name)
		}
	}
	if got := g.Series("flow_limit").V[0]; got != float64(cache.DefaultFlowLimit) {
		t.Errorf("flow_limit gauge = %g", got)
	}
}
