package revalidator

import (
	"sync"
	"testing"

	"policyinject/internal/dataplane"
	"policyinject/internal/flowtable"
	"policyinject/internal/guard"
)

// TestLimitCutPublishedToTier: the round that cuts the adaptive flow
// limit must publish it to the tier in the same Tick, so inserts racing
// the next round are already bounded by the new limit. Before the
// pushLimit fix the tier kept the stale limit until the next sweep and
// a burst could momentarily overshoot it.
func TestLimitCutPublishedToTier(t *testing.T) {
	sw := dataplane.New("pushlimit", dataplane.WithoutEMC())
	exactRules(func(r flowtable.Rule) { sw.InstallRule(r) }, 128)
	rev := New(Config{DumpRate: 4, Workers: 1, FlowLimit: 64, MinFlowLimit: 8})
	rev.Attach(sw)
	for i := 0; i < 32; i++ {
		sw.ProcessKey(0, key(i))
	}
	// Duration 32/4 = 8 against interval 1: a hard overrun, the limit
	// cuts from 64 to 8 at the end of this round.
	rev.Tick(1)
	if got := rev.FlowLimit(); got != 8 {
		t.Fatalf("adaptive limit %d after the overrun round, want 8", got)
	}
	if tier, rv := sw.Megaflow().FlowLimit(), rev.FlowLimit(); tier != rv {
		t.Fatalf("tier flow limit %d lags the revalidator's %d after the cut", tier, rv)
	}
	// An insert between rounds is judged against the cut limit: 32
	// residents over a limit of 8 means no new megaflow lands.
	before := sw.Counters().InstallErr
	sw.ProcessKey(1, key(100))
	if got := sw.Megaflow().Len(); got != 32 {
		t.Fatalf("%d megaflows after an over-limit insert, want 32 (refused)", got)
	}
	if got := sw.Counters().InstallErr; got != before+1 {
		t.Fatalf("install errors %d, want %d (over-limit insert refused)", got, before+1)
	}
}

// TestPushLimitConcurrentWithProcessFrames: limit cuts are published to
// tiers mid-traffic under the shared datapath lock. Run with -race: the
// publish takes each target's lock, so it cannot tear against a
// ProcessFrames install reading the limit.
func TestPushLimitConcurrentWithProcessFrames(t *testing.T) {
	sw := testSwitch("pushrace", dataplane.WithoutEMC())
	var mu sync.Mutex
	// DumpRate 1 with 32 resident flows overruns every round, so the
	// limit is cut (and pushed) while frames are in flight.
	rev := New(Config{MaxIdle: 2, Workers: 2, DumpRate: 1, FlowLimit: 64, MinFlowLimit: 8})
	rev.AttachLocked(sw, &mu)
	sw2 := testSwitch("pushrace2", dataplane.WithoutEMC())
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
	if tier, rv := sw.Megaflow().FlowLimit(), rev.FlowLimit(); tier != rv {
		t.Fatalf("tier flow limit %d diverged from the revalidator's %d", tier, rv)
	}
	if got := sw.Megaflow().Len(); got > rev.FlowLimit() {
		t.Fatalf("%d megaflows resident over the %d limit", got, rev.FlowLimit())
	}
}

// TestAdaptLimitRecoveryRegrows: after an attack collapses the limit to
// the floor, sustained healthy dumps with real demand regrow it — at
// least 90% of the pre-attack ceiling within a bounded round count, and
// monotonically (no sawtooth on a healthy datapath).
func TestAdaptLimitRecoveryRegrows(t *testing.T) {
	const (
		min, max, step = 2000, 200000, 1000
		interval       = 5.0
	)
	limit := max
	for round := 0; round < 50 && limit > min; round++ {
		// Dumps 20x over budget: the attack phase.
		limit = AdaptLimit(limit, limit, 20*interval, interval, min, max, step)
	}
	if limit != min {
		t.Fatalf("attack did not collapse the limit to the %d floor: %d", min, limit)
	}
	// Recovery: every dump finishes fast and demand stays high.
	rounds := 0
	for prev := limit; rounds < 250; rounds++ {
		limit = AdaptLimit(limit, 150000, 1.0, interval, min, max, step)
		if limit < prev {
			t.Fatalf("round %d: healthy limit regressed %d -> %d", rounds, prev, limit)
		}
		prev = limit
		if float64(limit) >= 0.9*max {
			break
		}
	}
	if float64(limit) < 0.9*max {
		t.Fatalf("limit only regrew to %d (%.0f%% of %d) in %d healthy rounds",
			limit, 100*float64(limit)/max, int(max), rounds)
	}
	t.Logf("regrew to %d (>=90%% of %d) in %d healthy rounds", limit, int(max), rounds)
}

// TestKillSwitchCollapsesIdleSweep wires the real guard.KillSwitch into
// the revalidator via Config.Overload: once the previous round's flow
// count exceeds twice the limit, the collapsed idle deadline
// mass-expires the cache in one sweep, and the switch recovers after
// two clear rounds with the trip-to-clear duration on record.
func TestKillSwitchCollapsesIdleSweep(t *testing.T) {
	sw := dataplane.New("killswitch", dataplane.WithoutEMC())
	exactRules(func(r flowtable.Rule) { sw.InstallRule(r) }, 64)
	k := guard.NewKillSwitch(guard.KillSwitchConfig{})
	rev := New(Config{MaxIdle: 100, FixedLimit: true, FlowLimit: 8, Workers: 1, Overload: k})
	rev.Attach(sw)
	for i := 0; i < 32; i++ {
		sw.ProcessKey(0, key(i))
	}
	rev.Tick(1) // sees no prior dump; counts 32 flows, trims to the limit
	if got := sw.Megaflow().Len(); got != 8 {
		t.Fatalf("%d megaflows after the trim round, want 8", got)
	}
	if k.Engaged() {
		t.Fatal("kill-switch engaged before the first dump reported")
	}
	rev.Tick(2) // previous round saw 32 > 2*8: trip, collapse, mass-expire
	if !k.Engaged() || k.Trips() != 1 {
		t.Fatalf("engaged=%v trips=%d after the overload round, want tripped", k.Engaged(), k.Trips())
	}
	if got := sw.Megaflow().Len(); got != 0 {
		t.Fatalf("collapsed idle sweep left %d megaflows, want 0", got)
	}
	rev.Tick(3) // previous round saw 8 <= 1.25*8: clear, deadline restored
	if k.Engaged() {
		t.Fatal("kill-switch still engaged after a clear round")
	}
	rev.Tick(4) // second clear round: recovery declared
	if k.Engaged() || k.Recoveries() != 1 {
		t.Fatalf("engaged=%v recoveries=%d, want one closed recovery", k.Engaged(), k.Recoveries())
	}
	if got := k.LastRecoveryTicks(); got != 2 {
		t.Fatalf("recovery took %d ticks, want 2 (trip at 2, clear streak at 4)", got)
	}
}
