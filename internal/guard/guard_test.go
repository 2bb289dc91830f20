package guard

import (
	"errors"
	"testing"

	"policyinject/internal/flow"
)

// TestKillSwitchTripAndRecovery drives the kill-switch through a full
// episode: trip at 2x pressure, collapsed idle while hot, restore on
// clear, recovery declared after two consecutive clear rounds with the
// trip-to-clear duration recorded.
func TestKillSwitchTripAndRecovery(t *testing.T) {
	k := NewKillSwitch(KillSwitchConfig{})
	const maxIdle = 10

	if got := k.RoundMaxIdle(0, 100, 1000, maxIdle); got != maxIdle {
		t.Fatalf("calm round: maxIdle %d, want %d", got, maxIdle)
	}
	if got := k.RoundMaxIdle(5, 2500, 1000, maxIdle); got != 1 {
		t.Fatalf("tripped round: maxIdle %d, want collapsed 1", got)
	}
	if !k.Engaged() || k.Trips() != 1 {
		t.Fatalf("engaged=%v trips=%d, want engaged once", k.Engaged(), k.Trips())
	}
	// Still over the clear threshold: stays collapsed.
	if got := k.RoundMaxIdle(10, 1500, 1000, maxIdle); got != 1 {
		t.Fatalf("hot round: maxIdle %d, want collapsed 1", got)
	}
	// Clear round 1: restores the deadline but recovery is still open.
	if got := k.RoundMaxIdle(15, 1000, 1000, maxIdle); got != maxIdle {
		t.Fatalf("clear round: maxIdle %d, want restored %d", got, maxIdle)
	}
	if k.Engaged() || !k.recovering || k.Recoveries() != 0 {
		t.Fatalf("after first clear: engaged=%v recovering=%v recoveries=%d", k.Engaged(), k.recovering, k.Recoveries())
	}
	// Clear round 2: recovery completes, duration = 20 - 5.
	k.RoundMaxIdle(20, 900, 1000, maxIdle)
	if k.recovering || k.Recoveries() != 1 || k.LastRecoveryTicks() != 15 {
		t.Fatalf("after second clear: recovering=%v recoveries=%d ticks=%d, want recovered in 15",
			k.recovering, k.Recoveries(), k.LastRecoveryTicks())
	}
}

// TestKillSwitchRetripKeepsClock: a re-trip inside an open recovery
// episode re-engages without restarting the recovery clock.
func TestKillSwitchRetripKeepsClock(t *testing.T) {
	k := NewKillSwitch(KillSwitchConfig{})
	k.RoundMaxIdle(10, 3000, 1000, 10) // trip
	k.RoundMaxIdle(15, 1000, 1000, 10) // clear 1
	k.RoundMaxIdle(20, 3000, 1000, 10) // re-trip
	if k.Trips() != 2 {
		t.Fatalf("trips %d, want 2", k.Trips())
	}
	k.RoundMaxIdle(25, 1000, 1000, 10)
	k.RoundMaxIdle(30, 1000, 1000, 10)
	if k.Recoveries() != 1 || k.LastRecoveryTicks() != 20 {
		t.Fatalf("recoveries=%d ticks=%d, want one 20-tick recovery from the first trip", k.Recoveries(), k.LastRecoveryTicks())
	}
}

// TestAdmissionQueueAndFairDrop: the per-tick queue bound and the
// per-port fair-share quota.
func TestAdmissionQueueAndFairDrop(t *testing.T) {
	a := NewAdmission(AdmissionConfig{QueueDepth: 8, PortQuota: 3, BreakerTripAfter: -1})
	// Port 1 gets its quota, then fair-drops.
	for i := 0; i < 3; i++ {
		if !a.AdmitUpcall(0, 1) {
			t.Fatalf("port 1 upcall %d refused inside quota", i)
		}
	}
	if a.AdmitUpcall(0, 1) {
		t.Fatal("port 1 upcall over quota admitted")
	}
	// Other ports still admitted until the queue fills.
	admitted := 0
	for port := uint32(2); port <= 10; port++ {
		for i := 0; i < 3; i++ {
			if a.AdmitUpcall(0, port) {
				admitted++
			}
		}
	}
	if admitted != 5 { // queue depth 8 minus port 1's 3
		t.Fatalf("admitted %d after port 1, want 5 (queue depth)", admitted)
	}
	st := a.Stats()
	if st.FairDropped != 1 || st.Admitted != 8 {
		t.Fatalf("stats %+v, want 8 admitted / 1 fair drop", st)
	}
	// Next tick: fresh budget.
	if !a.AdmitUpcall(1, 1) {
		t.Fatal("port 1 refused on a fresh tick")
	}
}

// TestAdmissionBreakerCycle: sustained saturation opens the breaker,
// backoff doubles on failed probes, a clean probe round re-closes.
func TestAdmissionBreakerCycle(t *testing.T) {
	a := NewAdmission(AdmissionConfig{QueueDepth: 1, PortQuota: 1, BreakerTripAfter: 2, BreakerBackoff: 2, HalfOpenProbes: 1})
	saturate := func(now uint64) {
		a.AdmitUpcall(now, 1)
		a.AdmitUpcall(now, 2) // over depth: a drop, the tick reads saturated
	}
	saturate(0)
	saturate(1)
	// Tick 2 finalizes tick 1: two saturated ticks, breaker opens.
	if a.AdmitUpcall(2, 1) {
		t.Fatal("admitted while breaker should be open")
	}
	if st := a.Stats(); st.State != "open" || st.BreakerTrips != 1 {
		t.Fatalf("stats %+v, want open after 1 trip", st)
	}
	// Backoff 2 from tick 1: half-open at tick 3, one probe admitted.
	if !a.AdmitUpcall(4, 1) {
		t.Fatal("half-open probe refused")
	}
	if a.AdmitUpcall(4, 2) {
		t.Fatal("second upcall admitted past the probe budget")
	}
	// The probe tick was saturated (the refused second upcall): reopen
	// with doubled backoff.
	a.AdmitUpcall(5, 1)
	if st := a.Stats(); st.State != "open" || st.BreakerTrips != 2 {
		t.Fatalf("stats %+v, want reopened", st)
	}
	// Doubled backoff 4 from tick 4: half-open at tick 8; one clean
	// probe closes it.
	if !a.AdmitUpcall(8, 1) {
		t.Fatal("second half-open probe refused")
	}
	a.AdmitUpcall(9, 1)
	if st := a.Stats(); st.State != "closed" {
		t.Fatalf("stats %+v, want closed after clean probe round", st)
	}
}

// portMatch builds a match with an exact in_port and a src-dependent
// mask shape, so distinct srcs mint distinct masks.
func portMatch(port uint32, src uint64) flow.Match {
	var m flow.Match
	m.Key.Set(flow.FieldInPort, uint64(port))
	m.Key.Set(flow.FieldIPSrc, src)
	var k flow.Key
	k.Set(flow.FieldInPort, fullPort)
	k.Set(flow.FieldIPSrc, 0xffffffff>>(src%16))
	m.Mask = flow.Mask(k)
	m.Normalize()
	return m
}

// TestMaskLedgerQuotaIsolation: the attacker exhausts its quota and is
// refused; the victim tenant keeps minting; drops refund the budget.
func TestMaskLedgerQuotaIsolation(t *testing.T) {
	l := NewMaskLedger(MaskQuotaConfig{PerTenant: 2})
	l.BindPort(1, "victim")
	l.BindPort(2, "mallory")

	mint := func(port uint32, src uint64) flow.Match {
		m := portMatch(port, src)
		if err := l.AdmitMask(m); err != nil {
			t.Fatalf("mint port %d src %d refused: %v", port, src, err)
		}
		l.MaskMinted(m)
		return m
	}
	m1 := mint(2, 1)
	mint(2, 2)
	if err := l.AdmitMask(portMatch(2, 3)); !errors.Is(err, ErrMaskQuota) {
		t.Fatalf("mallory over quota: err %v, want ErrMaskQuota", err)
	}
	if l.Rejects() != 1 || l.live["mallory"] != 2 {
		t.Fatalf("rejects=%d live=%d, want 1/2", l.Rejects(), l.live["mallory"])
	}
	// The victim is not charged for mallory's masks.
	mint(1, 5)
	mint(1, 6)
	if l.live["victim"] != 2 {
		t.Fatalf("victim live %d, want 2", l.live["victim"])
	}
	// Dropping a mallory mask refunds the quota.
	l.MaskDropped(m1.Mask)
	if err := l.AdmitMask(portMatch(2, 3)); err != nil {
		t.Fatalf("mallory refused after refund: %v", err)
	}
	// Unbound ports and wildcard in_port masks are exempt.
	if err := l.AdmitMask(portMatch(99, 1)); err != nil {
		t.Fatalf("unbound port refused: %v", err)
	}
	wild := portMatch(2, 50)
	k := flow.Key(wild.Mask)
	k.Set(flow.FieldInPort, 0)
	wild.Mask = flow.Mask(k)
	if tenant := l.tenantForLocked(wild); tenant != "" {
		t.Fatalf("wildcard in_port attributed to %q", tenant)
	}
}

// TestGuardSummaryKeys: only configured guards contribute summary keys.
func TestGuardSummaryKeys(t *testing.T) {
	g := New(Config{KillSwitch: &KillSwitchConfig{}})
	sum := g.Summary()
	if _, ok := sum["killswitch_trips"]; !ok {
		t.Fatal("killswitch summary key missing")
	}
	if _, ok := sum["upcalls_dropped"]; ok {
		t.Fatal("admission key present without admission guard")
	}
}
