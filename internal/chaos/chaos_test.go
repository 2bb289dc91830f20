package chaos

import (
	"testing"

	"policyinject/internal/conntrack"
	"policyinject/internal/dataplane"
	"policyinject/internal/flow"
	"policyinject/internal/flowtable"
)

// chaosSwitch builds a switch whose megaflow tier is wrapped by the
// injector, with exact ip_src allow rules so every key mints its own
// megaflow through the slow path.
func chaosSwitch(t *testing.T, inj *Injector) *dataplane.Switch {
	t.Helper()
	sw := dataplane.New("chaos", dataplane.WithoutEMC(), dataplane.WithTierWrapper(inj.WrapTier))
	for i := 0; i < 256; i++ {
		var m flow.Match
		m.Key.Set(flow.FieldIPSrc, 0x0a000000|uint64(i))
		m.Mask.SetExact(flow.FieldIPSrc)
		sw.InstallRule(flowtable.Rule{Match: m, Priority: 10, Action: flowtable.Action{Verdict: flowtable.Allow}})
	}
	sw.InstallRule(flowtable.Rule{Priority: 0})
	return sw
}

func chaosKey(i int) flow.Key {
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

// TestNewValidation rejects malformed fault specs.
func TestNewValidation(t *testing.T) {
	cases := []struct {
		name string
		f    Fault
	}{
		{"unknown kind", Fault{Kind: "melt-cpu"}},
		{"window inverted", Fault{Kind: KindDropUpcalls, Start: 10, Stop: 5}},
		{"prob out of range", Fault{Kind: KindDropUpcalls, Prob: 1.5}},
		{"factor below 1", Fault{Kind: KindSlowScan, Factor: 0.5}},
	}
	for _, tc := range cases {
		if _, err := New(Config{Faults: []Fault{tc.f}}); err == nil {
			t.Errorf("%s: accepted %+v", tc.name, tc.f)
		}
	}
	if _, err := New(Config{Faults: []Fault{{Kind: KindDropUpcalls, Start: 1, Stop: 4, Prob: 0.5}}}); err != nil {
		t.Fatalf("valid fault refused: %v", err)
	}
}

// TestDropUpcallsDeterministic: probabilistic install drops replay
// byte-identically under the same seed, and the fault honours its
// window.
func TestDropUpcallsDeterministic(t *testing.T) {
	run := func(seed uint64) (installErr, dropped uint64, resident int) {
		inj, err := New(Config{Seed: seed, Faults: []Fault{{Kind: KindDropUpcalls, Start: 0, Stop: 5, Prob: 0.5}}})
		if err != nil {
			t.Fatal(err)
		}
		sw := chaosSwitch(t, inj)
		for i := 0; i < 64; i++ {
			sw.ProcessKey(0, chaosKey(i))
		}
		return sw.Counters().InstallErr, inj.stats.DroppedUpcalls, sw.Megaflow().Len()
	}
	e1, d1, r1 := run(7)
	e2, d2, r2 := run(7)
	if e1 != e2 || d1 != d2 || r1 != r2 {
		t.Fatalf("same seed diverged: (%d,%d,%d) vs (%d,%d,%d)", e1, d1, r1, e2, d2, r2)
	}
	if d1 == 0 || d1 == 64 {
		t.Fatalf("prob 0.5 over 64 installs dropped %d — fault not probabilistic", d1)
	}
	if e1 != d1 {
		t.Fatalf("install errors %d do not match injected drops %d", e1, d1)
	}
	if r1 != 64-int(d1) {
		t.Fatalf("%d megaflows resident, want %d (64 minus %d drops)", r1, 64-int(d1), d1)
	}

	// Outside the window the same injector forwards untouched.
	inj, _ := New(Config{Seed: 7, Faults: []Fault{{Kind: KindDropUpcalls, Start: 10, Stop: 20, Prob: 1}}})
	sw := chaosSwitch(t, inj)
	sw.ProcessKey(0, chaosKey(0))
	if sw.Megaflow().Len() != 1 || inj.stats.DroppedUpcalls != 0 {
		t.Fatal("drop fault fired outside its window")
	}
}

// TestDelayUpcallsLand: a delayed install is refused now and lands once
// its due tick arrives, via any later lookup on the tier.
func TestDelayUpcallsLand(t *testing.T) {
	inj, err := New(Config{Faults: []Fault{{Kind: KindDelayUpcalls, Start: 0, Stop: 4, Delay: 3}}})
	if err != nil {
		t.Fatal(err)
	}
	sw := chaosSwitch(t, inj)
	sw.ProcessKey(0, chaosKey(1))
	if got := sw.Megaflow().Len(); got != 0 {
		t.Fatalf("%d megaflows resident during the delay, want 0", got)
	}
	st := inj.stats
	if st.DelayedUpcalls != 1 || st.LandedDelayed != 0 {
		t.Fatalf("stats %+v, want one in-flight delayed install", st)
	}
	// t=2: still before the first install's due tick (0+3); a second
	// upcall queues behind it.
	sw.ProcessKey(2, chaosKey(2))
	if got := sw.Megaflow().Len(); got != 0 {
		t.Fatalf("%d megaflows resident before due, want 0", got)
	}
	// t=3: the first install is due and lands on the lookup path.
	sw.ProcessKey(3, chaosKey(1))
	if got := sw.Megaflow().Len(); got == 0 {
		t.Fatal("delayed install never landed")
	}
	if st := inj.stats; st.LandedDelayed == 0 {
		t.Fatalf("stats %+v, want landed delayed installs", st)
	}
}

// TestSlowScanInflatesCost: scan costs inflate by Factor inside the
// window only.
func TestSlowScanInflatesCost(t *testing.T) {
	inj, err := New(Config{Faults: []Fault{{Kind: KindSlowScan, Start: 10, Stop: 20, Factor: 4}}})
	if err != nil {
		t.Fatal(err)
	}
	sw := chaosSwitch(t, inj)
	sw.ProcessKey(0, chaosKey(1)) // resident megaflow
	base := sw.ProcessKey(1, chaosKey(1)).MasksScanned
	if base == 0 {
		t.Fatal("baseline hit scanned no masks")
	}
	slow := sw.ProcessKey(10, chaosKey(1)).MasksScanned
	if slow != 4*base {
		t.Fatalf("slow-scan cost %d, want %d (4x %d)", slow, 4*base, base)
	}
	after := sw.ProcessKey(20, chaosKey(1)).MasksScanned
	if after != base {
		t.Fatalf("cost %d after the window, want baseline %d", after, base)
	}
	if inj.stats.SlowScans == 0 {
		t.Fatal("no slow scans counted")
	}
}

// TestStallRevalidatorWindow: ticks are suppressed inside the window
// and counted.
func TestStallRevalidatorWindow(t *testing.T) {
	inj, err := New(Config{Faults: []Fault{{Kind: KindStallRevalidator, Start: 5, Stop: 8}}})
	if err != nil {
		t.Fatal(err)
	}
	stalled := 0
	for now := uint64(0); now < 12; now++ {
		if inj.StallRevalidator(now) {
			stalled++
		}
	}
	if stalled != 3 || inj.stats.StalledRounds != 3 {
		t.Fatalf("stalled %d rounds (stats %d), want 3", stalled, inj.stats.StalledRounds)
	}
}

// TestFillConntrack: the table fills to capacity inside the window with
// deterministic synthetic tuples, and stays untouched outside it.
func TestFillConntrack(t *testing.T) {
	inj, err := New(Config{Faults: []Fault{{Kind: KindCtFill, Start: 2, Stop: 4}}})
	if err != nil {
		t.Fatal(err)
	}
	ct := conntrack.New(conntrack.Config{MaxConns: 32, IdleTimeout: 5})
	inj.FillConntrack(0, ct)
	if ct.Len() != 0 {
		t.Fatalf("table filled outside the window: %d", ct.Len())
	}
	inj.FillConntrack(2, ct)
	if ct.Len() != ct.Cap() {
		t.Fatalf("table at %d/%d during ct-fill", ct.Len(), ct.Cap())
	}
	if inj.stats.CtFilled != 32 {
		t.Fatalf("counted %d synthetic commits, want 32", inj.stats.CtFilled)
	}
	// A real commit bounces off the full table.
	real := conntrack.MustTuple("192.168.1.1", "192.168.1.2", 6, 40000, 443)
	if ct.Commit(real, 2) {
		t.Fatal("real commit admitted into a full table")
	}
	// Re-fill within the window only tops up what expired.
	inj.FillConntrack(3, ct)
	if inj.stats.CtFilled != 32 {
		t.Fatalf("refilled an already-full table: %d commits", inj.stats.CtFilled)
	}
}

// TestWrapTierPreservesCapabilities: wrapped megaflow tiers keep the
// full capability surface (the switch still resolves Megaflow() through
// the wrapper) and non-megaflow tiers pass through untouched.
func TestWrapTierPreservesCapabilities(t *testing.T) {
	inj, err := New(Config{})
	if err != nil {
		t.Fatal(err)
	}
	sw := dataplane.New("caps", dataplane.WithTierWrapper(inj.WrapTier))
	if sw.Megaflow() == nil {
		t.Fatal("wrapped switch lost its megaflow accessor")
	}
	sw.InstallRule(flowtable.Rule{Priority: 0, Action: flowtable.Action{Verdict: flowtable.Allow}})
	sw.ProcessKey(0, chaosKey(1))
	if sw.Megaflow().Len() == 0 {
		t.Fatal("no megaflow installed through the fault-free wrapper")
	}
}
