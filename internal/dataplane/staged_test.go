package dataplane_test

import (
	"testing"

	"policyinject/internal/attack"
	"policyinject/internal/dataplane"
	"policyinject/internal/flow"
	"policyinject/internal/flowtable"
)

// attackSwitch builds a switch carrying the paper's two-field attack ACL
// (scoped to the attacker port 66) plus a victim whitelist on port 1 —
// the same scenario the benchmarks use.
func attackSwitch(t *testing.T, opts ...dataplane.Option) *dataplane.Switch {
	t.Helper()
	return attackSwitchFor(t, attack.TwoField(), opts...)
}

// attackSwitchFor is attackSwitch under atk's ACL.
func attackSwitchFor(t *testing.T, atk *attack.Attack, opts ...dataplane.Option) *dataplane.Switch {
	t.Helper()
	sw := dataplane.New("staged-conf", opts...)
	var vm flow.Match
	vm.Key.Set(flow.FieldInPort, 1)
	vm.Mask.SetExact(flow.FieldInPort)
	vm.Key.Set(flow.FieldEthType, flow.EthTypeIPv4)
	vm.Mask.SetExact(flow.FieldEthType)
	vm.Key.Set(flow.FieldIPSrc, 0x0a0a0000)
	vm.Mask.SetPrefix(flow.FieldIPSrc, 24)
	sw.InstallRule(flowtable.Rule{Match: vm, Priority: 100, Action: flowtable.Action{Verdict: flowtable.Allow}})
	var dm flow.Match
	dm.Key.Set(flow.FieldInPort, 1)
	dm.Mask.SetExact(flow.FieldInPort)
	sw.InstallRule(flowtable.Rule{Match: dm, Priority: 0})
	theACL, err := atk.BuildACL()
	if err != nil {
		t.Fatal(err)
	}
	rules, err := theACL.Compile()
	if err != nil {
		t.Fatal(err)
	}
	for _, r := range rules {
		r.Match.Key.Set(flow.FieldInPort, 66)
		r.Match.Mask.SetExact(flow.FieldInPort)
		sw.InstallRule(r)
	}
	return sw
}

func covertKeys(t *testing.T) []flow.Key {
	t.Helper()
	return covertKeysFor(t, attack.TwoField())
}

// covertKeysFor is atk's covert stream on the attacker's port.
func covertKeysFor(t *testing.T, atk *attack.Attack) []flow.Key {
	t.Helper()
	keys, err := atk.Keys()
	if err != nil {
		t.Fatal(err)
	}
	for i := range keys {
		keys[i].Set(flow.FieldInPort, 66)
	}
	return keys
}

func victimKeys(n int) []flow.Key {
	out := make([]flow.Key, n)
	for i := range out {
		out[i].Set(flow.FieldInPort, 1)
		out[i].Set(flow.FieldEthType, flow.EthTypeIPv4)
		out[i].Set(flow.FieldIPProto, flow.ProtoTCP)
		out[i].Set(flow.FieldIPSrc, uint64(0x0a0a0001+i%8))
		out[i].Set(flow.FieldIPDst, 0xac100002)
		out[i].Set(flow.FieldTPSrc, uint64(40000+i))
		out[i].Set(flow.FieldTPDst, 5201)
	}
	return out
}

// TestStagedSwitchEqualsUnpruned pins the whole-switch conformance
// contract of staged pruning under the real policy-injection attack: a
// staged-pruning switch must agree with the flat-scan switch on every
// decision (verdict and answering tier), per-tier hit counters, upcall
// counts and cache population, across scalar and batched driving — the
// pruned sweep changes cost, never semantics.
func TestStagedSwitchEqualsUnpruned(t *testing.T) {
	flat := attackSwitch(t, dataplane.WithoutEMC())
	pruned := attackSwitch(t, dataplane.WithoutEMC(), dataplane.WithStagedPruning())
	covert := covertKeys(t)
	victim := victimKeys(64)

	check := func(step string, a, b dataplane.Decision) {
		t.Helper()
		if a.Verdict != b.Verdict || a.Path != b.Path {
			t.Fatalf("%s: flat {v=%v path=%v} vs pruned {v=%v path=%v}",
				step, a.Verdict, a.Path, b.Verdict, b.Path)
		}
	}

	// Scalar phase: the covert stream executes first (as in the paper's
	// timeline), so the victim's megaflows install *behind* the resident
	// mask ladder; then victim traffic warms up.
	now := uint64(1)
	for _, k := range covert {
		check("covert scalar", flat.ProcessKey(now, k), pruned.ProcessKey(now, k))
	}
	for _, v := range victim {
		check("victim scalar", flat.ProcessKey(now, v), pruned.ProcessKey(now, v))
	}

	// Batched phase: victim bursts and mixed bursts against the resident
	// mask ladder.
	now++
	var fb dataplane.FrameBatch
	var outF, outP []dataplane.Decision
	for round := 0; round < 4; round++ {
		burst := append([]flow.Key{}, victim...)
		if round%2 == 1 {
			burst = append(burst, covert[:32]...)
		}
		outF = flat.ProcessFrames(now, dataplane.KeyBurst(&fb, burst), outF)
		outP = pruned.ProcessFrames(now, &fb, outP)
		for i := range burst {
			check("burst", outF[i], outP[i])
		}
	}

	cf, cp := flat.Counters(), pruned.Counters()
	if cf.Packets != cp.Packets || cf.Upcalls != cp.Upcalls ||
		cf.Allowed != cp.Allowed || cf.Denied != cp.Denied {
		t.Fatalf("counters diverge:\n flat   %+v\n pruned %+v", cf, cp)
	}
	for _, th := range cf.TierHits {
		if got := cp.HitsFor(th.Tier); got != th.Hits {
			t.Fatalf("tier %q hits: flat %d, pruned %d", th.Tier, th.Hits, got)
		}
	}
	mfF, mfP := flat.Megaflow(), pruned.Megaflow()
	if mfF.Len() != mfP.Len() || mfF.NumMasks() != mfP.NumMasks() {
		t.Fatalf("cache population diverges: flat %d/%d, pruned %d/%d",
			mfF.Len(), mfF.NumMasks(), mfP.Len(), mfP.NumMasks())
	}
	if mfP.SubtablePrunes == 0 {
		t.Fatal("pruned switch never pruned a subtable under the mask ladder")
	}

	// The headline mechanism: every attack-minted mask pins the
	// attacker's in_port and carries port bits, so warm victim traffic
	// rejects the whole covert ladder via the signature and ports
	// prefilters — a multi-x cut in subtables probed vs the flat scan.
	visitsBefore := mfP.SubtableVisits
	scansBefore := mfF.MasksScanned
	outF = flat.ProcessFrames(now+1, dataplane.KeyBurst(&fb, victim), outF)
	outP = pruned.ProcessFrames(now+1, &fb, outP)
	for i := range victim {
		check("victim-only burst", outF[i], outP[i])
	}
	visits := mfP.SubtableVisits - visitsBefore
	scans := mfF.MasksScanned - scansBefore
	if visits*4 > scans {
		t.Fatalf("pruning too weak on victim traffic: %d visits vs %d flat scans", visits, scans)
	}
}

// TestStagedMaintenanceKeepsSwitchConsistent runs idle eviction and a
// policy-change flush on a staged switch and checks traffic still
// classifies correctly afterwards (the staged prefilters must follow the
// megaflow population through every maintenance path).
func TestStagedMaintenanceKeepsSwitchConsistent(t *testing.T) {
	s := attackSwitch(t, dataplane.WithoutEMC(), dataplane.WithStagedPruning())
	covert := covertKeys(t)
	victim := victimKeys(64)
	for _, k := range covert {
		s.ProcessKey(1, k)
	}
	for _, k := range victim {
		s.ProcessKey(5, k)
	}
	// Idle-evict the covert population (last hit at 1 < deadline 3).
	if evicted := s.Megaflow().EvictIdle(3); evicted == 0 {
		t.Fatal("idle sweep evicted nothing")
	}
	for _, k := range victim {
		if d := s.ProcessKey(6, k); d.Verdict.Verdict != flowtable.Allow {
			t.Fatalf("victim denied after idle sweep: %+v", d)
		}
	}
	// Policy change: caches flush wholesale; traffic must reinstall.
	var extra flow.Match
	extra.Key.Set(flow.FieldInPort, 7)
	extra.Mask.SetExact(flow.FieldInPort)
	s.InstallRule(flowtable.Rule{Match: extra, Priority: 1})
	if s.Megaflow().Len() != 0 {
		t.Fatal("policy change did not flush the megaflow cache")
	}
	for _, k := range victim {
		if d := s.ProcessKey(7, k); d.Verdict.Verdict != flowtable.Allow {
			t.Fatalf("victim denied after flush: %+v", d)
		}
	}
}
