package dataplane

import (
	"net/netip"
	"testing"
	"unsafe"

	"policyinject/internal/cache"
	"policyinject/internal/flow"
	"policyinject/internal/flowtable"
	"policyinject/internal/pkt"
)

// aclSwitch builds a switch with the paper's Fig. 2a ACL installed.
func aclSwitch(opts ...Option) *Switch {
	s := New("br0", opts...)
	var m flow.Match
	m.Key.Set(flow.FieldIPSrc, 0x0a000000)
	m.Mask.SetPrefix(flow.FieldIPSrc, 8)
	s.InstallRule(flowtable.Rule{Match: m, Priority: 10, Action: flowtable.Action{Verdict: flowtable.Allow}})
	s.InstallRule(flowtable.Rule{Priority: 0}) // deny *
	return s
}

func tcpKey(src, dst uint64, sport, dport uint64) flow.Key {
	var k flow.Key
	k.Set(flow.FieldEthType, flow.EthTypeIPv4)
	k.Set(flow.FieldIPProto, flow.ProtoTCP)
	k.Set(flow.FieldIPSrc, src)
	k.Set(flow.FieldIPDst, dst)
	k.Set(flow.FieldTPSrc, sport)
	k.Set(flow.FieldTPDst, dport)
	return k
}

func TestPipelinePathProgression(t *testing.T) {
	s := aclSwitch()
	k := tcpKey(0x0a000001, 0x0a000002, 1234, 80)

	// First packet: slow path (upcall).
	d := s.ProcessKey(1, k)
	if d.Path != PathSlow || d.Verdict.Verdict != flowtable.Allow {
		t.Fatalf("first packet: %+v", d)
	}
	// Second identical packet: EMC.
	d = s.ProcessKey(2, k)
	if d.Path != PathEMC {
		t.Fatalf("second packet path = %v", d.Path)
	}
	// A different flow covered by the same megaflow: megaflow path.
	k2 := tcpKey(0x0a000001, 0x0a000002, 9999, 80)
	d = s.ProcessKey(3, k2)
	if d.Path != PathMegaflow {
		t.Fatalf("sibling flow path = %v (megaflow %v)", d.Path, s.Megaflow())
	}
	// ... and is then itself EMC-cached.
	if d := s.ProcessKey(4, k2); d.Path != PathEMC {
		t.Fatalf("sibling second packet path = %v", d.Path)
	}

	c := s.Counters()
	if c.Upcalls != 1 || c.EMCHits() != 2 || c.MFHits() != 1 || c.Packets != 4 {
		t.Errorf("counters: %+v", c)
	}
}

func TestVerdicts(t *testing.T) {
	s := aclSwitch()
	if d := s.ProcessKey(1, tcpKey(0x0a010101, 0, 1, 2)); d.Verdict.Verdict != flowtable.Allow {
		t.Error("10.1.1.1 should be allowed")
	}
	if d := s.ProcessKey(1, tcpKey(0xc0a80101, 0, 1, 2)); d.Verdict.Verdict != flowtable.Deny {
		t.Error("192.168.1.1 should be denied")
	}
	c := s.Counters()
	if c.Allowed != 1 || c.Denied != 1 {
		t.Errorf("counters: %+v", c)
	}
}

func TestEmptyTableDeniesByDefault(t *testing.T) {
	s := New("br0")
	d := s.ProcessKey(1, tcpKey(1, 2, 3, 4))
	if d.Verdict.Verdict != flowtable.Deny {
		t.Fatal("empty table must default-deny")
	}
}

func TestProcessFrame(t *testing.T) {
	s := aclSwitch()
	s.AddPort(1, "vport1")
	frame := pkt.MustBuild(pkt.Spec{
		Src:     netip.MustParseAddr("10.0.0.1"),
		Dst:     netip.MustParseAddr("10.0.0.9"),
		Proto:   pkt.ProtoTCP,
		SrcPort: 5555,
		DstPort: 80,
	})
	d, err := s.Process(1, 1, frame)
	if err != nil || d.Verdict.Verdict != flowtable.Allow {
		t.Fatalf("d=%+v err=%v", d, err)
	}
	p := s.Port(1)
	if p.RxPackets != 1 || p.RxBytes != uint64(len(frame)) {
		t.Errorf("port stats: %+v", p)
	}
}

func TestProcessFrameParseError(t *testing.T) {
	s := aclSwitch()
	s.AddPort(1, "vport1")
	_, err := s.Process(1, 1, []byte{1, 2, 3})
	if err == nil {
		t.Fatal("truncated frame accepted")
	}
	if s.Counters().ParseError != 1 {
		t.Errorf("counters: %+v", s.Counters())
	}
	if s.Port(1).RxDropped != 1 {
		t.Errorf("port drop not counted")
	}
}

func TestDeniedFrameCountsAsPortDrop(t *testing.T) {
	s := aclSwitch()
	s.AddPort(1, "vport1")
	frame := pkt.MustBuild(pkt.Spec{
		Src:   netip.MustParseAddr("192.168.0.1"),
		Dst:   netip.MustParseAddr("10.0.0.9"),
		Proto: pkt.ProtoUDP, SrcPort: 1, DstPort: 2,
	})
	if _, err := s.Process(1, 1, frame); err != nil {
		t.Fatal(err)
	}
	if s.Port(1).RxDropped != 1 {
		t.Error("deny verdict not counted as port drop")
	}
}

func TestInstallRuleFlushesCaches(t *testing.T) {
	s := aclSwitch()
	k := tcpKey(0xc0a80001, 0, 1, 2) // currently denied
	if d := s.ProcessKey(1, k); d.Verdict.Verdict != flowtable.Deny {
		t.Fatal("precondition")
	}
	// Install an allow for 192.168/16; caches must not serve stale deny.
	var m flow.Match
	m.Key.Set(flow.FieldIPSrc, 0xc0a80000)
	m.Mask.SetPrefix(flow.FieldIPSrc, 16)
	s.InstallRule(flowtable.Rule{Match: m, Priority: 20, Action: flowtable.Action{Verdict: flowtable.Allow}})

	if d := s.ProcessKey(2, k); d.Verdict.Verdict != flowtable.Allow {
		t.Fatal("stale deny served from cache after policy change")
	}
	if s.EMC().Len() != 1 {
		t.Errorf("EMC len = %d after flush+1 packet", s.EMC().Len())
	}
}

func TestRemoveRuleFlushesCaches(t *testing.T) {
	s := New("br0")
	var m flow.Match
	m.Key.Set(flow.FieldIPSrc, 0x0a000000)
	m.Mask.SetPrefix(flow.FieldIPSrc, 8)
	allow := s.InstallRule(flowtable.Rule{Match: m, Priority: 10, Action: flowtable.Action{Verdict: flowtable.Allow}})
	s.InstallRule(flowtable.Rule{Priority: 0})

	k := tcpKey(0x0a000001, 0, 1, 2)
	if d := s.ProcessKey(1, k); d.Verdict.Verdict != flowtable.Allow {
		t.Fatal("precondition")
	}
	if !s.RemoveRule(allow) {
		t.Fatal("RemoveRule failed")
	}
	if d := s.ProcessKey(2, k); d.Verdict.Verdict != flowtable.Deny {
		t.Fatal("stale allow served after rule removal")
	}
	if s.RemoveRule(allow) {
		t.Fatal("double remove succeeded")
	}
}

func TestRevalidatorEvictsIdleMegaflows(t *testing.T) {
	s := aclSwitch(WithMaxIdle(10))
	s.ProcessKey(1, tcpKey(0x0a000001, 0, 1, 2))
	s.ProcessKey(1, tcpKey(0xc0000001, 0, 1, 2))
	if s.Megaflow().Len() != 2 {
		t.Fatalf("megaflows = %d", s.Megaflow().Len())
	}
	// Keep the first alive, let the second idle out.
	s.ProcessKey(15, tcpKey(0x0a000001, 0, 3, 4)) // megaflow hit refreshes
	if evicted := s.RunRevalidator(22); evicted != 1 {
		t.Fatalf("evicted = %d", evicted)
	}
	if s.Megaflow().Len() != 1 {
		t.Fatalf("megaflows after reval = %d", s.Megaflow().Len())
	}
}

func TestRevalidatorEarlyClock(t *testing.T) {
	s := aclSwitch(WithMaxIdle(10))
	s.ProcessKey(1, tcpKey(0x0a000001, 0, 1, 2))
	if evicted := s.RunRevalidator(5); evicted != 0 {
		t.Fatalf("evicted = %d before idle horizon", evicted)
	}
}

func TestInstallErrCountedOnFlowLimit(t *testing.T) {
	s := New("br0", WithMegaflow(cache.MegaflowConfig{FlowLimit: 1}))
	s.InstallRule(flowtable.Rule{Priority: 0}) // deny *
	s.ProcessKey(1, tcpKey(1, 0, 0, 0))
	// Second distinct flow: the megaflow cache is full. (With an empty
	// catch-all rule both packets synthesise the same megaflow, so force
	// distinct masks via an ip_src allow rule.)
	var m flow.Match
	m.Key.Set(flow.FieldIPSrc, 0x0a000001)
	m.Mask.SetExact(flow.FieldIPSrc)
	s.InstallRule(flowtable.Rule{Match: m, Priority: 5, Action: flowtable.Action{Verdict: flowtable.Allow}})
	s.ProcessKey(2, tcpKey(0x80000000, 0, 0, 0)) // diverges at bit 0
	s.ProcessKey(3, tcpKey(0x40000000, 0, 0, 0)) // diverges at bit 1 -> new mask, cache full
	if got := s.Counters().InstallErr; got != 1 {
		t.Errorf("InstallErr = %d, want 1\n%s", got, s)
	}
}

func TestPorts(t *testing.T) {
	s := New("br-int")
	p1 := s.AddPort(1, "a")
	if s.AddPort(1, "dup") != p1 {
		t.Error("duplicate AddPort did not return existing port")
	}
	s.AddPort(2, "b")
	if len(s.Ports()) != 2 {
		t.Errorf("Ports() = %v", s.Ports())
	}
	if s.Port(9) != nil {
		t.Error("Port(9) should be nil")
	}
}

func TestMasksGrowPerDivergentFlow(t *testing.T) {
	// The attack precondition at dataplane level: distinct divergence
	// depths create distinct masks.
	s := New("br0")
	var m flow.Match
	m.Key.Set(flow.FieldIPSrc, 0x0a000001)
	m.Mask.SetExact(flow.FieldIPSrc)
	s.InstallRule(flowtable.Rule{Match: m, Priority: 10, Action: flowtable.Action{Verdict: flowtable.Allow}})
	s.InstallRule(flowtable.Rule{Priority: 0})

	for d := 0; d < 32; d++ {
		k := tcpKey(0x0a000001^(1<<uint(31-d)), 0, 0, 0)
		s.ProcessKey(uint64(d), k)
	}
	if got := s.Megaflow().NumMasks(); got != 32 {
		t.Fatalf("masks = %d, want 32", got)
	}
}

func TestStringSummary(t *testing.T) {
	s := aclSwitch()
	s.ProcessKey(1, tcpKey(0x0a000001, 0, 1, 2))
	out := s.String()
	for _, want := range []string{"br0", "2 rules", "megaflow cache"} {
		if !containsStr(out, want) {
			t.Errorf("summary missing %q:\n%s", want, out)
		}
	}
}

func containsStr(s, sub string) bool {
	return len(s) >= len(sub) && (func() bool {
		for i := 0; i+len(sub) <= len(s); i++ {
			if s[i:i+len(sub)] == sub {
				return true
			}
		}
		return false
	})()
}

func TestPipelineWithSMCPathProgression(t *testing.T) {
	// OVS 2.10 hierarchy: EMC -> SMC -> megaflow TSS. Insertion is pinned
	// to always (enabling the SMC otherwise forces emc-insert-inv-prob, see
	// TestSMCForcesProbabilisticEMCInsertion) so the path progression stays
	// deterministic.
	s := aclSwitch(WithEMC(cache.EMCConfig{InsertProb: 1}), WithSMC(cache.SMCConfig{Entries: 1 << 12}))
	k := tcpKey(0x0a000001, 0x0a000002, 1234, 80)

	// Upcall installs the megaflow and promotes into SMC and EMC.
	if d := s.ProcessKey(1, k); d.Path != PathSlow {
		t.Fatalf("first packet path = %v", d.Path)
	}
	// The EMC (tier 0) answers first for the exact flow.
	if d := s.ProcessKey(2, k); d.Path != PathEMC {
		t.Fatalf("second packet path = %v", d.Path)
	}
	// Drop the flow from the EMC only: the SMC must answer next, and the
	// hit re-promotes into the EMC.
	s.EMC().Remove(k)
	if d := s.ProcessKey(3, k); d.Path != PathSMC {
		t.Fatalf("post-EMC-eviction path = %v, want smc", d.Path)
	}
	if d := s.ProcessKey(4, k); d.Path != PathEMC {
		t.Fatalf("re-promotion failed, path = %v", d.Path)
	}

	c := s.Counters()
	if c.EMCHits() != 2 || c.SMCHits() != 1 || c.Upcalls != 1 {
		t.Errorf("counters: %+v", c)
	}
	if s.SMC() == nil || s.SMC().Len() == 0 {
		t.Error("SMC accessor empty")
	}
}

func TestSMCOnlyHierarchy(t *testing.T) {
	// EMC off, SMC on: the kernel-datapath-with-SMC experiment the old
	// hardcoded pipeline could not express.
	s := aclSwitch(WithoutEMC(), WithSMC(cache.SMCConfig{Entries: 1 << 12}))
	if s.EMC() != nil {
		t.Fatal("EMC tier present despite WithoutEMC")
	}
	k := tcpKey(0x0a000001, 0x0a000002, 1234, 80)
	if d := s.ProcessKey(1, k); d.Path != PathSlow {
		t.Fatalf("first packet path = %v", d.Path)
	}
	if d := s.ProcessKey(2, k); d.Path != PathSMC {
		t.Fatalf("second packet path = %v, want smc", d.Path)
	}
	// A sibling flow under the same megaflow: not in the SMC yet, so the
	// TSS answers, then the SMC.
	k2 := tcpKey(0x0a000001, 0x0a000002, 9999, 80)
	if d := s.ProcessKey(3, k2); d.Path != PathMegaflow {
		t.Fatalf("sibling path = %v", d.Path)
	}
	if d := s.ProcessKey(4, k2); d.Path != PathSMC {
		t.Fatalf("sibling second path = %v", d.Path)
	}
}

func TestWithTiersCustomHierarchy(t *testing.T) {
	// A hand-assembled hierarchy: SMC directly over the TSS.
	s := New("custom", WithTiers(
		NewSMCTier(cache.SMCConfig{Entries: 256}),
		NewMegaflowTier(cache.MegaflowConfig{}),
	))
	var m flow.Match
	m.Key.Set(flow.FieldIPSrc, 0x0a000000)
	m.Mask.SetPrefix(flow.FieldIPSrc, 8)
	s.InstallRule(flowtable.Rule{Match: m, Priority: 10, Action: flowtable.Action{Verdict: flowtable.Allow}})
	s.InstallRule(flowtable.Rule{Priority: 0})

	if got := len(s.Tiers()); got != 2 {
		t.Fatalf("tiers = %d", got)
	}
	k := tcpKey(0x0a000001, 0, 1, 2)
	s.ProcessKey(1, k)
	if d := s.ProcessKey(2, k); d.Path != PathSMC {
		t.Fatalf("custom hierarchy second packet path = %v", d.Path)
	}
	if s.Counters().HitsFor("smc") != 1 {
		t.Errorf("per-tier counters: %+v", s.Counters().TierHits)
	}
}

func TestTierlessSwitchStillClassifies(t *testing.T) {
	// No installer tier at all: every packet is an upcall, but verdicts
	// must stay correct (the degenerate cache-less construction).
	s := New("bare", WithTiers())
	var m flow.Match
	m.Key.Set(flow.FieldIPSrc, 0x0a000000)
	m.Mask.SetPrefix(flow.FieldIPSrc, 8)
	s.InstallRule(flowtable.Rule{Match: m, Priority: 10, Action: flowtable.Action{Verdict: flowtable.Allow}})
	s.InstallRule(flowtable.Rule{Priority: 0})
	for now := uint64(1); now <= 3; now++ {
		if d := s.ProcessKey(now, tcpKey(0x0a000001, 0, 1, 2)); d.Path != PathSlow || d.Verdict.Verdict != flowtable.Allow {
			t.Fatalf("t=%d: %+v", now, d)
		}
	}
	if c := s.Counters(); c.Upcalls != 3 {
		t.Errorf("upcalls = %d, want 3 (nothing should cache)", c.Upcalls)
	}
}

func TestProcessFramesMatchesProcessKey(t *testing.T) {
	a, b := aclSwitch(), aclSwitch()
	keys := make([]flow.Key, 0, 64)
	for i := 0; i < 64; i++ {
		keys = append(keys, tcpKey(uint64(0x0a000000+i%7), 0x0a000002, uint64(1000+i), 80))
	}
	var fb FrameBatch
	batch := b.ProcessFrames(1, keyBurst(&fb, keys), nil)
	var seq []Decision
	for i := range keys {
		seq = append(seq, a.ProcessKey(1, fb.Key(i)))
	}
	for i := range keys {
		if seq[i] != batch[i] {
			t.Fatalf("key %d: %+v != %+v", i, seq[i], batch[i])
		}
	}
	if a.Counters().Packets != b.Counters().Packets {
		t.Error("packet counters diverge")
	}
}

func TestTxCountersAccountAllowedFrames(t *testing.T) {
	s := aclSwitch()
	s.AddPort(1, "vport1")
	allowed := pkt.MustBuild(pkt.Spec{
		Src: netip.MustParseAddr("10.0.0.1"), Dst: netip.MustParseAddr("10.0.0.9"),
		Proto: pkt.ProtoTCP, SrcPort: 5555, DstPort: 80,
	})
	denied := pkt.MustBuild(pkt.Spec{
		Src: netip.MustParseAddr("192.168.0.1"), Dst: netip.MustParseAddr("10.0.0.9"),
		Proto: pkt.ProtoTCP, SrcPort: 5555, DstPort: 80,
	})
	if _, err := s.Process(1, 1, allowed); err != nil {
		t.Fatal(err)
	}
	if _, err := s.Process(2, 1, allowed); err != nil {
		t.Fatal(err)
	}
	if _, err := s.Process(3, 1, denied); err != nil {
		t.Fatal(err)
	}
	p := s.Port(1)
	if p.TxPackets != 2 || p.TxBytes != 2*uint64(len(allowed)) {
		t.Errorf("tx counters: packets=%d bytes=%d, want 2/%d", p.TxPackets, p.TxBytes, 2*len(allowed))
	}
	if p.RxPackets != 3 || p.RxDropped != 1 {
		t.Errorf("rx counters: %+v", p)
	}
}

// TestDecisionLayout pins the per-packet records at their packed sizes: a
// Decision is written for every packet into buffers a caller keeps, and an
// Action rides in every Decision and every cached entry. Each keeps its
// one-byte fields together ahead of its 4-byte one: interleaved, padding
// takes a Decision to 32 bytes and an Action to 12.
func TestDecisionLayout(t *testing.T) {
	if got := unsafe.Sizeof(flowtable.Action{}); got != 8 {
		t.Errorf("flowtable.Action is %d bytes, want 8", got)
	}
	if got := unsafe.Sizeof(Decision{}); got != 16 {
		t.Errorf("Decision is %d bytes, want 16", got)
	}
}
