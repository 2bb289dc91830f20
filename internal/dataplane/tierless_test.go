package dataplane_test

import (
	"math/rand"
	"net/netip"
	"testing"

	"policyinject/internal/acl"
	"policyinject/internal/attack"
	"policyinject/internal/dataplane"
	"policyinject/internal/flow"
	"policyinject/internal/flowtable"
	"policyinject/internal/pkt"
)

// tierless is the cache-less datapath: a switch with the empty tier
// hierarchy, carrying a's compiled rules.
func tierless(t testing.TB, a *acl.ACL) *dataplane.Switch {
	t.Helper()
	sw := dataplane.New("eswitch", dataplane.WithTiers())
	if a == nil {
		return sw
	}
	rules, err := a.Compile()
	if err != nil {
		t.Fatal(err)
	}
	for _, r := range rules {
		sw.InstallRule(r)
	}
	return sw
}

// paperACL whitelists 10.0.0.0/8 and denies the rest.
func paperACL() *acl.ACL {
	return (&acl.ACL{}).Allow(acl.Entry{Src: netip.MustParsePrefix("10.0.0.0/8")})
}

func keyIPSrc(ip uint64) flow.Key {
	var k flow.Key
	k.Set(flow.FieldEthType, flow.EthTypeIPv4)
	k.Set(flow.FieldIPSrc, ip)
	return k
}

func TestVerdictsMatchACL(t *testing.T) {
	sw := tierless(t, paperACL())
	for now, c := range []struct {
		src  uint64
		want flowtable.Verdict
	}{{0x0a010203, flowtable.Allow}, {0xc0000001, flowtable.Deny}} {
		d := sw.ProcessKey(uint64(now), keyIPSrc(c.src))
		if d.Verdict.Verdict != c.want || d.Path != dataplane.PathSlow {
			t.Errorf("src %#x: %+v, want %v on the slow path", c.src, d, c.want)
		}
	}
}

func TestEmptyTableDefaultDeny(t *testing.T) {
	sw := tierless(t, nil)
	if d := sw.ProcessKey(0, keyIPSrc(1)); d.Verdict.Verdict != flowtable.Deny {
		t.Fatalf("empty tierless switch: %+v, want deny", d)
	}
}

// TestImmuneToPolicyInjection is the victim's side of the immunity claim:
// the covert stream leaves the classification the victim's packet costs
// (subtables probed, trie consults) where the ACL install put it, because
// there is no cache for the stream to fill.
func TestImmuneToPolicyInjection(t *testing.T) {
	sw := attackSwitchFor(t, attack.TwoField(), dataplane.WithTiers())
	victim := victimKeys(1)[0]
	before := sw.Classifier().Lookup(victim).Stats
	if d := sw.ProcessKey(0, victim); d.Verdict.Verdict != flowtable.Allow {
		t.Fatalf("victim before the attack: %+v", d)
	}
	for i, k := range covertKeys(t) {
		sw.ProcessKey(uint64(1+i), k)
	}
	after := sw.Classifier().Lookup(victim).Stats
	if before != after {
		t.Fatalf("covert stream changed the victim's lookup cost: %+v -> %+v", before, after)
	}
	if n := sw.Classifier().NumSubtables(); after.SubtablesProbed > n {
		t.Fatalf("victim probed %d > %d subtables", after.SubtablesProbed, n)
	}
	d := sw.ProcessKey(1<<20, victim)
	if d.Verdict.Verdict != flowtable.Allow || d.Path != dataplane.PathSlow || d.MasksScanned != 0 {
		t.Fatalf("victim after the attack: %+v", d)
	}
}

// TestDifferentialAgainstCachedDataplane: the tierless and the default
// cached switch agree on every verdict, for random policies and probes.
func TestDifferentialAgainstCachedDataplane(t *testing.T) {
	rng := rand.New(rand.NewSource(21))
	for trial := 0; trial < 30; trial++ {
		a := &acl.ACL{}
		for i := 0; i < 1+rng.Intn(6); i++ {
			e := acl.Entry{}
			if rng.Intn(2) == 0 {
				bits := rng.Intn(33)
				addr := netip.AddrFrom4([4]byte{10, byte(rng.Intn(4)), byte(rng.Intn(4)), byte(rng.Intn(4))})
				e.Src = netip.PrefixFrom(addr, bits)
			}
			if rng.Intn(2) == 0 {
				e.Proto = 6
				e.DstPort = acl.Port(uint16(rng.Intn(3) * 443))
			}
			a.Allow(e)
		}
		bare := tierless(t, a)
		cached := dataplane.New("cached")
		for _, r := range bare.Rules() {
			cached.InstallRule(*r)
		}
		for probe := 0; probe < 300; probe++ {
			k := flow.FiveTuple{
				Src:     netip.AddrFrom4([4]byte{10, byte(rng.Intn(4)), byte(rng.Intn(4)), byte(rng.Intn(4))}),
				Dst:     netip.MustParseAddr("172.16.0.1"),
				Proto:   6,
				SrcPort: uint16(rng.Intn(65536)),
				DstPort: uint16(rng.Intn(3) * 443),
			}.Key(0)
			vb := bare.ProcessKey(uint64(probe), k).Verdict
			vc := cached.ProcessKey(uint64(probe), k).Verdict
			if vb != vc {
				t.Fatalf("trial %d probe %d: tierless=%v cached=%v\n%s", trial, probe, vb, vc, bare)
			}
		}
	}
}

func TestRemoveRule(t *testing.T) {
	sw := tierless(t, paperACL())
	var allow *flowtable.Rule
	for _, r := range sw.Rules() {
		if r.Action.Verdict == flowtable.Allow {
			allow = r
		}
	}
	subtables := sw.Classifier().NumSubtables()
	if !sw.RemoveRule(allow) {
		t.Fatal("RemoveRule failed")
	}
	if sw.RemoveRule(allow) {
		t.Fatal("double remove succeeded")
	}
	if d := sw.ProcessKey(0, keyIPSrc(0x0a010203)); d.Verdict.Verdict != flowtable.Deny {
		t.Fatal("allow survived removal")
	}
	if n := sw.Classifier().NumSubtables(); n != subtables-1 {
		t.Fatalf("subtables = %d, want %d", n, subtables-1)
	}
}

func TestTierlessProcessFrame(t *testing.T) {
	sw := tierless(t, paperACL())
	f := pkt.MustBuild(pkt.Spec{
		Src: netip.MustParseAddr("10.1.1.1"), Dst: netip.MustParseAddr("10.2.2.2"),
		Proto: pkt.ProtoUDP, SrcPort: 1, DstPort: 2,
	})
	d, err := sw.Process(0, 1, f)
	if err != nil || d.Verdict.Verdict != flowtable.Allow || d.Path != dataplane.PathSlow {
		t.Fatalf("d=%+v err=%v", d, err)
	}
	if _, err := sw.Process(0, 1, []byte{0}); err == nil {
		t.Error("garbage accepted")
	}
	if c := sw.Counters(); c.ParseError != 1 || c.Upcalls != 1 {
		t.Errorf("counters: %+v", c)
	}
}

func TestFirstAddedWins(t *testing.T) {
	sw := tierless(t, (&acl.ACL{}).
		Deny(acl.Entry{Src: netip.MustParsePrefix("10.66.0.0/16")}).
		Allow(acl.Entry{Src: netip.MustParsePrefix("10.0.0.0/8")}))
	// 10.66.x is inside both; the deny came first.
	if d := sw.ProcessKey(0, keyIPSrc(0x0a420001)); d.Verdict.Verdict != flowtable.Deny {
		t.Fatal("first-added deny did not win")
	}
	if d := sw.ProcessKey(0, keyIPSrc(0x0a010001)); d.Verdict.Verdict != flowtable.Allow {
		t.Fatal("allow outside the exception denied")
	}
}

// TestProcessFramesMatchesProcessLoop pins the tierless switch's
// frame-first contract: ProcessFrames equals a scalar Process loop on
// decisions and counters, and a malformed frame gets its own slot without
// aborting the burst.
func TestProcessFramesMatchesProcessLoop(t *testing.T) {
	frames := [][]byte{
		pkt.MustBuild(pkt.Spec{
			Src: netip.MustParseAddr("10.1.1.1"), Dst: netip.MustParseAddr("10.2.2.2"),
			Proto: pkt.ProtoUDP, SrcPort: 1, DstPort: 2,
		}),
		{0xde, 0xad}, // malformed
		pkt.MustBuild(pkt.Spec{
			Src: netip.MustParseAddr("192.168.1.1"), Dst: netip.MustParseAddr("10.2.2.2"),
			Proto: pkt.ProtoTCP, SrcPort: 9, DstPort: 22,
		}),
	}

	seqSW, batchSW := tierless(t, paperACL()), tierless(t, paperACL())
	var seqOut []dataplane.Decision
	for i, f := range frames {
		d, err := seqSW.Process(1, 1, f)
		if (err != nil) != (i == 1) {
			t.Fatalf("frame %d: err = %v", i, err)
		}
		seqOut = append(seqOut, d)
	}
	var fb dataplane.FrameBatch
	for _, f := range frames {
		fb.Append(f, 1)
	}
	batchOut := batchSW.ProcessFrames(1, &fb, nil)
	for i := range frames {
		if seqOut[i] != batchOut[i] {
			t.Fatalf("frame %d: scalar %+v != batch %+v", i, seqOut[i], batchOut[i])
		}
	}
	if fb.Err(1) == nil || fb.Err(0) != nil || fb.Err(2) != nil {
		t.Fatalf("error slots wrong: %v %v %v", fb.Err(0), fb.Err(1), fb.Err(2))
	}
	a, b := seqSW.Counters(), batchSW.Counters()
	if a.Packets != b.Packets || a.ParseError != b.ParseError || a.Upcalls != b.Upcalls ||
		a.Allowed != b.Allowed || a.Denied != b.Denied {
		t.Fatalf("counters diverge:\n scalar %+v\n batch  %+v", a, b)
	}
	if b.ParseError != 1 {
		t.Fatalf("ParseError = %d, want 1", b.ParseError)
	}
}

// TestTierlessSwitchIsImmune holds the cache-less datapath (the empty tier
// hierarchy, paper ref [4]) to its immunity under the two-field attack: the
// whole covert stream leaves the classifier's subtables as the ACL install
// made them and mints no cache, every packet is one slow-path
// classification that scans no megaflow mask, and every verdict is the
// linear reference table's.
func TestTierlessSwitchIsImmune(t *testing.T) {
	atk := attack.TwoField()
	sw := attackSwitchFor(t, atk, dataplane.WithTiers())
	var ref flowtable.Table
	for _, r := range sw.Rules() { // evaluation order: ties keep theirs
		ref.Insert(*r)
	}
	subtables := sw.Classifier().NumSubtables()
	frames, err := atk.Frames()
	if err != nil {
		t.Fatal(err)
	}

	var fb dataplane.FrameBatch
	var out []dataplane.Decision
	for start := 0; start < len(frames); start += 32 {
		fb.Reset()
		for _, f := range frames[start:min(start+32, len(frames))] {
			fb.Append(f, 66)
		}
		out = sw.ProcessFrames(1, &fb, out)
		for i, d := range out {
			if err := fb.Err(i); err != nil {
				t.Fatalf("covert frame %d: %v", start+i, err)
			}
			if d.Path != dataplane.PathSlow || d.MasksScanned != 0 {
				t.Fatalf("covert frame %d took %v scanning %d masks, want the slow path scanning none",
					start+i, d.Path, d.MasksScanned)
			}
			if want := ref.Lookup(fb.Key(i)).Action; d.Verdict != want {
				t.Fatalf("covert frame %d: verdict %v, linear table %v", start+i, d.Verdict, want)
			}
		}
	}

	if got := sw.Classifier().NumSubtables(); got != subtables {
		t.Errorf("covert stream moved the classifier from %d subtables to %d", subtables, got)
	}
	if mf := sw.Megaflow(); mf != nil {
		t.Errorf("tierless switch holds a megaflow cache of %d masks", mf.NumMasks())
	}
	if c := sw.Counters(); c.Upcalls != uint64(len(frames)) || c.Packets != uint64(len(frames)) {
		t.Errorf("%d packets, %d upcalls; want %d of each", c.Packets, c.Upcalls, len(frames))
	}
}
