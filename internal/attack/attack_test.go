package attack

import (
	"bytes"
	"net/netip"
	"strings"
	"testing"

	"policyinject/internal/dataplane"
	"policyinject/internal/flow"
	"policyinject/internal/flowtable"
	"policyinject/internal/pkt"
)

// installACL compiles the attack ACL into a fresh switch.
func installACL(t testing.TB, a *Attack) *dataplane.Switch {
	t.Helper()
	sw := dataplane.New("victim-hv")
	theACL, err := a.BuildACL()
	if err != nil {
		t.Fatal(err)
	}
	rules, err := theACL.Compile()
	if err != nil {
		t.Fatal(err)
	}
	for _, r := range rules {
		sw.InstallRule(r)
	}
	return sw
}

func TestPredictedMasksMatchesPaper(t *testing.T) {
	cases := []struct {
		name string
		a    *Attack
		want int
	}{
		{"single-field /8 (Fig 2)", SingleField(), 8},
		{"ip_src + tp_dst (512)", TwoField(), 512},
		{"ip_src + tp_dst + tp_src (8192)", ThreeField(), 8192},
	}
	for _, c := range cases {
		if got := c.a.PredictedMasks(); got != c.want {
			t.Errorf("%s: predicted = %d, want %d", c.name, got, c.want)
		}
	}
}

func TestKeysCountAndUniqueness(t *testing.T) {
	a := TwoField()
	keys, err := a.Keys()
	if err != nil {
		t.Fatal(err)
	}
	if len(keys) != 512 {
		t.Fatalf("keys = %d", len(keys))
	}
	seen := map[flow.Key]bool{}
	for _, k := range keys {
		if seen[k] {
			t.Fatal("duplicate covert key")
		}
		seen[k] = true
	}
}

// TestSingleFieldInjection executes the Fig. 2 attack end to end and
// checks the megaflow cache holds exactly the paper's 8 masks / 8 entries.
func TestSingleFieldInjection(t *testing.T) {
	a := SingleField()
	sw := installACL(t, a)
	v, err := a.ExecuteFrames(sw, 1, 0)
	if err != nil {
		t.Fatal(err)
	}
	if v.Injected != 8 || v.Entries != 8 {
		t.Fatalf("verification: %v", v)
	}
	if v.Denied != 8 {
		t.Errorf("denied = %d, want all 8 (covert packets must violate the whitelist)", v.Denied)
	}
}

// TestTwoFieldInjection512 reproduces the paper's 512-mask claim on a live
// dataplane.
func TestTwoFieldInjection512(t *testing.T) {
	a := TwoField()
	sw := installACL(t, a)
	v, err := a.ExecuteFrames(sw, 1, 0)
	if err != nil {
		t.Fatal(err)
	}
	if v.Injected != 512 {
		t.Fatalf("injected masks = %d, want 512\n%s", v.Injected, sw)
	}
	if v.Entries != 512 {
		t.Errorf("entries = %d, want 512 (one per mask)", v.Entries)
	}
}

// TestThreeFieldInjection8192 reproduces the full-blown DoS
// configuration's 8192 masks (Fig. 3).
func TestThreeFieldInjection8192(t *testing.T) {
	if testing.Short() {
		t.Skip("8192-mask injection is slow in -short mode")
	}
	a := ThreeField()
	sw := installACL(t, a)
	v, err := a.ExecuteFrames(sw, 1, 0)
	if err != nil {
		t.Fatal(err)
	}
	if v.Injected != 8192 {
		t.Fatalf("injected masks = %d, want 8192", v.Injected)
	}
}

// TestCovertPacketsAreInnocuous: every covert packet is *denied* — the
// attack succeeds without ever being granted connectivity, the "covert"
// property the paper stresses.
func TestCovertPacketsAreInnocuous(t *testing.T) {
	a := TwoField()
	sw := installACL(t, a)
	keys, _ := a.Keys()
	for _, k := range keys {
		if d := sw.ProcessKey(1, k); d.Verdict.Verdict != flowtable.Deny {
			t.Fatalf("covert key %v was allowed", k)
		}
	}
}

// TestReplayIsIdempotent: replaying the stream does not create more masks,
// so the attacker can refresh entries forever at low rate.
func TestReplayIsIdempotent(t *testing.T) {
	a := SingleField()
	sw := installACL(t, a)
	a.ExecuteFrames(sw, 1, 0)
	first := sw.Megaflow().NumMasks()
	a.ExecuteFrames(sw, 2, 0)
	if got := sw.Megaflow().NumMasks(); got != first {
		t.Fatalf("replay changed mask count %d -> %d", first, got)
	}
	// And the replay is all fast-path now: zero new upcalls.
	before := sw.Counters().Upcalls
	a.ExecuteFrames(sw, 3, 0)
	if got := sw.Counters().Upcalls; got != before {
		t.Errorf("replay caused %d upcalls", got-before)
	}
}

// TestReplayKeepsEntriesAliveAgainstRevalidator models the paper's
// persistence argument: a low-rate refresh beats the idle eviction.
func TestReplayKeepsEntriesAliveAgainstRevalidator(t *testing.T) {
	a := SingleField()
	sw := installACL(t, a)
	a.ExecuteFrames(sw, 0, 0)
	for now := uint64(5); now <= 50; now += 5 { // refresh every 5 < MaxIdle 10
		a.ExecuteFrames(sw, now, 0)
		if evicted := sw.RunRevalidator(now); evicted != 0 {
			t.Fatalf("t=%d: revalidator evicted %d refreshed entries", now, evicted)
		}
	}
	if sw.Megaflow().NumMasks() != 8 {
		t.Fatalf("masks decayed to %d", sw.Megaflow().NumMasks())
	}
	// Without refresh they die.
	if evicted := sw.RunRevalidator(100); evicted != 8 {
		t.Fatalf("idle eviction removed %d, want 8", evicted)
	}
}

func TestBuildACLShape(t *testing.T) {
	a := ThreeField()
	theACL, err := a.BuildACL()
	if err != nil {
		t.Fatal(err)
	}
	if len(theACL.Entries) != 3 {
		t.Fatalf("entries = %d", len(theACL.Entries))
	}
	s := theACL.String()
	for _, want := range []string{"src=10.0.0.1/32", "dport=80", "sport=5201", "deny *"} {
		if !strings.Contains(s, want) {
			t.Errorf("ACL missing %q:\n%s", want, s)
		}
	}
	// The ACL must be CMS-acceptable (valid, compilable).
	if _, err := theACL.Compile(); err != nil {
		t.Fatal(err)
	}
}

func TestFramesBuildAndParse(t *testing.T) {
	a := SingleField()
	frames, err := a.Frames()
	if err != nil {
		t.Fatal(err)
	}
	if len(frames) != 8 {
		t.Fatalf("frames = %d", len(frames))
	}
	for _, f := range frames {
		if len(f) != 64 {
			t.Errorf("covert frame length %d, want 64", len(f))
		}
	}
	// Frames must round-trip through a real switch's frame path.
	sw := installACL(t, a)
	for i, f := range frames {
		if _, err := sw.Process(1, 0, f); err != nil {
			t.Fatalf("frame %d rejected: %v", i, err)
		}
	}
	if sw.Megaflow().NumMasks() != 8 {
		t.Fatalf("frame path injected %d masks", sw.Megaflow().NumMasks())
	}
}

// TestFramesMatchBuilder pins Frames' patched template to the builder:
// every frame is byte for byte pkt.BuildTuple of the matching key of Keys,
// on every preset, both transports, ICMP, custom addresses and a frame too
// short for its headers. A frame owns its bytes: appending to one must not
// reach the next.
func TestFramesMatchBuilder(t *testing.T) {
	udp := TwoField()
	udp.Proto = pkt.ProtoUDP
	custom := ThreeField()
	custom.SrcIP, custom.DstIP = netip.MustParseAddr("192.0.2.7"), netip.MustParseAddr("198.51.100.9")
	customV6 := V6TwoField()
	customV6.SrcIP, customV6.DstIP = netip.MustParseAddr("2001:db8:aa::1"), netip.MustParseAddr("2001:db8:bb::2")
	customV6.Proto, customV6.FrameLen = pkt.ProtoUDP, 128
	icmp := &Attack{Proto: pkt.ProtoICMP, Fields: []TargetField{
		{Field: flow.FieldIPDst, Allow: 0xac100002, Width: 24},
		{Field: flow.FieldTPSrc, Allow: 8, Width: 8},
	}}
	for name, a := range map[string]*Attack{
		"single": SingleField(), "two": TwoField(), "three": ThreeField(), "v6two": V6TwoField(),
		"udp": udp, "custom-addrs": custom, "custom-v6-udp": customV6, "icmp": icmp,
	} {
		t.Run(name, func(t *testing.T) {
			keys, err := a.Keys()
			if err != nil {
				t.Fatal(err)
			}
			frames, err := a.Frames()
			if err != nil {
				t.Fatal(err)
			}
			if len(frames) != len(keys) {
				t.Fatalf("%d frames for %d keys", len(frames), len(keys))
			}
			_, _, _, flen := a.defaults()
			for i, k := range keys {
				want, err := pkt.BuildTuple(k.Tuple(), flen)
				if err != nil {
					t.Fatal(err)
				}
				if !bytes.Equal(frames[i], want) {
					t.Fatalf("frame %d:\n got %x\nwant %x", i, frames[i], want)
				}
				if cap(frames[i]) != len(frames[i]) {
					t.Fatalf("frame %d: cap %d > len %d: an append would overwrite frame %d", i, cap(frames[i]), len(frames[i]), i+1)
				}
			}
		})
	}
}

// TestFramesAllocateOnce pins the covert stream's allocations to a few,
// not one a frame: the 8 192 frames share one backing array.
func TestFramesAllocateOnce(t *testing.T) {
	allocs := testing.AllocsPerRun(3, func() {
		if _, err := ThreeField().Frames(); err != nil {
			t.Fatal(err)
		}
	})
	if allocs > 8 {
		t.Fatalf("Frames allocates %.0f times for 8192 frames, want a few", allocs)
	}
}

func TestPlanBandwidthIsCovert(t *testing.T) {
	// The paper: 8192 entries kept alive with a 1–2 Mbps stream.
	p := ThreeField().Plan(10 /* OVS default idle timeout, seconds */)
	if p.Packets != 8192 {
		t.Fatalf("packets = %d", p.Packets)
	}
	if p.PPS < 819 || p.PPS > 820 {
		t.Errorf("pps = %.1f", p.PPS)
	}
	if p.BandwidthBPS > 2e6 {
		t.Errorf("covert stream needs %.2f Mbps, paper claims <= 2", p.BandwidthBPS/1e6)
	}
	if !strings.Contains(p.String(), "Mbps") {
		t.Error("plan string missing bandwidth")
	}
}

func TestValidateRejectsBadConfigs(t *testing.T) {
	bad := []*Attack{
		{},
		{Fields: []TargetField{{Field: flow.FieldEthSrc, Allow: 1}}},
		{Fields: []TargetField{{Field: flow.FieldIPSrc, Allow: 1}, {Field: flow.FieldIPSrc, Allow: 2}}},
		{Fields: []TargetField{{Field: flow.FieldIPSrc, Allow: 1, Width: 40}}},
		{Fields: []TargetField{{Field: flow.FieldTPDst, Allow: 1 << 20}}},
	}
	for i, a := range bad {
		if err := a.Validate(); err == nil {
			t.Errorf("config %d accepted", i)
		}
		if _, err := a.Keys(); err == nil {
			t.Errorf("config %d generated keys", i)
		}
		if _, err := a.BuildACL(); err == nil {
			t.Errorf("config %d built an ACL", i)
		}
	}
}

func TestCustomWidthSubsetsDepths(t *testing.T) {
	// A /16 whitelist limits the attacker to 16 divergence depths.
	a := &Attack{Fields: []TargetField{
		{Field: flow.FieldIPSrc, Allow: 0x0a0a0000, Width: 16},
	}}
	sw := installACL(t, a)
	v, err := a.ExecuteFrames(sw, 1, 0)
	if err != nil {
		t.Fatal(err)
	}
	if v.Injected != 16 {
		t.Fatalf("injected = %d, want 16", v.Injected)
	}
}

func TestAttackDstField(t *testing.T) {
	a := &Attack{
		Fields: []TargetField{{Field: flow.FieldIPDst, Allow: 0x0a000002, Width: 8}},
		DstIP:  netip.MustParseAddr("10.0.0.2"),
	}
	sw := installACL(t, a)
	v, err := a.ExecuteFrames(sw, 1, 0)
	if err != nil {
		t.Fatal(err)
	}
	if v.Injected != 8 {
		t.Fatalf("injected = %d, want 8", v.Injected)
	}
}

// TestV6TwoFieldInjection1024 verifies the IPv6 extension: a single IPv6
// source whitelist exposes 64 divergence depths in the top half, so
// ipv6_src_hi x tp_dst mints 64*16 = 1024 masks — double the IPv4 budget
// per address field, per the paper's "arbitrary number of protocol
// fields" remark.
func TestV6TwoFieldInjection1024(t *testing.T) {
	a := V6TwoField()
	if got := a.PredictedMasks(); got != 1024 {
		t.Fatalf("predicted = %d, want 1024", got)
	}
	sw := installACL(t, a)
	v, err := a.ExecuteFrames(sw, 1, 0)
	if err != nil {
		t.Fatal(err)
	}
	if v.Injected != 1024 {
		t.Fatalf("injected = %d, want 1024", v.Injected)
	}
	if v.Denied != 1024 {
		t.Errorf("denied = %d; covert v6 packets must all be denied", v.Denied)
	}
}

// TestV4CovertStreamIsIPv4 is TestV6CovertStreamIsIPv6's IPv4 twin: the
// two-field attack's covert keys carry eth_type 0x0800, and one frame
// builds for each of them.
func TestV4CovertStreamIsIPv4(t *testing.T) {
	a := TwoField()
	keys, err := a.Keys()
	if err != nil {
		t.Fatal(err)
	}
	for _, k := range keys {
		if k.Get(flow.FieldEthType) != flow.EthTypeIPv4 {
			t.Fatal("covert key not IPv4")
		}
	}
	frames, err := a.Frames()
	if err != nil {
		t.Fatal(err)
	}
	if len(frames) != len(keys) {
		t.Fatalf("frames = %d, keys = %d", len(frames), len(keys))
	}
}

// TestV6CovertStreamIsIPv6 guards the template plumbing: covert keys for
// a v6 attack must carry eth_type 0x86dd, and frames must build.
func TestV6CovertStreamIsIPv6(t *testing.T) {
	a := V6TwoField()
	keys, err := a.Keys()
	if err != nil {
		t.Fatal(err)
	}
	for _, k := range keys {
		if k.Get(flow.FieldEthType) != flow.EthTypeIPv6 {
			t.Fatal("covert key not IPv6")
		}
	}
	frames, err := a.Frames()
	if err != nil {
		t.Fatal(err)
	}
	if len(frames) != 1024 {
		t.Fatalf("frames = %d", len(frames))
	}
	// And they parse back to the same field values through the v6 path.
	sw := installACL(t, a)
	for _, f := range frames[:32] {
		if _, err := sw.Process(1, 0, f); err != nil {
			t.Fatal(err)
		}
	}
	if got := sw.Megaflow().NumMasks(); got != 32 {
		t.Fatalf("frame path injected %d masks, want 32", got)
	}
}
