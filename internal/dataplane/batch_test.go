package dataplane

import (
	"fmt"
	"math/rand"
	"slices"
	"testing"

	"policyinject/internal/acl"
	"policyinject/internal/cache"
	"policyinject/internal/conntrack"
	"policyinject/internal/flow"
	"policyinject/internal/flowtable"
	"policyinject/internal/pkt"

	"net/netip"
)

// scalarOnly hides a tier's batch capability: the wrapper's method set is
// exactly Tier, so the switch's generic walk must take the per-key
// fallback. scalarInstaller does the same while keeping the authoritative
// tier's install capability.
type scalarOnly struct{ Tier }

type scalarInstaller struct{ MegaflowInstaller }

// batchEq fatals unless the two switches produced identical decisions and
// identical switch-level counters.
func batchEq(t *testing.T, label string, seq, batch []Decision, seqSW, batchSW *Switch) {
	t.Helper()
	for i := range seq {
		if seq[i] != batch[i] {
			t.Fatalf("%s: key %d: sequential %+v != batch %+v", label, i, seq[i], batch[i])
		}
	}
	a, b := seqSW.Counters(), batchSW.Counters()
	if a.Packets != b.Packets || a.Upcalls != b.Upcalls || a.Allowed != b.Allowed ||
		a.Denied != b.Denied || a.ParseError != b.ParseError || a.InstallErr != b.InstallErr {
		t.Fatalf("%s: counters diverge:\n sequential %+v\n batch      %+v", label, a, b)
	}
	if len(a.TierHits) != len(b.TierHits) {
		t.Fatalf("%s: tier count diverges", label)
	}
	for i := range a.TierHits {
		if a.TierHits[i] != b.TierHits[i] {
			t.Fatalf("%s: tier %q hits: sequential %d != batch %d",
				label, a.TierHits[i].Tier, a.TierHits[i].Hits, b.TierHits[i].Hits)
		}
	}
}

// TestBatchMatchesSequentialStateful runs the full switch — conntrack
// recirculation included — over staged bursts (connection setup, replies,
// established data, then same-flow runs) and checks ProcessFrames produces
// exactly the decisions and counters of a sequential ProcessKey loop over
// the burst's extracted keys. The
// hierarchies with an SMC promote by the burst's hashes, so the
// recirculated key's second pass needs its own; in the last burst key 0 is
// a settled one-packet run while later runs' copies walk and recirculate
// through slot 0 of the same scratch.
func TestBatchMatchesSequentialStateful(t *testing.T) {
	for name, opts := range map[string][]Option{
		"megaflow":       {WithoutEMC()},
		"smc":            {WithoutEMC(), WithSMC(cache.SMCConfig{})},
		"emc+smc":        {WithEMC(cache.EMCConfig{InsertProb: 1}), WithSMC(cache.SMCConfig{})},
		"smc-nocoalesce": {WithoutEMC(), WithSMC(cache.SMCConfig{}), WithoutRunCoalescing()},
	} {
		t.Run(name, func(t *testing.T) { batchMatchesSequentialStateful(t, opts) })
	}
}

func batchMatchesSequentialStateful(t *testing.T, opts []Option) {
	build := func() *Switch {
		sw := New("sg-hv", append(opts[:len(opts):len(opts)], WithConntrack(conntrack.Config{}))...)
		group := &acl.ACL{Stateful: true}
		group.Allow(acl.Entry{Src: netip.MustParsePrefix("10.0.0.0/8")})
		group.Allow(acl.Entry{Proto: 6, DstPort: acl.Port(443)})
		rules, err := group.Compile()
		if err != nil {
			t.Fatal(err)
		}
		for _, r := range rules {
			sw.InstallRule(r)
		}
		return sw
	}
	seqSW, batchSW := build(), build()

	const flows = 16
	fwd := make([]flow.Key, flows)
	rev := make([]flow.Key, flows)
	for i := 0; i < flows; i++ {
		fwd[i] = conntrack.MustTuple("10.1.2.3", "172.16.0.1", 6, uint16(40000+i), 443).Key(1)
		rev[i] = conntrack.MustTuple("172.16.0.1", "10.1.2.3", 6, 443, uint16(40000+i)).Key(2)
	}
	outside := conntrack.MustTuple("192.168.9.9", "172.16.0.1", 6, 5555, 22).Key(1)
	syn := conntrack.MustTuple("10.1.2.3", "172.16.0.1", 6, 50000, 443).Key(1)

	bursts := [][]flow.Key{
		fwd, // SYNs: all recirculate, +new, commit
		rev, // replies: recirculate, established
		append(append([]flow.Key{}, fwd...), outside), // data + a denied stray
		// Runs: an established packet alone, a new connection whose copies
		// find it committed, established replies, a denied run.
		{fwd[0], syn, syn, syn, rev[2], rev[2], outside, outside},
	}
	var fb FrameBatch
	var seqOut, batchOut []Decision
	for bi, burstKeys := range bursts {
		now := uint64(bi + 1)
		batchOut = batchSW.ProcessFrames(now, keyBurst(&fb, burstKeys), batchOut)
		seqOut = seqOut[:0]
		for i := range burstKeys {
			seqOut = append(seqOut, seqSW.ProcessKey(now, fb.Key(i)))
		}
		batchEq(t, fmt.Sprintf("burst %d", bi), seqOut, batchOut, seqSW, batchSW)
	}
	if !batchOut[1].Recirculated || !batchOut[2].Recirculated {
		t.Fatalf("the run's head and copy must both recirculate: %+v, %+v", batchOut[1], batchOut[2])
	}
	if seqSW.Conntrack().Len() != batchSW.Conntrack().Len() {
		t.Fatalf("conntrack table size diverges: %d vs %d",
			seqSW.Conntrack().Len(), batchSW.Conntrack().Len())
	}
}

// TestBatchFallbackForNonBatchTiers pins the compatibility contract: a
// WithTiers hierarchy whose tiers do not implement BatchTier still
// classifies bursts correctly — the walk probes them key by key.
func TestBatchFallbackForNonBatchTiers(t *testing.T) {
	build := func() *Switch {
		sw := New("custom", WithTiers(
			scalarOnly{NewEMCTier(cache.EMCConfig{})},
			scalarInstaller{NewMegaflowTier(cache.MegaflowConfig{})},
		))
		var m flow.Match
		m.Key.Set(flow.FieldIPSrc, 0x0a000000)
		m.Mask.SetPrefix(flow.FieldIPSrc, 8)
		sw.InstallRule(flowtable.Rule{Match: m, Priority: 10, Action: flowtable.Action{Verdict: flowtable.Allow}})
		sw.InstallRule(flowtable.Rule{Priority: 0})
		return sw
	}
	if _, isBatch := build().Tiers()[0].(BatchTier); isBatch {
		t.Fatal("test fixture broken: wrapped tier still exposes BatchTier")
	}
	seqSW, batchSW := build(), build()
	keys := make([]flow.Key, 0, 48)
	for i := 0; i < 48; i++ {
		keys = append(keys, tcpKey(uint64(0x0a000001+i%5), 0x0a000002, uint64(2000+i), 80))
	}
	var fb FrameBatch
	for round := 0; round < 2; round++ { // cold then warm
		now := uint64(round + 1)
		batch := batchSW.ProcessFrames(now, keyBurst(&fb, keys), nil)
		var seq []Decision
		for i := range keys {
			seq = append(seq, seqSW.ProcessKey(now, fb.Key(i)))
		}
		batchEq(t, fmt.Sprintf("round %d", round), seq, batch, seqSW, batchSW)
	}
}

// TestRunCoalescingExactness is the property test for same-flow run
// coalescing: over randomized bursts full of elephant runs, a switch with
// coalescing enabled must produce exactly the decisions, switch counters
// and per-tier stats of an identically-built switch with coalescing
// disabled — the accounting shortcut must be observationally invisible.
func TestRunCoalescingExactness(t *testing.T) {
	hierarchies := []struct {
		name string
		opts []Option
	}{
		{"emc+tss", nil},
		{"emc+smc+tss", []Option{WithSMC(cache.SMCConfig{Entries: 1 << 12})}},
		{"smc+tss", []Option{WithoutEMC(), WithSMC(cache.SMCConfig{Entries: 1 << 12})}},
		{"tss-only", []Option{WithoutEMC()}},
		{"sorted-tss", []Option{WithoutEMC(), WithMegaflow(cache.MegaflowConfig{SortByHits: true})}},
	}
	for _, h := range hierarchies {
		t.Run(h.name, func(t *testing.T) {
			build := func(extra ...Option) *Switch {
				// Same name on both switches: the EMC insertion PRNG seed
				// derives from it, so the pair draws identical sequences.
				sw := New("prop", append(append([]Option{}, h.opts...), extra...)...)
				var m flow.Match
				m.Key.Set(flow.FieldIPSrc, 0x0a000000)
				m.Mask.SetPrefix(flow.FieldIPSrc, 8)
				sw.InstallRule(flowtable.Rule{Match: m, Priority: 10, Action: flowtable.Action{Verdict: flowtable.Allow}})
				sw.InstallRule(flowtable.Rule{Priority: 0})
				return sw
			}
			on, off := build(), build(WithoutRunCoalescing())

			rng := rand.New(rand.NewSource(42))
			pool := make([]flow.Key, 24)
			for i := range pool {
				// Mix of allowed (10/8) and denied sources.
				src := uint64(0x0a000000 + rng.Intn(1<<16))
				if i%5 == 0 {
					src = uint64(0xc0a80000 + rng.Intn(1<<8))
				}
				pool[i] = tcpKey(src, 0x0a000002, uint64(1024+rng.Intn(4096)), 80)
			}
			var fb FrameBatch
			var onOut, offOut []Decision
			for tick := uint64(1); tick <= 8; tick++ {
				// Elephant-shaped burst: random flows, geometric run lengths.
				var burstKeys []flow.Key
				for len(burstKeys) < 96 {
					k := pool[rng.Intn(len(pool))]
					runLen := 1 << rng.Intn(5) // 1..16
					for j := 0; j < runLen && len(burstKeys) < 96; j++ {
						burstKeys = append(burstKeys, k)
					}
				}
				onOut = on.ProcessFrames(tick, keyBurst(&fb, burstKeys), onOut)
				offOut = off.ProcessFrames(tick, &fb, offOut)
				for i := range burstKeys {
					if onOut[i] != offOut[i] {
						t.Fatalf("tick %d key %d: coalesced %+v != exact %+v", tick, i, onOut[i], offOut[i])
					}
				}
			}
			a, b := on.Counters(), off.Counters()
			if a.Packets != b.Packets || a.Upcalls != b.Upcalls || a.Allowed != b.Allowed || a.Denied != b.Denied {
				t.Fatalf("switch counters diverge:\n coalesced %+v\n exact     %+v", a, b)
			}
			for i, tier := range on.Tiers() {
				if sa, sb := tier.Stats(), off.Tiers()[i].Stats(); sa != sb {
					t.Fatalf("tier %q stats diverge:\n coalesced %+v\n exact     %+v", tier.Name(), sa, sb)
				}
			}
		})
	}
}

// TestSMCForcesProbabilisticEMCInsertion pins the OVS coupling: enabling
// the SMC without an explicit EMC insertion policy switches the EMC to
// probabilistic insertion (1/100), while the default hierarchy keeps
// inserting always. An explicit InsertProb of 1 opts back out.
func TestSMCForcesProbabilisticEMCInsertion(t *testing.T) {
	flood := func(sw *Switch) int {
		for i := 0; i < 64; i++ {
			k := tcpKey(uint64(0x0a000001+i), 0x0a000002, 1000, 80)
			sw.ProcessKey(1, k) // upcall
			sw.ProcessKey(2, k) // megaflow hit -> EMC install attempt
		}
		return sw.EMC().Len()
	}
	if got := flood(aclSwitch()); got != 64 {
		t.Fatalf("default hierarchy cached %d/64 flows in the EMC, want all", got)
	}
	smcLen := flood(aclSwitch(WithSMC(cache.SMCConfig{Entries: 1 << 12})))
	if smcLen > 16 {
		t.Fatalf("SMC-enabled hierarchy cached %d/64 flows in the EMC; 1/100 insertion should admit almost none", smcLen)
	}
	explicit := flood(aclSwitch(
		WithEMC(cache.EMCConfig{InsertProb: 1}),
		WithSMC(cache.SMCConfig{Entries: 1 << 12})))
	if explicit != 64 {
		t.Fatalf("explicit InsertProb=1 cached %d/64 flows, want all", explicit)
	}
}

// TestBatchWordBoundaries checks processBatch's word-at-a-time bookkeeping
// — the run pass assembling the miss bitmap a 64-key word at a time, the
// tier walk billing each pass's hits per word — against the sequential
// ProcessKey loop, on bursts of 1 to 256 keys whose same-flow runs start
// at, end at and span the word boundaries 63/64 and 127/128. Each burst
// walks cold (upcalls), warm (top-tier hits) and half warm (every other
// run a new flow its neighbour's megaflow covers), so one walk bills hits
// on several tiers across several words. Within a burst a promotion that
// displaces another flow's cache slot takes effect in walk order, not
// packet order (ProcessFrames' visibility rule), so the SMC is sized far
// past the burst for its fingerprint slots not to collide.
func TestBatchWordBoundaries(t *testing.T) {
	layouts := map[string][]int{ // run starts beyond index 0
		"singles":   nil, // every key its own run
		"one-run":   {},
		"at-bounds": {1, 62, 63, 64, 65, 127, 128, 129},
		"spanning":  {60, 70, 120, 135},
	}
	for _, h := range []struct {
		name string
		opts []Option
	}{
		{"emc+tss", nil},
		{"smc+tss", []Option{WithoutEMC(), WithSMC(cache.SMCConfig{Entries: 1 << 20})}},
	} {
		for lname, cuts := range layouts {
			for _, n := range []int{1, 63, 64, 65, 128, 129, 256} {
				t.Run(fmt.Sprintf("%s/%s/%d", h.name, lname, n), func(t *testing.T) {
					seqSW, batchSW := aclSwitch(h.opts...), aclSwitch(h.opts...)
					var fb FrameBatch
					var batchOut []Decision
					for round := 0; round < 3; round++ {
						keys := boundaryBurst(n, cuts, round)
						now := uint64(round + 1)
						batchOut = batchSW.ProcessFrames(now, keyBurst(&fb, keys), batchOut)
						seq := make([]Decision, n)
						for i := range keys {
							seq[i] = seqSW.ProcessKey(now, fb.Key(i))
						}
						batchEq(t, fmt.Sprintf("round %d", round), seq, batchOut, seqSW, batchSW)
					}
				})
			}
		}
	}
}

// boundaryBurst lays n keys out in same-flow runs starting at 0 and at
// every cut below n (nil cuts: every key its own run). Run r carries flow
// r, a distinct key per run, allowed (10/8) or denied by turns; from round
// 2 on, every other run carries a new flow of its allowance instead, which
// misses the exact-match tiers and hits the megaflow the round before
// installed.
func boundaryBurst(n int, cuts []int, round int) []flow.Key {
	keys := make([]flow.Key, n)
	r := 0
	for i := range keys {
		if i > 0 && (cuts == nil || slices.Contains(cuts, i)) {
			r++
		}
		src := uint64(0x0a000000 + r)
		if r%3 == 2 {
			src = uint64(0xc0a80000 + r)
		}
		dport := uint64(80)
		if round >= 2 && r%2 == 1 {
			dport = 8080
		}
		keys[i] = tcpKey(src, 0x0a000002, uint64(1024+r), dport)
	}
	return keys
}

// TestPortCountersMatchOneFrameLoop checks processFrames' per-stretch port
// tallies against the one-frame loop on a burst that changes in-port
// mid-burst, returns to an earlier port, visits a port the switch does not
// have and carries a truncated frame: all six counters of every port, and
// the switch counters, must match Process frame by frame.
func TestPortCountersMatchOneFrameLoop(t *testing.T) {
	build := func() *Switch {
		sw := aclSwitch()
		sw.AddPort(1, "p1")
		sw.AddPort(2, "p2")
		return sw
	}
	seqSW, batchSW := build(), build()
	var fb FrameBatch
	for i := 0; i < 70; i++ {
		src := uint64(0x0a000001 + i%4) // allowed
		if i%5 == 0 {
			src = 0xc0a80001 // denied
		}
		frame, err := pkt.BuildTuple(tcpKey(src, 0x0a000002, uint64(2000+i%4), 80).Tuple(), 64+i)
		if err != nil {
			t.Fatal(err)
		}
		port := uint32(1)
		switch {
		case i >= 20 && i < 35:
			port = 2
		case i >= 35 && i < 40:
			port = 9 // no such port
		}
		if i == 25 || i == 37 {
			frame = frame[:20] // truncated IPv4 header
		}
		fb.Append(frame, port)
	}
	for round := uint64(1); round <= 2; round++ {
		batchSW.ProcessFrames(round, &fb, nil)
		for i, f := range fb.Frames {
			_, err := seqSW.Process(round, fb.InPorts[i], f)
			if (err != nil) != (i == 25 || i == 37) {
				t.Fatalf("frame %d: parse error %v", i, err)
			}
		}
	}
	for _, id := range []uint32{1, 2} {
		if a, b := *seqSW.Port(id), *batchSW.Port(id); a != b {
			t.Fatalf("port %d diverges:\n one-frame %+v\n burst     %+v", id, a, b)
		}
	}
	if p := batchSW.Port(2); p.RxErrors != 2 || p.RxDropped <= p.RxErrors || p.TxPackets == 0 {
		t.Fatalf("port 2 did not see errors, drops and transmits: %+v", *p)
	}
	a, b := seqSW.Counters(), batchSW.Counters()
	if a.Packets != b.Packets || a.ParseError != b.ParseError || a.Allowed != b.Allowed || a.Denied != b.Denied {
		t.Fatalf("switch counters diverge:\n one-frame %+v\n burst     %+v", a, b)
	}
}
