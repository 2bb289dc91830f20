package dataplane

import (
	"fmt"
	"net/netip"
	"slices"
	"testing"

	"policyinject/internal/cache"
	"policyinject/internal/flow"
	"policyinject/internal/flowtable"
	"policyinject/internal/pkt"
)

// frameCorpus builds a well-formed traffic mix against the aclSwitch rule
// set: allowed 10/8 flows (with consecutive duplicate runs — the batch
// visibility rule holds exactly for those) and denied outsiders.
func frameCorpus() [][]byte {
	var frames [][]byte
	add := func(src, dst string, sport, dport uint16, copies int) {
		f := pkt.MustBuild(pkt.Spec{
			Src: netip.MustParseAddr(src), Dst: netip.MustParseAddr(dst),
			Proto: pkt.ProtoTCP, SrcPort: sport, DstPort: dport, FrameLen: 128,
		})
		for i := 0; i < copies; i++ {
			frames = append(frames, f)
		}
	}
	for i := 0; i < 12; i++ {
		add("10.0.7.1", "10.0.0.9", uint16(30000+i), 443, 1+i%4)
	}
	add("192.168.3.3", "10.0.0.9", 5555, 22, 3) // denied
	add("10.1.1.1", "10.0.0.9", 40000, 80, 5)
	return frames
}

// TestProcessFramesMatchesScalarProcess is the frame-first conformance
// test: on well-formed traffic, ProcessFrames must produce byte-identical
// decisions, switch counters, tier stats and port counters to a looped
// scalar Process, across the stock hierarchies (the SMC one also
// exercises the hashed install path against scalar re-hash installs).
func TestProcessFramesMatchesScalarProcess(t *testing.T) {
	hierarchies := []struct {
		name string
		opts []Option
	}{
		{"emc+tss", nil},
		{"tss-only", []Option{WithoutEMC()}},
		// InsertProb 1 keeps EMC insertion deterministic: with the forced
		// 1/100 policy the PRNG draw *order* differs between a scalar loop
		// and the batch walk, which is outside the equivalence contract.
		{"emc+smc+tss", []Option{
			WithEMC(cache.EMCConfig{InsertProb: 1}),
			WithSMC(cache.SMCConfig{Entries: 1 << 12}),
		}},
		{"smc+tss", []Option{WithoutEMC(), WithSMC(cache.SMCConfig{Entries: 1 << 12})}},
	}
	frames := frameCorpus()
	for _, h := range hierarchies {
		t.Run(h.name, func(t *testing.T) {
			build := func() *Switch {
				sw := aclSwitch(h.opts...)
				sw.AddPort(1, "vport1")
				return sw
			}
			seqSW, batchSW := build(), build()
			var fb FrameBatch
			var batchOut []Decision
			for round := 0; round < 3; round++ { // cold, warming, warm
				now := uint64(round + 1)
				seqOut := make([]Decision, 0, len(frames))
				for _, f := range frames {
					d, err := seqSW.Process(now, 1, f)
					if err != nil {
						t.Fatalf("scalar Process: %v", err)
					}
					seqOut = append(seqOut, d)
				}
				fb.Reset()
				for _, f := range frames {
					fb.Append(f, 1)
				}
				batchOut = batchSW.ProcessFrames(now, &fb, batchOut)
				batchEq(t, fmt.Sprintf("round %d", round), seqOut, batchOut, seqSW, batchSW)
				for i := range frames {
					if fb.Err(i) != nil {
						t.Fatalf("round %d frame %d: unexpected parse error %v", round, i, fb.Err(i))
					}
				}
				if *seqSW.Port(1) != *batchSW.Port(1) {
					t.Fatalf("round %d: port counters diverge:\n scalar %+v\n frames %+v",
						round, *seqSW.Port(1), *batchSW.Port(1))
				}
			}
			// Tier hit counts are compared by batchEq. Raw per-tier miss
			// counters are legitimately different on cold bursts: the
			// inverted megaflow sweep probes every representative before
			// the upcall tail installs, where the scalar loop benefits
			// from each upcall immediately.
		})
	}
}

// TestProcessFramesTruncatedFrameDoesNotAbortBurst is the error-policy
// regression test: one truncated frame in a burst gets its own error slot
// and RxErrors accounting while every other frame classifies exactly as it
// would in an all-valid burst.
func TestProcessFramesTruncatedFrameDoesNotAbortBurst(t *testing.T) {
	valid := frameCorpus()
	truncated := valid[0][:9]

	clean, dirty := aclSwitch(), aclSwitch()
	clean.AddPort(1, "vport1")
	dirty.AddPort(1, "vport1")

	var fb FrameBatch
	for _, f := range valid {
		fb.Append(f, 1)
	}
	cleanOut := clean.ProcessFrames(1, &fb, nil)
	cleanDecisions := append([]Decision(nil), cleanOut...)

	const badAt = 3
	fb.Reset()
	for i, f := range valid {
		if i == badAt {
			fb.Append(truncated, 1)
		}
		fb.Append(f, 1)
	}
	dirtyOut := dirty.ProcessFrames(1, &fb, nil)

	if fb.Err(badAt) == nil {
		t.Fatal("truncated frame produced no error slot")
	}
	if d := dirtyOut[badAt]; d.Verdict.Verdict != flowtable.Deny {
		t.Fatalf("truncated frame decision = %+v, want deny", d)
	}
	for i, want := range cleanDecisions {
		j := i
		if i >= badAt {
			j = i + 1
		}
		if fb.Err(j) != nil {
			t.Fatalf("valid frame %d reported error %v", j, fb.Err(j))
		}
		if dirtyOut[j] != want {
			t.Fatalf("valid frame %d: decision %+v != clean-burst %+v", j, dirtyOut[j], want)
		}
		// Key(i) must stay frame-aligned even though the classifier ran
		// over a compacted sub-burst.
		if wantK, err := pkt.Extract(valid[i], 1); err != nil || fb.Key(j) != wantK {
			t.Fatalf("valid frame %d: Key misaligned after compaction", j)
		}
	}

	cc, dc := clean.Counters(), dirty.Counters()
	if dc.ParseError != 1 || cc.ParseError != 0 {
		t.Fatalf("ParseError: clean %d, dirty %d", cc.ParseError, dc.ParseError)
	}
	if dc.Packets != cc.Packets+1 {
		t.Fatalf("Packets: clean %d, dirty %d", cc.Packets, dc.Packets)
	}
	if dc.Allowed != cc.Allowed || dc.Denied != cc.Denied || dc.Upcalls != cc.Upcalls {
		t.Fatalf("verdict counters diverge:\n clean %+v\n dirty %+v", cc, dc)
	}
	p := dirty.Port(1)
	if p.RxErrors != 1 {
		t.Fatalf("RxErrors = %d, want 1", p.RxErrors)
	}
	if want := clean.Port(1).RxDropped + 1; p.RxDropped != want {
		t.Fatalf("RxDropped = %d, want %d", p.RxDropped, want)
	}
}

// TestMalformedFramesMatchOneFrameLoop puts one truncated frame first, in the
// middle and last of a burst, on hierarchies that consume the flow hashes the
// extract pass computes: the compaction around the bad frame must carry each
// hash beside its key, or the frames behind it probe the EMC and SMC (and the
// pool's RSS and shards) by a neighbour's hash. Decisions, counters and tier
// hits must equal those of a one-frame loop. The switch runs cold, warming and
// warm bursts, and so does a bare megaflow switch, which asks for no hashes at
// all; the shared pool, whose two PMDs install into the same tiers
// concurrently, is warmed by the one-frame loop first so its compared bursts
// install nothing.
func TestMalformedFramesMatchOneFrameLoop(t *testing.T) {
	valid := frameCorpus()
	truncated := valid[0][:pkt.EthHeaderLen+pkt.IPv4HeaderLen+pkt.TCPHeaderLen-1]
	opts := []Option{WithEMC(cache.EMCConfig{InsertProb: 1}), WithSMC(cache.SMCConfig{Entries: 1 << 12})}
	hierarchies := map[string][]Option{"emc+smc": opts, "tss-only": {WithoutEMC()}}
	fill := func(fb *FrameBatch, frames [][]byte) {
		fb.Reset()
		for _, f := range frames {
			fb.Append(f, 1)
		}
	}
	for _, at := range []int{0, len(valid) / 2, len(valid)} {
		frames := slices.Insert(slices.Clone(valid), at, truncated)

		for name, hopts := range hierarchies {
			t.Run(fmt.Sprintf("%s/bad@%d", name, at), func(t *testing.T) {
				build := func() *Switch {
					sw := aclSwitch(hopts...)
					sw.AddPort(1, "vport1")
					return sw
				}
				seqSW, batchSW := build(), build()
				var fb FrameBatch
				var batchOut []Decision
				for round := 0; round < 3; round++ {
					now := uint64(round + 1)
					seqOut := make([]Decision, len(frames))
					for i, f := range frames {
						seqOut[i], _ = seqSW.Process(now, 1, f)
					}
					fill(&fb, frames)
					batchOut = batchSW.ProcessFrames(now, &fb, batchOut)
					batchEq(t, fmt.Sprintf("round %d", round), seqOut, batchOut, seqSW, batchSW)
					if *seqSW.Port(1) != *batchSW.Port(1) {
						t.Fatalf("round %d: port counters diverge:\n one-frame %+v\n burst     %+v",
							round, *seqSW.Port(1), *batchSW.Port(1))
					}
				}
			})
		}

		t.Run(fmt.Sprintf("shared-pool/bad@%d", at), func(t *testing.T) {
			build := func() *PMDPool {
				pool := NewSharedPMDPool(2, "pool", opts...)
				var m flow.Match
				m.Key.Set(flow.FieldIPSrc, 0x0a000000)
				m.Mask.SetPrefix(flow.FieldIPSrc, 8)
				pool.InstallRule(flowtable.Rule{Match: m, Priority: 10, Action: flowtable.Action{Verdict: flowtable.Allow}})
				pool.InstallRule(flowtable.Rule{Priority: 0})
				return pool
			}
			var one, fb FrameBatch
			oneFrameLoop := func(pool *PMDPool, now uint64) []Decision {
				out := make([]Decision, len(frames))
				for i, f := range frames {
					fill(&one, [][]byte{f})
					out[i] = pool.ProcessFrames(now, &one, nil)[0]
				}
				return out
			}
			seqPool, batchPool := build(), build()
			oneFrameLoop(seqPool, 1)
			oneFrameLoop(batchPool, 1)
			for round := 2; round < 4; round++ {
				now := uint64(round)
				seqOut := oneFrameLoop(seqPool, now)
				fill(&fb, frames)
				batchOut := batchPool.ProcessFrames(now, &fb, nil)
				for i := range seqOut {
					if seqOut[i] != batchOut[i] {
						t.Fatalf("round %d frame %d: one-frame %+v != burst %+v", round, i, seqOut[i], batchOut[i])
					}
				}
				for i := 0; i < seqPool.N(); i++ {
					batchEq(t, fmt.Sprintf("round %d pmd %d", round, i), nil, nil, seqPool.PMD(i), batchPool.PMD(i))
				}
			}
		})
	}
}

// TestScalarProcessIsOneFrameBatch pins the demotion: Process must report
// the parse error and the same accounting the frame path gives a
// one-frame burst.
func TestScalarProcessIsOneFrameBatch(t *testing.T) {
	sw := aclSwitch()
	sw.AddPort(1, "vport1")
	if _, err := sw.Process(1, 1, []byte{1, 2, 3}); err == nil {
		t.Fatal("truncated frame accepted")
	}
	if sw.Port(1).RxErrors != 1 || sw.Port(1).RxDropped != 1 {
		t.Fatalf("port counters: %+v", *sw.Port(1))
	}
	good := pkt.MustBuild(pkt.Spec{
		Src: netip.MustParseAddr("10.0.0.1"), Dst: netip.MustParseAddr("10.0.0.9"),
		Proto: pkt.ProtoTCP, SrcPort: 1, DstPort: 80,
	})
	d, err := sw.Process(2, 1, good)
	if err != nil || d.Verdict.Verdict != flowtable.Allow {
		t.Fatalf("d=%+v err=%v", d, err)
	}
	if sw.Port(1).TxPackets != 1 {
		t.Fatalf("port counters: %+v", *sw.Port(1))
	}
}

// TestPMDPoolProcessFrames checks the pool's frame ingress: decisions
// equal a ProcessKey loop over the extracted keys, each on the PMD RSS
// steers it to, and a malformed frame is billed to PMD 0 without
// derailing the burst.
func TestPMDPoolProcessFrames(t *testing.T) {
	build := func() *PMDPool {
		pool := NewPMDPool(4, "pool")
		var m flow.Match
		m.Key.Set(flow.FieldIPSrc, 0x0a000000)
		m.Mask.SetPrefix(flow.FieldIPSrc, 8)
		pool.InstallRule(flowtable.Rule{Match: m, Priority: 10, Action: flowtable.Action{Verdict: flowtable.Allow}})
		pool.InstallRule(flowtable.Rule{Priority: 0})
		return pool
	}
	frames := frameCorpus()

	keyPool, framePool := build(), build()
	var fb FrameBatch
	for _, f := range frames {
		fb.Append(f, 1)
	}
	keys, _, _ := fb.Extract()
	keysCopy := append([]flow.Key(nil), keys...)
	for round := 0; round < 2; round++ {
		now := uint64(round + 1)
		frameOut := framePool.ProcessFrames(now, &fb, nil)
		for i, k := range keysCopy {
			if d := keyPool.PMD(keyPool.Steer(k)).ProcessKey(now, k); d != frameOut[i] {
				t.Fatalf("round %d frame %d: key-path %+v != frame-path %+v", round, i, d, frameOut[i])
			}
		}
	}

	dirty := build()
	fb.Reset()
	fb.Append([]byte{0xff}, 1)
	for _, f := range frames {
		fb.Append(f, 1)
	}
	out := dirty.ProcessFrames(1, &fb, nil)
	if out[0].Verdict.Verdict != flowtable.Deny {
		t.Fatalf("malformed frame decision: %+v", out[0])
	}
	if got := dirty.PMD(0).Counters().ParseError; got != 1 {
		t.Fatalf("PMD 0 ParseError = %d, want 1", got)
	}
	total := uint64(0)
	for i := 0; i < dirty.N(); i++ {
		total += dirty.PMD(i).Counters().Packets
	}
	if want := uint64(len(frames) + 1); total != want {
		t.Fatalf("pool packets = %d, want %d", total, want)
	}
}
