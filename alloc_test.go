// The zero-allocation contract of the frame hot path, asserted at
// runtime. The static side of the same contract is the hotpathalloc
// analyzer (internal/analysis); this test is the dynamic witness that
// the //lint:hotpath call graph really holds 0 allocs/op once the
// reusable scratch is warm.
package policyinject_test

import (
	"net/netip"
	"testing"

	"policyinject/internal/attack"
	"policyinject/internal/burst"
	"policyinject/internal/cache"
	"policyinject/internal/dataplane"
	"policyinject/internal/flow"
	"policyinject/internal/flowtable"
	"policyinject/internal/pkt"
	"policyinject/internal/telemetry"
	"policyinject/internal/traffic"
)

// TestFramePathZeroAlloc replays a warm burst through ProcessFrames and
// requires zero heap allocations per call, on both the benchmark
// workloads: the EMC-hit victim mix and the 8192-mask staged megaflow
// sweep. The telemetry legs re-run both with a live registry attached —
// instrument recording shares the contract, so scraping in production
// costs no hot-path garbage. The sharded legs run the same bursts through
// WithShards(8) — EMC hits, the flat sweep and the staged sweep — and so
// hold the per-shard miss bitmaps the sharded LookupBatch deals out (scratch
// of the caller's own miss bitmap: concurrent callers share the wrapper, so
// it cannot live there) to the same zero. The emc-thrash leg sends 256 flows
// through a 64-entry always-insert EMC, so every burst inserts and evicts: the
// cache's slots are its own storage, reused in place. The smc-thrash leg sends
// 1 024 flows, each under a megaflow of its own, through a 64-entry EMC and a
// 256-entry SMC, so every burst overwrites SMC slots with other entries and
// frees and reuses their refs. The mix-emc-smc leg is the mix_smc workload's
// shape: bursts of 4 096 frames from a Zipf mix of 4 096 flows through a
// 512-entry EMC inserting one miss in 100 and a 16 384-slot SMC, so the SMC
// hits and the EMC fills, then inserts and evicts. The victim-emc-malformed
// leg cuts one frame of the burst short inside its TCP header: the full
// decoder's error, the compaction of the other 255 keys with their hashes and
// the malformed frame's accounting allocate nothing either.
func TestFramePathZeroAlloc(t *testing.T) {
	cases := []struct {
		name      string
		build     func() *dataplane.Switch
		burst     int
		flows     int  // victim flows of a thrash leg, 0 for victimGen's 8
		mix       int  // flows of a Zipf mix sent instead of the victim's
		truncated bool // the burst's middle frame is cut inside its TCP header
	}{
		{
			name:  "victim-emc",
			build: func() *dataplane.Switch { return attackSwitch(t, attack.TwoField(), false) },
			burst: 256,
		},
		{
			name:  "attack8192-megaflow",
			build: func() *dataplane.Switch { return attackSwitch(t, attack.ThreeField(), true, noEMC) },
			burst: 32,
		},
		{
			name: "victim-emc-telemetry",
			build: func() *dataplane.Switch {
				return attackSwitch(t, attack.TwoField(), false,
					dataplane.WithTelemetry(telemetry.NewRegistry()))
			},
			burst: 256,
		},
		{
			name: "attack8192-megaflow-telemetry",
			build: func() *dataplane.Switch {
				return attackSwitch(t, attack.ThreeField(), true, noEMC,
					dataplane.WithTelemetry(telemetry.NewRegistry()))
			},
			burst: 32,
		},
		{
			name: "victim-emc-sharded",
			build: func() *dataplane.Switch {
				return attackSwitch(t, attack.TwoField(), false, dataplane.WithShards(8))
			},
			burst: 256,
		},
		{
			name: "attack8192-megaflow-sharded",
			build: func() *dataplane.Switch {
				return attackSwitch(t, attack.ThreeField(), true, noEMC, dataplane.WithShards(8))
			},
			burst: 32,
		},
		{
			name: "attack8192-staged-sharded",
			build: func() *dataplane.Switch {
				return attackSwitch(t, attack.ThreeField(), true, noEMC,
					dataplane.WithShards(8), dataplane.WithStagedPruning())
			},
			burst: 32,
		},
		{
			name:      "victim-emc-malformed",
			build:     func() *dataplane.Switch { return attackSwitch(t, attack.TwoField(), false) },
			burst:     256,
			truncated: true,
		},
		{
			name: "emc-thrash",
			build: func() *dataplane.Switch {
				return attackSwitch(t, attack.TwoField(), false,
					dataplane.WithEMC(cache.EMCConfig{Entries: 64, InsertProb: 1}))
			},
			burst: 256,
			flows: 256,
		},
		{
			name: "smc-thrash",
			build: func() *dataplane.Switch {
				sw := attackSwitch(t, attack.TwoField(), false,
					dataplane.WithEMC(cache.EMCConfig{Entries: 64}),
					dataplane.WithSMC(cache.SMCConfig{Entries: 256}))
				// A rule per victim flow: each flow installs a megaflow of its
				// own, so an SMC overwrite changes the referenced entry.
				for i := range 1024 {
					var m flow.Match
					m.Key.Set(flow.FieldInPort, 1)
					m.Mask.SetExact(flow.FieldInPort)
					m.Key.Set(flow.FieldTPSrc, 49152+uint64(i))
					m.Mask.SetExact(flow.FieldTPSrc)
					sw.InstallRule(flowtable.Rule{Match: m, Priority: 150, Action: flowtable.Action{Verdict: flowtable.Allow}})
				}
				return sw
			},
			burst: 1024,
			flows: 1024,
		},
		{
			name: "mix-emc-smc",
			build: func() *dataplane.Switch {
				return attackSwitch(t, attack.TwoField(), false,
					dataplane.WithEMC(cache.EMCConfig{Entries: 512, InsertProb: 100}),
					dataplane.WithSMC(cache.SMCConfig{Entries: 16384}))
			},
			burst: 4096,
			mix:   4096,
		},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			sw := tc.build()
			var gen traffic.FrameSource = victimGen()
			switch {
			case tc.mix > 0:
				gen = traffic.NewMix(traffic.MixConfig{
					Seed: 1, NFlows: tc.mix, Subnet: netip.MustParsePrefix("10.10.0.0/16"),
					InPort: 1, FrameLen: 64,
				})
			case tc.flows > 0:
				gen = traffic.NewVictim(traffic.VictimConfig{
					Src: netip.MustParseAddr("10.10.0.5"), Dst: netip.MustParseAddr("172.16.0.2"),
					InPort: 1, Flows: tc.flows,
				})
			}
			var fb dataplane.FrameBatch
			for i := 0; i < tc.burst; i++ {
				f, _ := gen.NextFrame()
				if tc.truncated && i == tc.burst/2 {
					f = f[:pkt.EthHeaderLen+pkt.IPv4HeaderLen+pkt.TCPHeaderLen-1]
				}
				fb.Append(f, 1)
			}
			out := sw.ProcessFrames(1, &fb, nil) // warm caches and scratch
			if bad := sw.Counters().ParseError; tc.truncated != (bad == 1) {
				t.Fatalf("%d parse errors in the warm-up burst, want the truncated frame's alone", bad)
			}
			var evictions, smcHits uint64
			if tc.mix > 0 {
				emc, _ := tierStats(sw, "emc")
				smc, _ := tierStats(sw, "smc")
				evictions, smcHits = emc.Evictions, smc.Hits
			}
			avg := testing.AllocsPerRun(100, func() {
				out = sw.ProcessFrames(2, &fb, out)
			})
			if avg != 0 {
				t.Errorf("ProcessFrames allocates %.1f times per warm burst; the hot path must hold 0", avg)
			}
			if tc.mix > 0 {
				emc, _ := tierStats(sw, "emc")
				smc, _ := tierStats(sw, "smc")
				if emc.Evictions == evictions || smc.Hits == smcHits {
					t.Errorf("%d EMC evictions and %d SMC hits over 100 bursts of the mix: the leg did not insert into a full EMC behind SMC hits",
						emc.Evictions-evictions, smc.Hits-smcHits)
				}
				return
			}
			if smc, ok := tierStats(sw, "smc"); ok {
				if smc.Evictions < 100*uint64(smc.Capacity) || sw.Megaflow().Len() < tc.flows {
					t.Errorf("%d SMC evictions over 100 bursts of %d flows under %d megaflows: the leg did not thrash", smc.Evictions, tc.flows, sw.Megaflow().Len())
				}
			} else if emc, _ := tierStats(sw, "emc"); tc.flows > 0 && emc.Evictions < 100*uint64(tc.flows-emc.Capacity) {
				t.Errorf("%d EMC evictions over 100 bursts of %d flows: the leg did not thrash", emc.Evictions, tc.flows)
			}
		})
	}
}

// TestMissBurstAllocs bounds what a burst that misses everywhere allocates:
// 32 covert frames of the three-field stream, each an upcall that mints a mask
// — a megaflow and its subtable per frame, and nothing per burst: the put log
// the upcall tail fills is emptied in place by the next burst's sweep. The
// bound, 64, is what the tree allocated before it kept a put log (the mean
// over bursts 2 to 101 of the stream, rounded down as AllocsPerRun rounds).
func TestMissBurstAllocs(t *testing.T) {
	atk := attack.ThreeField()
	sw := attackSwitch(t, atk, false, noEMC)
	frames, err := atk.Frames()
	if err != nil {
		t.Fatal(err)
	}
	const burstLen = 32
	ports := make([]uint32, burstLen)
	for i := range ports {
		ports[i] = 66
	}
	var fb dataplane.FrameBatch
	var out []dataplane.Decision
	next := 0
	miss := func() {
		fb.Frames, fb.InPorts = frames[next:next+burstLen], ports
		next += burstLen
		out = sw.ProcessFrames(1, &fb, out)
	}
	miss() // scratch, and the put log's backing array
	avg := testing.AllocsPerRun(100, miss)
	if up := sw.Counters().Upcalls; up != uint64(next) {
		t.Fatalf("%d upcalls for %d frames: the bursts did not miss everywhere", up, next)
	}
	if avg > 2*burstLen {
		t.Errorf("an all-miss burst of %d allocates %.0f times; before the put log it held %d", burstLen, avg, 2*burstLen)
	}
}

// TestSweepScratchOnStack holds the flat sweep's scratch — the gathered key
// words and the groups of four scan tests a single row with — to its caller's
// stack: a full miss word of 64 keys, all on the rows' port and so past the
// first-word test, half rejected on a row's third word and half on its second
// and third together, swept down 96 single rows by LookupBatch, and one key by
// the scalar Lookup, allocate nothing. Scratch on the cache would be shared by
// a shard child's concurrent readers.
func TestSweepScratchOnStack(t *testing.T) {
	m := cache.NewMegaflow(cache.MegaflowConfig{})
	for i := range 96 {
		var match flow.Match
		match.Key.Set(flow.FieldInPort, 66)
		match.Mask.SetExact(flow.FieldInPort)
		match.Key.Set(flow.FieldIPSrc, 0x0a000001^1<<uint(31-i%32))
		match.Mask.SetPrefix(flow.FieldIPSrc, i%32+1)
		match.Key.Set(flow.FieldTPDst, 80^1<<uint(15-i/32))
		match.Mask.SetPrefix(flow.FieldTPDst, i/32+1)
		if _, err := m.Insert(match, cache.Verdict{}, 1); err != nil {
			t.Fatal(err)
		}
	}
	if m.NumMasks() != 96 || m.Len() != 96 {
		t.Fatalf("%d entries under %d masks, want 96 one-entry subtables", m.Len(), m.NumMasks())
	}
	keys := make([]flow.Key, 64)
	for i := range keys {
		keys[i].Set(flow.FieldInPort, 66)
		keys[i].Set(flow.FieldIPSrc, 0x0a000001)         // diverges from every row
		keys[i].Set(flow.FieldTPDst, 80^uint64(i%2)<<15) // off every row's, or rows 0-31 pass it
		keys[i].Set(flow.FieldTPSrc, uint64(1024+i))
	}
	ents, costs := make([]*cache.Entry, len(keys)), make([]int, len(keys))
	var miss burst.Bitmap
	if avg := testing.AllocsPerRun(100, func() {
		miss.Reset(len(keys))
		miss.SetAll()
		m.LookupBatch(keys, 2, ents, costs, &miss)
	}); avg != 0 {
		t.Errorf("LookupBatch over 64 misses allocates %.1f times; the sweep's scratch must stay on the stack", avg)
	}
	if miss.Count() != len(keys) {
		t.Fatalf("%d of %d keys missed: the sweep did not run the whole scan order", miss.Count(), len(keys))
	}
	if avg := testing.AllocsPerRun(100, func() { m.Lookup(keys[1], 2) }); avg != 0 {
		t.Errorf("Lookup allocates %.1f times; the sweep's scratch must stay on the stack", avg)
	}
}

// tierStats returns the counters of the switch's tier named name, and
// whether the hierarchy has one.
func tierStats(sw *dataplane.Switch, name string) (dataplane.TierStats, bool) {
	for _, t := range sw.Tiers() {
		if t.Name() == name {
			return t.Stats(), true
		}
	}
	return dataplane.TierStats{}, false
}
