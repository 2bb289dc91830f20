// Package policyinject_test is the benchmark harness: one benchmark per
// paper table/figure plus the ablations called out in DESIGN.md §6. Run
//
//	go test -bench=. -benchmem
//
// and compare against EXPERIMENTS.md. Where a benchmark corresponds to a
// paper artefact, the mapping is noted in its comment.
package policyinject_test

import (
	"fmt"
	"net/netip"
	"runtime"
	"sync"
	"sync/atomic"
	"testing"

	"policyinject/internal/acl"
	"policyinject/internal/attack"
	"policyinject/internal/baseline"
	"policyinject/internal/cache"
	"policyinject/internal/classifier"
	"policyinject/internal/conntrack"
	"policyinject/internal/dataplane"
	"policyinject/internal/flow"
	"policyinject/internal/flowtable"
	"policyinject/internal/guard"
	"policyinject/internal/pkt"
	"policyinject/internal/revalidator"
	"policyinject/internal/telemetry"
	"policyinject/internal/traffic"
)

// attackSwitch builds a switch carrying the attack's compiled ACL (scoped
// to the attacker port) plus a victim whitelist, optionally pre-loaded
// with the covert stream.
func attackSwitch(b testing.TB, atk *attack.Attack, executed bool, opts ...dataplane.Option) *dataplane.Switch {
	b.Helper()
	sw := dataplane.New("bench", opts...)
	installAttackPolicy(b, atk, func(r flowtable.Rule) { sw.InstallRule(r) })
	if executed {
		for _, k := range covertKeys(b, atk) {
			sw.ProcessKey(1, k)
		}
	}
	return sw
}

// installAttackPolicy installs the shared benchmark rule set — victim
// whitelist, default deny, attacker ACL — through any installer (a bare
// switch or a PMD pool primary).
func installAttackPolicy(b testing.TB, atk *attack.Attack, install func(flowtable.Rule)) {
	b.Helper()
	// Victim whitelist on port 1. eth_type is pinned exactly as the CMS
	// compiler does; it keeps the victim's megaflow mask distinct from
	// every covert mask, so the victim entry sits at the end of the scan
	// order — the paper's post-flush position.
	var vm flow.Match
	vm.Key.Set(flow.FieldInPort, 1)
	vm.Mask.SetExact(flow.FieldInPort)
	vm.Key.Set(flow.FieldEthType, flow.EthTypeIPv4)
	vm.Mask.SetExact(flow.FieldEthType)
	vm.Key.Set(flow.FieldIPSrc, 0x0a0a0000)
	vm.Mask.SetPrefix(flow.FieldIPSrc, 24)
	install(flowtable.Rule{Match: vm, Priority: 100, Action: flowtable.Action{Verdict: flowtable.Allow}})
	var dm flow.Match
	dm.Key.Set(flow.FieldInPort, 1)
	dm.Mask.SetExact(flow.FieldInPort)
	install(flowtable.Rule{Match: dm, Priority: 0})
	// Attack ACL on port 66.
	theACL, err := atk.BuildACL()
	if err != nil {
		b.Fatal(err)
	}
	rules, err := theACL.Compile()
	if err != nil {
		b.Fatal(err)
	}
	for _, r := range rules {
		r.Match.Key.Set(flow.FieldInPort, 66)
		r.Match.Mask.SetExact(flow.FieldInPort)
		install(r)
	}
}

// covertKeys is the attacker's covert stream, scoped to port 66.
func covertKeys(b testing.TB, atk *attack.Attack) []flow.Key {
	b.Helper()
	keys, err := atk.Keys()
	if err != nil {
		b.Fatal(err)
	}
	for i := range keys {
		keys[i].Set(flow.FieldInPort, 66)
	}
	return keys
}

func victimGen() *traffic.Victim {
	return traffic.NewVictim(traffic.VictimConfig{
		Src:    netip.MustParseAddr("10.10.0.5"),
		Dst:    netip.MustParseAddr("172.16.0.2"),
		InPort: 1,
	})
}

var noEMC = dataplane.WithoutEMC()

// BenchmarkFig2bSlowPath — E1 (paper Fig. 2b): slow-path classification +
// megaflow synthesis for the single-field ACL, one probe per divergence
// depth.
func BenchmarkFig2bSlowPath(b *testing.B) {
	var tbl flowtable.Table
	cls := classifier.New(classifier.Config{})
	var m flow.Match
	m.Key.Set(flow.FieldIPSrc, 0x0a000000)
	m.Mask.SetPrefix(flow.FieldIPSrc, 8)
	for _, r := range []flowtable.Rule{
		{Match: m, Priority: 10, Action: flowtable.Action{Verdict: flowtable.Allow}},
		{Priority: 0},
	} {
		cls.Insert(tbl.Insert(r))
	}
	probes := make([]flow.Key, 9)
	for i, p := range []uint64{0x0a, 0x80, 0x40, 0x20, 0x10, 0x00, 0x0c, 0x08, 0x0b} {
		probes[i].Set(flow.FieldIPSrc, p<<24)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		cls.Lookup(probes[i%len(probes)])
	}
}

// BenchmarkMaskInjection — §2 mask-count table: full covert-stream
// execution (upcalls + installs) for each attack configuration. The
// "masks" metric must read 8 / 512 / 8192.
func BenchmarkMaskInjection(b *testing.B) {
	for _, c := range []struct {
		name string
		atk  func() *attack.Attack
	}{
		{"single8", attack.SingleField},
		{"two512", attack.TwoField},
		{"three8192", attack.ThreeField},
	} {
		b.Run(c.name, func(b *testing.B) {
			atk := c.atk()
			sw := attackSwitch(b, atk, false, noEMC)
			keys, _ := atk.Keys()
			for j := range keys {
				keys[j].Set(flow.FieldInPort, 66)
			}
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				sw.ProcessKey(1, keys[i%len(keys)])
			}
			b.ReportMetric(float64(sw.Megaflow().NumMasks()), "masks")
		})
	}
}

// BenchmarkTSSLookupMasks — E3/E5 (the "10% of peak" and DoS claims):
// victim megaflow-hit cost as a function of resident mask count, on the
// path the repo benchmark's attack8192_flat measures — 8-frame victim
// bursts through ProcessFrames, kernel datapath model. The paper's
// degradation curve is ns/op growing linearly in masks; ns/visit is its
// slope (time per subtable a key is probed against), with the fast path's
// fixed cost folded in on the low rungs. port=victim is rejected on the rows'
// first masked word — the in-port — four keys a compare; port=attacker offers
// the same frames on the attacker's port, where the injected ACL's default deny
// decides them: they pass every first word and are rejected on the deeper
// ones, the row's third word or its second and third together. Both legs are
// expected at ~0.7-0.8 ns/visit at 8 192 masks.
func BenchmarkTSSLookupMasks(b *testing.B) {
	atk := attack.ThreeField()
	covert := covertKeys(b, atk)
	for _, masks := range []int{1, 8, 64, 512, 2048, 8192} {
		for _, port := range []struct {
			name string
			id   uint32
		}{{"victim", 1}, {"attacker", 66}} {
			b.Run(fmt.Sprintf("masks=%d/port=%s", masks, port.name), func(b *testing.B) {
				sw := attackSwitch(b, atk, false, noEMC)
				sw.ProcessBatch(1, covert[:min(masks-1, len(covert))], nil)
				gen := victimGen()
				var fb dataplane.FrameBatch
				for range 8 {
					f, _ := gen.NextFrame()
					fb.Append(f, port.id)
				}
				out := sw.ProcessFrames(1, &fb, nil) // the frames' megaflow installs last
				mf := sw.Megaflow()
				visits := func() uint64 { return mf.MasksScanned - mf.RunBilledScans }
				before := visits()
				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					out = sw.ProcessFrames(2, &fb, out)
				}
				b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(visits()-before), "ns/visit")
				b.ReportMetric(float64(mf.NumMasks()), "masks")
			})
		}
	}
}

// BenchmarkFig3VictimPath — Fig. 3's two operating points: the victim's
// per-packet cost before the attack and with the 8192-mask attack
// resident (kernel-datapath model). The ratio is the figure's collapse.
func BenchmarkFig3VictimPath(b *testing.B) {
	for _, attacked := range []bool{false, true} {
		name := "before"
		if attacked {
			name = "under-attack"
		}
		b.Run(name, func(b *testing.B) {
			sw := attackSwitch(b, attack.ThreeField(), attacked, noEMC)
			gen := victimGen()
			sw.ProcessKey(1, gen.Next())
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				sw.ProcessKey(2, gen.Next())
			}
		})
	}
}

// BenchmarkBaselineUnderAttack — E6: the cache-less ESWITCH-style switch
// under the same covert stream; ns/op must not depend on the attack.
func BenchmarkBaselineUnderAttack(b *testing.B) {
	for _, attacked := range []bool{false, true} {
		name := "before"
		if attacked {
			name = "under-attack"
		}
		b.Run(name, func(b *testing.B) {
			atk := attack.TwoField()
			sw := baseline.New(baseline.Config{})
			theACL, _ := atk.BuildACL()
			rules, _ := theACL.Compile()
			for _, r := range rules {
				sw.InstallRule(r)
			}
			if attacked {
				keys, _ := atk.Keys()
				for _, k := range keys {
					sw.ProcessKey(1, k)
				}
			}
			gen := victimGen()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				sw.ProcessKey(2, gen.Next())
			}
		})
	}
}

// BenchmarkEMCEffect — ablation: the exact-match cache's contribution on
// friendly traffic (userspace vs kernel datapath), before and under
// attack. The EMC hides established flows even under attack; the kernel
// model does not — exactly why the paper's Kubernetes demo collapses.
func BenchmarkEMCEffect(b *testing.B) {
	configs := []struct {
		name string
		opts []dataplane.Option
	}{
		{"emc", nil},
		{"no-emc", []dataplane.Option{noEMC}},
	}
	for _, c := range configs {
		for _, attacked := range []bool{false, true} {
			name := c.name + "/before"
			if attacked {
				name = c.name + "/under-attack"
			}
			b.Run(name, func(b *testing.B) {
				sw := attackSwitch(b, attack.TwoField(), attacked, c.opts...)
				gen := victimGen()
				sw.ProcessKey(1, gen.Next())
				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					sw.ProcessKey(2, gen.Next())
				}
			})
		}
	}
}

// BenchmarkSortedTSS — ablation: hit-count subtable ordering under attack,
// for an established flow (rescued) — compare against
// BenchmarkFig3VictimPath/under-attack to see the gap churn pays.
func BenchmarkSortedTSS(b *testing.B) {
	sw := attackSwitch(b, attack.TwoField(), true,
		noEMC,
		dataplane.WithMegaflow(cache.MegaflowConfig{SortByHits: true, SortEvery: 256}))
	gen := victimGen()
	for i := 0; i < 1024; i++ { // let the ordering settle
		sw.ProcessKey(1, gen.Next())
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		sw.ProcessKey(2, gen.Next())
	}
}

// BenchmarkUnwildcarding — ablation of the root cause: slow-path lookup
// with and without trie-gated subtable skipping. Disabling prefix
// tracking removes the attack surface (megaflows get full-width masks)
// at the cost of probing every subtable.
func BenchmarkUnwildcarding(b *testing.B) {
	for _, c := range []struct {
		name   string
		fields []flow.FieldID
	}{
		{"tries-on", nil},
		{"tries-off", []flow.FieldID{}},
	} {
		b.Run(c.name, func(b *testing.B) {
			var tbl flowtable.Table
			cls := classifier.New(classifier.Config{PrefixFields: c.fields})
			atk := attack.TwoField()
			theACL, _ := atk.BuildACL()
			rules, _ := theACL.Compile()
			for _, r := range rules {
				cls.Insert(tbl.Insert(r))
			}
			keys, _ := atk.Keys()
			b.ResetTimer()
			masks := map[flow.Mask]bool{}
			for i := 0; i < b.N; i++ {
				res := cls.Lookup(keys[i%len(keys)])
				masks[res.Megaflow.Mask] = true
			}
			b.ReportMetric(float64(len(masks)), "distinct-masks")
		})
	}
}

// BenchmarkExtract — the frame-parsing hot path (zero allocations).
func BenchmarkExtract(b *testing.B) {
	frame := pkt.MustBuild(pkt.Spec{
		Src: netip.MustParseAddr("10.0.0.1"), Dst: netip.MustParseAddr("10.0.0.2"),
		Proto: pkt.ProtoTCP, SrcPort: 40000, DstPort: 443, FrameLen: 1514,
	})
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := pkt.Extract(frame, 1); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkUpcall — slow-path classification cost (classifier lookup +
// megaflow synthesis) at ACL scale.
func BenchmarkUpcall(b *testing.B) {
	sw := attackSwitch(b, attack.TwoField(), false, noEMC)
	cls := sw.Classifier()
	gen := victimGen()
	keys := gen.Flows()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		cls.Lookup(keys[i%len(keys)])
	}
}

// BenchmarkRevalidator — per-round cost of the clock-driven maintenance
// actor: dump cost vs cache size (512- vs 8192-mask attack populations),
// idle vs under covert-stream churn. The idle variant holds the cache
// static (far-future max-idle) and re-checks every entry against the slow
// path each round — dump cost proportional to the flow count the attacker
// controls, which is exactly the lever behind the flow-limit backoff. The
// churn variant keeps a 16th of the covert stream cycling per round with a
// short max-idle, so each dump both expires idle flows and walks fresh
// reinstalls.
func BenchmarkRevalidator(b *testing.B) {
	for _, c := range []struct {
		name string
		atk  func() *attack.Attack
	}{
		{"masks512", attack.TwoField},
		{"masks8192", attack.ThreeField},
	} {
		b.Run(c.name+"/idle", func(b *testing.B) {
			sw := attackSwitch(b, c.atk(), true, noEMC)
			rev := revalidator.New(revalidator.Config{MaxIdle: 1 << 40, PolicyCheck: true})
			rev.Attach(sw)
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				rev.Tick(uint64(i))
			}
			b.ReportMetric(float64(rev.Stats().Last.Flows), "flows/dump")
		})
		b.Run(c.name+"/churn", func(b *testing.B) {
			atk := c.atk()
			sw := attackSwitch(b, atk, true, noEMC)
			covert, err := atk.Keys()
			if err != nil {
				b.Fatal(err)
			}
			for i := range covert {
				covert[i].Set(flow.FieldInPort, 66)
			}
			rev := revalidator.New(revalidator.Config{MaxIdle: 8})
			rev.Attach(sw)
			slice := len(covert) / 16
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				now := uint64(i)
				start := i * slice
				for j := 0; j < slice; j++ {
					sw.ProcessKey(now, covert[(start+j)%len(covert)])
				}
				rev.Tick(now)
			}
			b.ReportMetric(float64(rev.Stats().TotalIdleEvicted)/float64(b.N), "evictions/round")
		})
	}
}

// BenchmarkGuardOverhead — the price of the overload-control guard
// layer on a healthy datapath. Both arms run identical workloads; the
// guarded arm wires the admission queue and the mask ledger with
// quotas far above what the workload uses, so nothing ever trips,
// drops or rejects — the delta is pure bookkeeping. "hit" is the
// steady-state warm-megaflow path (the guards hook only the slow path,
// so the delta must vanish); "upcall" cycles keys past the
// idle-eviction horizon so every ProcessKey is a slow-path miss — one
// admission check per upcall plus ledger accounting per mask mint.
func BenchmarkGuardOverhead(b *testing.B) {
	keys := make([]flow.Key, 256)
	for i := range keys {
		keys[i].Set(flow.FieldInPort, 1)
		keys[i].Set(flow.FieldEthType, flow.EthTypeIPv4)
		keys[i].Set(flow.FieldIPSrc, 0x0a0a0000|uint64(i))
	}
	arms := []struct {
		name string
		opts func() []dataplane.Option
	}{
		{"bare", func() []dataplane.Option { return []dataplane.Option{noEMC} }},
		{"guarded", func() []dataplane.Option {
			grd := guard.New(guard.Config{
				Admission: &guard.AdmissionConfig{QueueDepth: 1 << 16, PortQuota: 1 << 16},
				MaskQuota: &guard.MaskQuotaConfig{PerTenant: 1 << 20},
			})
			grd.Masks.BindPort(1, "victim")
			grd.Masks.BindPort(66, "mallory")
			return []dataplane.Option{noEMC,
				dataplane.WithUpcallGuard(grd.Admission),
				dataplane.WithMaskGuard(grd.Masks)}
		}},
	}
	for _, arm := range arms {
		b.Run("hit/"+arm.name, func(b *testing.B) {
			sw := attackSwitch(b, attack.TwoField(), false, arm.opts()...)
			sw.ProcessKey(1, keys[0]) // warm the megaflow
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				sw.ProcessKey(1, keys[0])
			}
		})
		b.Run("upcall/"+arm.name, func(b *testing.B) {
			// The covert ladder keys each mint their own megaflow (the
			// victim keys all share the /24 entry, which never idles
			// out). Cycled one per tick against an idle horizon of half
			// the cycle, every key is swept before it comes around
			// again, so each iteration re-upcalls and reinstalls.
			atk := attack.TwoField()
			covert, err := atk.Keys()
			if err != nil {
				b.Fatal(err)
			}
			for i := range covert {
				covert[i].Set(flow.FieldInPort, 66)
			}
			opts := append(arm.opts(), dataplane.WithMaxIdle(uint64(len(covert)/2)))
			sw := attackSwitch(b, atk, false, opts...)
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				now := uint64(i) + 1
				sw.ProcessKey(now, covert[i%len(covert)])
				if i%32 == 31 {
					sw.RunRevalidator(now)
				}
			}
			b.ReportMetric(float64(sw.Counters().Upcalls)/float64(b.N), "upcalls/op")
		})
	}
}

// BenchmarkEndToEndFrame — whole-pipeline frame processing (parse +
// caches) for an established flow, the number a datapath README quotes.
func BenchmarkEndToEndFrame(b *testing.B) {
	sw := attackSwitch(b, attack.TwoField(), false)
	frame := pkt.MustBuild(pkt.Spec{
		Src: netip.MustParseAddr("10.10.0.5"), Dst: netip.MustParseAddr("172.16.0.2"),
		Proto: pkt.ProtoTCP, SrcPort: 49152, DstPort: 5201, FrameLen: 1514,
	})
	sw.AddPort(1, "victim")
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := sw.Process(2, 1, frame); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkStatefulRecirc — extension ablation: per-packet cost of the
// conntrack-recirculated pipeline for an established connection, against
// the stateless single-pass equivalent. The delta is the price of
// statefulness (two cache passes + the tracker lookup).
func BenchmarkStatefulRecirc(b *testing.B) {
	for _, stateful := range []bool{false, true} {
		name := "stateless"
		if stateful {
			name = "stateful"
		}
		b.Run(name, func(b *testing.B) {
			opts := []dataplane.Option{noEMC}
			if stateful {
				opts = append(opts, dataplane.WithConntrack(conntrack.Config{}))
			}
			sw := dataplane.New("bench", opts...)
			group := &acl.ACL{Stateful: stateful}
			group.Allow(acl.Entry{Src: netip.MustParsePrefix("10.0.0.0/8")})
			rules, err := group.Compile()
			if err != nil {
				b.Fatal(err)
			}
			for _, r := range rules {
				sw.InstallRule(r)
			}
			fwd := flow.FiveTuple{
				Src: netip.MustParseAddr("10.1.2.3"), Dst: netip.MustParseAddr("172.16.0.1"),
				Proto: 6, SrcPort: 40000, DstPort: 443,
			}.Key(1)
			rev := flow.FiveTuple{
				Src: netip.MustParseAddr("172.16.0.1"), Dst: netip.MustParseAddr("10.1.2.3"),
				Proto: 6, SrcPort: 443, DstPort: 40000,
			}.Key(2)
			sw.ProcessKey(1, fwd)
			sw.ProcessKey(2, rev) // establish when stateful
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				sw.ProcessKey(3, fwd)
			}
		})
	}
}

// BenchmarkProcessBatch — the batch API contract: driving the pipeline
// with ProcessBatch must cost no more per packet than the equivalent
// ProcessKey loop. Each iteration processes one 256-key burst of victim
// traffic (warm caches), so ns/op is directly comparable between the two
// sub-benchmarks.
func BenchmarkProcessBatch(b *testing.B) {
	burst := func(b *testing.B) []flow.Key {
		b.Helper()
		gen := victimGen()
		keys := make([]flow.Key, 256)
		for i := range keys {
			keys[i] = gen.Next()
		}
		return keys
	}
	b.Run("sequential", func(b *testing.B) {
		sw := attackSwitch(b, attack.TwoField(), false)
		keys := burst(b)
		out := make([]dataplane.Decision, len(keys))
		for _, k := range keys {
			sw.ProcessKey(1, k) // warm
		}
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			for j, k := range keys {
				out[j] = sw.ProcessKey(2, k)
			}
		}
	})
	b.Run("batch", func(b *testing.B) {
		sw := attackSwitch(b, attack.TwoField(), false)
		keys := burst(b)
		out := sw.ProcessBatch(1, keys, nil) // warm
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			out = sw.ProcessBatch(2, keys, out)
		}
	})
	b.Run("pmd-batch", func(b *testing.B) {
		pool := dataplane.NewPMDPool(4, "bench")
		var vm flow.Match
		vm.Key.Set(flow.FieldInPort, 1)
		vm.Mask.SetExact(flow.FieldInPort)
		pool.InstallRule(flowtable.Rule{Match: vm, Priority: 10, Action: flowtable.Action{Verdict: flowtable.Allow}})
		pool.InstallRule(flowtable.Rule{Priority: 0})
		keys := burst(b)
		out := pool.ProcessBatch(1, keys, nil) // warm
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			out = pool.ProcessBatch(2, keys, out)
		}
	})
}

// BenchmarkFramePath — the frame-first ingress payoff: end-to-end cost
// (parse included) of the same wire burst through the three entry points,
// per workload.
//
//   - frames: one ProcessFrames call per burst — batched extract (single
//     bounds check on the common shape), one hash pass, vectorized tier
//     walk. The new first-class door.
//   - scalar: a looped Process — the same walk as bursts of one frame, so
//     the leg measures burst size 1 against n; the acceptance bar is
//     frames beating this on both workloads.
//   - keys: the key-level ProcessBatch over pre-extracted keys, i.e. the
//     PR 2 surface with parsing billed to nobody — the gap between
//     "keys" and "frames" is what the parse stage really costs.
//
// Workloads: the warm victim mix (8 iperf flows, MTU frames, EMC hits)
// and the same victim stream at the paper's full-blown attack operating
// point (8192 covert masks resident, kernel datapath model, so every
// packet scans the whole exploded subtable ladder — the regime where the
// inverted per-burst sweep pays).
func BenchmarkFramePath(b *testing.B) {
	type workload struct {
		name   string
		build  func(b *testing.B) *dataplane.Switch
		inPort uint32
		frames func(b *testing.B, sw *dataplane.Switch) [][]byte
	}
	workloads := []workload{
		{
			name:   "victim/256",
			build:  func(b *testing.B) *dataplane.Switch { return attackSwitch(b, attack.TwoField(), false) },
			inPort: 1,
			frames: func(b *testing.B, sw *dataplane.Switch) [][]byte {
				gen := victimGen()
				frames := make([][]byte, 256)
				for i := range frames {
					frames[i], _ = gen.NextFrame()
				}
				return frames
			},
		},
		{
			name:   "attack8192/32",
			build:  func(b *testing.B) *dataplane.Switch { return attackSwitch(b, attack.ThreeField(), true, noEMC) },
			inPort: 1,
			frames: func(b *testing.B, sw *dataplane.Switch) [][]byte {
				gen := victimGen()
				frames := make([][]byte, 32)
				for i := range frames {
					frames[i], _ = gen.NextFrame()
				}
				return frames
			},
		},
	}
	for _, w := range workloads {
		frameBurst := func(b *testing.B, sw *dataplane.Switch) *dataplane.FrameBatch {
			b.Helper()
			var fb dataplane.FrameBatch
			for _, f := range w.frames(b, sw) {
				fb.Append(f, w.inPort)
			}
			sw.ProcessFrames(1, &fb, nil) // warm
			return &fb
		}
		b.Run(w.name+"/frames", func(b *testing.B) {
			sw := w.build(b)
			fb := frameBurst(b, sw)
			var out []dataplane.Decision
			out = sw.ProcessFrames(2, fb, out) // size the scratch before timing
			b.ReportAllocs()                   // the hot path holds 0 allocs/op; see TestFramePathZeroAlloc
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				out = sw.ProcessFrames(2, fb, out)
			}
			b.ReportMetric(float64(fb.Len()), "burst")
		})
		b.Run(w.name+"/scalar", func(b *testing.B) {
			sw := w.build(b)
			fb := frameBurst(b, sw)
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				for _, f := range fb.Frames {
					if _, err := sw.Process(2, w.inPort, f); err != nil {
						b.Fatal(err)
					}
				}
			}
			b.ReportMetric(float64(fb.Len()), "burst")
		})
		b.Run(w.name+"/keys", func(b *testing.B) {
			sw := w.build(b)
			fb := frameBurst(b, sw)
			keys := make([]flow.Key, fb.Len())
			for i := range keys {
				k, err := pkt.Extract(fb.Frames[i], w.inPort)
				if err != nil {
					b.Fatal(err)
				}
				keys[i] = k
			}
			out := sw.ProcessBatch(1, keys, nil) // warm
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				out = sw.ProcessBatch(2, keys, out)
			}
			b.ReportMetric(float64(fb.Len()), "burst")
		})
	}
}

// BenchmarkSubtablePruning — the staged-lookup payoff, per workload, with
// pruning off ("flat") and on ("pruned"). All variants run against the
// paper's full-blown operating point: the 8192-mask three-field attack
// resident, kernel datapath model (no EMC), victim megaflows installed
// behind the covert ladder.
//
//   - victim/256: a burst of distinct warm victim flows. Flat, every key
//     walks the whole exploded ladder to its megaflow; pruned, the
//     stage-0 signature (the attacker's pinned in_port) rejects every
//     covert subtable for the entire burst — this workload must show the
//     multi-x cut and must not regress pre-attack traffic.
//   - elephant/8x32: few flows in long same-key runs; run coalescing
//     already collapses most lookups, pruning trims the rest.
//   - attack8192/32: the covert burst itself — worst case for the
//     signature filter, since every key shares the attacker's in_port.
//     In the timed steady state (the same burst repeated) the EWMA
//     ranking floats the burst's own subtables to the front; on a
//     cycling covert stream the ports filter and the L3 stage bail are
//     what reject almost every subtable before the full probe (the
//     regime the warmup's first bursts and mitigation.StagedPruning()
//     exercise).
//
// The "visits/burst" metric is the subtables physically probed per burst
// (scan positions for flat, stage hashes + full probes for pruned); the
// acceptance bar is >= 4x fewer under pruning on the attack mix, and the
// attack curve of the `fig3` pack's `pruned` variant bending flat.
// Coalesced same-flow runs bill MasksScanned logically without probing
// (AccountRun), so the flat leg subtracts RunBilledScans to stay physical
// and comparable to the pruned leg's SubtableVisits.
func BenchmarkSubtablePruning(b *testing.B) {
	type workload struct {
		name  string
		burst func(b *testing.B, sw *dataplane.Switch) []flow.Key
	}
	covertBurst := func(n int) func(*testing.B, *dataplane.Switch) []flow.Key {
		return func(b *testing.B, sw *dataplane.Switch) []flow.Key {
			b.Helper()
			atk := attack.ThreeField()
			covert, err := atk.Keys()
			if err != nil {
				b.Fatal(err)
			}
			// Sample the covert sequence with a stride so the burst's
			// megaflows spread across the whole resident ladder instead of
			// clustering at the front of the scan order.
			keys := make([]flow.Key, n)
			for i := range keys {
				keys[i] = covert[(i*len(covert)/n)%len(covert)]
				keys[i].Set(flow.FieldInPort, 66)
			}
			return keys
		}
	}
	workloads := []workload{
		{
			name: "victim/256",
			burst: func(_ *testing.B, sw *dataplane.Switch) []flow.Key {
				gen := victimGen()
				keys := make([]flow.Key, 256)
				for i := range keys {
					keys[i] = gen.Next()
				}
				for _, k := range keys { // warm: victim megaflows install last
					sw.ProcessKey(2, k)
				}
				return keys
			},
		},
		{
			name: "elephant/8x32",
			burst: func(_ *testing.B, sw *dataplane.Switch) []flow.Key {
				gen := victimGen()
				keys := make([]flow.Key, 0, 8*32)
				for f := 0; f < 8; f++ {
					k := gen.Next()
					sw.ProcessKey(2, k)
					for j := 0; j < 32; j++ {
						keys = append(keys, k)
					}
				}
				return keys
			},
		},
		{name: "attack8192/32", burst: covertBurst(32)},
	}
	for _, w := range workloads {
		for _, staged := range []bool{false, true} {
			name, opts := w.name+"/flat", []dataplane.Option{noEMC}
			if staged {
				name = w.name + "/pruned"
				opts = append(opts, dataplane.WithStagedPruning())
			}
			b.Run(name, func(b *testing.B) {
				sw := attackSwitch(b, attack.ThreeField(), true, opts...)
				keys := w.burst(b, sw)
				var out []dataplane.Decision
				// Warm to steady state before the timer: the staged legs
				// drive several full RankEvery windows so the EWMA scan
				// ranking converges — otherwise ns/op depends on how many
				// pre-convergence sweeps fall inside b.N, which would make
				// the CI regression gate flaky across benchtimes.
				warmLookups := len(keys)
				if staged {
					warmLookups = 6 * 4096
				}
				for done := 0; done < warmLookups; done += len(keys) {
					out = sw.ProcessBatch(3, keys, out)
				}
				mf := sw.Megaflow()
				scans0, billed0 := mf.MasksScanned, mf.RunBilledScans
				visits0, prunes0 := mf.SubtableVisits, mf.SubtablePrunes
				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					out = sw.ProcessBatch(4, keys, out)
				}
				b.StopTimer()
				n := float64(b.N)
				if staged {
					b.ReportMetric(float64(mf.SubtableVisits-visits0)/n, "visits/burst")
					b.ReportMetric(float64(mf.SubtablePrunes-prunes0)/n, "prunes/burst")
				} else {
					physical := (mf.MasksScanned - scans0) - (mf.RunBilledScans - billed0)
					b.ReportMetric(float64(physical)/n, "visits/burst")
				}
				b.ReportMetric(float64(len(keys)), "burst")
			})
		}
	}
}

// BenchmarkTelemetryOverhead — the price of live instrumentation on the
// frame hot path. Both arms drive the identical warm 256-frame victim
// burst through ProcessFrames; the instrumented arm records into an
// attached telemetry registry (per-burst wall/size/scan histograms,
// counter-delta settlement, per-tier latency). The acceptance bar is
// instrumented within 5% of bare ns/op at 0 allocs/op.
func BenchmarkTelemetryOverhead(b *testing.B) {
	arms := []struct {
		name string
		opts []dataplane.Option
	}{
		{"bare", nil},
		{"instrumented", []dataplane.Option{dataplane.WithTelemetry(telemetry.NewRegistry())}},
	}
	for _, arm := range arms {
		b.Run(arm.name, func(b *testing.B) {
			sw := attackSwitch(b, attack.TwoField(), false, arm.opts...)
			gen := victimGen()
			var fb dataplane.FrameBatch
			for i := 0; i < 256; i++ {
				f, _ := gen.NextFrame()
				fb.Append(f, 1)
			}
			out := sw.ProcessFrames(1, &fb, nil) // warm caches and scratch
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				out = sw.ProcessFrames(2, &fb, out)
			}
			b.ReportMetric(float64(fb.Len()), "burst")
		})
	}
}

// BenchmarkHierarchies — the tier-composition payoff: victim per-packet
// cost under the resident 512-mask attack, for each cache hierarchy the
// options can assemble. The attack floods 8192 distinct covert keys per
// iteration block, which thrashes the 8192-entry EMC but cannot dent the
// ~1M-entry SMC — so SMC-bearing hierarchies keep the victim's warm flows
// off the mask scan even mid-flood, a mask-scan economics the paper's
// OVS 2.6 target did not have.
func BenchmarkHierarchies(b *testing.B) {
	hierarchies := []struct {
		name string
		opts []dataplane.Option
	}{
		{"emc-only", nil},
		{"emc+smc", []dataplane.Option{dataplane.WithSMC(cache.SMCConfig{})}},
		{"smc-only", []dataplane.Option{noEMC, dataplane.WithSMC(cache.SMCConfig{})}},
		{"tss-only", []dataplane.Option{noEMC}},
	}
	for _, h := range hierarchies {
		b.Run(h.name, func(b *testing.B) {
			atk := attack.TwoField()
			sw := attackSwitch(b, atk, true, h.opts...)
			covert, err := atk.Keys()
			if err != nil {
				b.Fatal(err)
			}
			for i := range covert {
				covert[i].Set(flow.FieldInPort, 66)
			}
			gen := victimGen()
			// Warm the victim flows, then keep the covert flood cycling so
			// EMC-style caches feel the eviction pressure they would in a
			// live attack.
			for i := 0; i < 512; i++ {
				sw.ProcessKey(1, gen.Next())
			}
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if i%16 == 0 {
					sw.ProcessKey(2, covert[(i/16)%len(covert)])
				}
				sw.ProcessKey(2, gen.Next())
			}
		})
	}
}

// BenchmarkShardedScaling — the multi-writer payoff (acceptance gate of
// the sharded datapath): GOMAXPROCS workers push warm bursts through
//
//   - single: one unsharded switch behind a mutex — the only correct way
//     to drive the single-writer datapath from many cores, and exactly
//     what the old contract forced pools of threads into.
//   - sharded: one NewSharedPMDPool view per worker over the same shared
//     sharded hierarchy — per-shard read locks on lookup, per-shard
//     insert locks on upcall, no global serialization anywhere.
//
// Workloads: the warm elephant mix (8 victim flows, long same-flow runs,
// run-coalesced accounting) and the victim stream at the 8192-mask attack
// operating point (kernel model, no EMC). The elephant ratio is the
// headline: sharded must clear 3x single at 8 procs. The attack-mix
// point rides the bench matrix so the scaling curve stays monotone under
// mask explosion too.
func BenchmarkShardedScaling(b *testing.B) {
	// Each worker owns a disjoint flow set within the victim /24 — the
	// RSS-steered reality a PMD core sees. Sharing one burst across
	// workers would instead measure atomic stat contention on identical
	// entries, which no deployment exhibits.
	workerBurst := func(p int, elephant bool, warm func(flow.Key)) []flow.Key {
		gen := traffic.NewVictim(traffic.VictimConfig{
			Src:    netip.AddrFrom4([4]byte{10, 10, 0, byte(16 + p)}),
			Dst:    netip.MustParseAddr("172.16.0.2"),
			InPort: 1,
		})
		keys := make([]flow.Key, 0, 256)
		if elephant {
			for f := 0; f < 8; f++ { // 8 warm flows, 32-packet runs
				k := gen.Next()
				warm(k)
				for j := 0; j < 32; j++ {
					keys = append(keys, k)
				}
			}
			return keys
		}
		gen2 := traffic.NewVictim(traffic.VictimConfig{
			Src:    netip.AddrFrom4([4]byte{10, 10, 0, byte(128 + p)}),
			Dst:    netip.MustParseAddr("172.16.0.2"),
			InPort: 1, Flows: 128,
		})
		for i := 0; i < 256; i++ { // 256 distinct warm flows
			k := gen.Next()
			if i%2 == 1 {
				k = gen2.Next()
			}
			warm(k)
			keys = append(keys, k)
		}
		return keys
	}
	workloads := []struct {
		name     string
		atk      *attack.Attack
		exec     bool
		opts     []dataplane.Option
		elephant bool
	}{
		{name: "elephant", atk: attack.TwoField(), elephant: true},
		{name: "attack8192", atk: attack.ThreeField(), exec: true, opts: []dataplane.Option{noEMC}},
	}
	P := runtime.GOMAXPROCS(0)
	for _, w := range workloads {
		b.Run(w.name+"/single", func(b *testing.B) {
			sw := attackSwitch(b, w.atk, w.exec, w.opts...)
			bursts := make([][]flow.Key, P)
			for p := range bursts {
				bursts[p] = workerBurst(p, w.elephant, func(k flow.Key) { sw.ProcessKey(1, k) })
			}
			var mu sync.Mutex
			var next atomic.Uint32
			b.ResetTimer()
			b.RunParallel(func(pb *testing.PB) {
				keys := bursts[int(next.Add(1)-1)%P]
				var out []dataplane.Decision
				for pb.Next() {
					mu.Lock()
					out = sw.ProcessBatch(2, keys, out)
					mu.Unlock()
				}
			})
			b.ReportMetric(float64(len(bursts[0])), "burst")
		})
		b.Run(w.name+"/sharded", func(b *testing.B) {
			pool := dataplane.NewSharedPMDPool(P, "bench", w.opts...)
			installAttackPolicy(b, w.atk, pool.InstallRule)
			if w.exec {
				pool.PMD(0).ProcessBatch(1, covertKeys(b, w.atk), nil)
			}
			bursts := make([][]flow.Key, P)
			for p := range bursts {
				sw := pool.PMD(p)
				bursts[p] = workerBurst(p, w.elephant, func(k flow.Key) { sw.ProcessKey(1, k) })
			}
			var next atomic.Uint32
			b.ResetTimer()
			b.RunParallel(func(pb *testing.PB) {
				id := int(next.Add(1)-1) % P
				sw, keys := pool.PMD(id), bursts[id]
				var out []dataplane.Decision
				for pb.Next() {
					out = sw.ProcessBatch(2, keys, out)
				}
			})
			b.ReportMetric(float64(len(bursts[0])), "burst")
		})
	}
}
