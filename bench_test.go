// Package policyinject_test holds the whole-pipeline tests and the three
// benchmarks that pin a figure no workload of the repo benchmark
// (benchmark/, run by `bash benchmark/run.sh`) covers: the Fig. 2b slow
// path, the unwildcarding ablation, and victim cost per resident mask
// count. Run them with
//
//	go test -run '^$' -bench . .
//
// End-to-end ns/packet on the canonical workloads, and the per-layer
// budget that sums to it, are the harness's to measure.
package policyinject_test

import (
	"fmt"
	"net/netip"
	"testing"

	"policyinject/internal/attack"
	"policyinject/internal/classifier"
	"policyinject/internal/dataplane"
	"policyinject/internal/flow"
	"policyinject/internal/flowtable"
	"policyinject/internal/traffic"
)

// attackSwitch builds a switch carrying the shared rule set — a victim
// whitelist and default deny on port 1, the attack's compiled ACL scoped
// to the attacker port 66 — optionally pre-loaded with the covert stream.
func attackSwitch(b testing.TB, atk *attack.Attack, executed bool, opts ...dataplane.Option) *dataplane.Switch {
	b.Helper()
	sw := dataplane.New("bench", opts...)
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
	sw.InstallRule(flowtable.Rule{Match: vm, Priority: 100, Action: flowtable.Action{Verdict: flowtable.Allow}})
	var dm flow.Match
	dm.Key.Set(flow.FieldInPort, 1)
	dm.Mask.SetExact(flow.FieldInPort)
	sw.InstallRule(flowtable.Rule{Match: dm, Priority: 0})
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
		sw.InstallRule(r)
	}
	if executed {
		for _, k := range covertKeys(b, atk) {
			sw.ProcessKey(1, k)
		}
	}
	return sw
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
// ones. The 8 flows have distinct tp_src but share tp_dst and all but the low
// three bits of tp_src, so the gather's summary of the third word proves most
// rows misses in one test for all 8; the rest fall to one member's second and
// third words together. At 8 192 masks the attacker leg reads below
// the victim leg (0.92-0.97 against 1.24-1.31 ns/visit at 2 000 iterations on
// a shared 2-CPU Xeon VM; 1.52 before the summary).
func BenchmarkTSSLookupMasks(b *testing.B) {
	atk := attack.ThreeField()
	covert, err := atk.Frames()
	if err != nil {
		b.Fatal(err)
	}
	for _, masks := range []int{1, 8, 64, 512, 2048, 8192} {
		for _, port := range []struct {
			name string
			id   uint32
		}{{"victim", 1}, {"attacker", 66}} {
			b.Run(fmt.Sprintf("masks=%d/port=%s", masks, port.name), func(b *testing.B) {
				sw := attackSwitch(b, atk, false, noEMC)
				var fb dataplane.FrameBatch
				for _, f := range covert[:min(masks-1, len(covert))] {
					fb.Append(f, 66)
				}
				sw.ProcessFrames(1, &fb, nil)
				fb.Reset()
				gen := victimGen()
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
