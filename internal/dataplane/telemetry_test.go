package dataplane

import (
	"net/netip"
	"testing"

	"policyinject/internal/pkt"
	"policyinject/internal/telemetry"
)

// TestTelemetryWiring drives an instrumented switch through a mixed
// burst (distinct flows plus one malformed frame) and checks that the
// registry mirrors the switch counters, records the per-burst
// histograms, and publishes the cache gauges.
func TestTelemetryWiring(t *testing.T) {
	reg := telemetry.NewRegistry()
	s := aclSwitch(WithTelemetry(reg))
	s.AddPort(1, "vif1")

	var fb FrameBatch
	const good = 8
	for i := 0; i < good; i++ {
		fb.Append(pkt.MustBuild(pkt.Spec{
			Src:     netip.AddrFrom4([4]byte{10, 0, 0, byte(i + 1)}),
			Dst:     netip.MustParseAddr("172.16.0.2"),
			Proto:   pkt.ProtoTCP,
			SrcPort: uint16(40000 + i),
			DstPort: 80,
		}), 1)
	}
	fb.Append([]byte{0xde, 0xad}, 1) // malformed: parse error, deny
	out := s.ProcessFrames(5, &fb, nil)
	if len(out) != good+1 {
		t.Fatalf("decisions = %d", len(out))
	}

	snap := reg.Snapshot()
	mustCounter := func(name string, want uint64) {
		t.Helper()
		got, ok := counterValue(snap, name)
		if !ok || got != want {
			t.Errorf("%s = %d (present %v), want %d", name, got, ok, want)
		}
	}
	mustCounter("dp_bursts_total", 1)
	mustCounter("dp_frames_total", good+1)
	mustCounter("dp_parse_errors_total", 1)
	mustCounter("dp_allowed_total", good)

	c := s.Counters()
	if up, _ := counterValue(snap, "dp_upcalls_total"); up != c.Upcalls || up == 0 {
		t.Errorf("dp_upcalls_total = %d, switch says %d (want equal, nonzero)", up, c.Upcalls)
	}
	var tierHits uint64
	for _, th := range c.TierHits {
		tierHits += th.Hits
	}
	if got, _ := counterValue(snap, "dp_tier_hits_total"); got != tierHits {
		t.Errorf("dp_tier_hits_total = %d, switch tier hits %d", got, tierHits)
	}

	for _, h := range []string{"dp_burst_ns", "dp_burst_frames", "dp_burst_scan_cost", "dp_burst_subtable_visits"} {
		hp := histogramPoint(snap, h)
		if hp == nil || hp.Count != 1 {
			t.Errorf("%s: want exactly one burst observation, got %+v", h, hp)
			continue
		}
		if h == "dp_burst_frames" && hp.Max != good+1 {
			t.Errorf("dp_burst_frames max = %d, want %d", hp.Max, good+1)
		}
	}
	// One tier-pass latency observation per tier (EMC + megaflow).
	var tierNs int
	for i := range snap.Histograms {
		if snap.Histograms[i].Name == "dp_tier_lookup_ns" {
			tierNs++
			if snap.Histograms[i].Count != 1 {
				t.Errorf("dp_tier_lookup_ns%v count = %d, want 1", snap.Histograms[i].Labels, snap.Histograms[i].Count)
			}
		}
	}
	if tierNs != len(s.Tiers()) {
		t.Errorf("dp_tier_lookup_ns series = %d, want one per tier (%d)", tierNs, len(s.Tiers()))
	}

	// A second identical burst answers from warm caches: no new upcalls.
	upBefore, _ := counterValue(snap, "dp_upcalls_total")
	s.ProcessFrames(6, &fb, out)
	snap2 := reg.Snapshot()
	if up2, _ := counterValue(snap2, "dp_upcalls_total"); up2 != upBefore {
		t.Errorf("warm burst raised upcalls %d -> %d", upBefore, up2)
	}
	if b, _ := counterValue(snap2, "dp_bursts_total"); b != 2 {
		t.Errorf("dp_bursts_total = %d, want 2", b)
	}

	s.PublishTelemetry()
	snap3 := reg.Snapshot()
	if g, ok := snap3.GaugeValue("dp_mf_entries"); !ok || int(g) != s.Megaflow().Len() {
		t.Errorf("dp_mf_entries = %v (present %v), megaflow holds %d", g, ok, s.Megaflow().Len())
	}
	if g, ok := snap3.GaugeValue("dp_mf_masks"); !ok || int(g) != s.Megaflow().NumMasks() {
		t.Errorf("dp_mf_masks = %v (present %v), want %d", g, ok, s.Megaflow().NumMasks())
	}
}

// TestTelemetryObservesOneFramePasses: the tier-pass histogram observes
// every pass of the walk, a burst of one included — a cold one-frame
// Process consults both tiers and lands one observation in each.
func TestTelemetryObservesOneFramePasses(t *testing.T) {
	reg := telemetry.NewRegistry()
	s := aclSwitch(WithTelemetry(reg))
	frame := pkt.MustBuild(pkt.Spec{
		Src:   netip.MustParseAddr("10.1.2.3"),
		Dst:   netip.MustParseAddr("172.16.0.2"),
		Proto: pkt.ProtoTCP, SrcPort: 1234, DstPort: 80,
	})
	if d, err := s.Process(1, 1, frame); err != nil || d.Path != PathSlow {
		t.Fatalf("cold frame: %+v, err %v", d, err)
	}
	snap := reg.Snapshot()
	series := 0
	for i := range snap.Histograms {
		if h := &snap.Histograms[i]; h.Name == "dp_tier_lookup_ns" {
			series++
			if h.Count != 1 {
				t.Errorf("dp_tier_lookup_ns%v count = %d, want 1", h.Labels, h.Count)
			}
		}
	}
	if series != len(s.Tiers()) {
		t.Errorf("dp_tier_lookup_ns series = %d, want one per tier (%d)", series, len(s.Tiers()))
	}
}

// TestTelemetryOffIsUntouched pins the nil-registry contract: an
// uninstrumented switch must classify identically and register
// nothing.
func TestTelemetryOffIsUntouched(t *testing.T) {
	bare := aclSwitch()
	inst := aclSwitch(WithTelemetry(telemetry.NewRegistry()))
	frame := pkt.MustBuild(pkt.Spec{
		Src:   netip.MustParseAddr("10.1.2.3"),
		Dst:   netip.MustParseAddr("172.16.0.2"),
		Proto: pkt.ProtoTCP, SrcPort: 1234, DstPort: 80,
	})
	d1, err1 := bare.Process(1, 1, frame)
	d2, err2 := inst.Process(1, 1, frame)
	if d1 != d2 || (err1 == nil) != (err2 == nil) {
		t.Errorf("instrumented switch decided differently: %+v vs %+v", d1, d2)
	}
}

// counterValue returns the sum of every counter named name in snap
// (across label sets), and whether any was present.
func counterValue(snap *telemetry.Snapshot, name string) (uint64, bool) {
	var t uint64
	found := false
	for _, c := range snap.Counters {
		if c.Name == name {
			t += c.Value
			found = true
		}
	}
	return t, found
}

// histogramPoint returns the first histogram named name in snap, or nil.
func histogramPoint(snap *telemetry.Snapshot, name string) *telemetry.HistogramPoint {
	for i := range snap.Histograms {
		if snap.Histograms[i].Name == name {
			return &snap.Histograms[i]
		}
	}
	return nil
}
