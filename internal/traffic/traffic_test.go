package traffic

import (
	"bytes"
	"net/netip"
	"testing"

	"policyinject/internal/flow"
)

func TestVictimFlowSet(t *testing.T) {
	v := NewVictim(VictimConfig{
		Src:    netip.MustParseAddr("172.16.0.10"),
		Dst:    netip.MustParseAddr("172.16.0.20"),
		Flows:  8,
		InPort: 3,
	})
	seen := map[flow.Key]int{}
	for i := 0; i < 80; i++ {
		seen[nextKey(t, v)]++
	}
	if len(seen) != 8 {
		t.Fatalf("distinct flows = %d, want 8", len(seen))
	}
	for k, n := range seen {
		if n != 10 {
			t.Errorf("flow %v visited %d times, want 10 (round robin)", k, n)
		}
		if got := k.Get(flow.FieldTPDst); got != 5201 {
			t.Errorf("dst port = %d, want iperf3 default", got)
		}
		if got := k.Get(flow.FieldInPort); got != 3 {
			t.Errorf("in_port = %d", got)
		}
	}
}

func TestVictimDefaults(t *testing.T) {
	v := NewVictim(VictimConfig{
		Src: netip.MustParseAddr("1.1.1.1"),
		Dst: netip.MustParseAddr("2.2.2.2"),
	})
	if f, _ := v.NextFrame(); len(v.keys) != 8 || len(f) != 1514 {
		t.Errorf("defaults: flows=%d frame=%d", len(v.keys), len(f))
	}
}

// TestVictimReusesRenderedFrames checks that each flow's frame is rendered
// once, at the configured length, and handed out again on every cycle.
func TestVictimReusesRenderedFrames(t *testing.T) {
	v := NewVictim(VictimConfig{
		Src:      netip.MustParseAddr("10.10.0.5"),
		Dst:      netip.MustParseAddr("172.16.0.2"),
		Flows:    4,
		FrameLen: 128,
	})
	first := make([][]byte, 4)
	for i := range first {
		first[i], _ = v.NextFrame()
		if len(first[i]) != 128 {
			t.Fatalf("frame %d: %d bytes, want 128", i, len(first[i]))
		}
	}
	for cycle := 1; cycle < 3; cycle++ {
		for i := range first {
			f, _ := v.NextFrame()
			if &f[0] != &first[i][0] {
				t.Fatalf("cycle %d frame %d was rendered again", cycle, i)
			}
		}
	}
}

func TestMixDeterministic(t *testing.T) {
	a := NewMix(MixConfig{Seed: 42, NFlows: 100})
	b := NewMix(MixConfig{Seed: 42, NFlows: 100})
	for i := 0; i < 1000; i++ {
		fa, _ := a.NextFrame()
		if fb, _ := b.NextFrame(); !bytes.Equal(fa, fb) {
			t.Fatalf("same seed diverged at packet %d", i)
		}
	}
	c := NewMix(MixConfig{Seed: 43, NFlows: 100})
	same := 0
	for i := 0; i < 1000; i++ {
		fa, _ := a.NextFrame()
		if fc, _ := c.NextFrame(); bytes.Equal(fa, fc) {
			same++
		}
	}
	if same == 1000 {
		t.Error("different seeds produced identical streams")
	}
}

func TestMixFlowsWithinSubnet(t *testing.T) {
	m := NewMix(MixConfig{
		Seed:   7,
		NFlows: 500,
		Subnet: netip.MustParsePrefix("10.1.0.0/16"),
	})
	if len(m.keys) != 500 {
		t.Fatalf("flows = %d", len(m.keys))
	}
	for i := 0; i < 2000; i++ {
		k := nextKey(t, m)
		src := k.Get(flow.FieldIPSrc)
		if src>>16 != 0x0a01 {
			t.Fatalf("src %#x outside 10.1/16", src)
		}
	}
}

func TestMixSkewIsHeadHeavy(t *testing.T) {
	m := NewMix(MixConfig{Seed: 1, NFlows: 1000, Skew: 0.9})
	counts := map[int]int{}
	const draws = 50000
	for i := 0; i < draws; i++ {
		counts[m.draw()]++
	}
	// The most popular flow must carry far more than the uniform share.
	max := 0
	for _, n := range counts {
		if n > max {
			max = n
		}
	}
	if max < draws/100 { // uniform share would be draws/1000
		t.Errorf("head flow carries %d of %d; skew not applied", max, draws)
	}
}

func TestReplayerCycles(t *testing.T) {
	frames := [][]byte{{1}, {2}, {3}}
	r := NewReplayer(frames, 9)
	for round := 0; round < 4; round++ {
		for i := range frames {
			if f, inPort := r.NextFrame(); f[0] != byte(i+1) || inPort != 9 {
				t.Fatalf("round %d pos %d: frame %v on port %d", round, i, f, inPort)
			}
		}
	}
}

func TestReplayerPanicsOnEmpty(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("empty replayer did not panic")
		}
	}()
	NewReplayer(nil, 0)
}

func TestPacerLongRunRate(t *testing.T) {
	p := &Pacer{PPS: 819.2} // the 8192-entry refresh rate over 10s
	total := 0
	const ticks = 1000
	for i := 0; i < ticks; i++ {
		total += p.Take(0.1) // 100 ms ticks
	}
	want := int(819.2 * 0.1 * ticks)
	if total < want-1 || total > want+1 {
		t.Errorf("emitted %d packets over %d ticks, want ~%d", total, ticks, want)
	}
}

func TestPacerEdgeCases(t *testing.T) {
	p := &Pacer{PPS: 0}
	if p.Take(1) != 0 {
		t.Error("zero rate emitted packets")
	}
	p = &Pacer{PPS: 100}
	if p.Take(0) != 0 || p.Take(-1) != 0 {
		t.Error("non-positive dt emitted packets")
	}
	// Sub-packet ticks accumulate.
	p = &Pacer{PPS: 1}
	got := 0
	for i := 0; i < 10; i++ {
		got += p.Take(0.25)
	}
	if got != 2 {
		t.Errorf("accumulated %d packets over 2.5s at 1pps", got)
	}
}
