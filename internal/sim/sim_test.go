package sim

import (
	"net/netip"
	"testing"
	"time"

	"policyinject/internal/dataplane"
	"policyinject/internal/flowtable"
	"policyinject/internal/traffic"
)

func TestThroughputModel(t *testing.T) {
	// 1 µs per packet on one core = 1 Mpps capacity.
	if got := Throughput(time.Microsecond, 2e6); got != 1e6 {
		t.Errorf("capacity-bound = %g", got)
	}
	if got := Throughput(time.Microsecond, 5e5); got != 5e5 {
		t.Errorf("offer-bound = %g", got)
	}
	if got := Throughput(0, 7); got != 7 {
		t.Errorf("zero cost = %g", got)
	}
}

func TestGbpsConversions(t *testing.T) {
	// 1514-byte frames at line-rate GbE: 1e9 / ((1514+20)*8) = 81,486 pps.
	pps := PPSFor(1.0, 1514)
	if pps < 81000 || pps > 82000 {
		t.Errorf("PPSFor = %g", pps)
	}
	if got := Gbps(pps, 1514); got < 0.999 || got > 1.001 {
		t.Errorf("round trip = %g", got)
	}
}

func TestMeasureCostSane(t *testing.T) {
	sw := dataplane.New("cached")
	sw.InstallRule(flowtable.Rule{Priority: 0, Action: flowtable.Action{Verdict: flowtable.Allow}})
	gen := traffic.NewVictim(traffic.VictimConfig{
		Src: netip.MustParseAddr("10.0.0.1"),
		Dst: netip.MustParseAddr("10.0.0.2"),
	})
	cost := MeasureCost(sw, gen, 1, 64)
	if cost <= 0 || cost > time.Millisecond {
		t.Errorf("cost = %v", cost)
	}
}
