package sim

import (
	"math"
	"net/netip"
	"testing"
	"time"

	"policyinject/internal/attack"
	"policyinject/internal/dataplane"
	"policyinject/internal/flow"
	"policyinject/internal/flowtable"
	"policyinject/internal/metrics"
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

// TestSweepMonotoneDegradation is experiment E5's core assertion: lookup
// cost grows with mask count, and the 512-mask point sits at or below
// ~10-20%% of the single-mask peak — the paper claims "slowing it down to
// 10%% of the peak performance". Growth is demanded over {1, 64, 512}: the
// 8-mask point stays in the table, but seven single-row visits are ~6 ns on
// top of the 1-mask lookup, which one mean of 256 timed lookups cannot tell
// from clock noise (cost(8) <= cost(1) once in 40 runs before the visit got
// cheaper, too).
func TestSweepMonotoneDegradation(t *testing.T) {
	res, err := RunSweep([]int{1, 8, 64, 512}, 256)
	if err != nil {
		t.Fatal(err)
	}
	pts := res.Points
	if len(pts) != 4 {
		t.Fatalf("points = %d", len(pts))
	}
	if !(pts[0].CostPerPkt < pts[2].CostPerPkt && pts[2].CostPerPkt < pts[3].CostPerPkt) {
		t.Errorf("cost not increasing over 1, 64, 512 masks: %v", pts)
	}
	if pts[0].RelativePeak != 1 {
		t.Errorf("first point relative peak = %v", pts[0].RelativePeak)
	}
	// Generous bound for noisy CI machines: at 512 masks the victim must
	// have lost at least three quarters of peak (paper: ~90%).
	if pts[3].RelativePeak > 0.25 {
		t.Errorf("512 masks retains %.1f%% of peak; expected <= 25%%\n%s",
			pts[3].RelativePeak*100, res.Table())
	}
}

func TestSweepRejectsBadCounts(t *testing.T) {
	if _, err := RunSweep([]int{0}, 16); err == nil {
		t.Error("mask count 0 accepted")
	}
	if _, err := RunSweep([]int{9000}, 16); err == nil {
		t.Error("mask count beyond 8192 accepted")
	}
}

// unboundedGbps is an offered load no host can carry, so the victim's
// throughput series is the datapath's capacity — the reciprocal of the
// measured per-packet cost — before the attack as well as after it. On
// the nominal 0.95 Gbps link the pre-attack samples are clipped to the
// offered load, and whether N masks "bite" depends on how fast the host
// sweeps a subtable: an absolute the paper's shape does not depend on.
const unboundedGbps = 1e6

// cheapest returns the victim's per-packet cost in nanoseconds before the
// attack and with it resident, in an unbounded-load run of cfg: the cheapest
// sample of each phase, MeasureCost's own estimator one level up — a busy
// host only ever adds cost to a sample, and the two pre-attack samples a mean
// takes in the small run are spoilt by one preemption. spread is how far the
// pre-attack samples lie apart: what this run's clock calls no difference.
func cheapest(res *Fig3Result, cfg Fig3Config) (before, after, spread float64) {
	ns := func(gbps float64) float64 { return float64(cfg.FrameLen+20) * 8 / gbps }
	pre := metrics.Summarize(res.Throughput.Window(0, float64(cfg.AttackStart)))
	post := metrics.Summarize(res.Throughput.Window(float64(cfg.AttackStart+10), float64(cfg.Duration)))
	return ns(pre.Max), ns(post.Max), ns(pre.Min) - ns(pre.Max)
}

// checkFig3Shape asserts the paper's curve on an unbounded-load run of cfg,
// against a second run in the same process whose attack mints a mask count
// at least 8-fold away: before the attack the datapath has the nominal GbE
// stream's capacity to spare; the resident attack costs the victim more than
// the pre-attack samples differ among themselves; and the cost is linear in
// the masks minted — a mask adds the same nanoseconds in both runs, within
// 2x. How many nanoseconds that is belongs to the host and to the sweep (3-5 %
// of the pre-attack cost with the PR 13 subtables, ~1 % with single rows); the
// shape does not depend on it, so no constant here has to follow the sweep.
func checkFig3Shape(t *testing.T, res *Fig3Result, cfg Fig3Config, ref *Fig3Result, refCfg Fig3Config) {
	t.Helper()
	if res.MeanBefore < 0.95 {
		t.Errorf("pre-attack capacity %.3f Gbps; the datapath should carry a GbE stream with room to spare", res.MeanBefore)
	}
	before, after, spread := cheapest(res, cfg)
	if after-before <= spread {
		t.Errorf("victim per-packet cost %.0f ns before, %.0f ns under %g masks: not beyond the %.0f ns the pre-attack samples spread\n%v",
			before, after, res.PeakMasks, spread, res)
	}
	if lo, hi := min(res.PeakMasks, ref.PeakMasks), max(res.PeakMasks, ref.PeakMasks); hi < 8*lo {
		t.Fatalf("runs of %g and %g masks: too close to show linearity", res.PeakMasks, ref.PeakMasks)
	}
	refBefore, refAfter, _ := cheapest(ref, refCfg)
	got, want := (after-before)/res.PeakMasks, (refAfter-refBefore)/ref.PeakMasks
	t.Logf("a mask adds %.2f ns at %g masks, %.2f ns at %g", got, res.PeakMasks, want, ref.PeakMasks)
	if got < want/2 || got > want*2 {
		t.Errorf("a mask adds %.2f ns at %g masks, %.2f ns at %g: cost not linear in masks", got, res.PeakMasks, want, ref.PeakMasks)
	}
}

// fig3Small is a scaled-down Fig. 3 on an unbounded load: 20 s, the
// 512-mask attack at t=5.
func fig3Small() Fig3Config {
	return Fig3Config{
		Duration:    20,
		AttackStart: 5,
		Attack:      attack.TwoField(),
		CostSamples: 32,
		VictimGbps:  unboundedGbps,
		FrameLen:    128,
	}
}

// fig3Mid is fig3Small under ten times the masks: the three-field attack
// with the source port whitelisted as a /10 prefix, 32 x 16 x 10 divergence
// depths.
func fig3Mid() Fig3Config {
	cfg := fig3Small()
	cfg.Attack = attack.ThreeField()
	cfg.Attack.Fields[2].Allow, cfg.Attack.Fields[2].Width = 5201&^0x3f, 10
	return cfg
}

// TestFig3ShapeSmall runs the scaled-down Fig. 3 and asserts the paper's
// qualitative shape: capacity to spare before, per-packet cost growing by
// the mask count after (held against a run of ten times the masks), mask
// count jumping from a handful to the predicted hundreds.
func TestFig3ShapeSmall(t *testing.T) {
	res, err := RunFig3(fig3Small())
	if err != nil {
		t.Fatal(err)
	}
	mid, err := RunFig3(fig3Mid())
	if err != nil {
		t.Fatal(err)
	}
	checkFig3Shape(t, res, fig3Small(), mid, fig3Mid())
	// Mask trajectory: single digits before, hundreds after.
	if before := res.Masks.At(4); before > 20 {
		t.Errorf("masks before attack = %g", before)
	}
	if after := res.Masks.At(19); after < 450 {
		t.Errorf("masks after attack = %g, want ~512", after)
	}
}

// TestFig3FullScale reproduces the paper's actual Fig. 3 configuration —
// 8192 masks via the three-field Calico attack, MTU frames — at a
// shortened timeline. Skipped with -short: the covert stream's own
// processing is expensive by design.
//
// How much of a link N masks take, and how many times the pre-attack cost
// they add, depends on how fast the host sweeps a subtable, so the test
// calibrates itself. An unbounded-load run gives the datapath's cost before
// and under the attack, held to checkFig3Shape against the small run — cost
// linear in masks over a 16-fold range — and the run on a link — 10 GbE,
// which the resident attack starves on any host — must lose what the two
// capacities predict.
func TestFig3FullScale(t *testing.T) {
	if testing.Short() {
		t.Skip("full 8192-mask Fig. 3 timeline is slow")
	}
	const offered = 9.5
	res, err := RunFig3(Fig3Config{
		Duration:    40,
		AttackStart: 10,
		CostSamples: 32,
		VictimGbps:  offered,
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.PeakMasks < 7000 {
		t.Errorf("peak masks = %g, want ~8192 (shared tries with the victim policy shave a few)", res.PeakMasks)
	}
	unbounded := Fig3Config{
		Duration:    25,
		AttackStart: 10,
		CostSamples: 32,
		VictimGbps:  unboundedGbps,
		FrameLen:    1514,
	}
	capacity, err := RunFig3(unbounded)
	if err != nil {
		t.Fatal(err)
	}
	small, err := RunFig3(fig3Small())
	if err != nil {
		t.Fatal(err)
	}
	checkFig3Shape(t, capacity, unbounded, small, fig3Small())
	want := 1 - min(capacity.MeanAfter, offered)/min(capacity.MeanBefore, offered)
	t.Logf("%.1f Gbps link: %v; predicted %.0f%%", offered, res, want*100)
	if got := res.Degradation(); math.Abs(got-want) > 0.15 {
		t.Errorf("degradation on the link %.0f%%, predicted %.0f%% (+-15)", got*100, want*100)
	}
}

// TestFig3VictimKeysDistinctFromAttack guards the scenario plumbing: the
// covert keys must carry the attacker pod's port, not the victim's.
func TestFig3CovertKeysScoped(t *testing.T) {
	atk := attack.TwoField()
	keys, err := atk.Keys()
	if err != nil {
		t.Fatal(err)
	}
	for _, k := range keys {
		if k.Get(flow.FieldEthType) != flow.EthTypeIPv4 {
			t.Fatal("covert key not IPv4")
		}
	}
}
