package scenario_test

import (
	"fmt"
	"math"
	"testing"

	"policyinject/internal/metrics"
	"policyinject/internal/scenario"
)

// The paper-shape packs. Their victim offers an unbounded load — one no host
// can carry — so the victim_gbps series is the datapath's capacity, the
// reciprocal of the measured per-packet cost, before the attack as well as
// after it. On the nominal 0.95 Gbps link the pre-attack samples are clipped
// to the offered load, and whether N masks "bite" depends on how fast the
// host sweeps a subtable: an absolute the paper's shape does not depend on.
const (
	// fig3Small is a scaled-down Fig. 3: 20 s, the 512-mask attack at t=5.
	fig3Small = `name: fig3-small
duration: 20
measure:
  cost_samples: 32
victim:
  gbps: 1000000
  frame_len: 128
attack:
  start: 5
  preset: two-field
`
	// fig3Mid is fig3Small under ten times the masks: the three-field attack
	// with the source port whitelisted as a /10 prefix (5201 less its low six
	// bits), 32 x 16 x 10 divergence depths.
	fig3Mid = `name: fig3-mid
duration: 20
measure:
  cost_samples: 32
victim:
  gbps: 1000000
  frame_len: 128
attack:
  start: 5
  fields:
    - field: ip_src
      allow: 10.0.0.1
    - field: tp_dst
      allow: 80
    - field: tp_src
      allow: 5184
      width: 10
`
	// fig3Link is the paper's Fig. 3 configuration — 8192 masks via the
	// three-field Calico attack, MTU frames — at a shortened timeline, on a
	// 10 GbE link, which the resident attack starves on any host.
	fig3Link = `name: fig3-link
duration: 40
measure:
  cost_samples: 32
victim:
  gbps: 9.5
attack:
  start: 10
  preset: three-field
`
	// fig3Unbounded is fig3Link's datapath with the link taken away.
	fig3Unbounded = `name: fig3-unbounded
duration: 25
measure:
  cost_samples: 32
victim:
  gbps: 1000000
  frame_len: 1514
attack:
  start: 10
  preset: three-field
`
)

// timelineRun is one single-variant timeline pack and its run.
type timelineRun struct {
	pack *scenario.Pack
	*scenario.VariantRun
}

func (r timelineRun) String() string {
	s := r.Summary
	return fmt.Sprintf("victim %.3f -> %.3f Gbps (%.0f%% degradation), peak %g megaflow masks",
		s["mean_before"], s["mean_after"], s["degradation"]*100, s["peak_masks"])
}

func runInline(t *testing.T, doc string) timelineRun {
	t.Helper()
	p, err := scenario.LoadBytes("inline.yaml", []byte(doc))
	if err != nil {
		t.Fatal(err)
	}
	res, err := scenario.Run(p, scenario.RunOptions{})
	if err != nil {
		t.Fatal(err)
	}
	return timelineRun{p, res.Runs[0]}
}

// cheapest returns the victim's per-packet cost in nanoseconds before the
// attack and with it resident, in an unbounded-load run: the cheapest sample
// of each phase, MeasureCost's own estimator one level up — a busy host only
// ever adds cost to a sample, and the two pre-attack samples a mean takes in
// the small run are spoilt by one preemption. spread is how far the
// pre-attack samples lie apart: what this run's clock calls no difference.
// The pack must state its victim.frame_len.
func cheapest(r timelineRun) (before, after, spread float64) {
	ns := func(gbps float64) float64 { return float64(r.pack.Victim.FrameLen+20) * 8 / gbps }
	gbps, start := r.Timeline.Series("victim_gbps"), r.pack.Attack.Start
	pre := metrics.Summarize(gbps.Window(0, float64(start)))
	post := metrics.Summarize(gbps.Window(float64(start+10), float64(r.pack.Duration)))
	return ns(pre.Max), ns(post.Max), ns(pre.Min) - ns(pre.Max)
}

// checkFig3Shape asserts the paper's curve on an unbounded-load run, against
// a second run in the same process whose attack mints a mask count at least
// 8-fold away: before the attack the datapath has the nominal GbE stream's
// capacity to spare; the resident attack costs the victim more wall time than
// the pre-attack samples differ among themselves; and the cost is linear in
// the masks minted — in what is exact: the subtables a victim packet has
// physically probed (the victim_visits series, from the cache's counters) are
// the same share of the resident masks in both runs, within 15 %.
//
// The share reads 168 / 466 = 0.361 (two-field), 1 861 / 4 651 = 0.400
// (fig3Mid) and 2 958 / 7 441 = 0.398 (three-field) on every run: the victim's
// megaflow lands in the subtable of the same mask the ladder minted that far
// down. Wall time per mask is logged, not held: between two runs on one quiet
// host it differs x1.45 by itself (0.455 vs 0.315 ns a mask at 466 and 4 651:
// a fixed ~75 ns a packet besides 0.74 ns a visit), a host that changes speed
// x1.9 for whole runs multiplies that, and the x2 band this check held it to
// failed 2 in 20 (small) and 5 in 20 (full scale) once a rejected visit was a
// first-word compare.
func checkFig3Shape(t *testing.T, res, ref timelineRun) {
	t.Helper()
	// The one absolute here, and not the datapath's under the race detector
	// (x8-10 a packet: 0.6-0.7 Gbps of 128-byte frames); the shape holds there.
	if before := res.Summary["mean_before"]; before < 0.95 && !raceEnabled {
		t.Errorf("pre-attack capacity %.3f Gbps; the datapath should carry a GbE stream with room to spare", before)
	}
	masks, refMasks := res.Summary["peak_masks"], ref.Summary["peak_masks"]
	before, after, spread := cheapest(res)
	if after-before <= spread {
		t.Errorf("victim per-packet cost %.0f ns before, %.0f ns under %g masks: not beyond the %.0f ns the pre-attack samples spread\n%v",
			before, after, masks, spread, res)
	}
	if lo, hi := min(masks, refMasks), max(masks, refMasks); hi < 8*lo {
		t.Fatalf("runs of %g and %g masks: too close to show linearity", masks, refMasks)
	}
	visits, refVisits := visitsUnderAttack(res), visitsUnderAttack(ref)
	refBefore, refAfter, _ := cheapest(ref)
	t.Logf("a victim packet probes %g of %g masks at %.2f ns a mask, %g of %g at %.2f ns",
		visits, masks, (after-before)/masks, refVisits, refMasks, (refAfter-refBefore)/refMasks)
	if got, want := visits/masks, refVisits/refMasks; got < want*0.85 || got > want*1.15 {
		t.Errorf("a victim packet probes %g of %g masks, %g of %g: cost not linear in masks", visits, masks, refVisits, refMasks)
	}
}

// visitsUnderAttack returns the subtables a victim packet physically probes
// at the end of the run, with the attack long resident: a count, the same in
// every sample and on every run.
func visitsUnderAttack(r timelineRun) float64 {
	return r.Timeline.Series("victim_visits").At(float64(r.pack.Duration - 1))
}

// TestFig3ShapeSmall runs the scaled-down Fig. 3 and asserts the paper's
// qualitative shape: capacity to spare before, per-packet cost up after, by
// visits that grow with the mask count (held against a run of ten times the
// masks), mask count jumping from a handful to the predicted hundreds.
func TestFig3ShapeSmall(t *testing.T) {
	res, mid := runInline(t, fig3Small), runInline(t, fig3Mid)
	checkFig3Shape(t, res, mid)
	// Mask trajectory: single digits before, hundreds after.
	masks := res.Timeline.Series("mf_masks")
	if before := masks.At(4); before > 20 {
		t.Errorf("masks before attack = %g", before)
	}
	if after := masks.At(19); after < 450 {
		t.Errorf("masks after attack = %g, want ~512", after)
	}
}

// TestFig3FullScale reproduces the paper's actual Fig. 3 configuration at a
// shortened timeline. Skipped with -short: the covert stream's own processing
// is expensive by design.
//
// How much of a link N masks take, and how many times the pre-attack cost
// they add, depends on how fast the host sweeps a subtable, so the test
// calibrates itself. An unbounded-load run gives the datapath's cost before
// and under the attack, held to checkFig3Shape against the small run — visits
// linear in masks over a 16-fold range — and the run on the link must lose
// what the two capacities predict.
func TestFig3FullScale(t *testing.T) {
	if testing.Short() {
		t.Skip("full 8192-mask Fig. 3 timeline is slow")
	}
	res := runInline(t, fig3Link)
	if peak := res.Summary["peak_masks"]; peak < 7000 {
		t.Errorf("peak masks = %g, want ~8192 (shared tries with the victim policy shave a few)", peak)
	}
	capacity := runInline(t, fig3Unbounded)
	checkFig3Shape(t, capacity, runInline(t, fig3Small))
	offered := res.pack.Victim.Gbps
	want := 1 - min(capacity.Summary["mean_after"], offered)/min(capacity.Summary["mean_before"], offered)
	t.Logf("%.1f Gbps link: %v; predicted %.0f%%", offered, res, want*100)
	if got := res.Summary["degradation"]; math.Abs(got-want) > 0.15 {
		t.Errorf("degradation on the link %.0f%%, predicted %.0f%% (+-15)", got*100, want*100)
	}
}

// runFlowLimitQuick runs the flowlimit-quick pack — the 512-mask attack
// against a dump rate slow enough that the post-attack dump overruns hard,
// and a floor below the attack's flow count so the staleness trim engages —
// and returns the named variant.
func runFlowLimitQuick(t *testing.T, variant string) *scenario.VariantRun {
	t.Helper()
	res, err := scenario.Run(loadEmbedded(t, "flowlimit-quick.yaml"), scenario.RunOptions{})
	if err != nil {
		t.Fatal(err)
	}
	return findRun(t, res, variant)
}

// TestFlowLimitCollapsesUnderAttack is the acceptance assertion for the
// revalidator subsystem: under the covert stream the adaptive heuristic
// slashes the flow limit to its floor, and the limit cut triggers the
// staleness trim (eviction of resident flows, not just insert rejection).
func TestFlowLimitCollapsesUnderAttack(t *testing.T) {
	run := runFlowLimitQuick(t, "adaptive")
	s := run.Summary
	if s["flow_limit_final"] >= s["flow_limit_initial"] {
		t.Fatalf("adaptive limit did not collapse: %v", s)
	}
	if s["flow_limit_final"] != 256 {
		t.Errorf("limit should back off to the 256 floor, got %g", s["flow_limit_final"])
	}
	if s["overruns"] == 0 {
		t.Error("no dump overruns recorded under the attack")
	}
	if s["limit_evicted"] == 0 {
		t.Error("limit cut below the resident count trimmed nothing: the staleness sweep is not engaging")
	}
	// Before the attack lands the limit sits at the ceiling.
	if pre := run.Timeline.Series("flow_limit").At(4); pre != 200000 {
		t.Errorf("pre-attack limit = %g, want the 200000 ceiling", pre)
	}
}

// TestFlowLimitHoldsFlatWhenFixed is the control run: with the heuristic
// disabled the limit never moves, overruns notwithstanding.
func TestFlowLimitHoldsFlatWhenFixed(t *testing.T) {
	run := runFlowLimitQuick(t, "fixed")
	s := run.Summary
	if s["flow_limit_final"] < s["flow_limit_initial"] {
		t.Fatalf("fixed limit moved: %v", s)
	}
	for i, v := range run.Timeline.Series("flow_limit").V {
		if v != s["flow_limit_initial"] {
			t.Fatalf("fixed limit not flat at sample %d: %g", i, v)
		}
	}
	if s["overruns"] == 0 {
		t.Error("the fixed run should still record overruns; only the response is disabled")
	}
	if s["limit_evicted"] != 0 {
		t.Errorf("fixed limit trimmed %g flows; nothing should be over a 200000 limit", s["limit_evicted"])
	}
}
