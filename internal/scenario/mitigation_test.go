package scenario

// The countermeasures the paper's demo discussion raises ("improved
// heuristics in OVS, flow cache-less softswitches") plus the obvious
// quota-based defences, each a row of scenarios/mitigation-matrix.yaml: a
// timeline variant that lives through the same policy-injection attack while
// the victim's per-packet cost is measured before and after.
//
// The punchline these tests hold:
//
//   - sorted TSS (hit-count subtable ranking, which OVS adopted after
//     this paper) rescues *warm* traffic — the victim-facing subtables
//     out-rank the attacker's low-rate trickle — but the cold-miss path
//     still scans every attacker mask before the upcall;
//   - a reject-mode mask quota caps the damage but can displace the
//     victim's own megaflow, turning its packets into upcalls;
//   - quota + LRU eviction + ranking recovers the victim largely;
//   - the cache-less switch is immune by construction, at the price of
//     losing the near-free cache hits on friendly traffic.

import (
	"fmt"
	"sort"
	"testing"

	"policyinject/internal/attack"
	"policyinject/internal/dataplane"
	"policyinject/internal/flow"
	"policyinject/internal/flowtable"
	"policyinject/scenarios"
)

// evalRuns is how many times evaluate runs a row, on a fresh cluster each
// time, to report the run whose slowdown is the median. A slowdown is the
// ratio of two timings taken milliseconds apart, so the host's speed cancels
// — unless it changes between the two, and a shared box changes speed
// abruptly (x1.8 for seconds at a time, measured): the run that straddles the
// change reads half or twice the true ratio. Such runs are the few, and the
// median drops them (with three runs a ratio bar still failed 2 of 10
// twenty-fold repeats beside other tests, with five 0 of 17).
const evalRuns = 5

// outcome is what a row's run reports of the attack's effect.
type outcome struct {
	masks     float64 // megaflow masks at the end (0 for cache-less)
	flowLimit float64 // revalidator flow limit at the end (0: no revalidator)
	slowdown  float64 // victim per-packet cost after the attack over before
	avgScan   float64 // subtables a victim megaflow lookup scans after
}

func (o outcome) String() string {
	return fmt.Sprintf("%g masks, flow limit %g, %.1fx slowdown, %.1f subtables a lookup",
		o.masks, o.flowLimit, o.slowdown, o.avgScan)
}

// evaluate runs the row v, a variant of the matrix pack, evalRuns times in
// wall mode and reports the median-slowdown run. What the attack leaves
// behind (masks, flow limit) does not depend on timing; runs that disagree
// on it are an error.
func evaluate(v *Pack) (outcome, error) {
	one := &Pack{Name: v.Name, Seed: v.Seed, Variants: []*Pack{v}}
	runs := make([]outcome, evalRuns)
	for r := range runs {
		res, err := Run(one, RunOptions{Measure: "wall"})
		if err != nil {
			return outcome{}, err
		}
		s := res.Runs[0].Summary
		runs[r] = outcome{masks: s["final_masks"], flowLimit: s["flow_limit_final"], slowdown: s["slowdown"], avgScan: s["avg_scan"]}
		if runs[r].masks != runs[0].masks || runs[r].flowLimit != runs[0].flowLimit {
			return outcome{}, fmt.Errorf("run %d left %g masks and flow limit %g, run 0 %g and %g",
				r, runs[r].masks, runs[r].flowLimit, runs[0].masks, runs[0].flowLimit)
		}
	}
	sort.Slice(runs, func(a, b int) bool { return runs[a].slowdown < runs[b].slowdown })
	return runs[evalRuns/2], nil
}

// row returns the mitigation-matrix row named name, freshly loaded.
func row(t *testing.T, name string) *Pack {
	t.Helper()
	p, err := LoadFS(scenarios.FS, "mitigation-matrix.yaml")
	if err != nil {
		t.Fatal(err)
	}
	for _, v := range p.Variants {
		if v.Variant == name {
			return v
		}
	}
	t.Fatalf("mitigation-matrix has no row %q", name)
	return nil
}

// evaluateAttack evaluates the named rows under the attack preset, the
// victim sending samples packets a burst (0: the pack's cost_samples).
func evaluateAttack(t *testing.T, preset string, samples int, rows ...string) []outcome {
	t.Helper()
	out := make([]outcome, len(rows))
	for i, name := range rows {
		v := row(t, name)
		atk := *v.Attack
		atk.Preset = preset
		v.Attack = &atk
		if samples > 0 {
			v.Measure.CostSamples = samples
		}
		o, err := evaluate(v)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		out[i] = o
	}
	return out
}

// evaluateRows evaluates the named rows under the pack's 512-mask attack.
func evaluateRows(t *testing.T, rows ...string) []outcome {
	t.Helper()
	return evaluateAttack(t, "two-field", 0, rows...)
}

// TestVanillaIsVulnerable: the stock configuration slows down massively.
func TestVanillaIsVulnerable(t *testing.T) {
	o := evaluateRows(t, "no-emc")[0]
	// The victim's own /24 whitelist shares trie paths with the attack
	// values and perturbs a handful of divergence depths, so slightly
	// fewer than the pristine 512 masks appear: 497, however the covert
	// stream is sent.
	if o.masks != 497 {
		t.Errorf("attack injected %g masks, want 497", o.masks)
	}
	if o.slowdown < 5 {
		t.Errorf("slowdown = %.1fx; the attack should bite hard\n%v", o.slowdown, o)
	}
}

// TestMaskCapContainsMaskCount: the quota holds the line on masks, and so on
// the scan — but note the trade-off the outcome numbers expose: in reject
// mode the victim's own megaflow may be the one refused, turning every such
// victim packet into an upcall. The quota bounds the damage, it does not undo
// it, and against 512 masks it no longer buys time either: the capped victim
// is upcall-bound, the uncapped one sweeps 451 subtables a lookup (a rejected
// visit is a first-word compare). What the cap does bound is held in counts
// here — 60 subtables a lookup against 451; that it wins where the sweep is
// long, TestRelativeOrdering holds at 8192 masks.
func TestMaskCapContainsMaskCount(t *testing.T) {
	out := evaluateRows(t, "no-emc", "mask-cap-64")
	vanilla, capped := out[0], out[1]
	if capped.masks > 64 {
		t.Errorf("mask cap exceeded: %g", capped.masks)
	}
	if capped.avgScan > 64 || capped.avgScan >= vanilla.avgScan/4 {
		t.Errorf("capped lookups scan %.1f subtables, uncapped %.1f; want at most 64 and under a quarter",
			capped.avgScan, vanilla.avgScan)
	}
}

// TestMaskCapLRUSortedRestoresVictim: the combined mitigation keeps the
// victim's hot mask resident and early; its cost recovers most of the way.
func TestMaskCapLRUSortedRestoresVictim(t *testing.T) {
	out := evaluateRows(t, "no-emc", "cap-lru-sort-64")
	vanilla, combo := out[0], out[1]
	if combo.masks > 64 {
		t.Errorf("mask cap exceeded: %g", combo.masks)
	}
	if combo.slowdown > vanilla.slowdown/4 {
		t.Errorf("cap+lru+sort = %.1fx vs vanilla %.1fx; expected a strong recovery",
			combo.slowdown, vanilla.slowdown)
	}
}

// TestCacheLessIsImmune: the ESWITCH-style cache-less switch's cost is
// unchanged within measurement noise.
func TestCacheLessIsImmune(t *testing.T) {
	o := evaluateRows(t, "cache-less")[0]
	if o.masks != 0 {
		t.Errorf("cache-less variant reported %g masks", o.masks)
	}
	if o.slowdown > 3 { // generous: timer noise on busy CI boxes
		t.Errorf("cache-less slowdown = %.1fx; expected ~1x\n%v", o.slowdown, o)
	}
}

// TestRelativeOrdering: the headline comparison — vanilla suffers far more
// than the capped and cache-less variants — at the paper's operating point,
// the 8192-mask attack. Under the 512-mask attack 451 visits, each a
// first-word compare, no longer outweigh the capped victim's upcalls. None
// of these rows ranks subtables, and 8192 covert frames a tick outnumber
// any victim burst, so the victim sends 256 a burst, not the pack's 1024:
// a quarter of the sweeps to time.
func TestRelativeOrdering(t *testing.T) {
	out := evaluateAttack(t, "three-field", 256, "no-emc", "mask-cap-64", "cache-less")
	vanilla, capped, cacheless := out[0], out[1], out[2]
	if vanilla.masks != 7937 || capped.masks != 64 {
		t.Errorf("the attack left %g masks uncapped and %g capped, want 7937 and 64", vanilla.masks, capped.masks)
	}
	if vanilla.slowdown <= capped.slowdown {
		t.Errorf("vanilla (%.1fx) should suffer more than mask-cap (%.1fx)",
			vanilla.slowdown, capped.slowdown)
	}
	if vanilla.slowdown < 5*cacheless.slowdown {
		t.Errorf("vanilla (%.1fx) should suffer far more than cache-less (%.1fx)",
			vanilla.slowdown, cacheless.slowdown)
	}
}

// TestStatefulIsNotAMitigation answers the natural objection: OpenStack
// security groups are stateful, so does conntrack blunt the attack? No —
// the stateless-compiled attack ACL mints its masks regardless, and the
// victim's (stateless) path still scans them.
func TestStatefulIsNotAMitigation(t *testing.T) {
	out := evaluateRows(t, "no-emc", "stateful-sg")
	vanilla, stateful := out[0], out[1]
	if stateful.slowdown < vanilla.slowdown/10 {
		t.Errorf("stateful (%.1fx) an order of magnitude better than vanilla (%.1fx)? model drift",
			stateful.slowdown, vanilla.slowdown)
	}
	if stateful.masks < 450 {
		t.Errorf("stateful variant has only %g masks", stateful.masks)
	}
}

// TestEvaluateRejectsBadAttack: a row whose attack cannot be built is an
// error, not a run.
func TestEvaluateRejectsBadAttack(t *testing.T) {
	v := row(t, "no-emc")
	v.Attack = &AttackSpec{Fields: []attack.TargetField{{}}, Cycle: 1}
	if _, err := evaluate(v); err == nil {
		t.Fatal("invalid attack accepted")
	}
}

// TestSortedTSSRescuesWarmTraffic documents what the model (honestly)
// shows about hit-count subtable ranking — the mitigation OVS adopted
// *after* this paper: traffic whose megaflows stay warm (established
// flows and recurring churn combinations alike) is largely rescued,
// because the victim-facing subtables out-rank the attacker's trickle.
func TestSortedTSSRescuesWarmTraffic(t *testing.T) {
	out := evaluateRows(t, "no-emc", "sorted-tss")
	vanilla, sorted := out[0], out[1]
	if sorted.slowdown >= vanilla.slowdown/4 {
		t.Errorf("sorted TSS (%.1fx) barely improved on vanilla (%.1fx)",
			sorted.slowdown, vanilla.slowdown)
	}
}

// TestSortedTSSMissPathStillExposed is the flip side: a cold packet that
// misses the megaflow cache scans every attacker subtable before the
// upcall, ranking or not — the residual exposure window (flow-limit
// churn, ranking epochs, novel combos).
func TestSortedTSSMissPathStillExposed(t *testing.T) {
	// Build the attack scenario by hand to probe a guaranteed-cold key.
	sw := dataplane.New("sorted-tss", datapathOptions(row(t, "sorted-tss").Datapath)...)
	var m flow.Match
	m.Key.Set(flow.FieldInPort, 1)
	m.Mask.SetExact(flow.FieldInPort)
	sw.InstallRule(flowtable.Rule{Match: m, Priority: 0})
	atk := attack.TwoField()
	theACL, _ := atk.BuildACL()
	rules, _ := theACL.Compile()
	for _, r := range rules {
		r.Match.Key.Set(flow.FieldInPort, 66)
		r.Match.Mask.SetExact(flow.FieldInPort)
		sw.InstallRule(r)
	}
	frames, _ := atk.Frames()
	var fb dataplane.FrameBatch
	var out []dataplane.Decision
	for _, f := range frames {
		fb.Reset()
		fb.Append(f, 66)
		out = sw.ProcessFrames(1, &fb, out)
	}
	// Proto 0 has no wire rendering: the probe enters as a key.
	var cold flow.Key
	cold.Set(flow.FieldInPort, 1)
	cold.Set(flow.FieldEthType, flow.EthTypeIPv4)
	cold.Set(flow.FieldIPSrc, 0xdeadbeef)
	d := sw.ProcessKey(2, cold)
	if d.MasksScanned < 450 {
		t.Errorf("cold miss scanned only %d masks; the miss path should pay the full scan", d.MasksScanned)
	}
}

// TestStagedPruningRestoresVictim: staged pruning leaves every attacker
// megaflow resident (full mask count) yet strips the ladder's leverage —
// the victim's per-packet scan collapses to a handful of physical
// subtable probes and the slowdown improves on vanilla by a wide margin.
func TestStagedPruningRestoresVictim(t *testing.T) {
	out := evaluateRows(t, "no-emc", "staged-pruning")
	vanilla, staged := out[0], out[1]
	if staged.masks < 480 {
		t.Errorf("staged pruning should not suppress masks; got %g", staged.masks)
	}
	if staged.slowdown*2 > vanilla.slowdown {
		t.Errorf("staged pruning (%.1fx) should improve on vanilla (%.1fx) by >= 2x",
			staged.slowdown, vanilla.slowdown)
	}
	if staged.avgScan >= vanilla.avgScan/4 {
		t.Errorf("avg scan %.1f not <= vanilla/4 (%.1f)", staged.avgScan, vanilla.avgScan)
	}
}
