package mitigation_test

import (
	"testing"

	"policyinject/internal/attack"
	"policyinject/internal/dataplane"
	"policyinject/internal/flow"
	"policyinject/internal/flowtable"
	"policyinject/internal/mitigation"
	"policyinject/internal/scenario"
	"policyinject/scenarios"
)

// matrixPack is the pack whose rows these tests evaluate.
func matrixPack(t *testing.T) *scenario.Pack {
	t.Helper()
	p, err := scenario.LoadFS(scenarios.FS, "mitigation-matrix.yaml")
	if err != nil {
		t.Fatal(err)
	}
	return p
}

// row returns the mitigation-matrix row named name.
func row(t *testing.T, name string) mitigation.Variant {
	t.Helper()
	for _, v := range matrixPack(t).Variants {
		if v.Variant == name {
			return v.MitigationVariant()
		}
	}
	t.Fatalf("mitigation-matrix has no row %q", name)
	return mitigation.Variant{}
}

// evaluateAttack runs atk against the named rows over the pack's
// cost_samples (256 packets).
func evaluateAttack(t *testing.T, atk *attack.Attack, rows ...string) []mitigation.Outcome {
	t.Helper()
	samples := matrixPack(t).Measure.CostSamples
	out := make([]mitigation.Outcome, len(rows))
	for i, name := range rows {
		o, err := mitigation.Evaluate(atk, row(t, name), samples)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		out[i] = o
	}
	return out
}

// evaluate runs the pack's 512-mask attack against the named rows.
func evaluate(t *testing.T, rows ...string) []mitigation.Outcome {
	t.Helper()
	return evaluateAttack(t, attack.TwoField(), rows...)
}

// TestVanillaIsVulnerable: the stock configuration slows down massively.
func TestVanillaIsVulnerable(t *testing.T) {
	out := evaluate(t, "no-emc")
	o := out[0]
	// The victim's own /24 whitelist shares trie paths with the attack
	// values and perturbs a handful of divergence depths, so slightly
	// fewer than the pristine 512 masks appear: 497, however the covert
	// stream is sent.
	if o.Masks != 497 {
		t.Errorf("attack injected %d masks, want 497", o.Masks)
	}
	if o.Slowdown < 5 {
		t.Errorf("slowdown = %.1fx; the attack should bite hard\n%v", o.Slowdown, o)
	}
}

// TestMaskCapContainsMaskCount: the quota holds the line on masks, and so on
// the scan — but note the trade-off the outcome numbers expose: in reject
// mode the victim's own megaflow may be the one refused, turning every such
// victim packet into an upcall. The quota bounds the damage, it does not undo
// it, and against 512 masks it no longer buys time either: the capped victim
// is upcall-bound at 9.2-17.0x, the uncapped one sweeps 451 subtables a
// lookup at 10.1-14.6x (60 evaluations; a rejected visit is a first-word
// compare). What the cap does bound is held in counts here — 60.0-60.5
// subtables a lookup against 450.5-452.0; that it wins where the sweep is
// long, TestRelativeOrdering holds at 8192 masks.
func TestMaskCapContainsMaskCount(t *testing.T) {
	out := evaluate(t, "no-emc", "mask-cap-64")
	vanilla, capped := out[0], out[1]
	if capped.Masks > 64 {
		t.Errorf("mask cap exceeded: %d", capped.Masks)
	}
	if capped.AvgScan > 64 || capped.AvgScan >= vanilla.AvgScan/4 {
		t.Errorf("capped lookups scan %.1f subtables, uncapped %.1f; want at most 64 and under a quarter",
			capped.AvgScan, vanilla.AvgScan)
	}
}

// TestMaskCapLRUSortedRestoresVictim: the combined mitigation keeps the
// victim's hot mask resident and early; its cost returns to near-healthy.
func TestMaskCapLRUSortedRestoresVictim(t *testing.T) {
	out := evaluate(t, "no-emc", "cap-lru-sort-64")
	vanilla, combo := out[0], out[1]
	if combo.Masks > 64 {
		t.Errorf("mask cap exceeded: %d", combo.Masks)
	}
	if combo.Slowdown > vanilla.Slowdown/4 {
		t.Errorf("cap+lru+sort = %.1fx vs vanilla %.1fx; expected a strong recovery",
			combo.Slowdown, vanilla.Slowdown)
	}
}

// TestCacheLessIsImmune: the ESWITCH-style baseline's cost is unchanged
// within measurement noise.
func TestCacheLessIsImmune(t *testing.T) {
	out := evaluate(t, "cache-less")
	o := out[0]
	if o.Masks != 0 {
		t.Errorf("cache-less variant reported %d masks", o.Masks)
	}
	if o.Slowdown > 3 { // generous: timer noise on busy CI boxes
		t.Errorf("cache-less slowdown = %.1fx; expected ~1x\n%v", o.Slowdown, o)
	}
}

// TestRelativeOrdering: the headline comparison — vanilla suffers far more
// than the capped and cache-less variants — at the paper's operating point,
// the 8192-mask attack: over 24 evaluations vanilla reads 84-148x, mask-cap
// 8.5-23x, cache-less 2.8-3.5x. Under the 512-mask attack the three read
// 10.1-14.6x, 9.2-17.0x and 2.2-2.6x since a rejected visit became a
// first-word compare (30.3-32.7x, 15.2-16.4x, 2.3-2.4x before): 451 visits no
// longer outweigh the capped victim's upcalls, nor five times what the
// injected rules cost the classifier.
func TestRelativeOrdering(t *testing.T) {
	out := evaluateAttack(t, attack.ThreeField(), "no-emc", "mask-cap-64", "cache-less")
	vanilla, capped, cacheless := out[0], out[1], out[2]
	if vanilla.Masks != 7937 || capped.Masks != 64 {
		t.Errorf("the attack left %d masks uncapped and %d capped, want 7937 and 64", vanilla.Masks, capped.Masks)
	}
	if vanilla.Slowdown <= capped.Slowdown {
		t.Errorf("vanilla (%.1fx) should suffer more than mask-cap (%.1fx)",
			vanilla.Slowdown, capped.Slowdown)
	}
	if vanilla.Slowdown < 5*cacheless.Slowdown {
		t.Errorf("vanilla (%.1fx) should suffer far more than cache-less (%.1fx)",
			vanilla.Slowdown, cacheless.Slowdown)
	}
}

// TestStatefulIsNotAMitigation answers the natural objection: OpenStack
// security groups are stateful, so does conntrack blunt the attack? No —
// the stateless-compiled attack ACL mints its masks regardless, and the
// victim's (stateless) path still scans them.
func TestStatefulIsNotAMitigation(t *testing.T) {
	out := evaluate(t, "no-emc", "stateful-sg")
	vanilla, stateful := out[0], out[1]
	if stateful.Slowdown < vanilla.Slowdown/10 {
		t.Errorf("stateful (%.1fx) an order of magnitude better than vanilla (%.1fx)? model drift",
			stateful.Slowdown, vanilla.Slowdown)
	}
	if stateful.Masks < 450 {
		t.Errorf("stateful variant has only %d masks", stateful.Masks)
	}
}

func TestEvaluateRejectsBadAttack(t *testing.T) {
	if _, err := mitigation.Evaluate(&attack.Attack{}, row(t, "no-emc"), 16); err == nil {
		t.Fatal("invalid attack accepted")
	}
}

// TestSortedTSSRescuesWarmTraffic documents what the model (honestly)
// shows about hit-count subtable ranking — the mitigation OVS adopted
// *after* this paper: traffic whose megaflows stay warm (established
// flows and recurring churn combinations alike) is largely rescued,
// because the victim-facing subtables out-rank the attacker's trickle.
func TestSortedTSSRescuesWarmTraffic(t *testing.T) {
	out := evaluate(t, "no-emc", "sorted-tss")
	vanilla, sorted := out[0], out[1]
	if sorted.Slowdown >= vanilla.Slowdown/4 {
		t.Errorf("sorted TSS (%.1fx) barely improved on vanilla (%.1fx)",
			sorted.Slowdown, vanilla.Slowdown)
	}
}

// TestSortedTSSMissPathStillExposed is the flip side: a cold packet that
// misses the megaflow cache scans every attacker subtable before the
// upcall, ranking or not — the residual exposure window (flow-limit
// churn, ranking epochs, novel combos).
func TestSortedTSSMissPathStillExposed(t *testing.T) {
	// Build the attack scenario by hand to probe a guaranteed-cold key.
	v := row(t, "sorted-tss").Build()
	var m flow.Match
	m.Key.Set(flow.FieldInPort, 1)
	m.Mask.SetExact(flow.FieldInPort)
	v.InstallRule(flowtable.Rule{Match: m, Priority: 0})
	atk := attack.TwoField()
	theACL, _ := atk.BuildACL()
	rules, _ := theACL.Compile()
	for _, r := range rules {
		r.Match.Key.Set(flow.FieldInPort, 66)
		r.Match.Mask.SetExact(flow.FieldInPort)
		v.InstallRule(r)
	}
	frames, _ := atk.Frames()
	var fb dataplane.FrameBatch
	var out []dataplane.Decision
	for _, f := range frames {
		fb.Reset()
		fb.Append(f, 66)
		out = v.ProcessFrames(1, &fb, out)
	}
	// Proto 0 has no wire rendering: the probe enters as a key.
	var cold flow.Key
	cold.Set(flow.FieldInPort, 1)
	cold.Set(flow.FieldEthType, flow.EthTypeIPv4)
	cold.Set(flow.FieldIPSrc, 0xdeadbeef)
	d := v.(*dataplane.Switch).ProcessKey(2, cold)
	if d.MasksScanned < 450 {
		t.Errorf("cold miss scanned only %d masks; the miss path should pay the full scan", d.MasksScanned)
	}
}

// TestStagedPruningRestoresVictim: staged pruning leaves every attacker
// megaflow resident (full mask count) yet strips the ladder's leverage —
// the victim's per-packet scan collapses to a handful of physical
// subtable probes and the slowdown improves on vanilla by a wide margin.
func TestStagedPruningRestoresVictim(t *testing.T) {
	out := evaluate(t, "no-emc", "staged-pruning")
	vanilla, staged := out[0], out[1]
	if staged.Masks < 480 {
		t.Errorf("staged pruning should not suppress masks; got %d", staged.Masks)
	}
	if staged.Slowdown*2 > vanilla.Slowdown {
		t.Errorf("staged pruning (%.1fx) should improve on vanilla (%.1fx) by >= 2x",
			staged.Slowdown, vanilla.Slowdown)
	}
	if staged.AvgScan >= vanilla.AvgScan/4 {
		t.Errorf("avg scan %.1f not <= vanilla/4 (%.1f)", staged.AvgScan, vanilla.AvgScan)
	}
}

// TestStagedPruningScanRepeats: the staged tier re-ranks its scan order
// every RankEvery lookups, and a measurement window that opens on the wrong
// side of a re-rank reads the attack-time order. Two back-to-back evaluations
// must report the same scan depth.
func TestStagedPruningScanRepeats(t *testing.T) {
	a := evaluate(t, "staged-pruning")[0].AvgScan
	b := evaluate(t, "staged-pruning")[0].AvgScan
	if lo, hi := min(a, b), max(a, b); hi > lo*1.1 {
		t.Errorf("avg scan %.2f then %.2f: two evaluations differ by more than 10%%", a, b)
	}
}
