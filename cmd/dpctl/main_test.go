package main

import (
	"strings"
	"testing"

	"policyinject/internal/flow"
	"policyinject/internal/flowtable"
)

// TestSelfCheck runs the self-check on the demo scenario in each shape
// the subcommand builds: healthy, after the covert stream, with the SMC
// tier, and under the revalidator demo's three-field attack.
func TestSelfCheck(t *testing.T) {
	for _, tc := range []struct {
		name    string
		fields  string
		execute bool
		smc     bool
	}{
		{"healthy", "ip_src,tp_dst", false, false},
		{"attack", "ip_src,tp_dst", true, false},
		{"attack_smc", "ip_src,tp_dst", true, true},
		{"attack_three_fields", "ip_src,tp_dst,tp_src", true, false},
	} {
		t.Run(tc.name, func(t *testing.T) {
			sc, err := buildScenario(tc.fields, tc.execute, tc.smc)
			if err != nil {
				t.Fatal(err)
			}
			if err := selfCheck(sc.sw); err != nil {
				t.Fatalf("self-check failed: %v", err)
			}
			flows := len(sc.sw.Megaflow().Entries())
			if !tc.execute && flows != 0 {
				t.Fatalf("healthy scenario holds %d megaflows, want 0", flows)
			}
			if tc.execute && flows < sc.atk.PredictedMasks() {
				t.Fatalf("attack left %d megaflows, want at least the %d predicted masks",
					flows, sc.atk.PredictedMasks())
			}
		})
	}
}

// TestSelfCheckCatchesConflictingMegaflows plants two overlapping
// megaflows with opposite verdicts, which no classifier upcall mints.
func TestSelfCheckCatchesConflictingMegaflows(t *testing.T) {
	sc, err := buildScenario("ip_src,tp_dst", false, false)
	if err != nil {
		t.Fatal(err)
	}
	var wide, narrow flow.Match
	wide.Mask.SetPrefix(flow.FieldIPSrc, 8)
	wide.Key.Set(flow.FieldIPSrc, 0x0a000000)
	narrow.Mask.SetExact(flow.FieldIPSrc)
	narrow.Key.Set(flow.FieldIPSrc, 0x0a000001)
	mf := sc.sw.Megaflow()
	if _, err := mf.Insert(wide, flowtable.Action{Verdict: flowtable.Allow}, 1); err != nil {
		t.Fatal(err)
	}
	if _, err := mf.Insert(narrow, flowtable.Action{Verdict: flowtable.Deny}, 1); err != nil {
		t.Fatal(err)
	}
	err = selfCheck(sc.sw)
	if err == nil || !strings.Contains(err.Error(), "conflicting overlapping megaflows") {
		t.Fatalf("self-check = %v, want a conflicting-megaflow error", err)
	}
}
