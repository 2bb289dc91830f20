package dataplane_test

import (
	"testing"

	"policyinject/internal/dataplane"
	"policyinject/internal/flow"
)

// countingUpcallGuard admits every upcall and counts the calls.
type countingUpcallGuard struct{ calls uint64 }

func (g *countingUpcallGuard) AdmitUpcall(uint64, uint32) bool {
	g.calls++
	return true
}

// countingMaskGuard admits every mask and counts mints and drops.
type countingMaskGuard struct{ minted, dropped int }

func (g *countingMaskGuard) AdmitMask(flow.Match) error { return nil }
func (g *countingMaskGuard) MaskMinted(flow.Match)      { g.minted++ }
func (g *countingMaskGuard) MaskDropped(flow.Mask)      { g.dropped++ }

// TestGuardsHookOnlyTheSlowPath pins the guard seam on a plain switch:
// the upcall guard is consulted once per upcall and never on a cache hit,
// the mask guard sees each minted mask once, and guards that admit
// everything change no decision. Warm victim hits run first, then the
// two-field covert stream's upcalls, each against a guarded and an
// unguarded switch, with and without the EMC.
func TestGuardsHookOnlyTheSlowPath(t *testing.T) {
	for _, c := range []struct {
		name string
		opts []dataplane.Option
	}{
		{"emc", nil},
		{"no-emc", []dataplane.Option{dataplane.WithoutEMC()}},
	} {
		t.Run(c.name, func(t *testing.T) {
			ug, mg := &countingUpcallGuard{}, &countingMaskGuard{}
			bare := attackSwitch(t, c.opts...)
			guarded := attackSwitch(t, append([]dataplane.Option{
				dataplane.WithUpcallGuard(ug), dataplane.WithMaskGuard(mg)}, c.opts...)...)

			var fb dataplane.FrameBatch
			var outB, outG []dataplane.Decision
			run := func(step string, now uint64, keys []flow.Key) {
				t.Helper()
				outB = bare.ProcessFrames(now, dataplane.KeyBurst(&fb, keys), outB)
				outG = guarded.ProcessFrames(now, &fb, outG)
				for i := range keys {
					if outB[i] != outG[i] {
						t.Fatalf("%s key %d: unguarded %+v, guarded %+v", step, i, outB[i], outG[i])
					}
				}
			}

			victim := victimKeys(64)
			run("victim warm-up", 1, victim)
			if ug.calls == 0 {
				t.Fatal("victim warm-up made no upcall")
			}
			before := ug.calls
			for now := uint64(2); now < 6; now++ {
				run("victim warm", now, victim)
			}
			if ug.calls != before {
				t.Errorf("warm hits made %d AdmitUpcall calls, want 0", ug.calls-before)
			}

			warmMasks := mg.minted
			run("covert", 6, covertKeys(t))
			if mg.minted-warmMasks < 400 {
				t.Errorf("the covert stream minted %d masks, want the two-field attack's ~500", mg.minted-warmMasks)
			}
			cnt := guarded.Counters()
			if ug.calls != cnt.Upcalls || cnt.UpcallDrops != 0 {
				t.Errorf("AdmitUpcall calls = %d, want Upcalls = %d (drops %d)", ug.calls, cnt.Upcalls, cnt.UpcallDrops)
			}
			if masks := guarded.Megaflow().NumMasks(); mg.minted != masks || mg.dropped != 0 {
				t.Errorf("MaskMinted calls = %d (dropped %d), want NumMasks = %d", mg.minted, mg.dropped, masks)
			}
		})
	}
}
