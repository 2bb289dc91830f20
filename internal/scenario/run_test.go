package scenario_test

import (
	"bytes"
	"testing"

	"policyinject/internal/attack"
	"policyinject/internal/mitigation"
	"policyinject/internal/scenario"
	"policyinject/scenarios"
)

func loadEmbedded(t *testing.T, file string) *scenario.Pack {
	t.Helper()
	p, err := scenario.LoadFS(scenarios.FS, file)
	if err != nil {
		t.Fatalf("load %s: %v", file, err)
	}
	return p
}

func findRun(t *testing.T, res *scenario.Result, variant string) *scenario.VariantRun {
	t.Helper()
	for _, r := range res.Runs {
		if r.Variant == variant {
			return r
		}
	}
	t.Fatalf("pack %s has no variant %q", res.Pack, variant)
	return nil
}

func render(t *testing.T, format string, res *scenario.Result) []byte {
	t.Helper()
	rep, err := scenario.NewReporter(format)
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := rep.Report(&buf, res); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// TestSeededDeterminism: a measure-off pack run twice at the same seed
// renders byte-identical JSON reports.
func TestSeededDeterminism(t *testing.T) {
	p := loadEmbedded(t, "port-ladder.yaml")
	r1, err := scenario.Run(p, scenario.RunOptions{})
	if err != nil {
		t.Fatal(err)
	}
	r2, err := scenario.Run(p, scenario.RunOptions{})
	if err != nil {
		t.Fatal(err)
	}
	j1, j2 := render(t, "json", r1), render(t, "json", r2)
	if !bytes.Equal(j1, j2) {
		t.Fatalf("same pack + seed produced different JSON reports:\n%s\n----\n%s", j1, j2)
	}
}

// TestChaosPackDeterminism: the fault-injection gauntlet replayed at
// the same seed renders byte-identical JSON reports — every fault draw
// comes from the pack's seeded stream, never from wall clock or map
// iteration order.
func TestChaosPackDeterminism(t *testing.T) {
	p := loadEmbedded(t, "chaos-recovery.yaml")
	r1, err := scenario.Run(p, scenario.RunOptions{})
	if err != nil {
		t.Fatal(err)
	}
	r2, err := scenario.Run(p, scenario.RunOptions{})
	if err != nil {
		t.Fatal(err)
	}
	j1, j2 := render(t, "json", r1), render(t, "json", r2)
	if !bytes.Equal(j1, j2) {
		t.Fatalf("same pack + seed produced different JSON reports:\n%s\n----\n%s", j1, j2)
	}
}

// TestMitigationPackMatchesLegacy proves the matrix pack reproduces the
// hand-wired mitigation.Evaluate row set on the structural columns.
func TestMitigationPackMatchesLegacy(t *testing.T) {
	p := loadEmbedded(t, "mitigation-matrix.yaml")
	res, err := scenario.Run(p, scenario.RunOptions{})
	if err != nil {
		t.Fatal(err)
	}
	legacy, err := mitigation.Evaluate(attack.TwoField(), []mitigation.Variant{
		mitigation.Vanilla(), mitigation.NoEMC(), mitigation.SMC(), mitigation.EMCPlusSMC(),
		mitigation.SortedTSS(), mitigation.StagedPruning(), mitigation.MaskCap(64),
		mitigation.MaskCapLRUSorted(64), mitigation.FixedFlowLimit(), mitigation.AdaptiveFlowLimit(),
		mitigation.Stateful(), mitigation.CacheLess(),
	}, 256)
	if err != nil {
		t.Fatal(err)
	}
	got := res.Runs[0].Outcomes
	if len(got) != len(legacy) {
		t.Fatalf("%d outcomes, legacy %d", len(got), len(legacy))
	}
	for i := range got {
		if got[i].Name != legacy[i].Name || got[i].Masks != legacy[i].Masks || got[i].FlowLimit != legacy[i].FlowLimit {
			t.Errorf("outcome %d: got %s/%d/%d, legacy %s/%d/%d", i,
				got[i].Name, got[i].Masks, got[i].FlowLimit,
				legacy[i].Name, legacy[i].Masks, legacy[i].FlowLimit)
		}
	}
}

// TestQuickTimelineRunGolden runs every quick-tagged timeline pack with
// the wall clock out of the loop (measure off: a fixed untimed victim burst
// per tick) and pins its CSV report — every summary count and every tick of
// every series — byte for byte against testdata/golden/<pack>.run.csv.
// Same pack + seed => same bytes.
func TestQuickTimelineRunGolden(t *testing.T) {
	files, err := scenario.DiscoverFS(scenarios.FS)
	if err != nil {
		t.Fatal(err)
	}
	ran := 0
	for _, f := range files {
		p := loadEmbedded(t, f)
		if !p.HasTag("quick") || p.Mode != "timeline" {
			continue
		}
		res, err := scenario.Run(p, scenario.RunOptions{Measure: "off"})
		if err != nil {
			t.Fatalf("run %s: %v", p.Name, err)
		}
		checkGolden(t, f, ".run.csv", render(t, "csv", res))
		ran++
	}
	if ran < 7 {
		t.Fatalf("only %d quick timeline packs ran, want >= 7", ran)
	}
}

// TestQuickCorpusRuns executes every quick-tagged starter pack in all
// three report formats and requires their expectations to hold.
func TestQuickCorpusRuns(t *testing.T) {
	if testing.Short() {
		t.Skip("corpus run is slow")
	}
	files, err := scenario.DiscoverFS(scenarios.FS)
	if err != nil {
		t.Fatal(err)
	}
	ran := 0
	for _, f := range files {
		p := loadEmbedded(t, f)
		if !p.HasTag("quick") {
			continue
		}
		res, err := scenario.Run(p, scenario.RunOptions{})
		if err != nil {
			t.Fatalf("run %s: %v", p.Name, err)
		}
		if !res.Passed() {
			for _, c := range res.Checks {
				t.Errorf("%s: %s", p.Name, c)
			}
		}
		for _, format := range []string{"human", "json", "csv"} {
			if out := render(t, format, res); len(out) == 0 {
				t.Errorf("%s: empty %s report", p.Name, format)
			}
		}
		ran++
	}
	if ran < 7 {
		t.Fatalf("only %d quick packs ran, want >= 7", ran)
	}
}
