package scenario_test

import (
	"bytes"
	"fmt"
	"maps"
	"os"
	"slices"
	"strings"
	"testing"

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

// TestRunRefusesBadOptions: a run-time override the pack loader would refuse
// fails the run instead of reading as a default — a measure mode other than
// wall or off, and a negative cost-sample count.
func TestRunRefusesBadOptions(t *testing.T) {
	p, err := scenario.LoadBytes("tiny.yaml", []byte(tinyPack))
	if err != nil {
		t.Fatal(err)
	}
	for _, opt := range []scenario.RunOptions{{Measure: "bogus"}, {Measure: "Off"}, {CostSamples: -5}} {
		if _, err := scenario.Run(p, opt); err == nil {
			t.Errorf("options %+v: the run went ahead", opt)
		}
	}
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

// TestMitigationPackPins holds what the 512-mask attack leaves behind in
// every row of the mitigation matrix, in wall mode: the masks resident and
// the revalidator's flow limit, neither of which depends on timing. Every
// row reports the matrix's columns.
func TestMitigationPackPins(t *testing.T) {
	p := loadEmbedded(t, "mitigation-matrix.yaml")
	res, err := scenario.Run(p, scenario.RunOptions{})
	if err != nil {
		t.Fatal(err)
	}
	want := []struct {
		variant          string
		masks, flowLimit float64
	}{
		{"vanilla", 497, 0},
		{"no-emc", 497, 0},
		{"smc", 497, 0},
		{"emc+smc", 497, 0},
		{"sorted-tss", 497, 0},
		{"staged-pruning", 497, 0},
		{"mask-cap-64", 64, 0},
		{"cap-lru-sort-64", 64, 0},
		{"fixed-limit", 497, 200000},
		{"adaptive-limit", 256, 256},
		{"stateful-sg", 497, 0},
		{"cache-less", 0, 0},
	}
	if len(res.Runs) != len(want) {
		t.Fatalf("%d rows, want %d", len(res.Runs), len(want))
	}
	for i, w := range want {
		r := res.Runs[i]
		for _, m := range []string{"final_masks", "flow_limit_final", "slowdown", "avg_scan", "ns_before", "ns_after"} {
			if _, ok := r.Summary[m]; !ok {
				t.Errorf("row %s lacks %s", r.Variant, m)
			}
		}
		if r.Variant != w.variant || r.Summary["final_masks"] != w.masks || r.Summary["flow_limit_final"] != w.flowLimit {
			t.Errorf("row %d: got %s masks=%g flow_limit=%g, want %s %g/%g", i,
				r.Variant, r.Summary["final_masks"], r.Summary["flow_limit_final"], w.variant, w.masks, w.flowLimit)
		}
	}
}

// TestMitigationVerdictsAgree is the matrix's verdict differential: every
// row — cached hierarchies, quotas, revalidators, conntrack and the
// cache-less switch alike — sees the same packets under measure off and
// must hand down the classifier's verdict on each, so every row counts the
// same allowed and denied packets.
func TestMitigationVerdictsAgree(t *testing.T) {
	res, err := scenario.Run(loadEmbedded(t, "mitigation-matrix.yaml"), scenario.RunOptions{Measure: "off"})
	if err != nil {
		t.Fatal(err)
	}
	ref := res.Runs[0].Summary
	if ref["allowed"] == 0 || ref["denied"] == 0 {
		t.Fatalf("row %s allowed %g and denied %g: the differential needs both", res.Runs[0].Variant, ref["allowed"], ref["denied"])
	}
	for _, r := range res.Runs[1:] {
		if r.Summary["allowed"] != ref["allowed"] || r.Summary["denied"] != ref["denied"] {
			t.Errorf("row %s allowed %g, denied %g; row %s %g, %g", r.Variant, r.Summary["allowed"], r.Summary["denied"],
				res.Runs[0].Variant, ref["allowed"], ref["denied"])
		}
	}
}

// TestTableRendering: a matrix row renders through the reporters every
// pack uses — the human report's variant block and the CSV summary both
// carry the row's name and its matrix metrics.
func TestTableRendering(t *testing.T) {
	p := loadEmbedded(t, "mitigation-matrix.yaml")
	var rows []*scenario.Pack
	for _, v := range p.Variants {
		if v.Variant == "no-emc" {
			rows = append(rows, v)
		}
	}
	if len(rows) != 1 {
		t.Fatalf("mitigation-matrix has %d no-emc rows, want 1", len(rows))
	}
	p.Variants, p.Expect = rows, nil
	res, err := scenario.Run(p, scenario.RunOptions{})
	if err != nil {
		t.Fatal(err)
	}
	human := string(render(t, "human", res))
	for _, want := range []string{"variant no-emc", "slowdown", "avg_scan", "flow_limit_final", "ns_before", "ns_after"} {
		if !strings.Contains(human, want) {
			t.Errorf("human report missing %q:\n%s", want, human)
		}
	}
	csv := string(render(t, "csv", res))
	for _, want := range []string{"no-emc", "slowdown"} {
		if !strings.Contains(csv, want) {
			t.Errorf("csv report missing %q:\n%s", want, csv)
		}
	}
}

// TestQuickTimelineRunGolden runs every quick-tagged timeline pack with
// the wall clock out of the loop (measure off: the victim sends the same 8
// bursts of cost_samples frames a tick as in wall mode, untimed) and pins
// its CSV report — every summary count and every tick of every series —
// byte for byte against testdata/golden/<pack>.run.csv. Same pack + seed =>
// same bytes.
func TestQuickTimelineRunGolden(t *testing.T) {
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
		res, err := scenario.Run(p, scenario.RunOptions{Measure: "off"})
		if err != nil {
			t.Fatalf("run %s: %v", p.Name, err)
		}
		checkGolden(t, f, ".run.csv", render(t, "csv", res))
		ran++
	}
	if ran < 9 {
		t.Fatalf("only %d quick timeline packs ran, want >= 9", ran)
	}
}

// TestQuickCorpusRuns executes every quick-tagged starter pack in its own
// measure mode, in all three report formats, and requires its expectations
// to hold. Both modes send the same traffic, so every summary metric that
// is not a timing must equal the pack's measure-off run golden: a count a
// wall-mode run reads must not depend on the host's speed.
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
		want := goldenCounts(t, f)
		got := map[string]string{}
		for _, r := range res.Runs {
			for k, v := range r.Summary {
				if !isTiming(k) {
					got[r.Variant+","+k] = fmt.Sprintf("%g", v)
				}
			}
		}
		for _, k := range slices.Sorted(maps.Keys(got)) {
			if want[k] != got[k] {
				t.Errorf("%s: %s = %s in %s mode, %q in the measure-off golden", p.Name, k, got[k], p.Measure.Mode, want[k])
			}
		}
		for _, k := range slices.Sorted(maps.Keys(want)) {
			if _, ok := got[k]; !ok {
				t.Errorf("%s: %s = %s in the measure-off golden, missing from the %s-mode run", p.Name, k, want[k], p.Measure.Mode)
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

// goldenCounts reads the summary block of packFile's measure-off run
// golden as "variant,metric" -> value.
func goldenCounts(t *testing.T, packFile string) map[string]string {
	t.Helper()
	data, err := os.ReadFile(goldenPath(packFile, ".run.csv"))
	if err != nil {
		t.Fatal(err)
	}
	counts := map[string]string{}
	for _, line := range strings.Split(string(data), "\n")[2:] {
		if line == "" {
			break
		}
		f := strings.Split(line, ",")
		if len(f) != 4 || strings.HasPrefix(f[2], "check:") {
			continue
		}
		counts[f[1]+","+f[2]] = f[3]
	}
	return counts
}

// isTiming reports whether a summary metric is read off the wall clock.
func isTiming(metric string) bool {
	for _, prefix := range []string{"ns_", "slowdown", "mean_", "degradation", "capacity"} {
		if strings.HasPrefix(metric, prefix) {
			return true
		}
	}
	return strings.Contains(metric, "gbps")
}
