package scenario_test

import (
	"bytes"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"policyinject/internal/scenario"
	"policyinject/scenarios"
)

var update = flag.Bool("update", false, "rewrite the golden files")

// checkGolden holds got to testdata/golden/<pack file's stem><ext>; -update
// rewrites the file instead.
func checkGolden(t *testing.T, packFile, ext string, got []byte) {
	t.Helper()
	golden := goldenPath(packFile, ext)
	if *update {
		if err := os.WriteFile(golden, got, 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(golden)
	if err != nil {
		t.Fatalf("%s: %v (regenerate with go test -run Golden -update)", golden, err)
	}
	if !bytes.Equal(got, want) {
		t.Errorf("%s: diverges from %s\n--- got ---\n%s--- want ---\n%s", packFile, golden, got, want)
	}
}

// goldenPath is where a pack file's golden with extension ext lives.
func goldenPath(packFile, ext string) string {
	return filepath.Join("testdata", "golden", strings.TrimSuffix(packFile, filepath.Ext(packFile))+ext)
}

// TestCorpusGolden loads every starter pack from the embedded corpus and
// pins its bound shape (Describe) against a golden file. -update rewrites.
func TestCorpusGolden(t *testing.T) {
	files, err := scenario.DiscoverFS(scenarios.FS)
	if err != nil {
		t.Fatal(err)
	}
	if len(files) < 10 {
		t.Fatalf("embedded corpus holds %d packs, want >= 10", len(files))
	}
	for _, f := range files {
		p, err := scenario.LoadFS(scenarios.FS, f)
		if err != nil {
			t.Fatalf("load %s: %v", f, err)
		}
		checkGolden(t, f, ".golden", []byte(describe(p)))
	}
}

// TestRejectBadPacks proves broken pack files fail to load with a
// file:line: path-qualified message.
func TestRejectBadPacks(t *testing.T) {
	cases := map[string]string{
		"unknown-key.yaml":          `unknown-key.yaml:2: durration: unknown key "durration"`,
		"unknown-key.json":          `unknown-key.json:3: durration: unknown key "durration"`,
		"bad-op.yaml":               `bad-op.yaml:3: expect[0].op: must be one of ==, !=, <, <=, >, >=; got "~="`,
		"bad-prefix.yaml":           `bad-prefix.yaml:5: victim.policy.entries[0].src: expected a CIDR prefix, got "10.0.0.0=24"`,
		"bad-proto.yaml":            `bad-proto.yaml:6: victim.policy.entries[0].proto: expected tcp, udp, icmp or a protocol number, got "sctp"`,
		"dup-key.yaml":              `dup-key.yaml:2: duplicate key "name"`,
		"dup-variant.yaml":          `dup-variant.yaml:4: variants[1].name: duplicate variant "a"`,
		"inline-map.yaml":           `inline-map.yaml:2: inline mappings are not supported; use block form`,
		"matrix-no-attack.yaml":     `matrix-no-attack.yaml:2: mode: unknown key "mode"`,
		"preset-conflict.yaml":      `preset-conflict.yaml:3: attack: attack: preset and fields are mutually exclusive`,
		"expect-no-variant.yaml":    `expect-no-variant.yaml:7: expect[0].variant: no variant "c" (have a, b)`,
		"cache-less-mixed.yaml":     `cache-less-mixed.yaml:5: datapath.cache_less: excludes every other datapath key`,
		"sort-every.yaml":           `sort-every.yaml:4: datapath.sort_every: unknown key "sort_every"`,
		"emc-entries-negative.yaml": `emc-entries-negative.yaml:5: datapath.emc_entries: must not be negative, got -5; use emc: false`,
		"emc-entries-no-emc.yaml":   `emc-entries-no-emc.yaml:5: datapath.emc_entries: sizes the EMC; set emc: true`,
	}
	for file, want := range cases {
		_, err := scenario.Load(filepath.Join("testdata", "bad", file))
		if err == nil {
			t.Errorf("%s: loaded without error, want %q", file, want)
			continue
		}
		if !strings.Contains(err.Error(), want) {
			t.Errorf("%s:\n  got  %v\n  want substring %q", file, err, want)
		}
	}
}

// TestVariantOverlay proves a variant overlay merges over the base
// document rather than replacing whole sections.
func TestVariantOverlay(t *testing.T) {
	const doc = `name: overlay
duration: 10
revalidator:
  interval: 4
  dump_rate: 16
variants:
  - name: base
  - name: fixed
    revalidator:
      fixed_limit: true
`
	p, err := scenario.LoadBytes("overlay.yaml", []byte(doc))
	if err != nil {
		t.Fatal(err)
	}
	if len(p.Variants) != 2 {
		t.Fatalf("got %d variants, want 2", len(p.Variants))
	}
	fixed := p.Variants[1]
	if fixed.Variant != "fixed" || fixed.Reval == nil {
		t.Fatalf("variant %q reval %+v", fixed.Variant, fixed.Reval)
	}
	// The overlay sets fixed_limit but must keep the base's interval and
	// dump_rate.
	if !fixed.Reval.FixedLimit || fixed.Reval.Interval != 4 || fixed.Reval.DumpRate != 16 {
		t.Fatalf("overlay lost base revalidator fields: %+v", fixed.Reval)
	}
	if base := p.Variants[0]; base.Reval.FixedLimit {
		t.Fatal("overlay leaked into the base variant")
	}
}

// describe renders the pack's canonical one-pack summary — the shape the
// golden-file loader tests pin.
func describe(p *scenario.Pack) string {
	var sb strings.Builder
	fmt.Fprintf(&sb, "pack %s seed=%d duration=%d tags=[%s]\n",
		p.Name, p.Seed, p.Duration, strings.Join(p.Tags, " "))
	for _, v := range p.Variants {
		fmt.Fprintf(&sb, "variant %s\n", v.Variant)
		fmt.Fprintf(&sb, "  measure: mode=%s samples=%d\n", v.Measure.Mode, v.Measure.CostSamples)
		d := v.Datapath
		if d.CacheLess {
			sb.WriteString("  datapath: cache_less\n")
		} else {
			fmt.Fprintf(&sb, "  datapath: emc=%v smc=%v sort=%v staged=%v max_masks=%d conntrack=%v\n",
				d.EMC, d.SMC, d.SortByHits, d.StagedPruning, d.MaxMasks, d.Conntrack)
		}
		switch {
		case v.Reval == nil:
			sb.WriteString("  revalidator: default\n")
		case v.Reval.Disabled:
			sb.WriteString("  revalidator: disabled\n")
		default:
			r := v.Reval
			fmt.Fprintf(&sb, "  revalidator: interval=%d workers=%d dump_rate=%g limit=%d..%d fixed=%v\n",
				r.Interval, r.Workers, r.DumpRate, r.MinFlowLimit, r.FlowLimit, r.FixedLimit)
		}
		fmt.Fprintf(&sb, "  victim: tenant=%s pod=%s flows=%d gbps=%g frame=%d stateful=%v",
			v.Victim.Tenant, v.Victim.Pod, v.Victim.Flows, v.Victim.Gbps, v.Victim.FrameLen,
			v.Victim.Policy != nil && v.Victim.Policy.Stateful)
		if v.Victim.NewClientEvery > 0 {
			fmt.Fprintf(&sb, " new_client_every=%d", v.Victim.NewClientEvery)
		}
		sb.WriteString("\n")
		if v.Attack != nil {
			var names []string
			masks := 0
			if atk, err := v.Attack.Build(); err == nil {
				masks = atk.PredictedMasks()
				for _, f := range atk.Fields {
					names = append(names, f.Field.Name())
				}
			}
			stop := ""
			if v.Attack.Stop > 0 {
				stop = fmt.Sprintf(" stop=%d", v.Attack.Stop)
			}
			fmt.Fprintf(&sb, "  attack: start=%d%s fields=[%s] masks=%d\n", v.Attack.Start, stop, strings.Join(names, " "), masks)
		}
		for _, s := range v.Streams {
			fmt.Fprintf(&sb, "  stream %s: kind=%s to=%s flows=%d pps=%g start=%d\n",
				s.Name, s.Kind, s.To, s.Flows, s.PPS, s.Start)
		}
		for _, t := range v.Tenants {
			fmt.Fprintf(&sb, "  tenant %s: pod=%s policy=%v stream=%v\n", t.Name, t.Pod, t.Policy != nil, t.Stream != nil)
		}
		if v.Churn != nil {
			fmt.Fprintf(&sb, "  churn: period=%d start=%d rotate=%d\n", v.Churn.Period, v.Churn.Start, v.Churn.Rotate)
		}
		if v.Guards != nil {
			g := v.Guards
			fmt.Fprintf(&sb, "  guards: killswitch=%v admission=%v mask_quota=%v\n",
				g.KillSwitch != nil, g.Admission != nil, g.MaskQuota != nil)
		}
		for _, f := range v.Faults {
			fmt.Fprintf(&sb, "  fault %s: start=%d stop=%d prob=%g delay=%d factor=%g\n",
				f.Kind, f.Start, f.Stop, f.Prob, f.Delay, f.Factor)
		}
	}
	for _, e := range p.Expect {
		v := e.Variant
		if v == "" {
			v = "*"
		}
		fmt.Fprintf(&sb, "expect %s: %s %s %g (tol %g)\n", v, e.Metric, e.Op, e.Value, e.Tolerance)
	}
	return sb.String()
}
