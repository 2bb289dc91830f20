// Command scenario loads, validates and runs declarative scenario
// packs:
//
//	scenario list [packs...]             show the packs a path set resolves to
//	scenario validate [packs...]         load + bind every pack, report errors
//	scenario run [flags] [packs...]      execute packs and render reports
//
// Pack arguments are files, directories (immediate *.yaml/*.json), or
// "dir/..." trees. With no arguments the ./scenarios tree is used when
// present, the embedded starter corpus otherwise.
//
// Exit status: 0 on success, 1 when a pack's expectations fail, 2 on
// load or usage errors.
package main

import (
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"time"

	"policyinject/internal/scenario"
	"policyinject/internal/telemetry"
	"policyinject/scenarios"
)

func main() {
	if len(os.Args) < 2 {
		usage()
		os.Exit(2)
	}
	cmd, args := os.Args[1], os.Args[2:]
	var err error
	switch cmd {
	case "list":
		err = cmdList(args)
	case "validate":
		err = cmdValidate(args)
	case "run":
		err = cmdRun(args)
	case "-h", "-help", "--help", "help":
		usage()
		return
	default:
		fmt.Fprintf(os.Stderr, "scenario: unknown command %q\n", cmd)
		usage()
		os.Exit(2)
	}
	if err != nil {
		fmt.Fprintf(os.Stderr, "scenario: %v\n", err)
		os.Exit(2)
	}
}

func usage() {
	fmt.Fprint(os.Stderr, `usage: scenario <command> [flags] [packs...]

commands:
  list       show the packs the arguments resolve to
  validate   load and bind every pack, reporting schema errors
  run        execute packs and render reports

run flags:
  -format human|json|csv   report format (default human)
  -o dir                   write one report file per pack into dir
  -tag name                only run packs carrying this tag
  -seed n                  override the pack seed
  -duration n              override the pack duration
  -measure wall|off        override the measurement mode
  -samples n               override measure.cost_samples
  -telemetry addr          serve live telemetry on addr (/metrics,
                           /metrics.json, /debug/pprof/) while packs run
  -telemetry-hold dur      keep the telemetry listener up this long after
                           the last pack finishes (for scraping final state)

packs default to ./scenarios/... on disk, else the embedded corpus.
`)
}

// loaded is one successfully loaded pack plus its source file.
type loaded struct {
	file string
	pack *scenario.Pack
}

// collect resolves pack arguments into loaded packs. Load errors are
// returned all together so validate can report every broken file.
func collect(args []string) ([]loaded, []error) {
	if len(args) == 0 {
		if st, err := os.Stat("scenarios"); err == nil && st.IsDir() {
			args = []string{"scenarios/..."}
		} else {
			return collectEmbedded()
		}
	}
	files, err := scenario.Discover(args)
	if err != nil {
		return nil, []error{err}
	}
	if len(files) == 0 {
		return nil, []error{fmt.Errorf("no pack files found under %s", strings.Join(args, " "))}
	}
	var packs []loaded
	var errs []error
	for _, f := range files {
		p, err := scenario.Load(f)
		if err != nil {
			errs = append(errs, err)
			continue
		}
		packs = append(packs, loaded{file: f, pack: p})
	}
	return packs, errs
}

// collectEmbedded loads the compiled-in starter corpus.
func collectEmbedded() ([]loaded, []error) {
	files, err := scenario.DiscoverFS(scenarios.FS)
	if err != nil {
		return nil, []error{err}
	}
	var packs []loaded
	var errs []error
	for _, f := range files {
		p, err := scenario.LoadFS(scenarios.FS, f)
		if err != nil {
			errs = append(errs, err)
			continue
		}
		packs = append(packs, loaded{file: "embedded:" + f, pack: p})
	}
	return packs, errs
}

func cmdList(args []string) error {
	packs, errs := collect(args)
	if len(errs) > 0 {
		return errs[0]
	}
	w := new(strings.Builder)
	for _, l := range packs {
		p := l.pack
		variants := make([]string, 0, len(p.Variants))
		for _, v := range p.Variants {
			variants = append(variants, v.Variant)
		}
		fmt.Fprintf(w, "%-22s %-28s %s\n", p.Name, strings.Join(variants, ","), l.file)
		if p.Description != "" {
			fmt.Fprintf(w, "%22s %s\n", "", p.Description)
		}
		if len(p.Tags) > 0 {
			fmt.Fprintf(w, "%22s tags: %s\n", "", strings.Join(p.Tags, ", "))
		}
	}
	fmt.Print(w.String())
	return nil
}

func cmdValidate(args []string) error {
	packs, errs := collect(args)
	for _, l := range packs {
		fmt.Printf("ok\t%s\t%s (%d variant(s), %d expectation(s))\n",
			l.file, l.pack.Name, len(l.pack.Variants), len(l.pack.Expect))
	}
	if len(errs) > 0 {
		for _, err := range errs {
			fmt.Fprintf(os.Stderr, "invalid\t%v\n", err)
		}
		return fmt.Errorf("%d pack(s) failed validation", len(errs))
	}
	return nil
}

func cmdRun(args []string) error {
	fs := flag.NewFlagSet("run", flag.ExitOnError)
	format := fs.String("format", "human", "report format: human, json, csv")
	outDir := fs.String("o", "", "write one report file per pack into this directory")
	tag := fs.String("tag", "", "only run packs carrying this tag")
	seed := fs.Uint64("seed", 0, "override the pack seed (0: keep)")
	duration := fs.Int("duration", 0, "override the pack duration (0: keep)")
	measure := fs.String("measure", "", "override the measurement mode: wall or off")
	samples := fs.Int("samples", 0, "override measure.cost_samples (0: keep)")
	telemetryAddr := fs.String("telemetry", "", "serve live telemetry on this address while packs run (empty: off)")
	telemetryHold := fs.Duration("telemetry-hold", 0, "keep the telemetry listener up this long after the last pack")
	if err := fs.Parse(args); err != nil {
		return err
	}
	if *measure != "" && *measure != "wall" && *measure != "off" {
		return fmt.Errorf("-measure %q: must be wall or off", *measure)
	}
	if *samples < 0 {
		return fmt.Errorf("-samples %d: must be positive, or 0 to keep the pack's", *samples)
	}
	rep, err := scenario.NewReporter(*format)
	if err != nil {
		return err
	}
	packs, errs := collect(fs.Args())
	if len(errs) > 0 {
		return errs[0]
	}
	if *tag != "" {
		kept := packs[:0]
		for _, l := range packs {
			if l.pack.HasTag(*tag) {
				kept = append(kept, l)
			}
		}
		packs = kept
		if len(packs) == 0 {
			return fmt.Errorf("no packs carry tag %q", *tag)
		}
	}
	if *outDir != "" {
		if err := os.MkdirAll(*outDir, 0o755); err != nil {
			return err
		}
	}
	var reg *telemetry.Registry
	if *telemetryAddr != "" {
		reg = telemetry.NewRegistry()
		bound, closeFn, err := telemetry.Serve(*telemetryAddr, reg)
		if err != nil {
			return fmt.Errorf("telemetry listener: %w", err)
		}
		defer closeFn()
		fmt.Fprintf(os.Stderr, "scenario: telemetry on http://%s/metrics (json at /metrics.json, pprof at /debug/pprof/)\n", bound)
	}
	opt := scenario.RunOptions{
		Seed:        *seed,
		Duration:    *duration,
		Measure:     *measure,
		CostSamples: *samples,
		Telemetry:   reg,
	}

	sort.Slice(packs, func(i, j int) bool { return packs[i].pack.Name < packs[j].pack.Name })
	failed := 0
	for _, l := range packs {
		res, err := scenario.Run(l.pack, opt)
		if err != nil {
			return err
		}
		if !res.Passed() {
			failed++
		}
		if *outDir != "" {
			path, err := writeReport(rep, *outDir, l.pack.Name, *format, res)
			if err != nil {
				return err
			}
			status := "pass"
			if !res.Passed() {
				status = "FAIL"
			}
			fmt.Printf("%-4s %-22s -> %s\n", status, l.pack.Name, path)
		} else if err := rep.Report(os.Stdout, res); err != nil {
			return err
		}
	}
	if reg != nil && *telemetryHold > 0 {
		fmt.Fprintf(os.Stderr, "scenario: holding telemetry listener for %s\n", *telemetryHold)
		time.Sleep(*telemetryHold)
	}
	if failed > 0 {
		fmt.Fprintf(os.Stderr, "scenario: %d pack(s) failed their expectations\n", failed)
		os.Exit(1)
	}
	return nil
}

// writeReport renders one pack report under dir, creating any
// subdirectories a path-structured pack name asks for (a pack named
// "attacks/three-field" lands at dir/attacks/three-field.json), and
// returns the written path.
func writeReport(rep scenario.Reporter, dir, name, format string, res *scenario.Result) (string, error) {
	path := filepath.Join(dir, name+"."+reportExt(format))
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return "", fmt.Errorf("write report %s: %w", path, err)
	}
	f, err := os.Create(path)
	if err != nil {
		return "", fmt.Errorf("write report %s: %w", path, err)
	}
	if err := rep.Report(f, res); err != nil {
		f.Close()
		return "", fmt.Errorf("write report %s: %w", path, err)
	}
	if err := f.Close(); err != nil {
		return "", fmt.Errorf("write report %s: %w", path, err)
	}
	return path, nil
}

func reportExt(format string) string {
	switch format {
	case "json":
		return "json"
	case "csv":
		return "csv"
	}
	return "txt"
}
