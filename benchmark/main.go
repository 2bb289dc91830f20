// Command benchmark is the repo benchmark: six canonical datapath workloads,
// each measured end to end (wire burst in, verdicts out) in an untraced run
// and layer by layer in a traced run. See README.md in this directory.
//
//	go run ./benchmark -seed 1 -out results.json    # one full run set
//	go run ./benchmark -repeat 5 -out spread.json   # five, with quartiles
//	go run ./benchmark compare a.json b.json        # judge b against a
//	go run ./benchmark --workload victim_emc --seed 3 --seconds 34 --trace 0
//
// The last form is the one the benchmark driver uses (through run.sh): one
// workload, one run, one JSON object on the last line of standard output.
// BENCHMARK.json gives the driver three of the six workloads; README.md says
// why.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"runtime"
	"strings"
)

// config is what the command line asks of a run.
type config struct {
	seed    uint64
	scale   float64 // shrinks sample counts and inputs; below 1 is for tests
	seconds float64 // measure for this long; 0 measures fixed sample counts
}

type metricDef struct{ name, unit string }

// The metrics this harness emits. BENCHMARK.json names the same sets with
// their direction and bound; a test keeps the two in step.
var (
	endToEnd = []metricDef{
		{"pkt_ns_p02", "ns/pkt"},
		{"setup_s", "s"},
		{"heap_mb", "MiB"},
	}
	perLayer = []metricDef{
		{"pkt.extract_ns_pkt", "ns/pkt"},
		{"pkt.parse_err_share", "ratio"},
		{"flow.hash_ns_pkt", "ns/pkt"},
		{"cache.emc.lookup_ns_pkt", "ns/pkt"},
		{"cache.emc.hit_share", "ratio"},
		{"cache.emc.insert_share", "ratio"},
		{"cache.smc.lookup_ns_pkt", "ns/pkt"},
		{"cache.smc.hit_share", "ratio"},
		{"cache.megaflow.lookup_ns_pkt", "ns/pkt"},
		{"cache.megaflow.masks", "count"},
		{"cache.megaflow.entries", "count"},
		{"cache.megaflow.scan_pkt", "count/pkt"},
		{"cache.megaflow.visits_pkt", "count/pkt"},
		{"cache.megaflow.ns_per_visit", "ns"},
		{"cache.megaflow.prune_share", "ratio"},
		{"cache.megaflow.insert_ns_op", "ns/install"},
		{"cache.sharded.masks_per_shard_max", "count"},
		{"cache.promote_ns_pkt", "ns/pkt"},
		{"cache.coalesce_ns_pkt", "ns/pkt"},
		{"classifier.lookup_ns_op", "ns/upcall"},
		{"classifier.subtables", "count"},
		{"dataplane.self_ns_pkt", "ns/pkt"},
		{"dataplane.upcall_share", "ratio"},
		{"dataplane.upcall_ns_op", "ns/upcall"},
		{"dataplane.allocs_burst", "allocs/burst"},
		{"dataplane.pkt_ns_p50", "ns/pkt"},
		{"dataplane.pkt_ns_p99", "ns/pkt"},
		{"dataplane.mpps", "Mpkt/s"},
		{"dataplane.core_efficiency", "ratio"},
		{"dataplane.budget_residual_share", "ratio"},
		{"revalidator.tick_ns_flow", "ns/flow"},
		{"revalidator.evicted_round", "count"},
		{"telemetry.overhead_ns_pkt", "ns/pkt"},
		{"bench.trace_overhead_share", "ratio"},
		{"bench.clock_ns", "ns"},
		{"bench.samples", "count"},
	}
	// exact marks the per-layer metrics that are counts made by the program:
	// two runs of one seed and one sample count must agree on them bit for
	// bit.
	exact = map[string]bool{
		"pkt.parse_err_share": true, "cache.emc.hit_share": true, "cache.emc.insert_share": true,
		"cache.smc.hit_share": true, "cache.megaflow.masks": true, "cache.megaflow.entries": true,
		"cache.megaflow.scan_pkt": true, "cache.megaflow.visits_pkt": true,
		"cache.megaflow.prune_share": true, "cache.sharded.masks_per_shard_max": true,
		"classifier.subtables": true, "dataplane.upcall_share": true,
		"revalidator.evicted_round": true, "bench.samples": true,
	}
)

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is one run of one workload: untraced (end-to-end metrics) or traced
// (per-layer metrics).
type result struct {
	Workload  string            `json:"workload"`
	Seed      uint64            `json:"seed"`
	Traced    bool              `json:"traced"`
	Attempted int64             `json:"attempted"` // packets offered
	Failed    int64             `json:"failed"`    // wrong verdicts + parse errors + install errors + upcall drops
	FailShare float64           `json:"fail_share"`
	Metrics   map[string]metric `json:"metrics"`
	// Invalid says why the run is not a measurement of the workload it
	// names; Unresolved says why its layer budget does not close. Either
	// way the numbers are printed.
	Invalid    string `json:"invalid,omitempty"`
	Unresolved string `json:"unresolved,omitempty"`
}

func newResult(w *workload, c *config, traced bool) *result {
	return &result{Workload: w.name, Seed: c.seed, Traced: traced, Metrics: map[string]metric{}}
}

// defs is the metric set the run's kind declares.
func (r *result) defs() []metricDef {
	if r.Traced {
		return perLayer
	}
	return endToEnd
}

// set records a metric; its name must be one the run's kind declares.
func (r *result) set(name string, v float64) {
	for _, d := range r.defs() {
		if d.name == name {
			r.Metrics[name] = metric{Value: v, Unit: d.unit}
			return
		}
	}
	panic("benchmark: undeclared metric " + name)
}

func (r *result) correct() bool { return r.Failed == 0 && r.Invalid == "" }

// finish derives fail_share once every phase of the run has been counted.
func (r *result) finish() *result {
	r.FailShare = float64(r.Failed) / float64(r.Attempted)
	return r
}

// print writes the run as `workload metric value unit` lines, in declaration
// order.
func (r *result) print(out io.Writer) {
	for _, d := range r.defs() {
		fmt.Fprintf(out, "%s %s %.6g %s\n", r.Workload, d.name, r.Metrics[d.name].Value, d.unit)
	}
	if !r.Traced {
		fmt.Fprintf(out, "%s fail_share %g ratio\n", r.Workload, r.FailShare)
	}
	if r.Invalid != "" {
		fmt.Fprintf(out, "%s INVALID %s\n", r.Workload, r.Invalid)
	}
	if r.Unresolved != "" {
		fmt.Fprintf(out, "%s unresolved %s\n", r.Workload, r.Unresolved)
	}
}

// environment is recorded in every results file: numbers from different
// boxes are not comparable.
type environment struct {
	NProc      int     `json:"nproc"`
	GOMAXPROCS int     `json:"gomaxprocs"`
	CPUModel   string  `json:"cpu_model"`
	GoVersion  string  `json:"go_version"`
	ClockNs    float64 `json:"bench.clock_ns"`
}

func readEnvironment() environment {
	env := environment{
		NProc: runtime.NumCPU(), GOMAXPROCS: runtime.GOMAXPROCS(0),
		CPUModel: "unknown", GoVersion: runtime.Version(), ClockNs: clockCost(),
	}
	if data, err := os.ReadFile("/proc/cpuinfo"); err == nil {
		for _, line := range strings.Split(string(data), "\n") {
			if k, v, ok := strings.Cut(line, ":"); ok && strings.TrimSpace(k) == "model name" {
				env.CPUModel = strings.TrimSpace(v)
				break
			}
		}
	}
	return env
}

// resultsFile is what -out writes and compare reads.
type resultsFile struct {
	Env     environment `json:"env"`
	Seed    uint64      `json:"seed"`
	Scale   float64     `json:"scale"`
	Seconds float64     `json:"seconds"`
	Runs    []*result   `json:"runs"`
}

func main() {
	if len(os.Args) > 1 && os.Args[1] == "compare" {
		os.Exit(compareMain(os.Args[2:], os.Stdout))
	}
	os.Exit(runMain(os.Args[1:], os.Stdout))
}

func runMain(args []string, stdout io.Writer) int {
	fs := flag.NewFlagSet("benchmark", flag.ContinueOnError)
	var c config
	fs.Uint64Var(&c.seed, "seed", 1, "seed of every input generator")
	fs.Float64Var(&c.scale, "scale", 1, "shrink sample counts and inputs (below 1: tests only, not comparable)")
	fs.Float64Var(&c.seconds, "seconds", 0, "measure each run for this long instead of a fixed sample count")
	name := fs.String("workload", "", "run one workload (default: all six)")
	trace := fs.String("trace", "both", "0: untraced run, end-to-end metrics; 1: traced run, per-layer metrics; both")
	repeat := fs.Int("repeat", 1, "back-to-back run sets; run set i uses seed+i")
	outPath := fs.String("out", "", "write the results as JSON to this file")
	traceOut := fs.String("trace-out", "", "write the spans of the traced runs to this file, one JSON object per line")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if fs.NArg() > 0 || c.scale <= 0 || c.seconds < 0 || *repeat < 1 ||
		(*trace != "0" && *trace != "1" && *trace != "both") {
		fmt.Fprintln(os.Stderr, "benchmark: bad arguments; see -h")
		return 2
	}
	set := workloads
	if *name != "" {
		w := findWorkload(*name)
		if w == nil {
			fmt.Fprintf(os.Stderr, "benchmark: unknown workload %q\n", *name)
			return 2
		}
		set = []*workload{w}
	}

	file := resultsFile{Seed: c.seed, Scale: c.scale, Seconds: c.seconds}
	var tracers []*tracer
	for rep := 0; rep < *repeat; rep++ {
		rc := c
		rc.seed += uint64(rep)
		for _, w := range set {
			if w.workers > runtime.NumCPU() {
				fmt.Fprintf(os.Stderr, "benchmark: %s needs %d cores, this box has %d\n", w.name, w.workers, runtime.NumCPU())
				return 1
			}
			if *trace != "1" {
				res, err := runE2E(w, &rc)
				if err != nil {
					fmt.Fprintln(os.Stderr, "benchmark:", err)
					return 1
				}
				res.finish().print(stdout)
				file.Runs = append(file.Runs, res)
			}
			if *trace != "0" {
				res, trs, err := runTraced(w, &rc)
				if err != nil {
					fmt.Fprintln(os.Stderr, "benchmark:", err)
					return 1
				}
				res.finish().print(stdout)
				file.Runs = append(file.Runs, res)
				if *traceOut != "" {
					tracers = append(tracers, trs...)
				}
			}
		}
	}
	if *repeat > 1 {
		printSpread(stdout, file.Runs)
	}
	if *traceOut != "" {
		if err := writeSpans(*traceOut, tracers); err != nil {
			fmt.Fprintln(os.Stderr, "benchmark:", err)
			return 1
		}
	}
	if *outPath != "" {
		file.Env = readEnvironment()
		data, err := json.MarshalIndent(file, "", " ")
		if err == nil {
			err = os.WriteFile(*outPath, append(data, '\n'), 0o644)
		}
		if err != nil {
			fmt.Fprintln(os.Stderr, "benchmark:", err)
			return 1
		}
	}

	// The last line is JSON: the driver's object for a single run, the
	// whole run list otherwise.
	var last any = file.Runs
	ok := true
	for _, r := range file.Runs {
		ok = ok && r.correct()
	}
	if len(file.Runs) == 1 {
		r := file.Runs[0]
		last = struct {
			Correct   bool              `json:"correct"`
			Attempted int64             `json:"attempted"`
			Failed    int64             `json:"failed"`
			Metrics   map[string]metric `json:"metrics"`
		}{r.correct(), r.Attempted, r.Failed, r.Metrics}
	}
	line, err := json.Marshal(last)
	if err != nil {
		fmt.Fprintln(os.Stderr, "benchmark:", err)
		return 1
	}
	fmt.Fprintf(stdout, "%s\n", line)
	if !ok {
		return 1
	}
	return 0
}
