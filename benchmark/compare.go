package main

import (
	"encoding/json"
	"fmt"
	"io"
	"os"
)

// benchmarkSpec is the part of BENCHMARK.json the harness reads: which
// metrics exist, which way is better and how far an end-to-end metric may
// worsen before a change counts as a regression.
type benchmarkSpec struct {
	Workloads []struct{ Name, Why string } `json:"workloads"`
	EndToEnd  []specMetric                 `json:"end_to_end"`
	PerLayer  []specMetric                 `json:"per_layer"`
}

type specMetric struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound"`
}

func loadSpec(path string) (*benchmarkSpec, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var spec benchmarkSpec
	if err := json.Unmarshal(data, &spec); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return &spec, nil
}

func loadResults(path string) (*resultsFile, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var f resultsFile
	if err := json.Unmarshal(data, &f); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return &f, nil
}

// values collects one metric of one workload over the runs of a file.
func values(runs []*result, workload, name string) []float64 {
	var v []float64
	for _, r := range runs {
		if m, ok := r.Metrics[name]; ok && r.Workload == workload {
			v = append(v, m.Value)
		}
	}
	return v
}

// worsening is how far b is worse than a as a share of a; negative when b is
// better.
func worsening(a, b float64, better string) float64 {
	if a == 0 {
		return 0
	}
	if better == "higher" {
		return (a - b) / a
	}
	return (b - a) / a
}

// compareMain judges results file b against a: per workload and end-to-end
// metric both medians, the relative difference and pass or fail against the
// metric's bound. Exit status 1 when any pairing fails.
func compareMain(args []string, stdout io.Writer) int {
	if len(args) != 2 {
		fmt.Fprintln(os.Stderr, "usage: benchmark compare a.json b.json   (run from the repo root, where BENCHMARK.json is)")
		return 2
	}
	spec, err := loadSpec("BENCHMARK.json")
	var a, b *resultsFile
	if err == nil {
		a, err = loadResults(args[0])
	}
	if err == nil {
		b, err = loadResults(args[1])
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "benchmark compare:", err)
		return 2
	}
	status := 0
	fmt.Fprintf(stdout, "%-18s %-12s %12s %12s %8s %6s\n", "workload", "metric", "a", "b", "worse", "bound")
	for _, w := range spec.Workloads {
		for _, m := range spec.EndToEnd {
			va, vb := values(a.Runs, w.Name, m.Name), values(b.Runs, w.Name, m.Name)
			if len(va) == 0 && len(vb) == 0 {
				continue // neither file ran this workload
			}
			if len(va) == 0 || len(vb) == 0 {
				fmt.Fprintf(stdout, "%-18s %-12s missing FAIL\n", w.Name, m.Name)
				status = 1
				continue
			}
			ma, mb := median(va), median(vb)
			worse := worsening(ma, mb, m.Better)
			verdict := "pass"
			if worse > m.Bound {
				verdict, status = "FAIL", 1
			}
			fmt.Fprintf(stdout, "%-18s %-12s %12.6g %12.6g %+7.1f%% %5.0f%% %s\n", w.Name, m.Name, ma, mb, worse*100, m.Bound*100, verdict)
		}
		// fail_share has an absolute bound of zero on both sides.
		for _, f := range []*resultsFile{a, b} {
			for _, r := range f.Runs {
				if r.Workload == w.Name && !r.correct() {
					fmt.Fprintf(stdout, "%-18s fail_share %g invalid=%q FAIL\n", w.Name, r.FailShare, r.Invalid)
					status = 1
				}
			}
		}
		// Exact counts must not move at all between runs of one seed.
		if a.Seed == b.Seed && a.Seconds == 0 && b.Seconds == 0 && a.Scale == b.Scale {
			for name := range exact {
				va, vb := values(a.Runs, w.Name, name), values(b.Runs, w.Name, name)
				for i := 0; i < len(va) && i < len(vb); i++ {
					if va[i] != vb[i] {
						fmt.Fprintf(stdout, "%-18s %s run %d: %v != %v (exact count) FAIL\n", w.Name, name, i, va[i], vb[i])
						status = 1
					}
				}
			}
		}
	}
	return status
}

// printSpread summarises repeated run sets: median and quartiles of every
// metric, and for end-to-end metrics the spread the contract judges (the
// distance between the quartiles as a share of the median).
func printSpread(out io.Writer, runs []*result) {
	fmt.Fprintf(out, "%-18s %-34s %12s %12s %12s %8s\n", "workload", "metric", "q1", "median", "q3", "spread")
	for _, w := range workloads {
		for _, d := range append(append([]metricDef(nil), endToEnd...), perLayer...) {
			v := values(runs, w.name, d.name)
			if len(v) < 2 {
				continue
			}
			q1, q2, q3 := quartiles(v)
			fmt.Fprintf(out, "%-18s %-34s %12.6g %12.6g %12.6g %7.2f%%\n", w.name, d.name, q1, q2, q3, spread(v)*100)
		}
	}
}
