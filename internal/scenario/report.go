package scenario

import (
	"encoding/json"
	"fmt"
	"io"
	"sort"
	"strings"

	"policyinject/internal/metrics"
)

// Reporter renders one Result to a writer. The three stock formats —
// human table, JSON, CSV — all draw from the same Result, so their
// numbers are mutually consistent by construction (the reporter tests
// pin this).
type Reporter interface {
	// Name is the format name ("human", "json", "csv"); it doubles as the
	// output file extension for -o directories.
	Name() string
	Report(w io.Writer, res *Result) error
}

// NewReporter resolves a format name.
func NewReporter(format string) (Reporter, error) {
	switch format {
	case "", "human":
		return HumanReporter{}, nil
	case "json":
		return JSONReporter{}, nil
	case "csv":
		return CSVReporter{}, nil
	}
	return nil, fmt.Errorf("unknown report format %q (have human, json, csv)", format)
}

// summaryKeys returns the run's summary metric names, sorted.
func summaryKeys(run *VariantRun) []string {
	keys := make([]string, 0, len(run.Summary))
	for k := range run.Summary {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}

// ---------------------------------------------------------------------------
// JSON

// JSONReporter emits the canonical machine-readable report. Output is
// deterministic for a deterministic Result: encoding/json sorts map keys
// and float formatting is stable, so same pack + seed (measure: off)
// means byte-identical bytes.
type JSONReporter struct{}

// Name implements Reporter.
func (JSONReporter) Name() string { return "json" }

type jsonReport struct {
	Pack   string      `json:"pack"`
	File   string      `json:"file"`
	Seed   uint64      `json:"seed"`
	Runs   []jsonRun   `json:"runs"`
	Checks []jsonCheck `json:"checks,omitempty"`
	Passed bool        `json:"passed"`
}

type jsonRun struct {
	Variant string             `json:"variant"`
	Summary map[string]float64 `json:"summary"`
	Series  []jsonSeries       `json:"series,omitempty"`
}

type jsonSeries struct {
	Name string    `json:"name"`
	T    []float64 `json:"t"`
	V    []float64 `json:"v"`
}

type jsonCheck struct {
	Variant   string  `json:"variant,omitempty"`
	Metric    string  `json:"metric"`
	Op        string  `json:"op"`
	Value     float64 `json:"value"`
	Tolerance float64 `json:"tolerance,omitempty"`
	Got       float64 `json:"got"`
	Pass      bool    `json:"pass"`
	Missing   bool    `json:"missing,omitempty"`
}

// Report implements Reporter.
func (JSONReporter) Report(w io.Writer, res *Result) error {
	doc := jsonReport{
		Pack: res.Pack, File: res.File, Seed: res.Seed,
		Passed: res.Passed(),
	}
	for _, run := range res.Runs {
		jr := jsonRun{Variant: run.Variant, Summary: run.Summary}
		if run.Timeline != nil {
			for _, s := range run.Timeline.All() {
				jr.Series = append(jr.Series, jsonSeries{Name: s.Name, T: s.T, V: s.V})
			}
		}
		doc.Runs = append(doc.Runs, jr)
	}
	for _, c := range res.Checks {
		doc.Checks = append(doc.Checks, jsonCheck{
			Variant: c.Variant, Metric: c.Metric, Op: c.Op,
			Value: c.Value, Tolerance: c.Tolerance,
			Got: c.Got, Pass: c.Pass, Missing: c.Missing,
		})
	}
	data, err := json.MarshalIndent(doc, "", "  ")
	if err != nil {
		return err
	}
	data = append(data, '\n')
	_, err = w.Write(data)
	return err
}

// ---------------------------------------------------------------------------
// CSV

// CSVReporter emits flat machine-readable blocks: a
// pack,variant,metric,value summary block and one timeline block per
// timeline run (metrics.CSV columns). Blocks are separated by blank lines
// and introduced by a # header.
type CSVReporter struct{}

// Name implements Reporter.
func (CSVReporter) Name() string { return "csv" }

// Report implements Reporter.
func (CSVReporter) Report(w io.Writer, res *Result) error {
	var b strings.Builder
	fmt.Fprintf(&b, "# pack %s summary\n", res.Pack)
	b.WriteString("pack,variant,metric,value\n")
	for _, run := range res.Runs {
		for _, k := range summaryKeys(run) {
			fmt.Fprintf(&b, "%s,%s,%s,%g\n", res.Pack, run.Variant, k, run.Summary[k])
		}
	}
	for _, c := range res.Checks {
		pass := "pass"
		if !c.Pass {
			pass = "fail"
		}
		fmt.Fprintf(&b, "%s,%s,check:%s %s %g,%s\n", res.Pack, c.Variant, c.Metric, c.Op, c.Value, pass)
	}
	for _, run := range res.Runs {
		if run.Timeline != nil {
			fmt.Fprintf(&b, "\n# pack %s variant %s timeline\n", res.Pack, run.Variant)
			b.WriteString(run.Timeline.CSV())
		}
	}
	_, err := io.WriteString(w, b.String())
	return err
}

// ---------------------------------------------------------------------------
// Human

// HumanReporter renders a terminal-friendly report: the summary metrics
// per variant, a downsampled timeline table and the evaluated
// expectations.
type HumanReporter struct{}

// Name implements Reporter.
func (HumanReporter) Name() string { return "human" }

// Report implements Reporter.
func (HumanReporter) Report(w io.Writer, res *Result) error {
	var b strings.Builder
	fmt.Fprintf(&b, "pack %s (seed %d)\n", res.Pack, res.Seed)
	for _, run := range res.Runs {
		fmt.Fprintf(&b, "\nvariant %s\n", run.Variant)
		tbl := &metrics.Table{Header: []string{"metric", "value"}}
		for _, k := range summaryKeys(run) {
			tbl.AddRow(k, run.Summary[k])
		}
		if len(tbl.Rows) > 0 {
			b.WriteString(indent(tbl.String()))
		}
		if run.Timeline != nil {
			b.WriteString(indent(timelineTable(run.Timeline)))
		}
	}
	if len(res.Checks) > 0 {
		b.WriteString("\nexpectations:\n")
		for _, c := range res.Checks {
			fmt.Fprintf(&b, "  %s\n", c.String())
		}
	}
	verdict := "PASS"
	if !res.Passed() {
		verdict = "FAIL"
	}
	fmt.Fprintf(&b, "\nresult: %s\n", verdict)
	_, err := io.WriteString(w, b.String())
	return err
}

// timelineTable renders a downsampled view of the run's series: at most
// ~20 rows, every series as a column.
func timelineTable(tl *metrics.Group) string {
	series := tl.All()
	if len(series) == 0 {
		return ""
	}
	n := series[0].Len()
	step := n / 20
	if step < 1 {
		step = 1
	}
	hdr := []string{"t"}
	for _, s := range series {
		hdr = append(hdr, s.Name)
	}
	tbl := &metrics.Table{Header: hdr}
	for i := 0; i < n; i += step {
		row := make([]any, 0, len(series)+1)
		row = append(row, series[0].T[i])
		for _, s := range series {
			if i < s.Len() {
				row = append(row, s.V[i])
			} else {
				row = append(row, "")
			}
		}
		tbl.AddRow(row...)
	}
	return tbl.String()
}

func indent(s string) string {
	lines := strings.Split(strings.TrimRight(s, "\n"), "\n")
	for i, l := range lines {
		lines[i] = "  " + l
	}
	return strings.Join(lines, "\n") + "\n"
}
