package main

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"math"
	"slices"
	"strings"
)

// spec is the part of BENCHMARK.json the driver reads: the workloads and run
// length, and per end-to-end metric its direction and the share by which it
// may worsen before a change counts as a regression.
type spec struct {
	RunSeconds float64 `json:"run_seconds"`
	Workloads  []struct {
		Name string `json:"name"`
	} `json:"workloads"`
	EndToEnd []specMetric `json:"end_to_end"`
}

type specMetric struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound"`
}

func parseSpec(data []byte) (*spec, error) {
	var s spec
	if err := json.Unmarshal(data, &s); err != nil {
		return nil, fmt.Errorf("BENCHMARK.json: %w", err)
	}
	for _, m := range s.EndToEnd {
		if m.Better != "lower" && m.Better != "higher" {
			return nil, fmt.Errorf("BENCHMARK.json: metric %q: better is %q, want lower or higher", m.Name, m.Better)
		}
	}
	return &s, nil
}

// runLine is what one run of the benchmark command prints last: a verdict
// check, the packet counts and the metrics by name.
type runLine struct {
	Correct   bool
	Attempted int64
	Failed    int64
	Metrics   map[string]float64
}

// parseRunLine reads a run line. A line that is not one object, lacks a
// field, or carries a count or metric value out of range is an error.
func parseRunLine(line []byte) (runLine, error) {
	var raw struct {
		Correct   *bool  `json:"correct"`
		Attempted *int64 `json:"attempted"`
		Failed    *int64 `json:"failed"`
		Metrics   map[string]*struct {
			Value *float64 `json:"value"`
		} `json:"metrics"`
	}
	dec := json.NewDecoder(bytes.NewReader(line))
	if err := dec.Decode(&raw); err != nil {
		return runLine{}, fmt.Errorf("run line: %w", err)
	}
	if dec.More() {
		return runLine{}, errors.New("run line: data after the object")
	}
	switch {
	case raw.Correct == nil || raw.Attempted == nil || raw.Failed == nil || raw.Metrics == nil:
		return runLine{}, errors.New("run line: want correct, attempted, failed and metrics")
	case *raw.Attempted < 0 || *raw.Failed < 0 || *raw.Failed > *raw.Attempted:
		return runLine{}, fmt.Errorf("run line: failed %d of %d attempted", *raw.Failed, *raw.Attempted)
	}
	r := runLine{Correct: *raw.Correct, Attempted: *raw.Attempted, Failed: *raw.Failed, Metrics: map[string]float64{}}
	for name, m := range raw.Metrics {
		if m == nil || m.Value == nil || math.IsNaN(*m.Value) || math.IsInf(*m.Value, 0) {
			return runLine{}, fmt.Errorf("run line: metric %q has no finite value", name)
		}
		r.Metrics[name] = *m.Value
	}
	return r, nil
}

// record is one run as collected.jsonl keeps it: which arm ran, in which
// pair and position, on which workload and seed, and what its line said.
type record struct {
	Pair      int                `json:"pair"`
	Order     int                `json:"order"` // 0: ran first in its pair
	Arm       string             `json:"arm"`   // "base" or "head"
	Rev       string             `json:"rev"`
	Workload  string             `json:"workload"`
	Seed      uint64             `json:"seed"`
	Correct   bool               `json:"correct"`
	Attempted int64              `json:"attempted"`
	Failed    int64              `json:"failed"`
	Metrics   map[string]float64 `json:"metrics"`
}

// parseCollected reads collected.jsonl, one record a line.
func parseCollected(data []byte) ([]record, error) {
	var recs []record
	for i, line := range bytes.Split(data, []byte("\n")) {
		if len(bytes.TrimSpace(line)) == 0 {
			continue
		}
		var r record
		if err := json.Unmarshal(line, &r); err != nil {
			return nil, fmt.Errorf("collected line %d: %w", i+1, err)
		}
		if r.Arm != "base" && r.Arm != "head" {
			return nil, fmt.Errorf("collected line %d: arm %q", i+1, r.Arm)
		}
		recs = append(recs, r)
	}
	return recs, nil
}

// claim names a metric the change says it improves on a workload.
type claim struct{ Workload, Metric string }

func parseClaim(s string) (claim, error) {
	w, m, ok := strings.Cut(s, ":")
	if !ok || w == "" || m == "" {
		return claim{}, fmt.Errorf("claim %q: want workload:metric", s)
	}
	return claim{w, m}, nil
}

// armStats summarises one arm's runs of one metric: the count, the median
// and the quartiles.
type armStats struct {
	N      int     `json:"n"`
	Q1     float64 `json:"q1"`
	Median float64 `json:"median"`
	Q3     float64 `json:"q3"`
}

func summarise(v []float64) armStats {
	q1, q2, q3 := quartiles(v)
	return armStats{N: len(v), Q1: q1, Median: q2, Q3: q3}
}

// spread is the distance between the quartiles as a share of the median.
func (a armStats) spread() float64 {
	if a.Median == 0 {
		return 0
	}
	return math.Abs(a.Q3-a.Q1) / math.Abs(a.Median)
}

// quartiles returns the three cut points of Python's
// statistics.quantiles(v, n=4) (the exclusive method), as the repo
// benchmark's compare does.
func quartiles(v []float64) (q1, q2, q3 float64) {
	asc := slices.Clone(v)
	slices.Sort(asc)
	n := len(asc)
	switch n {
	case 0:
		return 0, 0, 0
	case 1:
		return asc[0], asc[0], asc[0]
	}
	cut := func(i int) float64 {
		j := min(max(i*(n+1)/4, 1), n-1)
		delta := i*(n+1) - j*4
		return (asc[j-1]*float64(4-delta) + asc[j]*float64(delta)) / 4
	}
	return cut(1), cut(2), cut(3)
}

// Verdicts of one workload and metric.
const (
	verdictPass       = "pass"
	verdictRegression = "regression" // the head's median is worse by more than the bound
	verdictUnresolved = "unresolved" // the runs spread wider than the bound
	verdictMet        = "claim met"
	verdictNotMet     = "claim not met"
)

// metricResult judges one end-to-end metric of one workload.
type metricResult struct {
	Workload string   `json:"workload"`
	Metric   string   `json:"metric"`
	Unit     string   `json:"unit"`
	Better   string   `json:"better"`
	Bound    float64  `json:"bound"`
	Base     armStats `json:"base"`
	Head     armStats `json:"head"`
	// Pairs counts the pairs where both arms read the metric; Delta is the
	// median of head - base over them. Wins and Losses count the pairs the
	// head read better and worse; ties count for neither.
	Pairs  int     `json:"pairs"`
	Delta  float64 `json:"delta"`
	Wins   int     `json:"wins"`
	Losses int     `json:"losses"`
	// Change is head - base of the medians as a share of the base's; zero for
	// a base of zero, as the benchmark's compare has it.
	Change  float64 `json:"change"`
	Claimed bool    `json:"claimed"`
	Verdict string  `json:"verdict"`
	Why     string  `json:"why"`
}

// workloadResult is one workload's run health and metric verdicts.
type workloadResult struct {
	Workload string `json:"workload"`
	// Per arm: runs whose verdict check failed, and the share of packets
	// that failed over all of the arm's runs.
	BaseIncorrect int            `json:"base_incorrect"`
	HeadIncorrect int            `json:"head_incorrect"`
	BaseFailShare float64        `json:"base_fail_share"`
	HeadFailShare float64        `json:"head_fail_share"`
	Metrics       []metricResult `json:"metrics"`
}

// analysis is analysis.json: every workload's verdicts and the overall one.
type analysis struct {
	Base      string           `json:"base"`
	Head      string           `json:"head"`
	Workloads []workloadResult `json:"workloads"`
	// Alignment holds, per arm, the address mod 64 of each hot function of
	// the arm's benchmark binary: a shift there can move a timing on its own.
	Alignment map[string]map[string]int `json:"alignment,omitempty"`
	Accept    bool                      `json:"accept"`
	Reasons   []string                  `json:"reasons,omitempty"`
}

// analyse judges the head's runs against the base's, per workload in the
// order they first appear in recs.
func analyse(s *spec, recs []record, claims []claim) *analysis {
	a := &analysis{Accept: true}
	var order []string
	for _, r := range recs {
		if !slices.Contains(order, r.Workload) {
			order = append(order, r.Workload)
		}
		switch {
		case r.Arm == "base" && a.Base == "":
			a.Base = r.Rev
		case r.Arm == "head" && a.Head == "":
			a.Head = r.Rev
		}
	}
	for _, w := range order {
		wr := judgeHealth(recs, w)
		if wr.BaseIncorrect+wr.HeadIncorrect > 0 {
			a.reject("%s: %d base and %d head runs failed their verdict check", w, wr.BaseIncorrect, wr.HeadIncorrect)
		}
		if wr.HeadFailShare > wr.BaseFailShare {
			a.reject("%s: failed share %.3g, base %.3g", w, wr.HeadFailShare, wr.BaseFailShare)
		}
		for _, m := range s.EndToEnd {
			mr := judgeMetric(recs, w, m, slices.Contains(claims, claim{w, m.Name}))
			if mr.Base.N == 0 && mr.Head.N == 0 {
				continue
			}
			if mr.Verdict != verdictPass && mr.Verdict != verdictMet {
				a.reject("%s %s: %s (%s)", w, m.Name, mr.Verdict, mr.Why)
			}
			wr.Metrics = append(wr.Metrics, mr)
		}
		a.Workloads = append(a.Workloads, wr)
	}
	for _, c := range claims {
		if !a.judged(c) {
			a.reject("claim %s:%s: no end-to-end runs of it", c.Workload, c.Metric)
		}
	}
	return a
}

// judged reports whether the analysis holds a verdict on claim c.
func (a *analysis) judged(c claim) bool {
	for _, w := range a.Workloads {
		for _, m := range w.Metrics {
			if m.Claimed && w.Workload == c.Workload && m.Metric == c.Metric {
				return true
			}
		}
	}
	return false
}

func (a *analysis) reject(format string, args ...any) {
	a.Accept = false
	a.Reasons = append(a.Reasons, fmt.Sprintf(format, args...))
}

func judgeHealth(recs []record, w string) workloadResult {
	wr := workloadResult{Workload: w}
	var attempted, failed [2]int64
	for _, r := range recs {
		if r.Workload != w {
			continue
		}
		i := armIndex(r.Arm)
		attempted[i] += r.Attempted
		failed[i] += r.Failed
		if !r.Correct {
			if i == 0 {
				wr.BaseIncorrect++
			} else {
				wr.HeadIncorrect++
			}
		}
	}
	share := func(i int) float64 {
		if attempted[i] == 0 {
			return 0
		}
		return float64(failed[i]) / float64(attempted[i])
	}
	wr.BaseFailShare, wr.HeadFailShare = share(0), share(1)
	return wr
}

func armIndex(arm string) int {
	if arm == "head" {
		return 1
	}
	return 0
}

// judgeMetric applies the rules of a paired comparison to one metric:
//   - regression: the head's median is worse than the base's by more than
//     the bound, as a share of the base's;
//   - unresolved: either arm's quartiles lie further apart than the bound,
//     as a share of its median, unless every head run reads better than
//     every base run;
//   - a claim is met when the head wins at least nine tenths of the pairs
//     and its median is better than the base's by more than the distance
//     between the base's quartiles; a claimed metric that is not met fails
//     whatever the other rules say.
func judgeMetric(recs []record, w string, m specMetric, claimed bool) metricResult {
	mr := metricResult{Workload: w, Metric: m.Name, Unit: m.Unit, Better: m.Better, Bound: m.Bound, Claimed: claimed}
	var vals [2][]float64
	byPair := map[int]*[2][]float64{}
	for _, r := range recs {
		v, ok := r.Metrics[m.Name]
		if r.Workload != w || !ok {
			continue
		}
		i := armIndex(r.Arm)
		vals[i] = append(vals[i], v)
		if byPair[r.Pair] == nil {
			byPair[r.Pair] = new([2][]float64)
		}
		byPair[r.Pair][i] = append(byPair[r.Pair][i], v)
	}
	mr.Base, mr.Head = summarise(vals[0]), summarise(vals[1])
	if mr.Base.N == 0 || mr.Head.N == 0 {
		mr.Verdict, mr.Why = verdictUnresolved, "an arm has no runs"
		if claimed {
			mr.Verdict = verdictNotMet
		}
		return mr
	}
	var deltas []float64
	for _, p := range byPair {
		if len(p[0]) != 1 || len(p[1]) != 1 {
			continue // a pair is one run of each arm
		}
		d := p[1][0] - p[0][0]
		deltas = append(deltas, d)
		switch gain := improvement(d, m.Better); {
		case gain > 0:
			mr.Wins++
		case gain < 0:
			mr.Losses++
		}
	}
	mr.Pairs = len(deltas)
	_, mr.Delta, _ = quartiles(deltas)
	if mr.Base.Median != 0 {
		mr.Change = (mr.Head.Median - mr.Base.Median) / math.Abs(mr.Base.Median)
	}
	allBetter := improvement(separation(vals[0], vals[1], m.Better), m.Better) > 0

	switch {
	case -improvement(mr.Change, m.Better) > m.Bound:
		mr.Verdict = verdictRegression
		mr.Why = fmt.Sprintf("median %+.1f%%, worse than the %.0f%% bound", 100*mr.Change, 100*m.Bound)
	case (mr.Base.spread() > m.Bound || mr.Head.spread() > m.Bound) && !allBetter:
		mr.Verdict = verdictUnresolved
		mr.Why = fmt.Sprintf("quartile spread base %.1f%%, head %.1f%%, bound %.0f%%", 100*mr.Base.spread(), 100*mr.Head.spread(), 100*m.Bound)
	default:
		mr.Verdict = verdictPass
		mr.Why = fmt.Sprintf("median %+.1f%%", 100*mr.Change)
	}
	if claimed {
		gain, iqr := improvement(mr.Head.Median-mr.Base.Median, m.Better), mr.Base.Q3-mr.Base.Q1
		switch {
		case 10*mr.Wins < 9*mr.Pairs || mr.Pairs == 0:
			mr.Verdict, mr.Why = verdictNotMet, fmt.Sprintf("won %d of %d pairs, want nine tenths", mr.Wins, mr.Pairs)
		case gain <= iqr:
			mr.Verdict, mr.Why = verdictNotMet, fmt.Sprintf("median better by %.6g, not more than the base's quartile distance %.6g", gain, iqr)
		default:
			mr.Verdict, mr.Why = verdictMet, fmt.Sprintf("won %d of %d pairs; median better by %.6g, base quartile distance %.6g", mr.Wins, mr.Pairs, gain, iqr)
		}
	}
	return mr
}

// improvement turns a head - base difference into a gain: positive when the
// head is better.
func improvement(d float64, better string) float64 {
	if better == "higher" {
		return d
	}
	return -d
}

// separation is the head - base difference between the head's worst run and
// the base's best: improvement of it is positive iff every head run is
// better than every base run.
func separation(base, head []float64, better string) float64 {
	if better == "higher" {
		return slices.Min(head) - slices.Max(base)
	}
	return slices.Max(head) - slices.Min(base)
}

// markdown renders the analysis as analysis.md.
func (a *analysis) markdown(pairs int) string {
	var b strings.Builder
	fmt.Fprintf(&b, "# A/B: head %s against base %s\n\n", a.Head, a.Base)
	fmt.Fprintf(&b, "%d pairs a workload, seed-matched, base first on odd pairs. Median [quartiles] per arm; Δ is the median of the paired head − base; wins are pairs the head read better, ties counting for neither.\n\n", pairs)
	for _, w := range a.Workloads {
		fmt.Fprintf(&b, "## %s\n\n", w.Workload)
		fmt.Fprintf(&b, "Failed share: base %.3g, head %.3g. Runs failing their verdict check: base %d, head %d.\n\n",
			w.BaseFailShare, w.HeadFailShare, w.BaseIncorrect, w.HeadIncorrect)
		b.WriteString("| metric | base | head | Δ | change | wins | bound | verdict |\n")
		b.WriteString("|---|---|---|---|---|---|---|---|\n")
		for _, m := range w.Metrics {
			name := m.Metric
			if m.Claimed {
				name += " (claimed)"
			}
			fmt.Fprintf(&b, "| %s (%s) | %.6g [%.6g, %.6g] | %.6g [%.6g, %.6g] | %+.6g | %+.1f%% | %d/%d | %.0f%% | %s: %s |\n",
				name, m.Unit, m.Base.Median, m.Base.Q1, m.Base.Q3, m.Head.Median, m.Head.Q1, m.Head.Q3,
				m.Delta, 100*m.Change, m.Wins, m.Pairs, 100*m.Bound, m.Verdict, m.Why)
		}
		b.WriteString("\n")
	}
	if len(a.Alignment) > 0 {
		b.WriteString("## Alignment\n\nAddress mod 64 of each hot function in the arm's benchmark binary.\n\n| symbol | base | head |\n|---|---|---|\n")
		var syms []string
		for _, arm := range a.Alignment {
			for s := range arm {
				if !slices.Contains(syms, s) {
					syms = append(syms, s)
				}
			}
		}
		slices.Sort(syms)
		for _, s := range syms {
			cell := func(arm string) string {
				if off, ok := a.Alignment[arm][s]; ok {
					return fmt.Sprint(off)
				}
				return "–"
			}
			fmt.Fprintf(&b, "| `%s` | %s | %s |\n", s, cell("base"), cell("head"))
		}
		b.WriteString("\n")
	}
	if a.Accept {
		b.WriteString("**Verdict: accept.**\n")
	} else {
		b.WriteString("**Verdict: reject.**\n\n")
		for _, r := range a.Reasons {
			fmt.Fprintf(&b, "- %s\n", r)
		}
	}
	return b.String()
}
