package main

import (
	"bytes"
	"encoding/json"
	"io"
	"math"
	"path/filepath"
	"reflect"
	"regexp"
	"runtime"
	"slices"
	"sort"
	"strings"
	"testing"
)

func TestSelfTimes(t *testing.T) {
	// root [0,100) causes a [10,40) and b [50,90); b causes c [60,70) and
	// d [70,85). A second root [200,230) has no children. Replayed stages
	// run after their root on the twin, so nesting in time is not required:
	// e [300,320) is caused by the first root too.
	tr := newTracer(0, 8)
	root, a, b, c := tr.nameID("root"), tr.nameID("a"), tr.nameID("b"), tr.nameID("c")
	tr.spans = []span{
		{name: root, parent: -1, start: 0, end: 100},
		{name: a, parent: 0, start: 10, end: 40},
		{name: b, parent: 0, start: 50, end: 90},
		{name: c, parent: 2, start: 60, end: 70},
		{name: c, parent: 2, start: 70, end: 85},
		{name: root, parent: -1, start: 200, end: 230},
		{name: a, parent: 0, start: 300, end: 320},
	}
	got := tr.selfTimes()
	want := map[string]layerTime{
		"root": {self: 100 - 30 - 40 - 20 + 30, total: 130, count: 2},
		"a":    {self: 50, total: 50, count: 2},
		"b":    {self: 40 - 10 - 15, total: 40, count: 1},
		"c":    {self: 25, total: 25, count: 2},
	}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("selfTimes = %+v, want %+v", got, want)
	}
}

func TestPercentiles(t *testing.T) {
	asc := make([]float64, 1000)
	for i := range asc {
		asc[i] = float64(i + 1)
	}
	if got := percentile(asc, 50); got != 500 {
		t.Errorf("p50 of 1..1000 = %v, want 500", got)
	}
	if got := percentile(asc, 10); got != 100 {
		t.Errorf("p10 of 1..1000 = %v, want 100", got)
	}
	// 1000 samples leave exactly ten beyond p99; 999 leave nine.
	if v, p := tailPercentile(asc); p != 99 || v != 990 {
		t.Errorf("tail of 1000 samples = p%d %v, want p99 990", p, v)
	}
	if v, p := tailPercentile(asc[:999]); p != 90 || v != 900 {
		t.Errorf("tail of 999 samples = p%d %v, want p90 900", p, v)
	}
	// statistics.quantiles([1, 2, 4, 7, 11, 16, 22, 29, 37, 46], n=4)
	q1, q2, q3 := quartiles([]float64{46, 1, 2, 4, 7, 11, 16, 22, 29, 37})
	if q1 != 3.5 || q2 != 13.5 || q3 != 31 {
		t.Errorf("quartiles = %v %v %v, want 3.5 13.5 31", q1, q2, q3)
	}
	if got, want := spread([]float64{46, 1, 2, 4, 7, 11, 16, 22, 29, 37}), 27.5/13.5; math.Abs(got-want) > 1e-12 {
		t.Errorf("spread = %v, want %v", got, want)
	}
}

var metricName = regexp.MustCompile(`^[A-Za-z0-9_.-]+$`)

// The metric names the harness declares must be well formed and must be
// exactly the names BENCHMARK.json declares, with the same units; the
// workloads BENCHMARK.json gives the driver must be workloads of the harness.
func TestMetricsMatchSpec(t *testing.T) {
	spec, err := loadSpec(filepath.Join("..", "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	check := func(kind string, defs []metricDef, named []specMetric) {
		t.Helper()
		got, want := map[string]string{}, map[string]string{}
		for _, d := range defs {
			if !metricName.MatchString(d.name) || len(d.name) > 64 {
				t.Errorf("%s metric name %q is malformed", kind, d.name)
			}
			got[d.name] = d.unit
		}
		for _, m := range named {
			want[m.Name] = m.Unit
		}
		if !reflect.DeepEqual(got, want) {
			t.Errorf("%s metrics: harness declares %v, BENCHMARK.json %v", kind, got, want)
		}
	}
	check("end-to-end", endToEnd, spec.EndToEnd)
	check("per-layer", perLayer, spec.PerLayer)
	for name := range exact {
		if !slices.ContainsFunc(perLayer, func(d metricDef) bool { return d.name == name }) {
			t.Errorf("exact metric %q is not a per-layer metric", name)
		}
	}
	// The driver gates a subset of the harness's workloads, in its order.
	next := 0
	for _, w := range workloads {
		if !metricName.MatchString(w.name) {
			t.Errorf("workload name %q is malformed", w.name)
		}
		if next < len(spec.Workloads) && spec.Workloads[next].Name == w.name {
			next++
		}
	}
	if next != len(spec.Workloads) {
		t.Errorf("BENCHMARK.json names workload %q, which the harness does not have (or has in another order)", spec.Workloads[next].Name)
	}
}

// runSet runs one reduced-scale run set in process and returns its runs.
func runSet(t *testing.T, args ...string) []*result {
	t.Helper()
	out := filepath.Join(t.TempDir(), "results.json")
	args = append([]string{"-scale", "0.005", "-out", out}, args...)
	if runtime.NumCPU() < 2 {
		t.Skip("elephant_shared2 needs two cores")
	}
	if code := runMain(args, io.Discard); code != 0 {
		t.Fatalf("benchmark %v exited %d", args, code)
	}
	f, err := loadResults(out)
	if err != nil {
		t.Fatal(err)
	}
	return f.Runs
}

// Two run sets of one seed agree bit for bit on every exact count, every
// workload emits exactly the metrics BENCHMARK.json names, and no verdict
// differs from the classifier's.
func TestRunSetDeterministicAndComplete(t *testing.T) {
	a, b := runSet(t, "-seed", "7"), runSet(t, "-seed", "7")
	if len(a) != 2*len(workloads) || len(b) != len(a) {
		t.Fatalf("run sets have %d and %d runs, want %d", len(a), len(b), 2*len(workloads))
	}
	for i, ra := range a {
		rb := b[i]
		w := workloads[i/2]
		if ra.Workload != w.name || rb.Workload != w.name || ra.Traced != (i%2 == 1) {
			t.Fatalf("run %d is %s traced=%v, want %s traced=%v", i, ra.Workload, ra.Traced, w.name, i%2 == 1)
		}
		if !ra.correct() || ra.Attempted == 0 {
			t.Errorf("%s: failed=%d attempted=%d invalid=%q", w.name, ra.Failed, ra.Attempted, ra.Invalid)
		}
		if strings.Contains(ra.Unresolved, "diverged") {
			t.Errorf("%s: %s", w.name, ra.Unresolved)
		}
		var want, got []string
		for _, d := range ra.defs() {
			want = append(want, d.name)
		}
		for name, m := range ra.Metrics {
			got = append(got, name)
			if math.IsNaN(m.Value) || math.IsInf(m.Value, 0) {
				t.Errorf("%s %s = %v", w.name, name, m.Value)
			}
			if exact[name] && m.Value != rb.Metrics[name].Value {
				t.Errorf("%s %s: %v then %v on the same seed; exact counts must repeat", w.name, name, m.Value, rb.Metrics[name].Value)
			}
		}
		sort.Strings(want)
		sort.Strings(got)
		if !reflect.DeepEqual(got, want) {
			t.Errorf("%s traced=%v emits %v, want %v", w.name, ra.Traced, got, want)
		}
	}
}

// setup_s adds up, lap by lap, the shortest time any set-up of the run took;
// that needs every set-up of a seed to cut its work into the same laps.
func TestQuietSetup(t *testing.T) {
	if got := quietSetup([][]int64{{5e8, 2e8, 9e8}, {4e8, 3e8, 1e9}, {6e8, 3e8, 9e8}}); got != 1.5 {
		t.Errorf("quietSetup = %v s, want 1.5 (0.4 + 0.2 + 0.9)", got)
	}
	for _, name := range []string{"attack8192_flat", "upcall_storm"} {
		w := findWorkload(name)
		a, err := w.setup(3, 0.01)
		if err != nil {
			t.Fatal(err)
		}
		b, err := w.setup(3, 0.01)
		if err != nil {
			t.Fatal(err)
		}
		if len(a.laps) < 3 || len(a.laps) != len(b.laps) {
			t.Errorf("%s: two set-ups of one seed timed %d and %d laps", w.name, len(a.laps), len(b.laps))
		}
	}
}

func TestSeedDrivesInputs(t *testing.T) {
	frames := func(seed uint64) [][]byte {
		bursts, err := mixTraffic(seed, 0.01, 0)
		if err != nil {
			t.Fatal(err)
		}
		return bursts[0].frames
	}
	if !reflect.DeepEqual(frames(1), frames(1)) {
		t.Error("mix_smc: the same seed gave different bursts")
	}
	if reflect.DeepEqual(frames(1), frames(2)) {
		t.Error("mix_smc: seeds 1 and 2 gave the same first burst")
	}
}

// The stage replay probes the tiers of sw.Tiers() in walk order, and leaves
// the twin in the state ProcessFrames leaves the measured switch in — from a
// cold cache too, where every layer down to the upcall is exercised.
func TestReplayFollowsTheWalk(t *testing.T) {
	w := findWorkload("mix_smc")
	build := func() *instance {
		in, err := w.setup(3, 0.01)
		if err != nil {
			t.Fatal(err)
		}
		for _, tier := range in.lanes[0].sw.Tiers() {
			tier.Flush()
		}
		return in
	}
	in, twin := build(), build()
	tr := newTracer(0, 1<<16)
	rp, err := newReplayer(tr, twin.lanes[0].sw)
	if err != nil {
		t.Fatal(err)
	}
	ln := &in.lanes[0]
	for i := 0; i < 3*len(ln.bursts); i++ {
		b := ln.nextBurst()
		first := int32(len(tr.spans))
		ln.outs[0] = ln.sw.ProcessFrames(in.now, &ln.fb, ln.outs[0])
		if err := rp.replay(-1, int32(i), b, in.now); err != nil {
			t.Fatal(err)
		}
		if i > 0 {
			continue
		}
		// Cold first burst: every tier misses, so every tier is probed.
		var got, want []string
		for _, s := range tr.spans[first:] {
			if name := tr.names[s.name]; s.parent == -1 && strings.HasSuffix(name, ".lookup") {
				got = append(got, name)
			}
		}
		for _, tier := range ln.sw.Tiers() {
			want = append(want, lookupSpan(tier.Name()))
		}
		if !reflect.DeepEqual(got, want) {
			t.Errorf("replay probed %v, the walk order is %v", got, want)
		}
	}
	if in.lanes[0].sw.Counters().Upcalls == 0 {
		t.Error("cold start caused no upcall; the test exercises nothing")
	}
	if msg := (&traceRun{in: in, twin: twin}).diverged(); msg != "" {
		t.Error(msg)
	}
}

func TestCompareJudgesDirection(t *testing.T) {
	if got := worsening(100, 110, "lower"); math.Abs(got-0.1) > 1e-12 {
		t.Errorf("lower-is-better 100 -> 110 worsens by %v, want 0.1", got)
	}
	if got := worsening(10, 9, "higher"); math.Abs(got-0.1) > 1e-12 {
		t.Errorf("higher-is-better 10 -> 9 worsens by %v, want 0.1", got)
	}
	if got := worsening(100, 90, "lower"); got >= 0 {
		t.Errorf("an improvement worsens by %v", got)
	}
}

// The driver's line is one JSON object with exactly four keys.
func TestDriverLine(t *testing.T) {
	var out bytes.Buffer
	if code := runMain([]string{"-scale", "0.01", "-workload", "victim_emc", "-trace", "0"}, &out); code != 0 {
		t.Fatalf("exit %d", code)
	}
	lines := strings.Split(strings.TrimSpace(out.String()), "\n")
	var obj map[string]json.RawMessage
	if err := json.Unmarshal([]byte(lines[len(lines)-1]), &obj); err != nil {
		t.Fatal(err)
	}
	var keys []string
	for k := range obj {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	if want := []string{"attempted", "correct", "failed", "metrics"}; !reflect.DeepEqual(keys, want) {
		t.Errorf("driver line has keys %v, want %v", keys, want)
	}
	var metrics map[string]metric
	if err := json.Unmarshal(obj["metrics"], &metrics); err != nil || len(metrics) != len(endToEnd) {
		t.Errorf("driver line metrics = %v (%v), want the %d end-to-end metrics", metrics, err, len(endToEnd))
	}
}
