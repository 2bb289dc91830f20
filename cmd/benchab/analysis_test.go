package main

import (
	"math"
	"os"
	"path/filepath"
	"slices"
	"strings"
	"testing"
)

const specJSON = `{
  "workloads": [{"name": "w"}],
  "end_to_end": [
    {"name": "pkt_ns_p02", "unit": "ns/pkt", "better": "lower", "bound": 0.25},
    {"name": "heap_mb", "unit": "MiB", "better": "lower", "bound": 0.15}
  ]
}`

func testSpec(t *testing.T) *spec {
	t.Helper()
	sp, err := parseSpec([]byte(specJSON))
	if err != nil {
		t.Fatal(err)
	}
	return sp
}

// pairs builds the records of len(base) pairs of one metric on workload w,
// alternating which arm ran first, as the driver does.
func pairs(w, metric string, base, head []float64) []record {
	var recs []record
	for i := range base {
		p := i + 1
		b := record{Pair: p, Arm: "base", Rev: "b", Workload: w, Seed: uint64(p), Correct: true, Attempted: 100, Metrics: map[string]float64{metric: base[i]}}
		h := record{Pair: p, Arm: "head", Rev: "h", Workload: w, Seed: uint64(p), Correct: true, Attempted: 100, Metrics: map[string]float64{metric: head[i]}}
		if p%2 == 0 {
			b.Order = 1
			recs = append(recs, h, b)
		} else {
			h.Order = 1
			recs = append(recs, b, h)
		}
	}
	return recs
}

func ramp(from, step float64, n int) []float64 {
	v := make([]float64, n)
	for i := range v {
		v[i] = from + step*float64(i)
	}
	return v
}

func only(t *testing.T, a *analysis) metricResult {
	t.Helper()
	if len(a.Workloads) != 1 || len(a.Workloads[0].Metrics) != 1 {
		t.Fatalf("want one workload with one metric, got %+v", a.Workloads)
	}
	return a.Workloads[0].Metrics[0]
}

// TestTiesCountForNeither: equal readings on every pair are neither wins nor
// losses, pass unclaimed, and cannot meet a claim.
func TestTiesCountForNeither(t *testing.T) {
	v := ramp(3.7685, 0, 10)
	recs := pairs("w", "heap_mb", v, v)
	m := only(t, analyse(testSpec(t), recs, nil))
	if m.Pairs != 10 || m.Wins != 0 || m.Losses != 0 || m.Verdict != verdictPass || m.Delta != 0 {
		t.Fatalf("ties: %+v", m)
	}
	a := analyse(testSpec(t), recs, []claim{{"w", "heap_mb"}})
	if m := only(t, a); m.Verdict != verdictNotMet || a.Accept {
		t.Fatalf("a claim on ties: %+v, accept %v", m, a.Accept)
	}
}

// TestNineOfTenWins meets a claim: nine pairs better, one worse, and the
// medians further apart than the base's quartiles.
func TestNineOfTenWins(t *testing.T) {
	base := ramp(100, 1, 10)
	head := ramp(80, 1, 10)
	head[4] = base[4] + 1
	a := analyse(testSpec(t), pairs("w", "pkt_ns_p02", base, head), []claim{{"w", "pkt_ns_p02"}})
	m := only(t, a)
	if m.Wins != 9 || m.Losses != 1 || m.Verdict != verdictMet || !a.Accept {
		t.Fatalf("9/10: %+v, accept %v %v", m, a.Accept, a.Reasons)
	}
	if m.Base.Q1 != 101.75 || m.Base.Median != 104.5 || m.Base.Q3 != 107.25 {
		t.Fatalf("base quartiles %+v, want 101.75, 104.5, 107.25", m.Base)
	}
	if m.Delta != -20 {
		t.Fatalf("paired delta %g, want -20", m.Delta)
	}
}

// TestEightOfTenLoses: two lost pairs miss the nine-tenths rule, however far
// apart the medians are, and the claim rejects the head.
func TestEightOfTenLoses(t *testing.T) {
	base := ramp(100, 1, 10)
	head := ramp(80, 1, 10)
	head[4], head[7] = base[4]+1, base[7]+1
	a := analyse(testSpec(t), pairs("w", "pkt_ns_p02", base, head), []claim{{"w", "pkt_ns_p02"}})
	m := only(t, a)
	if m.Wins != 8 || m.Verdict != verdictNotMet || a.Accept {
		t.Fatalf("8/10: %+v, accept %v", m, a.Accept)
	}
	if len(a.Reasons) != 1 || !strings.Contains(a.Reasons[0], "won 8 of 10") {
		t.Fatalf("reasons %q", a.Reasons)
	}
	// Unclaimed, the same runs are simply better.
	if m := only(t, analyse(testSpec(t), pairs("w", "pkt_ns_p02", base, head), nil)); m.Verdict != verdictPass {
		t.Fatalf("unclaimed 8/10: %+v", m)
	}
}

// TestZeroIQRExactMetric: a metric that repeats exactly has no spread, so any
// gain on every pair is more than the base's quartile distance.
func TestZeroIQRExactMetric(t *testing.T) {
	a := analyse(testSpec(t), pairs("w", "heap_mb", ramp(3.7685, 0, 10), ramp(3.1434, 0, 10)), []claim{{"w", "heap_mb"}})
	m := only(t, a)
	if m.Base.Q3 != m.Base.Q1 || m.Wins != 10 || m.Verdict != verdictMet || !a.Accept {
		t.Fatalf("exact metric: %+v, accept %v %v", m, a.Accept, a.Reasons)
	}
	if math.Abs(m.Change-(3.1434-3.7685)/3.7685) > 1e-12 {
		t.Fatalf("change %g", m.Change)
	}
}

// TestBoundsAndSpread: a median worse than the bound is a regression; runs
// spread wider than the bound are unresolved unless the head is better on
// every run.
func TestBoundsAndSpread(t *testing.T) {
	sp := testSpec(t)
	if m := only(t, analyse(sp, pairs("w", "heap_mb", ramp(3.0, 0, 10), ramp(3.5, 0, 10)), nil)); m.Verdict != verdictRegression {
		t.Fatalf("+17%% on a 15%% bound: %+v", m)
	}
	if m := only(t, analyse(sp, pairs("w", "heap_mb", ramp(3.0, 0, 10), ramp(3.3, 0, 10)), nil)); m.Verdict != verdictPass {
		t.Fatalf("+10%% on a 15%% bound: %+v", m)
	}
	wide := ramp(50, 10, 10) // quartiles 72.5 and 117.5 around 95
	if m := only(t, analyse(sp, pairs("w", "pkt_ns_p02", wide, wide), nil)); m.Verdict != verdictUnresolved {
		t.Fatalf("47%% spread on a 25%% bound: %+v", m)
	}
	if m := only(t, analyse(sp, pairs("w", "pkt_ns_p02", wide, ramp(10, 1, 10)), nil)); m.Verdict != verdictPass {
		t.Fatalf("every head run better: %+v", m)
	}
}

// TestRunHealth: a run that failed its verdict check, or a higher failed
// share, rejects the head whatever its metrics.
func TestRunHealth(t *testing.T) {
	v := ramp(3, 0, 10)
	recs := pairs("w", "heap_mb", v, v)
	recs[3].Correct = false
	if a := analyse(testSpec(t), recs, nil); a.Accept || a.Workloads[0].BaseIncorrect+a.Workloads[0].HeadIncorrect != 1 {
		t.Fatalf("an incorrect run accepted: %+v", a)
	}
	recs = pairs("w", "heap_mb", v, v)
	for i := range recs {
		if recs[i].Arm == "head" {
			recs[i].Failed = 1
		}
	}
	if a := analyse(testSpec(t), recs, nil); a.Accept || a.Workloads[0].HeadFailShare != 0.01 {
		t.Fatalf("a failing head accepted: %+v", a.Workloads[0])
	}
	if a := analyse(testSpec(t), recs[:0], []claim{{"w", "heap_mb"}}); a.Accept {
		t.Fatal("a claim with no runs accepted")
	}
}

func TestParseRunLine(t *testing.T) {
	good := `{"correct":true,"attempted":190896,"failed":0,"metrics":{"heap_mb":{"value":3.14,"unit":"MiB"},"pkt_ns_p02":{"value":8319.875,"unit":"ns/pkt"}}}`
	r, err := parseRunLine([]byte(good))
	if err != nil || !r.Correct || r.Attempted != 190896 || r.Metrics["heap_mb"] != 3.14 || len(r.Metrics) != 2 {
		t.Fatalf("good line: %+v, %v", r, err)
	}
	for _, bad := range []string{
		``,
		`[]`,
		`{"correct":true,"attempted":1,"failed":0}`,
		`{"attempted":1,"failed":0,"metrics":{}}`,
		`{"correct":true,"attempted":1,"failed":2,"metrics":{}}`,
		`{"correct":true,"attempted":-1,"failed":0,"metrics":{}}`,
		`{"correct":true,"attempted":1,"failed":0,"metrics":{"x":{"unit":"s"}}}`,
		`{"correct":true,"attempted":1,"failed":0,"metrics":{"x":null}}`,
		`{"correct":true,"attempted":1,"failed":0,"metrics":{"x":{"value":"1"}}}`,
		`{"correct":true,"attempted":1,"failed":0,"metrics":{}} {}`,
		`{"correct":true,"attempted":1.5,"failed":0,"metrics":{}}`,
	} {
		if _, err := parseRunLine([]byte(bad)); err == nil {
			t.Errorf("%q: no error", bad)
		}
	}
}

func TestSymbolOffsets(t *testing.T) {
	nm := `  4b0a40 T policyinject/internal/cache.(*Megaflow).scan
  4b0c7f T policyinject/internal/cache.(*Megaflow).sweep
  4b0d00 T policyinject/internal/cache.(*Megaflow).sweepStaged
  52a3d0 T policyinject/internal/dataplane.(*Switch).processFrames
  52a3d0 T policyinject/internal/dataplane.(*Switch).processFramesX
garbage`
	syms := []string{"cache.(*Megaflow).scan", "cache.(*Megaflow).sweep", "dataplane.(*Switch).processFrames", "pkt.ExtractBatch"}
	got := symbolOffsets([]byte(nm), syms)
	want := map[string]int{"cache.(*Megaflow).scan": 0, "cache.(*Megaflow).sweep": 0x3f, "dataplane.(*Switch).processFrames": 0x10}
	if len(got) != len(want) {
		t.Fatalf("got %v, want %v", got, want)
	}
	for k, v := range want {
		if got[k] != v {
			t.Fatalf("got %v, want %v", got, want)
		}
	}
}

// TestHotSymbols holds the alignment report to the tree's hot functions:
// every //lint:hotpath root of a fixture tree — a function, methods on pointer
// and value receivers, a directive beside other comment lines — and nothing
// that only looks like one: a longer directive name, a directive inside a body,
// a root in a test file, under testdata or in a dot-directory; then the inner
// loops. The repository's own tree must yield its megaflow roots and the gather.
func TestHotSymbols(t *testing.T) {
	tree := t.TempDir()
	files := map[string]string{
		"hot/hot.go": `package hot

type T struct{}

//lint:hotpath
func Root() {}

// Method is a root on a pointer receiver.
//
//lint:hotpath
func (t *T) Method() {}

//lint:hotpath
func (t T) Value() {}

//lint:hotpathalloc not a root
func Longer() {}

func Inner() {
	//lint:hotpath
	_ = 0
}
`,
		"hot/hot_test.go":         "package hot\n\n//lint:hotpath\nfunc InTest() {}\n",
		"hot/testdata/fix.go":     "package fix\n\n//lint:hotpath\nfunc Fixture() {}\n",
		".bench_build/ab/base.go": "package base\n\n//lint:hotpath\nfunc Copy() {}\n",
	}
	for name, src := range files {
		path := filepath.Join(tree, name)
		if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, []byte(src), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	got, err := hotSymbols(tree)
	if err != nil {
		t.Fatal(err)
	}
	want := append([]string{"hot.Root", "hot.(*T).Method", "hot.T.Value"}, innerSymbols...)
	if !slices.Equal(got, want) {
		t.Fatalf("hotSymbols = %q, want %q", got, want)
	}

	got, err = hotSymbols(filepath.Join("..", ".."))
	if err != nil {
		t.Fatal(err)
	}
	for _, sym := range []string{"cache.(*Megaflow).LookupBatch", "cache.(*Megaflow).scan", "cache.(*gathered).load", "dataplane.(*Switch).ProcessFrames", "dataplane.(*Switch).walk", "pkt.ExtractHashBatch"} {
		if !slices.Contains(got, sym) {
			t.Errorf("the repository's hot functions %q lack %s", got, sym)
		}
	}
}

// FuzzBenchJSON feeds arbitrary bytes to the two readers of run output: a
// malformed line is an error, never a panic, and an accepted run line keeps
// its invariants.
func FuzzBenchJSON(f *testing.F) {
	f.Add([]byte(`{"correct":true,"attempted":10,"failed":0,"metrics":{"heap_mb":{"value":3.14,"unit":"MiB"}}}`))
	f.Add([]byte(`{"pair":1,"order":0,"arm":"base","rev":"x","workload":"w","seed":1,"correct":true,"attempted":1,"failed":0,"metrics":{"heap_mb":1}}`))
	f.Add([]byte(`{"correct":true,"attempted":1,"failed":2,"metrics":{}}`))
	f.Add([]byte(`{"metrics":{"x":{"value":1e400}}}`))
	f.Add([]byte("{\"arm\":\"head\"}\n{"))
	f.Fuzz(func(t *testing.T, data []byte) {
		if r, err := parseRunLine(data); err == nil {
			if r.Failed < 0 || r.Failed > r.Attempted || r.Metrics == nil {
				t.Fatalf("accepted %q as %+v", data, r)
			}
			for name, v := range r.Metrics {
				if math.IsNaN(v) || math.IsInf(v, 0) {
					t.Fatalf("accepted %q with %s = %v", data, name, v)
				}
			}
		}
		if recs, err := parseCollected(data); err == nil {
			for _, r := range recs {
				if r.Arm != "base" && r.Arm != "head" {
					t.Fatalf("accepted arm %q", r.Arm)
				}
			}
			analyse(testSpec(t), recs, []claim{{"w", "heap_mb"}})
		}
	})
}
