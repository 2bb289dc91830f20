package telemetry

import (
	"encoding/json"
	"io"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"sort"
	"strings"
	"sync"
	"testing"
)

func TestRegistryIdempotentAndKinds(t *testing.T) {
	r := NewRegistry()
	c1 := r.Counter("x_total", L("sw", "a"))
	c2 := r.Counter("x_total", L("sw", "a"))
	if c1 != c2 {
		t.Fatalf("re-registration returned a distinct counter")
	}
	if r.Counter("x_total", L("sw", "b")) == c1 {
		t.Fatalf("distinct labels must yield a distinct instrument")
	}
	defer func() {
		if recover() == nil {
			t.Fatalf("registering a gauge over a counter identity must panic")
		}
	}()
	r.Gauge("x_total", L("sw", "a"))
}

func TestCounterShardsAndStore(t *testing.T) {
	r := NewRegistry()
	c := r.Counter("c_total")
	c.Inc()
	c.Add(9)
	for s := 0; s < 2*numShards; s++ {
		c.AddShard(s, 1)
	}
	if got := c.Value(); got != 10+2*numShards {
		t.Fatalf("Value = %d, want %d", got, 10+2*numShards)
	}
	c.Store(42)
	if got := c.Value(); got != 42 {
		t.Fatalf("after Store: Value = %d, want 42", got)
	}
}

func TestGauge(t *testing.T) {
	r := NewRegistry()
	g := r.Gauge("g")
	g.Set(2.5)
	if g.Value() != 2.5 {
		t.Fatalf("Value = %v", g.Value())
	}
	g.SetInt(7)
	if g.Value() != 7 {
		t.Fatalf("Value = %v", g.Value())
	}
}

// TestBucketRoundTrip pins the log-linear bucket geometry: every value
// lands in a bucket whose bounds contain it, indexes are monotone, and
// the relative error of the upper bound stays within one sub-bucket.
func TestBucketRoundTrip(t *testing.T) {
	vals := []uint64{0, 1, 15, 16, 17, 31, 32, 63, 64, 1000, 4096, 1 << 20, 1<<40 + 12345, 1<<63 + 1}
	prev := -1
	for _, v := range vals {
		i := bucketIndex(v)
		if i <= prev {
			t.Fatalf("bucketIndex not monotone at %d: %d <= %d", v, i, prev)
		}
		prev = i
		if u := bucketUpper(i); u < v {
			t.Fatalf("bucketUpper(%d) = %d < value %d", i, u, v)
		}
		if i > 0 && bucketUpper(i-1) >= v {
			t.Fatalf("value %d should not fit bucket %d (upper %d)", v, i-1, bucketUpper(i-1))
		}
	}
	if i := bucketIndex(^uint64(0)); i != numBuckets-1 {
		t.Fatalf("max value bucket = %d, want %d", i, numBuckets-1)
	}
}

func TestHistogramQuantiles(t *testing.T) {
	r := NewRegistry()
	h := r.Histogram("lat_ns")
	for v := uint64(1); v <= 100; v++ {
		h.Record(v)
	}
	p := h.snapshot()
	if p.Count != 100 || p.Sum != 5050 || p.Max != 100 {
		t.Fatalf("count/sum/max = %d/%d/%d", p.Count, p.Sum, p.Max)
	}
	// Log-linear estimation is conservative: quantiles land at or above
	// the true value, within one sub-bucket (~6%).
	for _, tc := range []struct {
		q    float64
		want uint64
	}{{0.5, 50}, {0.95, 95}, {0.99, 99}, {1.0, 100}} {
		got := p.Quantile(tc.q)
		if got < tc.want || float64(got) > float64(tc.want)*1.07+1 {
			t.Errorf("Quantile(%v) = %d, want within [%d, %.0f]", tc.q, got, tc.want, float64(tc.want)*1.07+1)
		}
	}
	var empty HistogramPoint
	if empty.Quantile(0.5) != 0 || empty.Mean() != 0 {
		t.Errorf("empty histogram must report zeros")
	}
}

func TestSnapshotSortedAndPromOutput(t *testing.T) {
	r := NewRegistry()
	r.Counter("b_total").Add(2)
	r.Counter("a_total", L("sw", "s1")).Add(1)
	r.Gauge("z_gauge").Set(1.5)
	r.Histogram("lat", L("tier", "emc")).Record(7)
	s := r.Snapshot()
	names := make([]string, len(s.Counters))
	for i, c := range s.Counters {
		names[i] = c.Name
	}
	if !sort.StringsAreSorted(names) {
		t.Fatalf("counters not sorted: %v", names)
	}
	var b strings.Builder
	if err := s.WriteProm(&b); err != nil {
		t.Fatal(err)
	}
	out := b.String()
	for _, want := range []string{
		"# TYPE a_total counter\na_total{sw=\"s1\"} 1\n",
		"b_total 2\n",
		"# TYPE z_gauge gauge\nz_gauge 1.5\n",
		`lat{tier="emc",quantile="0.5"} 7`,
		"lat_sum{tier=\"emc\"} 7\nlat_count{tier=\"emc\"} 1\n",
		`lat_max{tier="emc"} 7`,
	} {
		if !strings.Contains(out, want) {
			t.Errorf("prom output missing %q in:\n%s", want, out)
		}
	}
}

func TestWriteJSON(t *testing.T) {
	r := NewRegistry()
	r.Counter("c_total", L("sw", "s1")).Add(4)
	r.Histogram("h").Record(12)
	var b strings.Builder
	if err := r.Snapshot().WriteJSON(&b); err != nil {
		t.Fatal(err)
	}
	var doc struct {
		Counters []struct {
			Name   string            `json:"name"`
			Labels map[string]string `json:"labels"`
			Value  uint64            `json:"value"`
		} `json:"counters"`
		Histograms []struct {
			Name  string `json:"name"`
			Count uint64 `json:"count"`
			P99   uint64 `json:"p99"`
		} `json:"histograms"`
	}
	if err := json.Unmarshal([]byte(b.String()), &doc); err != nil {
		t.Fatalf("invalid JSON: %v\n%s", err, b.String())
	}
	if len(doc.Counters) != 1 || doc.Counters[0].Value != 4 || doc.Counters[0].Labels["sw"] != "s1" {
		t.Errorf("unexpected counters: %+v", doc.Counters)
	}
	if len(doc.Histograms) != 1 || doc.Histograms[0].Count != 1 || doc.Histograms[0].P99 < 12 {
		t.Errorf("unexpected histograms: %+v", doc.Histograms)
	}
}

// TestConcurrentRecordAndScrape drives recorders from several
// goroutines while scraping snapshots — the lock-free contract under
// the race detector.
func TestConcurrentRecordAndScrape(t *testing.T) {
	r := NewRegistry()
	c := r.Counter("c_total")
	h := r.Histogram("h")
	g := r.Gauge("g")
	var wg sync.WaitGroup
	const writers, perWriter = 4, 2000
	for w := 0; w < writers; w++ {
		wg.Add(1)
		go func(shard int) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(int64(shard)))
			for i := 0; i < perWriter; i++ {
				c.AddShard(shard, 1)
				h.RecordShard(shard, uint64(rng.Intn(1000)))
				g.Set(float64(i))
			}
		}(w)
	}
	done := make(chan struct{})
	go func() {
		defer close(done)
		for i := 0; i < 50; i++ {
			s := r.Snapshot()
			var b strings.Builder
			_ = s.WriteProm(&b)
		}
	}()
	wg.Wait()
	<-done
	if got := c.Value(); got != writers*perWriter {
		t.Fatalf("counter = %d, want %d", got, writers*perWriter)
	}
	if p := r.Snapshot().Histograms[0]; p.Count != writers*perWriter {
		t.Fatalf("histogram count = %d, want %d", p.Count, writers*perWriter)
	}
}

func TestHandlerEndpoints(t *testing.T) {
	r := NewRegistry()
	r.Counter("c_total").Add(3)
	srv := httptest.NewServer(r.Handler())
	defer srv.Close()
	for path, want := range map[string]string{
		"/metrics":      "c_total 3",
		"/metrics.json": `"c_total"`,
	} {
		resp, err := http.Get(srv.URL + path)
		if err != nil {
			t.Fatal(err)
		}
		body, _ := io.ReadAll(resp.Body)
		resp.Body.Close()
		if resp.StatusCode != 200 || !strings.Contains(string(body), want) {
			t.Errorf("%s: status %d body %q, want to contain %q", path, resp.StatusCode, body, want)
		}
	}
	resp, err := http.Get(srv.URL + "/debug/pprof/")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != 200 {
		t.Errorf("pprof index status %d", resp.StatusCode)
	}
}

func TestClockMonotone(t *testing.T) {
	a := Clock()
	b := Clock()
	if b < a {
		t.Fatalf("Clock went backwards: %d then %d", a, b)
	}
}

// AddShard adds d on the given writer shard (masked into range), as a
// writer goroutine of its own would.
func (c *Counter) AddShard(shard int, d uint64) {
	c.cells[shard&(numShards-1)].n.Add(d)
}
