// Package telemetry is the live observability substrate of the
// datapath: a process-wide instrument registry (counters, gauges, and
// log-linear latency histograms) whose recording paths are
// allocation-free and lock-free, so the //lint:hotpath frame path can
// be instrumented without losing its zero-alloc contract.
//
// Recording and scraping are decoupled. Instruments are resolved once
// at registration time — never looked up on the record path — and
// record through atomic operations on preallocated, cache-line-padded
// cells. Snapshot assembles a point-in-time copy by reading those
// atomics, so a scrape never takes a lock the recorders can contend
// on. Exposition
// (Prometheus text and JSON, see expose.go) renders snapshots, and
// Handler (http.go) serves them alongside net/http/pprof.
//
// The wall clock enters the deterministic simulation tree only through
// this package: //lint:deterministic layers record logical units
// (flows per round, visits per burst), while the dataplane — which is
// allowed wall time — stamps latency histograms with Clock(),
// monotonic nanoseconds since process start.
package telemetry

import (
	"math"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"time"
)

// numShards is the writer-shard count of counters and histogram
// count/sum accumulators. Single-writer recorders use shard 0; genuine
// multi-writer paths spread via RecordShard. Power of two so the shard
// mask is a single AND.
const numShards = 8

// cell is one padded accumulator: the padding keeps adjacent shards on
// distinct cache lines so cross-core writers do not false-share.
type cell struct {
	n atomic.Uint64
	_ [56]byte
}

// Label is one key=value pair qualifying an instrument (e.g. the
// switch or tier name). Instruments with the same name but different
// labels are distinct time series.
type Label struct {
	Key, Value string
}

// L is shorthand for constructing a Label.
func L(k, v string) Label { return Label{Key: k, Value: v} }

// Counter is a monotonically increasing uint64, sharded across padded
// cells. Add/Inc are allocation-free atomic operations safe for
// concurrent use; Value sums the shards.
type Counter struct {
	name   string
	labels []Label
	cells  [numShards]cell
}

// Inc adds 1 on shard 0.
func (c *Counter) Inc() { c.cells[0].n.Add(1) }

// Add adds d on shard 0.
func (c *Counter) Add(d uint64) { c.cells[0].n.Add(d) }

// Store overwrites the counter with an absolute cumulative value.
// It is for single-publisher wiring where a layer already maintains
// its own monotonic totals (guard admission stats, quota rejects) and
// republishes them on a tick; such publishers must never mix Store
// with Add, and must be the counter's only writer.
func (c *Counter) Store(v uint64) {
	c.cells[0].n.Store(v)
	for i := 1; i < numShards; i++ {
		c.cells[i].n.Store(0)
	}
}

// Value returns the current total across shards.
func (c *Counter) Value() uint64 {
	var t uint64
	for i := range c.cells {
		t += c.cells[i].n.Load()
	}
	return t
}

// Gauge is an instantaneous float64 value (entries resident, flow
// limit, breaker state). Set/Value are single atomic operations.
type Gauge struct {
	name   string
	labels []Label
	bits   atomic.Uint64
}

// Set stores v.
func (g *Gauge) Set(v float64) { g.bits.Store(math.Float64bits(v)) }

// SetInt stores an integer value.
func (g *Gauge) SetInt(v int) { g.Set(float64(v)) }

// Value loads the current value.
func (g *Gauge) Value() float64 { return math.Float64frombits(g.bits.Load()) }

// Registry is the process-wide instrument set. Registration (Counter,
// Gauge, Histogram) takes the registry lock and is idempotent per
// (name, labels); recording through the returned handles never does.
type Registry struct {
	mu         sync.RWMutex
	counters   []*Counter
	gauges     []*Gauge
	histograms []*Histogram
	index      map[string]any
}

// NewRegistry returns an empty registry.
func NewRegistry() *Registry {
	return &Registry{index: make(map[string]any)}
}

// identity is the map key of an instrument: name plus canonicalized
// labels.
func identity(name string, labels []Label) string {
	if len(labels) == 0 {
		return name
	}
	var b strings.Builder
	b.WriteString(name)
	for _, l := range labels {
		b.WriteByte('|')
		b.WriteString(l.Key)
		b.WriteByte('=')
		b.WriteString(l.Value)
	}
	return b.String()
}

// Counter registers (or returns the existing) counter under
// name+labels. Panics if the identity is already bound to a different
// instrument kind — that is a programming error, not a runtime
// condition.
func (r *Registry) Counter(name string, labels ...Label) *Counter {
	r.mu.Lock()
	defer r.mu.Unlock()
	id := identity(name, labels)
	if got, ok := r.index[id]; ok {
		c, ok := got.(*Counter)
		if !ok {
			panic("telemetry: " + id + " already registered as a different kind")
		}
		return c
	}
	c := &Counter{name: name, labels: append([]Label(nil), labels...)}
	r.counters = append(r.counters, c)
	r.index[id] = c
	return c
}

// Gauge registers (or returns the existing) gauge under name+labels.
func (r *Registry) Gauge(name string, labels ...Label) *Gauge {
	r.mu.Lock()
	defer r.mu.Unlock()
	id := identity(name, labels)
	if got, ok := r.index[id]; ok {
		g, ok := got.(*Gauge)
		if !ok {
			panic("telemetry: " + id + " already registered as a different kind")
		}
		return g
	}
	g := &Gauge{name: name, labels: append([]Label(nil), labels...)}
	r.gauges = append(r.gauges, g)
	r.index[id] = g
	return g
}

// Histogram registers (or returns the existing) histogram under
// name+labels.
func (r *Registry) Histogram(name string, labels ...Label) *Histogram {
	r.mu.Lock()
	defer r.mu.Unlock()
	id := identity(name, labels)
	if got, ok := r.index[id]; ok {
		h, ok := got.(*Histogram)
		if !ok {
			panic("telemetry: " + id + " already registered as a different kind")
		}
		return h
	}
	h := &Histogram{name: name, labels: append([]Label(nil), labels...)}
	r.histograms = append(r.histograms, h)
	r.index[id] = h
	return h
}

// Snapshot copies every instrument's current value into an immutable
// point-in-time view, sorted by name then labels for stable
// exposition. It reads only atomics (plus the registry's RLock to
// enumerate instruments), so concurrent recorders are never blocked.
func (r *Registry) Snapshot() *Snapshot {
	r.mu.RLock()
	defer r.mu.RUnlock()
	s := &Snapshot{TakenAt: time.Now()}
	s.Counters = make([]CounterPoint, len(r.counters))
	for i, c := range r.counters {
		s.Counters[i] = CounterPoint{Name: c.name, Labels: c.labels, Value: c.Value()}
	}
	s.Gauges = make([]GaugePoint, len(r.gauges))
	for i, g := range r.gauges {
		s.Gauges[i] = GaugePoint{Name: g.name, Labels: g.labels, Value: g.Value()}
	}
	s.Histograms = make([]HistogramPoint, len(r.histograms))
	for i, h := range r.histograms {
		s.Histograms[i] = h.snapshot()
	}
	sort.Slice(s.Counters, func(i, j int) bool {
		return pointLess(s.Counters[i].Name, s.Counters[i].Labels, s.Counters[j].Name, s.Counters[j].Labels)
	})
	sort.Slice(s.Gauges, func(i, j int) bool {
		return pointLess(s.Gauges[i].Name, s.Gauges[i].Labels, s.Gauges[j].Name, s.Gauges[j].Labels)
	})
	sort.Slice(s.Histograms, func(i, j int) bool {
		return pointLess(s.Histograms[i].Name, s.Histograms[i].Labels, s.Histograms[j].Name, s.Histograms[j].Labels)
	})
	return s
}

func pointLess(an string, al []Label, bn string, bl []Label) bool {
	if an != bn {
		return an < bn
	}
	return identity(an, al) < identity(bn, bl)
}

// Snapshot is a point-in-time copy of a registry.
type Snapshot struct {
	TakenAt    time.Time
	Counters   []CounterPoint
	Gauges     []GaugePoint
	Histograms []HistogramPoint
}

// CounterPoint is one counter sample.
type CounterPoint struct {
	Name   string
	Labels []Label
	Value  uint64
}

// GaugePoint is one gauge sample.
type GaugePoint struct {
	Name   string
	Labels []Label
	Value  float64
}

// GaugeValue returns the first gauge named name (any label set), and
// whether one was present.
func (s *Snapshot) GaugeValue(name string) (float64, bool) {
	for i := range s.Gauges {
		if s.Gauges[i].Name == name {
			return s.Gauges[i].Value, true
		}
	}
	return 0, false
}

// epoch anchors Clock; monotonic since process start.
var epoch = time.Now()

// Clock returns monotonic nanoseconds since process start. It is the
// only wall-clock primitive the instrumented layers use: calling it is
// allocation-free (hot-path safe), and routing wall time through here
// keeps `time` itself out of the //lint:deterministic packages.
func Clock() uint64 { return uint64(time.Since(epoch)) }
