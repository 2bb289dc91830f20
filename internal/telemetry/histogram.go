package telemetry

import (
	"math/bits"
	"sync/atomic"
)

// The histogram is log-linear (HDR-shaped): values below subCount land
// in unit-wide buckets; above that, each power-of-two range splits
// into subCount linear sub-buckets, giving a constant ~6% relative
// error across the full uint64 range with a fixed 976-bucket table.
// Everything is preallocated at registration, so Record is pure index
// arithmetic plus atomic adds — no allocation, no locks, no branches
// that scale with population — and is safe under the hotpathalloc
// analyzer when called from //lint:hotpath roots.
const (
	subBits    = 4
	subCount   = 1 << subBits
	numBuckets = subCount + (64-subBits)*subCount
)

// bucketIndex maps a value to its bucket.
func bucketIndex(v uint64) int {
	if v < subCount {
		return int(v)
	}
	e := bits.Len64(v) - 1 // msb position, subBits..63
	sub := int((v >> (uint(e) - subBits)) & (subCount - 1))
	return subCount + (e-subBits)*subCount + sub
}

// bucketUpper returns the inclusive upper bound of bucket i — the
// value quantile estimation reports, making quantiles conservative
// (never under-reported) within one sub-bucket of truth.
func bucketUpper(i int) uint64 {
	if i < subCount {
		return uint64(i)
	}
	block := (i - subCount) / subCount
	sub := uint64((i - subCount) % subCount)
	e := uint(block) + subBits
	lo := uint64(1)<<e + sub<<(e-subBits)
	return lo + uint64(1)<<(e-subBits) - 1
}

// Histogram records a distribution of uint64 values (latencies in
// nanoseconds, visits per burst, flows per round) with quantile
// estimation at snapshot time. Bucket increments are naturally spread
// across the bucket array; the count/sum accumulators are sharded like
// Counter cells for multi-writer recorders.
type Histogram struct {
	name   string
	labels []Label
	counts [numBuckets]atomic.Uint64
	count  [numShards]cell
	sum    [numShards]cell
	max    atomic.Uint64
}

// Record adds one observation on shard 0.
func (h *Histogram) Record(v uint64) { h.RecordShard(0, v) }

// RecordShard adds one observation, accumulating count/sum on the
// given writer shard.
func (h *Histogram) RecordShard(shard int, v uint64) {
	h.counts[bucketIndex(v)].Add(1)
	i := shard & (numShards - 1)
	h.count[i].n.Add(1)
	h.sum[i].n.Add(v)
	for {
		cur := h.max.Load()
		if v <= cur || h.max.CompareAndSwap(cur, v) {
			return
		}
	}
}

// snapshot copies the histogram into a point.
func (h *Histogram) snapshot() HistogramPoint {
	p := HistogramPoint{Name: h.name, Labels: h.labels, Max: h.max.Load()}
	for i := range h.count {
		p.Count += h.count[i].n.Load()
		p.Sum += h.sum[i].n.Load()
	}
	p.buckets = make([]uint64, numBuckets)
	for i := range h.counts {
		p.buckets[i] = h.counts[i].Load()
	}
	return p
}

// HistogramPoint is one histogram sample: cumulative count, sum, max,
// and the full bucket population for quantile estimation.
type HistogramPoint struct {
	Name   string
	Labels []Label
	Count  uint64
	Sum    uint64
	Max    uint64

	buckets []uint64
}

// Quantile estimates the q-quantile (0 < q <= 1) as the upper bound of
// the bucket holding the ceil(q*Count)-th observation, clamped to Max.
// Returns 0 on an empty histogram.
func (p *HistogramPoint) Quantile(q float64) uint64 {
	if p.Count == 0 {
		return 0
	}
	target := uint64(q * float64(p.Count))
	if float64(target) < q*float64(p.Count) || target == 0 {
		target++
	}
	var cum uint64
	for i, n := range p.buckets {
		cum += n
		if cum >= target {
			u := bucketUpper(i)
			if u > p.Max {
				return p.Max
			}
			return u
		}
	}
	return p.Max
}

// Mean returns the arithmetic mean, or 0 on an empty histogram.
func (p *HistogramPoint) Mean() float64 {
	if p.Count == 0 {
		return 0
	}
	return float64(p.Sum) / float64(p.Count)
}
