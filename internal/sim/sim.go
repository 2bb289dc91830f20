// Package sim is the cost model: it measures the real per-packet processing
// cost of a dataplane.Switch at its current state, over bursts of wire
// frames (MeasureCost), and converts cost into achievable throughput
// (Throughput, Gbps, PPSFor). Every datapath a scenario models is a switch
// — a cache_less one is the empty tier hierarchy — so the one measured
// surface is the switch's burst ingress. It runs no timeline: who sends
// what on which tick is internal/scenario's, which samples this model once
// a tick.
//
// Methodology: absolute Gbps of the paper's testbed cannot be reproduced on
// an arbitrary host, so the simulator measures the *real* cost of the real
// cache/classifier code and reports throughput as min(offered, budget/cost)
// for a single forwarding core. Shape — who wins, where the knee is, the
// relative collapse — is what the experiments assert.
package sim

import (
	"time"

	"policyinject/internal/dataplane"
	"policyinject/internal/traffic"
)

// costRounds is the number of rounds MeasureCost takes its minimum over.
// Three rounds of 100 µs were few enough for one disturbance to reach the
// minimum of one arm of a before/after ratio, and ended before a staged
// cache's next re-rank in 9 of 30 evaluations (read x6-9 against a settled
// x2); eight are still under a millisecond on a cheap switch.
const costRounds = 8

// MeasureCost measures the per-packet processing cost of sw for src's
// traffic at the switch's current state, by timing real ProcessFrames
// calls over bursts of src's wire frames — end-to-end cost, parsing
// included, the regime the paper's Figure 3 studies. It adapts the sample
// count so each timed region is long enough to dominate clock granularity,
// runs costRounds independent rounds, and returns the cheapest round — the
// minimum estimator, which discards descheduling noise that a mean would
// absorb (cheap switches are otherwise dominated by a single preemption
// inside the window). The calls mutate cache state exactly as the
// measured traffic would — that is intentional. Burst generation happens
// outside the timed region, so the cost is the switch's alone.
func MeasureCost(sw *dataplane.Switch, src traffic.FrameSource, now uint64, minSamples int) time.Duration {
	if minSamples < 16 {
		minSamples = 16
	}
	var fb dataplane.FrameBatch
	var out []dataplane.Decision
	best := time.Duration(0)
	for round := 0; round < costRounds; round++ {
		const minElapsed = 100 * time.Microsecond
		samples := 0
		var elapsed time.Duration
		for elapsed < minElapsed || samples < minSamples {
			fb.Reset()
			for i := 0; i < minSamples; i++ {
				fb.Append(src.NextFrame())
			}
			start := time.Now()
			out = sw.ProcessFrames(now, &fb, out)
			elapsed += time.Since(start)
			samples += minSamples
			if samples > 1<<20 {
				break // pathological clock; avoid spinning forever
			}
		}
		cost := elapsed / time.Duration(samples)
		if best == 0 || cost < best {
			best = cost
		}
	}
	return best
}

// Throughput computes achievable packets-per-second for a per-packet cost
// on one forwarding core, capped by the offered load.
func Throughput(cost time.Duration, offeredPPS float64) float64 {
	if cost <= 0 {
		return offeredPPS
	}
	capacity := float64(time.Second) / float64(cost)
	if capacity > offeredPPS {
		return offeredPPS
	}
	return capacity
}

// Gbps converts packets per second at a frame size to link throughput in
// gigabits per second (including the 20-byte Ethernet overhead of
// preamble+IFG, so 1514-byte frames max out just under line rate, as iperf
// reports do).
func Gbps(pps float64, frameLen int) float64 {
	return pps * float64(frameLen+20) * 8 / 1e9
}

// PPSFor returns the packet rate that fills the given bandwidth at a frame
// size — the offered load for a "1 Gbps iperf stream".
func PPSFor(gbps float64, frameLen int) float64 {
	return gbps * 1e9 / (float64(frameLen+20) * 8)
}
