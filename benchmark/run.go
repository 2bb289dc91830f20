package main

import (
	"fmt"
	"runtime"
	"sync"
	"time"
)

// epoch anchors the harness clock; time.Since on it reads only the
// monotonic clock.
var epoch = time.Now()

func clock() int64 { return int64(time.Since(epoch)) }

// clockCost measures one clock read in nanoseconds.
func clockCost() float64 {
	const reads = 200000
	t0 := clock()
	for i := 0; i < reads; i++ {
		clock()
	}
	return float64(clock()-t0) / reads
}

// minSampleNs sizes the sample buffer of a time-bound phase: no workload's
// sample is shorter than ~90 us, so a phase cannot take more samples than
// its duration holds at a fifth of that.
const minSampleNs = 20_000

// bounds says when a phase ends: after samples samples, or once seconds have
// passed if seconds is positive, whichever comes first.
type bounds struct {
	samples int
	seconds float64
}

// phaseBounds bounds a phase that gets share of the run: by the workload's
// fixed sample count (scaled) when no duration is given, so that counts
// repeat exactly, and by the duration alone when one is.
func (c *config) phaseBounds(count int, share float64) bounds {
	if c.seconds > 0 {
		seconds := c.seconds * share
		return bounds{samples: int(seconds * 1e9 / minSampleNs), seconds: seconds}
	}
	return bounds{samples: scaled(int(float64(count)*share), c.scale, 4)}
}

// laneResult is what one worker measured in a phase.
type laneResult struct {
	sampleNs []int64 // time of each sample
	mismatch int64   // decisions that differ from the classifier's verdict
	err      error
}

// stepFunc takes one sample on a lane and returns the time it took.
type stepFunc func(ln *lane, li int) (int64, error)

// untraced times one sample from outside: the end-to-end view.
func (in *instance) untraced(ln *lane, _ int) (int64, error) {
	t0 := clock()
	in.sample(ln)
	return clock() - t0, nil
}

// checkSample compares every decision of the sample just taken with the
// oracle. It runs between timed samples, never inside one.
func checkSample(ln *lane, res *laneResult) {
	// The sample's bursts are the group the cursor just walked past.
	bi := ln.next - len(ln.outs)
	for bi < 0 {
		bi += len(ln.bursts)
	}
	for _, out := range ln.outs {
		want := ln.bursts[bi].want
		if bi++; bi == len(ln.bursts) {
			bi = 0
		}
		for i, v := range want {
			if out[i].Verdict.Verdict != v {
				res.mismatch++
			}
		}
	}
}

// phase runs a timed phase on the first workers lanes, each a closed loop on
// its own locked OS thread — sample, check, repeat — and folds what they
// measured.
func (in *instance) phase(workers int, b bounds, step stepFunc) (phaseStats, error) {
	results := make([]laneResult, workers)
	for i := range results {
		results[i].sampleNs = make([]int64, 0, b.samples)
	}
	var deadline int64
	start := make(chan struct{})
	var wg sync.WaitGroup
	for i := 0; i < workers; i++ {
		wg.Add(1)
		go func(li int) {
			defer wg.Done()
			runtime.LockOSThread()
			defer runtime.UnlockOSThread()
			ln, res := &in.lanes[li], &results[li]
			<-start
			for len(res.sampleNs) < b.samples && (deadline == 0 || clock() < deadline) {
				ns, err := step(ln, li)
				if err != nil {
					res.err = err
					return
				}
				res.sampleNs = append(res.sampleNs, ns)
				checkSample(ln, res)
			}
		}(i)
	}
	allocs := mallocs()
	if b.seconds > 0 {
		deadline = clock() + int64(b.seconds*1e9)
	}
	close(start)
	wg.Wait()
	allocs = mallocs() - allocs
	for _, r := range results {
		if r.err != nil {
			return phaseStats{}, r.err
		}
	}
	ps := in.fold(results)
	ps.allocs = allocs
	return ps, nil
}

func mallocs() uint64 {
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return ms.Mallocs
}

// phaseStats folds the lanes of a phase into the end-to-end numbers.
type phaseStats struct {
	perPkt   []float64 // ns per packet of every sample, ascending
	packets  int64
	mismatch int64
	mpps     float64 // sum over lanes of packets / time in samples
	// quietMpps is the rate the lanes sustain in the box's quiet state: the
	// sum over lanes of the reciprocal of the lane's quietPercentile time.
	quietMpps float64
	allocs    uint64 // heap allocations of the whole process during the phase
}

func (in *instance) fold(results []laneResult) phaseStats {
	var ps phaseStats
	for i, r := range results {
		pkts := in.samplePackets(&in.lanes[i])
		packets := int64(len(r.sampleNs) * pkts)
		var busy int64
		first := len(ps.perPkt)
		for _, ns := range r.sampleNs {
			ps.perPkt = append(ps.perPkt, float64(ns)/float64(pkts))
			busy += ns
		}
		if quiet := percentile(sorted(ps.perPkt[first:]), quietPercentile); quiet > 0 {
			ps.quietMpps += 1e3 / quiet
		}
		ps.packets += packets
		ps.mismatch += r.mismatch
		if busy > 0 {
			ps.mpps += float64(packets) / float64(busy) * 1e3
		}
	}
	ps.perPkt = sorted(ps.perPkt)
	return ps
}

// counters is the sum of the switch counters over the lanes' views.
type counters struct {
	packets, upcalls, parseErr uint64
	failed                     uint64 // parse errors + install errors + upcall drops
	emcHits, smcHits           uint64
}

func (in *instance) counters() counters {
	var c counters
	for i := range in.lanes {
		sc := in.lanes[i].sw.Counters()
		c.packets += sc.Packets
		c.upcalls += sc.Upcalls
		c.parseErr += sc.ParseError
		c.failed += sc.ParseError + sc.InstallErr + sc.UpcallDrops
		c.emcHits += sc.EMCHits()
		c.smcHits += sc.SMCHits()
	}
	return c
}

func (c counters) sub(o counters) counters {
	return counters{
		packets: c.packets - o.packets, upcalls: c.upcalls - o.upcalls,
		parseErr: c.parseErr - o.parseErr, failed: c.failed - o.failed,
		emcHits: c.emcHits - o.emcHits, smcHits: c.smcHits - o.smcHits,
	}
}

// validate applies the workload's validity checks to a phase whose counter
// deltas are d: what the counters must read if the workload is in the regime
// it is named for.
func (in *instance) validate(d counters) error {
	w := in.w
	switch {
	case d.packets == 0:
		return fmt.Errorf("%s: no packets measured", w.name)
	case w.warm && d.upcalls != 0:
		return fmt.Errorf("%s: %d upcalls in the timed phase of a warm workload", w.name, d.upcalls)
	case w.name == "victim_emc" && float64(d.emcHits) < 0.99*float64(d.packets):
		return fmt.Errorf("%s: EMC hit share %.4f, want >= 0.99", w.name, float64(d.emcHits)/float64(d.packets))
	}
	if w.tick {
		// Every round starts from an empty cache, so each packet of the
		// covert stream upcalls, and the stream leaves 496 masks behind.
		if d.upcalls != d.packets {
			return fmt.Errorf("%s: %d upcalls for %d packets, want one each", w.name, d.upcalls, d.packets)
		}
		if in.roundMasks != stormMasks {
			return fmt.Errorf("%s: a round left %d megaflow masks, want %d", w.name, in.roundMasks, stormMasks)
		}
	}
	return nil
}

// A run sets the workload up before its timed phase and again after it: each
// time at least minSetups times, and again until setupBudget seconds have
// gone into it or maxSetups are done, so that a set-up of milliseconds is
// timed often and at two moments a run apart. The instance measured is the
// last one built before the phase.
const (
	minSetups   = 3
	maxSetups   = 25
	setupBudget = 0.5
)

// quietPercentile is the percentile of the per-sample times the end-to-end
// latency metric reports. The reference box is two vCPUs of a shared host.
// For spells of 10-30 s, at times every minute, whatever shares its core
// slows the datapath 1.3x or 1.6x (a throughput-bound probe loop slows with
// it, a dependent multiply chain does not: the core is shared, not clocked
// down); bursts of cache traffic slow the 8192-mask sweep up to 3x for
// milliseconds; and the first 0.7 s of a process run 1.5x slow. A run's
// median lands on whichever state filled more of it; over ten runs p10 spread
// 11 % in a noisy hour and p02 under 3 %, while in calm hours every percentile
// up to p10 spreads 1-3 %. p02 needs a fiftieth of the run to be quiet, which
// is why runs are long: a run that a spell covers whole has nothing quiet to
// report. p02 of the >= 700 samples of a run still has fourteen below it.
const quietPercentile = 2

// setups builds the workload at least minSetups times and until the budget
// is spent, appending each set-up's laps and heap to the run's lists, and
// returns the last instance.
func (w *workload) setups(c *config, laps *[][]int64, heapMB *[]float64) (*instance, error) {
	var in *instance
	budget := int64(setupBudget * min(c.scale, 1) * 1e9)
	for n, total := 0, int64(0); n < minSetups || (total < budget && n < maxSetups); n++ {
		var err error
		if in, err = w.setup(c.seed, c.scale); err != nil {
			return nil, err
		}
		for _, ns := range in.laps {
			total += ns
		}
		*laps = append(*laps, in.laps)
		*heapMB = append(*heapMB, float64(in.heap)/(1<<20))
	}
	return in, nil
}

// quietSetup is the set-up time setup_s reports, in seconds: every set-up of
// a run does the same work lap by lap, so the sum over the laps of the
// shortest time any set-up took for that lap is the time of a set-up that
// the box's slow state never touched. It is to set-up what quietPercentile
// is to the timed phase, and for the same reason: a set-up is a mean over
// its whole duration, and the whole time of the fastest of a run's set-ups
// spread 18-28 % over ten runs in which p02 of the timed phase spread 2 %.
func quietSetup(laps [][]int64) float64 {
	var sum int64
	for i := range laps[0] {
		best := laps[0][i]
		for _, l := range laps[1:] {
			best = min(best, l[i])
		}
		sum += best
	}
	return float64(sum) / 1e9
}

// runE2E is the untraced run: it reports the end-to-end metrics.
func runE2E(w *workload, c *config) (*result, error) {
	res := newResult(w, c, false)
	var laps [][]int64
	var heapMB []float64
	in, err := w.setups(c, &laps, &heapMB)
	if err != nil {
		return nil, err
	}
	before := in.counters()
	ps, err := in.phase(w.workers, c.phaseBounds(w.samples, 1), in.untraced)
	if err != nil {
		return nil, err
	}
	d := in.counters().sub(before)
	if _, err := w.setups(c, &laps, &heapMB); err != nil {
		return nil, err
	}

	res.Attempted = ps.packets
	res.Failed = ps.mismatch + int64(d.failed)
	if err := in.validate(d); err != nil {
		res.Invalid = err.Error()
	}
	res.set("pkt_ns_p02", percentile(ps.perPkt, quietPercentile))
	res.set("setup_s", quietSetup(laps))
	res.set("heap_mb", median(heapMB))
	return res, nil
}
