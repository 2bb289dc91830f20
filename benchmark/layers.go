package main

import (
	"fmt"
	"math"

	"policyinject/internal/dataplane"
	"policyinject/internal/telemetry"
)

// Shares of a time-bound traced run (-seconds) each of its phases gets. The
// telemetry and single-worker legs exist on one workload each and take what
// the other two leave.
const (
	tracedShare = 0.4
	refShare    = 0.3
	extraShare  = 0.3
)

// traceRun is the state of a traced phase: the measured instance, its twin
// the stage replay runs against, and one tracer and replayer per lane.
type traceRun struct {
	in, twin *instance
	tracers  []*tracer
	replay   []*replayer
	burstID  []int32
}

// step is the traced stepFunc: a root span around every ProcessFrames call
// on the measured switch, each followed by the stage replay of the same
// burst on the twin. It returns the time inside root spans, which is what an
// untraced sample would have covered.
func (tr *traceRun) step(ln *lane, li int) (int64, error) {
	in, t, rp := tr.in, tr.tracers[li], tr.replay[li]
	var ns int64
	for g := range ln.outs {
		b := ln.nextBurst()
		id := tr.burstID[li]
		tr.burstID[li]++
		root := t.begin(rp.nRoot, -1, id)
		ln.outs[g] = ln.sw.ProcessFrames(in.now, &ln.fb, ln.outs[g])
		t.end(root)
		ns += t.spans[root].end - t.spans[root].start
		if err := rp.replay(root, id, b, in.now); err != nil {
			return 0, err
		}
	}
	if in.w.tick {
		now := in.endStream(ln)
		sp := t.begin(rp.nTick, -1, tr.burstID[li])
		in.rev.Tick(now)
		t.end(sp)
		ns += t.spans[sp].end - t.spans[sp].start
		in.now++
		tr.twin.rev.Tick(now)
	}
	return ns, nil
}

// diverged reports the first tier whose counters differ between the
// measured switch and the twin: the replay did not do the root's work.
func (tr *traceRun) diverged() string {
	a, b := tr.in.lanes[0].sw.Tiers(), tr.twin.lanes[0].sw.Tiers()
	for i := range a {
		if sa, sb := a[i].Stats(), b[i].Stats(); sa != sb {
			return fmt.Sprintf("stage replay diverged on tier %s: measured %+v, twin %+v", a[i].Name(), sa, sb)
		}
	}
	return ""
}

func tierInserts(sw *dataplane.Switch, name string) uint64 {
	for _, t := range sw.Tiers() {
		if t.Name() == name {
			return t.Stats().Inserts
		}
	}
	return 0
}

func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

// runTraced is the traced run: it reports the per-layer metrics. The traced
// phase comes first, while measured switch and twin are in the same state;
// an untraced reference phase on the measured switch follows and gives the
// tail latency, the allocation count and the tracing overhead.
func runTraced(w *workload, c *config) (*result, []*tracer, error) {
	res := newResult(w, c, true)
	in, err := w.setup(c.seed, c.scale)
	if err != nil {
		return nil, nil, err
	}
	twin, err := w.setup(c.seed, c.scale)
	if err != nil {
		return nil, nil, err
	}
	// A traced phase is bound by count and, under -seconds, by time too: the
	// count keeps the exact metrics repeatable, the time keeps the run short.
	b := bounds{samples: scaled(w.traced, c.scale, 4), seconds: c.seconds * tracedShare}
	spansPerSample := w.group * 12
	if !w.warm {
		spansPerSample = w.group * (8 + 5*len(in.lanes[0].bursts[0].frames))
	}
	tr := &traceRun{in: in, twin: twin, burstID: make([]int32, w.workers)}
	for i := range in.lanes {
		t := newTracer(i, b.samples*spansPerSample)
		rp, err := newReplayer(t, twin.lanes[i].sw)
		if err != nil {
			return nil, nil, err
		}
		tr.tracers, tr.replay = append(tr.tracers, t), append(tr.replay, rp)
	}
	primary := in.lanes[0].sw

	c0, mf0 := in.counters(), megaflowCounts(primary)
	emcIns0 := tierInserts(primary, "emc")
	var flows0, evicted0 uint64
	if w.tick {
		st := in.rev.Stats()
		flows0, evicted0 = st.TotalFlows, st.TotalIdleEvicted
	}
	traced, err := in.phase(w.workers, b, tr.step)
	if err != nil {
		return nil, nil, err
	}
	d, mf := in.counters().sub(c0), megaflowCounts(primary)
	res.Attempted = traced.packets
	res.Failed = traced.mismatch + int64(d.failed)
	if err := in.validate(d); err != nil {
		res.Invalid = err.Error()
	}
	res.Unresolved = tr.diverged()

	// Span times, summed over the lanes.
	lt := map[string]layerTime{}
	for _, t := range tr.tracers {
		for name, v := range t.selfTimes() {
			acc := lt[name]
			acc.self, acc.total, acc.count = acc.self+v.self, acc.total+v.total, acc.count+v.count
			lt[name] = acc
		}
	}
	pk := float64(d.packets)
	selfPkt := func(span string) float64 { return float64(lt[span].self) / pk }
	perOp := func(span string) float64 { return ratio(float64(lt[span].total), float64(lt[span].count)) }
	root := float64(lt[spanRoot].total + lt[spanTick].total)

	res.set("pkt.extract_ns_pkt", selfPkt(spanExtract))
	res.set("pkt.parse_err_share", float64(d.parseErr)/pk)
	res.set("flow.hash_ns_pkt", selfPkt(spanHash))
	res.set("cache.emc.lookup_ns_pkt", selfPkt(lookupSpan("emc")))
	res.set("cache.emc.hit_share", float64(d.emcHits)/pk)
	res.set("cache.emc.insert_share", float64(tierInserts(primary, "emc")-emcIns0)/pk)
	res.set("cache.smc.lookup_ns_pkt", selfPkt(lookupSpan("smc")))
	res.set("cache.smc.hit_share", float64(d.smcHits)/pk)
	mfLookup := float64(lt[lookupSpan("megaflow")].self)
	res.set("cache.megaflow.lookup_ns_pkt", mfLookup/pk)
	masks, entries := mf.masks, mf.entries
	if w.tick {
		masks, entries = in.roundMasks, in.roundEntries
	}
	res.set("cache.megaflow.masks", float64(masks))
	res.set("cache.megaflow.entries", float64(entries))
	res.set("cache.megaflow.scan_pkt", float64(mf.scanned-mf0.scanned)/pk)
	visits := float64(mf.scanned-mf0.scanned) - float64(mf.billed-mf0.billed)
	if w.staged {
		visits = float64(mf.visits - mf0.visits)
	}
	res.set("cache.megaflow.visits_pkt", visits/pk)
	res.set("cache.megaflow.ns_per_visit", ratio(mfLookup, visits))
	prunes := float64(mf.prunes - mf0.prunes)
	res.set("cache.megaflow.prune_share", ratio(prunes, prunes+float64(mf.visits-mf0.visits)))
	res.set("cache.megaflow.insert_ns_op", perOp(spanInsert))
	res.set("cache.sharded.masks_per_shard_max", float64(mf.masksPerShardPeak))
	res.set("cache.promote_ns_pkt", selfPkt(spanPromote))
	res.set("cache.coalesce_ns_pkt", selfPkt(spanCoalesce))
	res.set("classifier.lookup_ns_op", perOp(spanClassify))
	res.set("classifier.subtables", float64(primary.Classifier().NumSubtables()))
	res.set("dataplane.self_ns_pkt", selfPkt(spanRoot))
	res.set("dataplane.upcall_share", float64(d.upcalls)/pk)
	res.set("dataplane.upcall_ns_op", perOp(spanUpcall))
	residual := ratio(float64(lt[spanRoot].self), root)
	res.set("dataplane.budget_residual_share", residual)
	if math.Abs(residual) > 0.25 && res.Unresolved == "" {
		res.Unresolved = fmt.Sprintf("budget unresolved: %.0f%% of the traced root is dataplane self time (walk glue, accounting, decisions) the outside-in replay cannot split further", residual*100)
	}
	var tickFlow, evictedRound float64
	if w.tick {
		st := in.rev.Stats()
		tickFlow = ratio(float64(lt[spanTick].total), float64(st.TotalFlows-flows0))
		evictedRound = ratio(float64(st.TotalIdleEvicted-evicted0), float64(len(traced.perPkt)))
	}
	res.set("revalidator.tick_ns_flow", tickFlow)
	res.set("revalidator.evicted_round", evictedRound)
	res.set("bench.samples", float64(len(traced.perPkt)))
	res.set("bench.clock_ns", clockCost())

	// Regime checks: the layer the workload is named for carries the load.
	mfShare := ratio(mfLookup, root)
	switch {
	case res.Invalid != "" || c.scale < 1:
	case w.name == "attack8192_flat" && mfShare < 0.9:
		res.Invalid = fmt.Sprintf("%s: megaflow lookup is %.2f of the traced root, want >= 0.9", w.name, mfShare)
	case w.name == "victim_emc" && mfShare > 0.1:
		res.Invalid = fmt.Sprintf("%s: megaflow lookup is %.2f of the traced root, want <= 0.1", w.name, mfShare)
	case (float64(d.smcHits) >= 0.3*pk) != (w.name == "mix_smc"):
		res.Invalid = fmt.Sprintf("%s: SMC hit share %.2f; >= 0.3 is expected on mix_smc and only there", w.name, float64(d.smcHits)/pk)
	}

	// Untraced reference phase on the measured switch.
	ref, err := in.phase(w.workers, c.phaseBounds(w.samples, refShare), in.untraced)
	if err != nil {
		return nil, nil, err
	}
	res.Failed += ref.mismatch
	res.Attempted += ref.packets
	tail, _ := tailPercentile(ref.perPkt)
	res.set("dataplane.pkt_ns_p50", percentile(ref.perPkt, 50))
	res.set("dataplane.pkt_ns_p99", tail)
	res.set("dataplane.mpps", ref.mpps)
	res.set("dataplane.allocs_burst", float64(ref.allocs)/float64(len(ref.perPkt)*w.group))
	res.set("bench.trace_overhead_share", percentile(traced.perPkt, quietPercentile)/percentile(ref.perPkt, quietPercentile)-1)

	// Legs one workload each has.
	var efficiency, telOverhead float64
	if w.workers > 1 {
		one, err := in.phase(1, c.phaseBounds(w.samples, extraShare), in.untraced)
		if err != nil {
			return nil, nil, err
		}
		efficiency = ref.quietMpps / (float64(w.workers) * one.quietMpps)
		res.Failed += one.mismatch
		res.Attempted += one.packets
	}
	if w.name == "victim_emc" {
		if telOverhead, err = telemetryOverhead(w, c, in, res); err != nil {
			return nil, nil, err
		}
	}
	res.set("dataplane.core_efficiency", efficiency)
	res.set("telemetry.overhead_ns_pkt", telOverhead)
	return res, tr.tracers, nil
}

// telemetryOverhead is the per-packet price of live instrumentation: the
// quiet-state time per packet of an identical switch built WithTelemetry
// minus the bare one. The two switches take turns in short slices so that
// drift of the box lands on both.
func telemetryOverhead(w *workload, c *config, bare *instance, res *result) (float64, error) {
	inst, err := w.setup(c.seed, c.scale, dataplane.WithTelemetry(telemetry.NewRegistry()))
	if err != nil {
		return 0, err
	}
	const slices = 6
	b := c.phaseBounds(w.samples, extraShare/(2*slices))
	var perPkt [2][]float64
	for s := 0; s < slices; s++ {
		for arm, in := range []*instance{bare, inst} {
			ps, err := in.phase(w.workers, b, in.untraced)
			if err != nil {
				return 0, err
			}
			perPkt[arm] = append(perPkt[arm], ps.perPkt...)
			res.Failed += ps.mismatch
			res.Attempted += ps.packets
		}
	}
	return percentile(sorted(perPkt[1]), quietPercentile) - percentile(sorted(perPkt[0]), quietPercentile), nil
}
