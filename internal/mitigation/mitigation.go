// Package mitigation evaluates the countermeasures the paper's demo
// discussion raises ("improved heuristics in OVS, flow cache-less
// softswitches") plus the obvious quota-based defences, by subjecting each
// variant to the same policy-injection attack and measuring the victim's
// per-packet cost before and after. The variants are the rows of
// scenarios/mitigation-matrix.yaml: each is a pack variant whose datapath
// and revalidator sections scenario.Pack.MitigationVariant lowers.
//
// The punchline the benches reproduce:
//
//   - sorted TSS (hit-count subtable ranking, which OVS adopted after
//     this paper) rescues *warm* traffic — the victim-facing subtables
//     out-rank the attacker's low-rate trickle — but the cold-miss path
//     still scans every attacker mask before the upcall;
//   - a reject-mode mask quota caps the damage but can displace the
//     victim's own megaflow, turning its packets into upcalls;
//   - quota + LRU eviction + ranking recovers the victim almost fully;
//   - the cache-less baseline is immune by construction, at the price of
//     losing the near-free cache hits on friendly traffic.
package mitigation

import (
	"fmt"
	"net/netip"
	"sort"
	"time"

	"policyinject/internal/attack"
	"policyinject/internal/cache"
	"policyinject/internal/dataplane"
	"policyinject/internal/flow"
	"policyinject/internal/flowtable"
	"policyinject/internal/pkt"
	"policyinject/internal/revalidator"
	"policyinject/internal/sim"
	"policyinject/internal/traffic"
)

// Target is a dataplane under evaluation; both dataplane.Switch and
// baseline.Switch satisfy it. Every packet the evaluation sends — the
// victim's, the covert stream's, the timed samples of sim.MeasureCost —
// enters as a wire burst through ProcessFrames.
type Target interface {
	InstallRule(r flowtable.Rule) *flowtable.Rule
	ProcessFrames(now uint64, fb *dataplane.FrameBatch, out []dataplane.Decision) []dataplane.Decision
}

// Variant is a dataplane configuration to evaluate.
type Variant struct {
	Build func() Target
	// Reval, when non-nil, attaches a revalidator to the built target and
	// makes Evaluate run maintenance rounds (covert stream cycling, dump,
	// flow-limit adaptation) between attack residence and the post-attack
	// measurement — the control-plane dimension of the comparison.
	Reval *revalidator.Config
}

// Outcome is the measured effect of the attack on one variant.
type Outcome struct {
	Masks      int           // megaflow masks after the attack (0 for cache-less)
	CostBefore time.Duration // victim per-packet cost pre-attack
	CostAfter  time.Duration // victim per-packet cost with the attack resident
	Slowdown   float64       // CostAfter / CostBefore
	FlowLimit  int           // revalidator flow limit after maintenance (0: no revalidator)
	// AvgScan is the average subtables per megaflow lookup over the
	// post-attack measurement window, the one CostAfter is timed over (how
	// many lookups the whole run makes depends on the host's speed):
	// scan depth for flat-scan variants, subtables physically probed
	// (stage hashes + full probes) for staged-pruning ones — the column
	// that shows what pruning buys without evicting anything.
	AvgScan float64
}

// evalRuns is how many times Evaluate runs the attack against each variant,
// on a freshly built target each time, to report the run whose slowdown is
// the median. A slowdown is the ratio of two timings taken milliseconds
// apart, so the host's speed cancels — unless it changes between the two, and
// a shared box changes speed abruptly (x1.8 for seconds at a time, measured):
// the run that straddles the change reads half or twice the true ratio. Such
// runs are the few, and the median drops them (with three runs a ratio bar
// still failed 2 of 10 twenty-fold repeats beside other tests, with five 0
// of 17).
const evalRuns = 5

// Evaluate runs the attack against the variant evalRuns times and reports
// the median-slowdown run. What the attack leaves behind (masks, flow
// limit) does not depend on timing; runs that disagree on it are an error.
// The scenario mirrors the CMS layout: the victim's pod lives on port 1
// with its own whitelist, the attacker's on port 66 with the injected ACL.
func Evaluate(atk *attack.Attack, v Variant, samples int) (Outcome, error) {
	if samples <= 0 {
		samples = 128
	}
	frames, err := atk.Frames()
	if err != nil {
		return Outcome{}, err
	}
	theACL, err := atk.BuildACL()
	if err != nil {
		return Outcome{}, err
	}
	aclRules, err := theACL.Compile()
	if err != nil {
		return Outcome{}, err
	}
	for i := range aclRules {
		aclRules[i].Match.Key.Set(flow.FieldInPort, attackerPort)
		aclRules[i].Match.Mask.SetExact(flow.FieldInPort)
	}

	runs := make([]Outcome, evalRuns)
	for r := range runs {
		runs[r] = evaluateOnce(v, frames, aclRules, samples)
		if runs[r].Masks != runs[0].Masks || runs[r].FlowLimit != runs[0].FlowLimit {
			return Outcome{}, fmt.Errorf("run %d left %d masks and flow limit %d, run 0 %d and %d",
				r, runs[r].Masks, runs[r].FlowLimit, runs[0].Masks, runs[0].FlowLimit)
		}
	}
	sort.Slice(runs, func(a, b int) bool { return runs[a].Slowdown < runs[b].Slowdown })
	return runs[evalRuns/2], nil
}

// evaluateOnce subjects one fresh target of v to the attack — the compiled
// ACL, already scoped to the attacker's port, and its covert frames, sent
// on that port — and measures the victim's cost before and after.
func evaluateOnce(v Variant, frames [][]byte, aclRules []flowtable.Rule, samples int) Outcome {
	tgt := v.Build()

	// Victim: a simple service whitelist on port 1, eth_type pinned as
	// the CMS compiler does.
	var m flow.Match
	m.Key.Set(flow.FieldInPort, 1)
	m.Mask.SetExact(flow.FieldInPort)
	m.Key.Set(flow.FieldEthType, flow.EthTypeIPv4)
	m.Mask.SetExact(flow.FieldEthType)
	m.Key.Set(flow.FieldIPSrc, 0x0a0a0005) // 10.10.0.5/24 client
	m.Mask.SetPrefix(flow.FieldIPSrc, 24)
	tgt.InstallRule(flowtable.Rule{Match: m, Priority: 100, Action: flowtable.Action{Verdict: flowtable.Allow}})
	var dm flow.Match
	dm.Key.Set(flow.FieldInPort, 1)
	dm.Mask.SetExact(flow.FieldInPort)
	tgt.InstallRule(flowtable.Rule{Match: dm, Priority: 0})

	victim := newChurnVictim()

	driveGen(tgt, 1, victim, warmupPkts)
	before := sim.MeasureCost(tgt, victim, 1, samples)

	// Attacker: inject the ACL and run the covert stream twice (the second
	// pass proves residence).
	for _, r := range aclRules {
		tgt.InstallRule(r)
	}
	for pass := 0; pass < 2; pass++ {
		drive(tgt, 2, frames, attackerPort)
	}

	// Maintenance window: variants with a revalidator live through
	// eight dump rounds with the covert stream (and a victim trickle)
	// still cycling, as the real timeline would, before the post-attack
	// measurement opens — long enough for the backoff to hit its floor
	// and the staleness trim to reach steady state.
	now, flowLimit := uint64(3), 0
	if v.Reval != nil {
		if rt, ok := tgt.(revalidator.Target); ok {
			rev := revalidator.New(*v.Reval)
			rev.Attach(rt)
			for round := 0; round < 8; round++ {
				driveGen(tgt, now, victim, 256)
				drive(tgt, now, frames, attackerPort)
				rev.Tick(now)
				now++
			}
			flowLimit = rev.FlowLimit()
		}
	}

	driveGen(tgt, now, victim, warmupPkts)
	var mf *cache.Megaflow // nil: the cache-less baseline
	var lookups, scanned uint64
	if dp, ok := tgt.(*dataplane.Switch); ok {
		mf = dp.Megaflow()
		lookups, scanned = mf.Lookups, mf.MasksScanned
	}
	after := sim.MeasureCost(tgt, victim, now, samples)

	o := Outcome{
		CostBefore: before,
		CostAfter:  after,
		Slowdown:   float64(after) / float64(before),
		FlowLimit:  flowLimit,
	}
	if mf != nil {
		o.Masks = mf.NumMasks()
		if n := mf.Lookups - lookups; n > 0 {
			o.AvgScan = float64(mf.MasksScanned-scanned) / float64(n)
		}
	}
	return o
}

// warmupPkts is enough victim traffic to bring a target to steady state
// (caches populated, hit-count orderings settled) before a measurement
// window opens: two of the staged tier's re-rank periods
// (cache.MegaflowConfig.RankEvery, 4096 lookups by default), so the ranking
// the window is measured under was computed from this traffic alone.
const warmupPkts = 2 * 4096

// attackerPort is the ingress port of the attacker's pod.
const attackerPort = 66

// burstLen is the NIC-sized burst every drive sends.
const burstLen = 32

// drive sends frames through tgt on inPort in bursts of burstLen.
func drive(tgt Target, now uint64, frames [][]byte, inPort uint32) {
	var fb dataplane.FrameBatch
	var out []dataplane.Decision
	for start := 0; start < len(frames); start += burstLen {
		fb.Reset()
		for _, f := range frames[start:min(start+burstLen, len(frames))] {
			fb.Append(f, inPort)
		}
		out = tgt.ProcessFrames(now, &fb, out)
	}
}

// driveGen sends the next n frames of src through tgt in bursts of
// burstLen.
func driveGen(tgt Target, now uint64, src traffic.FrameSource, n int) {
	var fb dataplane.FrameBatch
	var out []dataplane.Decision
	for n > 0 {
		fb.Reset()
		for range min(burstLen, n) {
			fb.Append(src.NextFrame())
		}
		out = tgt.ProcessFrames(now, &fb, out)
		n -= fb.Len()
	}
}

// churnVictim models a realistic service workload at the victim port:
// 90% packets from established connections (the iperf-like flow set) and
// 10% from new remote clients — connection churn and background Internet
// noise. The churn component is what keeps "sorted TSS" from being a full
// fix: new-client packets land in cold subtables or miss outright, paying
// the whole mask scan regardless of ordering.
type churnVictim struct {
	base *traffic.Victim
	lcg  uint64
	i    int
}

func newChurnVictim() *churnVictim {
	return &churnVictim{
		base: traffic.NewVictim(traffic.VictimConfig{
			Src:    netip.MustParseAddr("10.10.0.5"),
			Dst:    netip.MustParseAddr("172.16.0.2"),
			InPort: 1,
		}),
		lcg: 0x9e3779b97f4a7c15,
	}
}

// NextFrame returns the next packet as a victim-sized wire frame on the
// victim's port: nine in ten from the established flow set, the tenth
// from a new remote client.
func (c *churnVictim) NextFrame() ([]byte, uint32) {
	c.i++
	if c.i%10 != 0 {
		return c.base.NextFrame()
	}
	c.lcg = c.lcg*6364136223846793005 + 1442695040888963407
	f, err := pkt.BuildTuple(flow.FiveTuple{
		Src:     flow.V4Addr(c.lcg & 0xffffffff), // arbitrary remote client
		Dst:     flow.V4Addr(0xac100002),
		Proto:   uint8(flow.ProtoTCP),
		SrcPort: uint16(1024 + (c.lcg>>32)%60000),
		DstPort: uint16(c.lcg >> 48),
	}, c.base.FrameLen())
	if err != nil {
		panic(err) // a TCP tuple always renders
	}
	return f, 1
}
