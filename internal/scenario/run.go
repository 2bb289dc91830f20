package scenario

import (
	"bytes"
	"fmt"
	"net/netip"
	"os"
	"path/filepath"

	"policyinject/internal/acl"
	"policyinject/internal/attack"
	"policyinject/internal/cache"
	"policyinject/internal/chaos"
	"policyinject/internal/cms"
	"policyinject/internal/conntrack"
	"policyinject/internal/dataplane"
	"policyinject/internal/guard"
	"policyinject/internal/metrics"
	"policyinject/internal/pkt"
	"policyinject/internal/revalidator"
	"policyinject/internal/sim"
	"policyinject/internal/telemetry"
	"policyinject/internal/traffic"
)

// Result is the outcome of running one pack: one VariantRun per declared
// variant plus the evaluated expectations. Reporters render this type.
type Result struct {
	Pack string
	File string
	Seed uint64

	Runs   []*VariantRun
	Checks []Check
}

// Passed reports whether every expectation held.
func (r *Result) Passed() bool {
	for _, c := range r.Checks {
		if !c.Pass {
			return false
		}
	}
	return true
}

// VariantRun is one executed variant: the recorded timeline and the
// summary metrics expectations assert against.
type VariantRun struct {
	Variant  string
	Timeline *metrics.Group

	// Summary maps metric name -> value: peak_masks, final_masks,
	// final_entries, upcalls, denied, allowed, install_err, avg_scan (0
	// without a megaflow lookup) and flow_limit_final (0 without a
	// revalidator); with a revalidator flow_limit_initial/overruns/
	// limit_evicted; wall measurement adds mean_before/mean_after/
	// degradation and ns_before/ns_after/slowdown; conntrack adds
	// ct_peak/ct_final.
	Summary map[string]float64
}

// Check is one evaluated expectation.
type Check struct {
	Expectation
	Got     float64
	Pass    bool
	Missing bool // the metric was not produced by the run
}

func (c Check) String() string {
	verdict := "ok"
	if !c.Pass {
		verdict = "FAIL"
	}
	target := c.Metric
	if c.Variant != "" {
		target = c.Variant + ": " + c.Metric
	}
	if c.Missing {
		return fmt.Sprintf("%-4s %s %s %g (metric missing)", verdict, target, c.Op, c.Value)
	}
	return fmt.Sprintf("%-4s %s %s %g (got %g)", verdict, target, c.Op, c.Value, c.Got)
}

// RunOptions override pack knobs at run time (the cmd-line flags of
// cmd/scenario). Zero values defer to the pack.
type RunOptions struct {
	Seed        uint64 // 0: pack seed
	Duration    int    // 0: pack duration
	Measure     string // "": pack measure mode; else "wall" or "off"
	CostSamples int    // 0: pack cost_samples; else positive

	// Telemetry is the live instrument registry timeline runs record
	// into (dataplane, revalidator, guards). Nil uses a private
	// registry: the run is still instrumented — timeline cache gauges
	// are sourced from registry snapshots either way — but nothing
	// outlives the run.
	Telemetry *telemetry.Registry
}

// Run executes every variant of the pack through the cluster, tick by
// tick, and evaluates its expectations.
func Run(p *Pack, opt RunOptions) (*Result, error) {
	seed := p.Seed
	if opt.Seed != 0 {
		seed = opt.Seed
	}
	res := &Result{Pack: p.Name, File: p.File, Seed: seed}
	for _, v := range p.Variants {
		run, err := runTimeline(v, opt)
		if err != nil {
			return nil, fmt.Errorf("pack %s, variant %s: %w", p.Name, v.Variant, err)
		}
		run.Variant = v.Variant
		res.Runs = append(res.Runs, run)
	}
	res.Checks = checkExpectations(p, res)
	return res, nil
}

// checkExpectations evaluates the base document's expect list: Variant
// targets a pack variant by name (Load has checked it names one); empty
// targets the first run.
func checkExpectations(p *Pack, res *Result) []Check {
	var checks []Check
	for _, e := range p.Expect {
		c := Check{Expectation: e}
		run := res.Runs[0]
		for _, r := range res.Runs {
			if r.Variant == e.Variant {
				run = r
				break
			}
		}
		got, ok := run.Summary[e.Metric]
		if !ok {
			c.Missing = true
			checks = append(checks, c)
			continue
		}
		c.Got = got
		c.Pass = e.check(got)
		checks = append(checks, c)
	}
	return checks
}

// datapathOptions lowers a DatapathSpec onto dataplane.New options. A
// cache_less datapath is the empty tier hierarchy: the switch classifies
// every packet in its own classifier and caches nothing.
func datapathOptions(d DatapathSpec) []dataplane.Option {
	if d.CacheLess {
		return []dataplane.Option{dataplane.WithTiers()}
	}
	var opts []dataplane.Option
	if !d.EMC {
		opts = append(opts, dataplane.WithoutEMC())
	} else if d.EMCEntries != 0 {
		opts = append(opts, dataplane.WithEMC(cache.EMCConfig{Entries: d.EMCEntries}))
	}
	mf := cache.MegaflowConfig{
		SortByHits: d.SortByHits, MaxMasks: d.MaxMasks, MaskEvictLRU: d.MaskEvictLRU,
	}
	if mf != (cache.MegaflowConfig{}) {
		opts = append(opts, dataplane.WithMegaflow(mf))
	}
	if d.SMC {
		opts = append(opts, dataplane.WithSMC(cache.SMCConfig{}))
	}
	if d.StagedPruning {
		opts = append(opts, dataplane.WithStagedPruning())
	}
	if d.Conntrack {
		opts = append(opts, dataplane.WithConntrack(conntrack.Config{
			MaxConns: d.MaxConns, IdleTimeout: d.MaxIdle,
		}))
	}
	return opts
}

// buildRevalidator builds the timeline's revalidator from a RevalSpec: a
// nil spec means the stock default, a disabled one no revalidator (nil).
// The overload controller (the kill-switch, when guards declare one)
// hooks into every configuration, including the default.
func buildRevalidator(r *RevalSpec, overload revalidator.OverloadController) *revalidator.Revalidator {
	switch {
	case r == nil:
		return revalidator.New(revalidator.Config{Overload: overload})
	case r.Disabled:
		return nil
	}
	return revalidator.New(revalidator.Config{
		Interval:     r.Interval,
		Workers:      r.Workers,
		DumpRate:     r.DumpRate,
		FlowLimit:    r.FlowLimit,
		MinFlowLimit: r.MinFlowLimit,
		GrowStep:     r.GrowStep,
		FixedLimit:   r.FixedLimit,
		MaxIdle:      r.MaxIdle,
		MaxHard:      r.MaxHard,
		PolicyCheck:  r.PolicyCheck,
		Overload:     overload,
	})
}

// defaultVictimPolicy is the whitelist a pack without victim.policy gets:
// allow the client's /24 to the iperf port, deny the rest — the ordinary
// microsegmentation the paper's intro motivates.
func defaultVictimPolicy(client netip.Addr) *PolicySpec {
	return &PolicySpec{Entries: []EntrySpec{{
		Src:     netip.PrefixFrom(client, 24).Masked(),
		Proto:   6,
		DstPort: acl.Port(5201),
	}}}
}

// applyPolicySpec installs a pack policy through the CMS.
func applyPolicySpec(cluster *cms.Cluster, tenant, pod, name string, ps *PolicySpec) error {
	pol := &cms.Policy{Name: name, Stateful: ps.Stateful, ExplicitVerdicts: true}
	for _, e := range ps.Entries {
		pol.Ingress = append(pol.Ingress, e.Entry())
		if !e.SrcPort.Any() {
			pol.AllowSrcPortFilters = true
		}
	}
	return cluster.ApplyPolicy(tenant, pod, pol)
}

// stream is one live background stream during a timeline run.
type stream struct {
	spec StreamSpec
	src  traffic.FrameSource
	pace traffic.Pacer
}

func (s *stream) active(t, duration int) bool {
	stop := s.spec.Stop
	if stop == 0 {
		stop = duration
	}
	return t >= s.spec.Start && t < stop
}

// buildStream instantiates a StreamSpec against its target pod. Pcap
// paths resolve relative to the pack file's directory.
func buildStream(spec StreamSpec, target *cms.Pod, seed uint64, packFile string) (*stream, error) {
	s := &stream{spec: spec, pace: traffic.Pacer{PPS: spec.PPS}}
	switch spec.Kind {
	case "mix":
		s.src = traffic.NewMix(traffic.MixConfig{
			Seed:     seed,
			NFlows:   spec.Flows,
			Subnet:   spec.Subnet,
			DstIP:    target.IP,
			InPort:   target.Port,
			Skew:     spec.Skew,
			FrameLen: spec.FrameLen,
		})
	case "pcap":
		path := spec.File
		if !filepath.IsAbs(path) && packFile != "" {
			path = filepath.Join(filepath.Dir(packFile), path)
		}
		data, err := os.ReadFile(path)
		if err != nil {
			return nil, fmt.Errorf("stream %s: %w", spec.Name, err)
		}
		frames, err := pkt.ReadPcap(bytes.NewReader(data))
		if err != nil {
			return nil, fmt.Errorf("stream %s: %s: %w", spec.Name, path, err)
		}
		if len(frames) == 0 {
			return nil, fmt.Errorf("stream %s: %s holds no frames", spec.Name, path)
		}
		s.src = &pcapReplay{frames: frames, inPort: target.Port}
	default:
		return nil, fmt.Errorf("stream %s: unknown kind %q", spec.Name, spec.Kind)
	}
	return s, nil
}

// pcapReplay cycles a capture's frames through the target port.
type pcapReplay struct {
	frames [][]byte
	inPort uint32
	next   int
}

func (p *pcapReplay) NextFrame() ([]byte, uint32) {
	f := p.frames[p.next]
	p.next = (p.next + 1) % len(p.frames)
	return f, p.inPort
}

// runTimeline executes one effective timeline pack: the fig-3 cluster
// shape (one hypervisor node, victim pod + optional attacker pod +
// declared tenant pods), the declared traffic, and the attack schedule.
// Each tick runs churn -> inject -> covert burst -> background streams ->
// victim drive -> revalidator round -> gauge recording, so a tick's gauges
// show the cache as the round left it.
func runTimeline(p *Pack, opt RunOptions) (*VariantRun, error) {
	duration := p.Duration
	if opt.Duration > 0 {
		duration = opt.Duration
	}
	seed := p.Seed
	if opt.Seed != 0 {
		seed = opt.Seed
	}
	mode := p.Measure.Mode
	switch opt.Measure {
	case "":
	case "wall", "off":
		mode = opt.Measure
	default:
		return nil, fmt.Errorf("measure mode %q: must be \"wall\" or \"off\"", opt.Measure)
	}
	samples := p.Measure.CostSamples
	switch {
	case opt.CostSamples < 0:
		return nil, fmt.Errorf("cost samples %d: must be positive, or 0 for the pack's", opt.CostSamples)
	case opt.CostSamples > 0:
		samples = opt.CostSamples
	}
	attackStart, attackStop := 0, 0
	if p.Attack != nil {
		attackStart, attackStop = p.Attack.Start, p.Attack.Stop
	}

	if statefulPolicies(p) && !p.Datapath.Conntrack {
		return nil, fmt.Errorf("stateful policy requires datapath.conntrack: true")
	}

	// Overload guards and fault injectors, built before the cluster so
	// their hooks ride into every switch the nodes assemble.
	var grd *guard.Guard
	if p.Guards != nil {
		grd = p.Guards.Build()
	}
	var inj *chaos.Injector
	if len(p.Faults) > 0 {
		var err error
		inj, err = chaos.New(chaos.Config{Seed: seed, Faults: p.Faults})
		if err != nil {
			return nil, err
		}
	}

	// Live instruments: the caller's registry, or a private one so the
	// timeline's cache gauges always flow through the same snapshot
	// path regardless of whether anyone is scraping.
	reg := opt.Telemetry
	if reg == nil {
		reg = telemetry.NewRegistry()
	}

	cluster := cms.NewCluster()
	cluster.SwitchOpts = datapathOptions(p.Datapath)
	cluster.SwitchOpts = append(cluster.SwitchOpts, dataplane.WithTelemetry(reg))
	if grd != nil && grd.Admission != nil {
		cluster.SwitchOpts = append(cluster.SwitchOpts, dataplane.WithUpcallGuard(grd.Admission))
	}
	if grd != nil && grd.Masks != nil {
		cluster.SwitchOpts = append(cluster.SwitchOpts, dataplane.WithMaskGuard(grd.Masks))
	}
	if inj != nil {
		cluster.SwitchOpts = append(cluster.SwitchOpts, dataplane.WithTierWrapper(inj.WrapTier))
	}
	var overload revalidator.OverloadController
	if grd != nil && grd.Kill != nil {
		overload = grd.Kill
	}
	rev := buildRevalidator(p.Reval, overload)
	if rev != nil {
		rev.SetTelemetry(reg)
		cluster.AttachRevalidator(rev)
	}
	if grd != nil {
		grd.SetTelemetry(reg)
	}
	if grd != nil && grd.Masks != nil {
		cluster.AttachPortLedger(grd.Masks)
	}
	if _, err := cluster.AddNode("server-1"); err != nil {
		return nil, err
	}
	victimSrv, err := cluster.DeployPod(p.Victim.Tenant, p.Victim.Pod, "server-1")
	if err != nil {
		return nil, err
	}
	var attackerPod *cms.Pod
	if p.Attack != nil {
		attackerPod, err = cluster.DeployPod("mallory", "probe", "server-1")
		if err != nil {
			return nil, err
		}
	}
	sw := victimSrv.Node.Switch

	victimPolicy := p.Victim.Policy
	if victimPolicy == nil {
		victimPolicy = defaultVictimPolicy(p.Victim.Client)
	}
	if err := applyPolicySpec(cluster, p.Victim.Tenant, p.Victim.Pod, "iperf-ingress", victimPolicy); err != nil {
		return nil, err
	}

	// Tenant pods after the victim and attacker: the cluster allocates IPs
	// and ports in deployment order, and the run goldens pin the victim's.
	for _, t := range p.Tenants {
		if _, err := cluster.DeployPod(t.Name, t.Pod, "server-1"); err != nil {
			return nil, err
		}
		if t.Policy != nil {
			if err := applyPolicySpec(cluster, t.Name, t.Pod, t.Name+"-ingress", t.Policy); err != nil {
				return nil, err
			}
		}
	}

	podFor := func(name string) (*cms.Pod, error) {
		if name == "victim" {
			return victimSrv, nil
		}
		if pod := cluster.Pod(name); pod != nil {
			return pod, nil
		}
		return nil, fmt.Errorf("stream target pod %q not deployed", name)
	}

	var streams []*stream
	addStream := func(spec StreamSpec) error {
		target, err := podFor(spec.To)
		if err != nil {
			return err
		}
		s, err := buildStream(spec, target, seed+uint64(len(streams)+1), p.File)
		if err != nil {
			return err
		}
		streams = append(streams, s)
		return nil
	}
	for _, spec := range p.Streams {
		if err := addStream(spec); err != nil {
			return nil, err
		}
	}
	for _, t := range p.Tenants {
		if t.Stream != nil {
			if err := addStream(*t.Stream); err != nil {
				return nil, err
			}
		}
	}

	frameLen := p.Victim.FrameLen
	if frameLen == 0 {
		frameLen = 1514
	}
	victim := traffic.WithNewClients(traffic.NewVictim(traffic.VictimConfig{
		Src:      p.Victim.Client,
		Dst:      victimSrv.IP,
		Flows:    p.Victim.Flows,
		InPort:   victimSrv.Port,
		FrameLen: frameLen,
	}), p.Victim.NewClientEvery)
	offeredPPS := sim.PPSFor(p.Victim.Gbps, frameLen)

	// Covert stream: the attack's wire frames replayed at the attacker
	// pod's port, paced to cycle the full sequence every Cycle ticks.
	var (
		atk    *attack.Attack
		replay *traffic.FrameReplayer
		pacer  traffic.Pacer
	)
	if p.Attack != nil {
		atk, err = p.Attack.Build()
		if err != nil {
			return nil, err
		}
		atk.DstIP = attackerPod.IP
		covertKeys, err := atk.Keys()
		if err != nil {
			return nil, err
		}
		covertFrames, err := atk.Frames()
		if err != nil {
			return nil, err
		}
		replay = traffic.NewReplayer(covertKeys).WithFrames(covertFrames, attackerPod.Port)
		pps := p.Attack.PPS
		if pps == 0 {
			pps = float64(len(covertKeys)) / p.Attack.Cycle
		}
		pacer = traffic.Pacer{PPS: pps}
	}

	// Churn: the rotated policy re-applied every Period ticks.
	var churnBase *PolicySpec
	churnTenant, churnPod := "", ""
	if p.Churn != nil {
		churnTenant, churnPod = p.Churn.Tenant, p.Churn.Pod
		if churnTenant == "" {
			churnTenant = p.Victim.Tenant
		}
		if churnPod == "" {
			churnPod = p.Victim.Pod
		}
		if churnPod == p.Victim.Pod {
			churnBase = victimPolicy
		} else {
			for _, t := range p.Tenants {
				if t.Pod == churnPod && t.Policy != nil {
					churnBase = t.Policy
				}
			}
		}
		if churnBase == nil {
			churnBase = &PolicySpec{}
		}
	}

	run := &VariantRun{Timeline: &metrics.Group{}, Summary: map[string]float64{}}
	tl := run.Timeline
	initialLimit := 0
	if rev != nil {
		initialLimit = rev.FlowLimit()
	}
	ct := sw.Conntrack()
	ctPeak := 0
	// The victim's megaflow lookups in the fig-3 after-window [after, end),
	// and the subtables they scanned: avg_scan.
	before0, before1, after := fig3Windows(p.Attack != nil, attackStart, duration)
	var lookups, scanned uint64

	injected := false
	var covertBurst, streamBurst dataplane.FrameBatch
	var out []dataplane.Decision
	for t := 0; t < duration; t++ {
		now := uint64(t)

		// 1. Control plane: policy churn, then the attacker's injection.
		if c := p.Churn; c != nil && t >= c.Start && (c.Stop == 0 || t < c.Stop) && (t-c.Start)%c.Period == 0 {
			r := ((t - c.Start) / c.Period) % c.Rotate
			rotated := &PolicySpec{Stateful: churnBase.Stateful}
			rotated.Entries = append(rotated.Entries, churnBase.Entries...)
			rotated.Entries = append(rotated.Entries, EntrySpec{
				Src:     netip.PrefixFrom(netip.AddrFrom4([4]byte{10, 200, byte(r), 0}), 24),
				Proto:   6,
				DstPort: acl.Port(5201),
				Comment: fmt.Sprintf("churn rotation %d", r),
			})
			if err := applyPolicySpec(cluster, churnTenant, churnPod, "churned-ingress", rotated); err != nil {
				return nil, err
			}
		}
		if atk != nil && !injected && t >= attackStart {
			theACL, err := atk.BuildACL()
			if err != nil {
				return nil, err
			}
			if err := cluster.ApplyPolicy("mallory", "probe", &cms.Policy{
				Name:                "innocuous-whitelist",
				Ingress:             theACL.Entries,
				AllowSrcPortFilters: true,
			}); err != nil {
				return nil, err
			}
			injected = true
		}

		// Active faults fire before the tick's traffic, so a filled
		// conntrack table is what the tick's commits bounce off.
		if inj != nil {
			inj.FillConntrack(now, ct)
		}

		// 2. Covert stream for this tick, as one wire burst. An attack
		// window with a stop halts the replay there (the malicious ACL
		// stays installed — only the covert pressure ends).
		if injected && (attackStop == 0 || t < attackStop) {
			covertBurst.Reset()
			for i := pacer.Take(1); i > 0; i-- {
				covertBurst.Append(replay.NextFrame())
			}
			out = sw.ProcessFrames(now, &covertBurst, out)
		}

		// 3. Background streams.
		for _, s := range streams {
			if !s.active(t, duration) {
				continue
			}
			streamBurst.Reset()
			for i := s.pace.Take(1); i > 0; i-- {
				streamBurst.Append(s.src.NextFrame())
			}
			out = sw.ProcessFrames(now, &streamBurst, out)
		}

		// 4. Victim drive: the same fixed volume in both modes (costRounds
		// bursts of cost_samples frames, sim.MeasureCost), so every count
		// a run records is the same on every host, however fast; off mode
		// only discards the timing.
		lookups0, scanned0, probed0 := megaflowWork(sw)
		pkts0 := sw.Counters().Packets
		cost := sim.MeasureCost(sw, victim, now, samples)
		lookups1, scanned1, probed1 := megaflowWork(sw)
		visits := float64(probed1-probed0) / float64(sw.Counters().Packets-pkts0)
		if float64(t) >= after {
			lookups += lookups1 - lookups0
			scanned += scanned1 - scanned0
		}

		// 5. Maintenance round (unless a stall fault suppresses it), then
		// record the tick's gauges.
		if rev != nil && (inj == nil || !inj.StallRevalidator(now)) {
			rev.Tick(now)
		}
		// Publish the tick's cache/guard gauges into the registry, then
		// record the timeline from a snapshot: the live scrape endpoint
		// and the pack goldens read the same numbers by construction.
		sw.PublishTelemetry()
		if grd != nil {
			grd.PublishTelemetry()
		}
		snap := reg.Snapshot()
		ts := float64(t)
		if rev != nil {
			rev.Observe(tl, ts)
		}
		if grd != nil {
			grd.Observe(tl, ts)
		}
		if inj != nil {
			inj.Observe(tl, ts)
		}
		mfEntries, _ := snap.GaugeValue("dp_mf_entries")
		mfMasks, _ := snap.GaugeValue("dp_mf_masks")
		tl.Observe(ts, "mf_entries", mfEntries)
		tl.Observe(ts, "mf_masks", mfMasks)
		tl.Observe(ts, "victim_visits", visits)
		if mode == "wall" {
			tl.Observe(ts, "victim_gbps", sim.Gbps(sim.Throughput(cost, offeredPPS), frameLen))
			tl.Observe(ts, "victim_ns", float64(cost.Nanoseconds()))
		}
		if ct != nil {
			ctEntries, _ := snap.GaugeValue("dp_ct_entries")
			if n := int(ctEntries); n > ctPeak {
				ctPeak = n
			}
			tl.Observe(ts, "ct_entries", ctEntries)
		}
	}

	// Summary metrics.
	masks := tl.Series("mf_masks")
	entries := tl.Series("mf_entries")
	run.Summary["peak_masks"] = metrics.Summarize(masks.V).Max
	run.Summary["final_masks"] = masks.V[masks.Len()-1]
	run.Summary["final_entries"] = entries.V[entries.Len()-1]
	c := sw.Counters()
	run.Summary["upcalls"] = float64(c.Upcalls)
	run.Summary["allowed"] = float64(c.Allowed)
	run.Summary["denied"] = float64(c.Denied)
	run.Summary["install_err"] = float64(c.InstallErr)
	if mode == "wall" {
		// Throughput means, and the victim's cheapest tick (MeasureCost's
		// own minimum estimator one level up), in each window.
		end := float64(duration)
		gbps, ns := tl.Series("victim_gbps"), tl.Series("victim_ns")
		meanBefore := metrics.Summarize(gbps.Window(before0, before1)).Mean
		meanAfter := metrics.Summarize(gbps.Window(after, end)).Mean
		run.Summary["mean_before"] = meanBefore
		run.Summary["mean_after"] = meanAfter
		if meanBefore > 0 {
			run.Summary["degradation"] = 1 - meanAfter/meanBefore
		}
		nsBefore := metrics.Summarize(ns.Window(before0, before1)).Min
		nsAfter := metrics.Summarize(ns.Window(after, end)).Min
		run.Summary["ns_before"] = nsBefore
		run.Summary["ns_after"] = nsAfter
		if nsBefore > 0 {
			run.Summary["slowdown"] = nsAfter / nsBefore
		}
	}
	run.Summary["avg_scan"] = float64(scanned) / float64(max(lookups, 1))
	run.Summary["flow_limit_final"] = 0
	if rev != nil {
		st := rev.Stats()
		run.Summary["flow_limit_initial"] = float64(initialLimit)
		run.Summary["flow_limit_final"] = float64(st.FlowLimit)
		run.Summary["overruns"] = float64(st.Overruns)
		run.Summary["limit_evicted"] = float64(st.TotalLimitEvicted)
	}
	if ct != nil {
		run.Summary["ct_peak"] = float64(ctPeak)
		run.Summary["ct_final"] = float64(ct.Len())
	}
	if attackStop > 0 {
		// The mask population the moment the covert pressure ended — the
		// baseline recovery is measured against.
		run.Summary["masks_attack_end"] = masks.At(float64(attackStop - 1))
	}
	if grd != nil {
		for k, v := range grd.Summary() {
			run.Summary[k] = v
		}
	}
	if inj != nil {
		for k, v := range inj.Summary() {
			run.Summary[k] = v
		}
	}
	return run, nil
}

// megaflowWork reads off a timeline switch's megaflow cache its lookups,
// the subtables they scanned (avg_scan's ratio), and those it probed
// physically, flat or staged: what MasksScanned holds beyond RunBilledScans
// (victim_visits, per packet). A cache_less switch has no megaflow cache
// and reads 0 for each.
func megaflowWork(sw *dataplane.Switch) (lookups, scanned, probed uint64) {
	mf := sw.Megaflow()
	if mf == nil {
		return 0, 0, 0
	}
	return mf.Lookups, mf.MasksScanned, mf.MasksScanned - mf.RunBilledScans
}

// fig3Windows returns fig 3's pre/post-attack windows as tick ranges:
// [start/2, start) and [start+10, end), the last tick if the run ends
// sooner. Without an attack both windows cover the whole run.
func fig3Windows(attacked bool, start, duration int) (before0, before1, after float64) {
	if !attacked {
		return 0, float64(duration), 0
	}
	settle := start + 10
	if settle > duration {
		settle = duration - 1
	}
	return float64(start) / 2, float64(start), float64(settle)
}

// statefulPolicies reports whether any policy in the pack is stateful.
func statefulPolicies(p *Pack) bool {
	if p.Victim.Policy != nil && p.Victim.Policy.Stateful {
		return true
	}
	for _, t := range p.Tenants {
		if t.Policy != nil && t.Policy.Stateful {
			return true
		}
	}
	return false
}
