package main

import (
	"fmt"
	"math/rand/v2"
	"net/netip"
	"runtime"

	"policyinject/internal/attack"
	"policyinject/internal/cache"
	"policyinject/internal/dataplane"
	"policyinject/internal/flow"
	"policyinject/internal/flowtable"
	"policyinject/internal/pkt"
	"policyinject/internal/revalidator"
	"policyinject/internal/traffic"
)

const (
	victimPort = 1    // the whitelisted tenant's port
	attackPort = 66   // the port the injected ACL is scoped to
	stormIdle  = 10   // revalidator max-idle of the storm workload, logical units
	stormMasks = 496  // megaflow masks one round of the two-field covert stream mints
	mixFlows   = 4096 // flows of the benign mix; its EMC holds an eighth of them
)

// workload is one row of the benchmark: a datapath configuration, the
// traffic offered to it and how a timed sample is cut from that traffic.
// Every workload is a closed loop: the next burst is offered when the
// previous ProcessFrames call returns.
type workload struct {
	name string

	opts    []dataplane.Option
	attack  func() *attack.Attack // ACL installed on the attacker's port
	execute bool                  // the covert stream is replayed at set-up
	workers int                   // lanes; above 1 they share one sharded switch
	traffic func(seed uint64, scale float64, lane int) ([]wireBurst, error)

	group  int  // ProcessFrames calls per timed sample
	tick   bool // a revalidator round past max-idle closes every sample
	warm   bool // set-up leaves every flow cached: no upcall may follow
	staged bool // physical visits are SubtableVisits, not scan positions
	cycles int  // warm-up passes over the lane's bursts at scale 1

	samples int // timed samples of a count-bound untraced phase at scale 1
	traced  int // samples of a count-bound traced phase at scale 1

	// Validity of the set-up state at scale 1 (0: unchecked).
	masks int
}

// wireBurst is one pre-built ingress burst with its oracle: the slow-path
// classifier's verdict for every frame, computed at set-up.
type wireBurst struct {
	frames [][]byte
	ports  []uint32
	want   []flowtable.Verdict
}

// lane is one worker's view of the switch under test and the bursts it
// replays. Single-worker workloads have one lane.
type lane struct {
	sw     *dataplane.Switch
	bursts []wireBurst
	next   int
	fb     dataplane.FrameBatch
	outs   [][]dataplane.Decision // one decision buffer per burst of a sample
}

// instance is a workload set up and warm: ready for its first timed sample.
type instance struct {
	w     *workload
	lanes []lane
	rev   *revalidator.Revalidator // tick workloads only
	now   uint64                   // logical clock handed to the datapath
	heap  uint64                   // bytes of live heap objects the switch state holds after a forced collection
	// laps is set-up cut into consecutive stretches of a few milliseconds,
	// the nanoseconds each took; the two heap readings are left out. Two
	// set-ups of one seed do the same work in each stretch.
	laps []int64

	// What the last storm round's stream left resident, read before the
	// revalidator expired it.
	roundMasks, roundEntries int
}

var workloads = []*workload{
	{
		// 8 warm iperf flows on the default EMC+megaflow hierarchy: the bare
		// fast path (extract, EMC, accounting), where any added per-packet
		// handling shows undiluted
		name:    "victim_emc",
		attack:  attack.TwoField,
		workers: 1,
		traffic: victimTraffic(256, 1),
		// 8 packets would warm the caches. 1024 passes make set-up ~20 ms of
		// datapath work, which repeats; the ~1 ms of building the switch is
		// fresh memory, whose cost the host moved 2.5x within the hour.
		group: 8, warm: true, cycles: 1024,
		samples: 60000, traced: 10000,
	},
	{
		// 4096-flow Zipf mix on EMC+SMC+megaflow: a working set 8x the EMC,
		// so flow hashing and SMC/EMC insertion and eviction carry the load.
		// The caches are sized down with the flow set (stock: 8192 and 1M
		// entries against 65536 flows) so that the whole working set stays
		// in the core's own cache: at stock sizes every packet goes to the
		// shared last-level cache, and the run measures the neighbours.
		name: "mix_smc",
		opts: []dataplane.Option{
			dataplane.WithEMC(cache.EMCConfig{Entries: mixFlows / 8}),
			dataplane.WithSMC(cache.SMCConfig{Entries: mixFlows * 4}),
		},
		attack:  attack.TwoField,
		workers: 1,
		traffic: mixTraffic,
		group:   4, warm: true, cycles: 16,
		samples: 42000, traced: 7000,
	},
	{
		// the paper's operating point: 8192-mask attack resident, kernel
		// model, every victim packet sweeps the whole subtable ladder;
		// time per packet over masks is the slope of the paper's curve.
		// Bursts of 8, one frame per flow, keep a sample near 2 ms: the
		// sweep's working set is the size of the core's own cache, the
		// neighbours' bursts of cache traffic slow it by up to 3x for
		// milliseconds at a time, and a short sample slips between them.
		name:    "attack8192_flat",
		opts:    []dataplane.Option{dataplane.WithoutEMC()},
		attack:  attack.ThreeField,
		execute: true,
		workers: 1,
		traffic: victimTraffic(8, 1),
		group:   1, warm: true, cycles: 8,
		samples: 5200, traced: 880,
		masks: 7937,
	},
	{
		// same attack with staged subtable pruning: the same megaflow layer
		// used as a prefilter instead of a sweep, so extract, stage hashing
		// and dataplane glue dominate again
		name:    "attack8192_staged",
		opts:    []dataplane.Option{dataplane.WithoutEMC(), dataplane.WithStagedPruning()},
		attack:  attack.ThreeField,
		execute: true,
		workers: 1,
		traffic: victimTraffic(32, 1),
		group:   16, warm: true, staged: true, cycles: 768,
		samples: 110000, traced: 17500,
		masks: 7937,
	},
	{
		// writes beside reads: every round the 512-frame covert stream misses
		// an empty cache, is classified and installed, then a revalidator
		// round expires it all
		name:    "upcall_storm",
		opts:    []dataplane.Option{dataplane.WithoutEMC(), dataplane.WithMaxIdle(stormIdle)},
		attack:  attack.TwoField,
		workers: 1,
		traffic: covertTraffic,
		group:   16, tick: true, cycles: 2,
		samples: 1200, traced: 185,
	},
	{
		// two cores on one sharded switch, each replaying 8 flows in
		// 32-packet runs: run coalescing, shard locks and shared atomics are
		// the cost
		name:    "elephant_shared2",
		workers: 2,
		attack:  attack.TwoField,
		traffic: victimTraffic(256, 32),
		group:   16, warm: true, cycles: 4,
		samples: 18000, traced: 2900,
	},
}

func findWorkload(name string) *workload {
	for _, w := range workloads {
		if w.name == name {
			return w
		}
	}
	return nil
}

// scaled shrinks a count for reduced-scale (test) runs, keeping at least lo.
func scaled(n int, scale float64, lo int) int {
	return max(int(float64(n)*scale), lo)
}

// installPolicy installs the shared rule set of every workload — the
// victim's /24 whitelist and default deny on port 1, and atk's compiled ACL
// scoped to port 66. It is the harness's own copy of the bench_test.go
// helper, which lives in a _test package and cannot be imported.
func installPolicy(atk *attack.Attack, install func(flowtable.Rule)) error {
	// eth_type is pinned exactly as the CMS compiler does; it keeps the
	// victim's megaflow mask distinct from every covert mask, so the victim
	// entry sits at the end of the scan order.
	var vm flow.Match
	vm.Key.Set(flow.FieldInPort, victimPort)
	vm.Mask.SetExact(flow.FieldInPort)
	vm.Key.Set(flow.FieldEthType, flow.EthTypeIPv4)
	vm.Mask.SetExact(flow.FieldEthType)
	vm.Key.Set(flow.FieldIPSrc, 0x0a0a0000)
	vm.Mask.SetPrefix(flow.FieldIPSrc, 24)
	install(flowtable.Rule{Match: vm, Priority: 100, Action: flowtable.Action{Verdict: flowtable.Allow}})
	var dm flow.Match
	dm.Key.Set(flow.FieldInPort, victimPort)
	dm.Mask.SetExact(flow.FieldInPort)
	install(flowtable.Rule{Match: dm, Priority: 0})

	theACL, err := atk.BuildACL()
	if err != nil {
		return err
	}
	rules, err := theACL.Compile()
	if err != nil {
		return err
	}
	for _, r := range rules {
		r.Match.Key.Set(flow.FieldInPort, attackPort)
		r.Match.Mask.SetExact(flow.FieldInPort)
		install(r)
	}
	return nil
}

// victimTraffic is the iperf-like victim stream: 8 TCP flows from one host
// of the whitelisted /24, burstLen MTU frames per burst in runs of runLen
// identical frames. The seed picks the host and the flow the burst starts
// on; lanes get different hosts, so their flow sets are disjoint.
func victimTraffic(burstLen, runLen int) func(uint64, float64, int) ([]wireBurst, error) {
	return func(seed uint64, _ float64, ln int) ([]wireBurst, error) {
		host := byte(1 + (seed+uint64(ln)*127)%254)
		gen := traffic.NewVictim(traffic.VictimConfig{
			Src:    netip.AddrFrom4([4]byte{10, 10, 0, host}),
			Dst:    netip.MustParseAddr("172.16.0.2"),
			InPort: victimPort,
		})
		for i := uint64(0); i < seed%8; i++ {
			gen.NextFrame()
		}
		var b wireBurst
		for len(b.frames) < burstLen {
			f, port := gen.NextFrame()
			for j := 0; j < runLen; j++ {
				b.frames = append(b.frames, f)
				b.ports = append(b.ports, port)
			}
		}
		return []wireBurst{b}, nil
	}
}

// mixTraffic pre-draws 64 bursts of 256 minimum-size frames from a Zipf mix
// of 4096 flows inside 10.10.0.0/16, one in 256 of which the victim
// whitelist allows, so the oracle sees both verdicts.
func mixTraffic(seed uint64, scale float64, _ int) ([]wireBurst, error) {
	mix := traffic.NewMix(traffic.MixConfig{
		Seed:     seed,
		NFlows:   scaled(mixFlows, scale, 1024),
		Subnet:   netip.MustParsePrefix("10.10.0.0/16"),
		InPort:   victimPort,
		Skew:     0.8,
		FrameLen: 64,
	})
	bursts := make([]wireBurst, scaled(64, scale, 8))
	for i := range bursts {
		b := &bursts[i]
		for j := 0; j < 256; j++ {
			f, port := mix.NextFrame()
			b.frames = append(b.frames, f)
			b.ports = append(b.ports, port)
		}
	}
	return bursts, nil
}

// covertTraffic is the two-field covert stream on the attacker's port, in
// a seed-drawn order, cut into 16 NIC-sized bursts of 32.
func covertTraffic(seed uint64, _ float64, _ int) ([]wireBurst, error) {
	frames, err := attack.TwoField().Frames()
	if err != nil {
		return nil, err
	}
	rng := rand.New(rand.NewPCG(seed, 0x636f76657274))
	rng.Shuffle(len(frames), func(i, j int) { frames[i], frames[j] = frames[j], frames[i] })
	var bursts []wireBurst
	for start := 0; start < len(frames); start += 32 {
		var b wireBurst
		for _, f := range frames[start:min(start+32, len(frames))] {
			b.frames = append(b.frames, f)
			b.ports = append(b.ports, attackPort)
		}
		bursts = append(bursts, b)
	}
	return bursts, nil
}

// heapLive forces a collection and returns the bytes of the heap objects that
// survive it. HeapInuse, the spans those objects sit in, would add what the
// allocator's size classes waste, but it also counts the gaps earlier set-ups
// of the process left behind: on a switch of 0.4 MiB it read 0.38 or 0.51.
func heapLive() uint64 {
	runtime.GC()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return ms.HeapAlloc
}

// setup builds the workload from the seed: inputs, switch, policy, attack
// execution, warm-up and oracle. extra options are appended to the
// workload's own (the telemetry leg uses this). Reduced scale (below 1, for
// tests) also swaps the 8192-mask attack for the 512-mask one.
func (w *workload) setup(seed uint64, scale float64, extra ...dataplane.Option) (*instance, error) {
	in := &instance{w: w, now: 2, lanes: make([]lane, w.workers)}
	t0 := clock()
	lap := func() {
		t := clock()
		in.laps = append(in.laps, t-t0)
		t0 = t
	}
	for i := range in.lanes {
		bursts, err := w.traffic(seed, scale, i)
		if err != nil {
			return nil, fmt.Errorf("%s: traffic: %w", w.name, err)
		}
		in.lanes[i].bursts = bursts
		in.lanes[i].outs = make([][]dataplane.Decision, w.group)
	}
	lap()
	// The forced collections of the heap readings are the harness's work and
	// wake the idle core, which on a small VM takes a widely varying time;
	// they stay out of the set-up time.
	base := heapLive()
	t0 = clock()

	atk := w.attack()
	if scale < 1 && w.execute {
		atk = attack.TwoField()
	}
	opts := append(append([]dataplane.Option(nil), w.opts...), extra...)
	install := func(flowtable.Rule) {}
	if w.workers > 1 {
		pool := dataplane.NewSharedPMDPool(w.workers, "bench", opts...)
		for i := range in.lanes {
			in.lanes[i].sw = pool.PMD(i)
		}
		install = pool.InstallRule
	} else {
		sw := dataplane.New("bench", opts...)
		in.lanes[0].sw = sw
		install = func(r flowtable.Rule) { sw.InstallRule(r) }
	}
	for i := range in.lanes {
		in.lanes[i].sw.AddPort(victimPort, "victim")
		in.lanes[i].sw.AddPort(attackPort, "attacker")
	}
	if err := installPolicy(atk, install); err != nil {
		return nil, fmt.Errorf("%s: policy: %w", w.name, err)
	}
	lap()
	primary := in.lanes[0].sw
	if w.execute {
		if err := executeAttack(atk, primary, lap); err != nil {
			return nil, fmt.Errorf("%s: attack: %w", w.name, err)
		}
	}
	if w.tick {
		in.rev = revalidator.New(revalidator.Config{MaxIdle: stormIdle})
		in.rev.Attach(primary)
	}

	cycles := w.cycles
	if scale < 1 {
		cycles = scaled(cycles, scale, 2)
	}
	for i := range in.lanes {
		ln := &in.lanes[i]
		samples := (cycles*len(ln.bursts) + w.group - 1) / w.group
		perLap := (samples + warmLaps - 1) / warmLaps
		for n := 1; n <= samples; n++ {
			in.sample(ln)
			if n%perLap == 0 || n == samples {
				lap()
			}
		}
		ln.next = 0
	}
	// A storm round ends with an empty cache; its heap is read at the
	// round's peak, with the stream's megaflows resident.
	if w.tick {
		in.stream(&in.lanes[0])
		lap()
	}
	in.heap = heapLive() - base
	t0 = clock()
	if w.tick {
		in.rev.Tick(in.endStream(&in.lanes[0]))
		in.now++
	}

	// The oracle: the slow-path classifier's verdict for every distinct
	// frame, computed once, outside every timed region.
	cls := primary.Classifier()
	verdicts := make(map[*byte]flowtable.Verdict)
	for i := range in.lanes {
		for bi := range in.lanes[i].bursts {
			b := &in.lanes[i].bursts[bi]
			b.want = make([]flowtable.Verdict, len(b.frames))
			for fi, f := range b.frames {
				v, ok := verdicts[&f[0]]
				if !ok {
					k, err := pkt.Extract(f, b.ports[fi])
					if err != nil {
						return nil, fmt.Errorf("%s: generated frame does not parse: %w", w.name, err)
					}
					v = flowtable.Deny
					if r := cls.Lookup(k).Rule; r != nil {
						v = r.Action.Verdict
					}
					verdicts[&f[0]] = v
				}
				b.want[fi] = v
			}
		}
	}
	if w.masks > 0 && scale >= 1 {
		if got := megaflowCounts(primary).masks; got != w.masks {
			return nil, fmt.Errorf("%s: %d megaflow masks resident after set-up, want %d", w.name, got, w.masks)
		}
	}
	lap()
	return in, nil
}

// warmLaps is the number of stretches the warm-up of a lane is timed in.
const warmLaps = 64

// executeAttack replays atk's covert stream against sw as
// attack.ExecuteFrames does — NIC-sized bursts of 32 through the frame-first
// ingress of the attacker's port — calling lap after every burst, and checks
// as it does that at least nine tenths of the predicted masks are resident
// afterwards.
func executeAttack(atk *attack.Attack, sw *dataplane.Switch, lap func()) error {
	frames, err := atk.Frames()
	if err != nil {
		return err
	}
	const burstLen = 32
	ports := make([]uint32, burstLen)
	for i := range ports {
		ports[i] = attackPort
	}
	var fb dataplane.FrameBatch
	var out []dataplane.Decision
	for start := 0; start < len(frames); start += burstLen {
		fb.Frames = frames[start:min(start+burstLen, len(frames))]
		fb.InPorts = ports[:len(fb.Frames)]
		out = sw.ProcessFrames(1, &fb, out)
		lap()
	}
	if got, want := megaflowCounts(sw).masks, atk.PredictedMasks(); got*10 < want*9 {
		return fmt.Errorf("under-delivered: %d megaflow masks of %d predicted", got, want)
	}
	return nil
}

// nextBurst advances the lane's cursor and loads the burst into its frame
// batch, as an rx queue hands the next burst to the datapath.
func (ln *lane) nextBurst() *wireBurst {
	b := &ln.bursts[ln.next]
	if ln.next++; ln.next == len(ln.bursts) {
		ln.next = 0
	}
	ln.fb.Frames, ln.fb.InPorts = b.frames, b.ports
	return b
}

// sample offers the lane its next group of bursts, each through one
// ProcessFrames call, and on tick workloads closes the round with a
// revalidator pass past max-idle. This is the region a timed sample covers.
func (in *instance) sample(ln *lane) {
	in.stream(ln)
	if in.w.tick {
		in.rev.Tick(in.endStream(ln))
		in.now++
	}
}

func (in *instance) stream(ln *lane) {
	for g := range ln.outs {
		ln.nextBurst()
		ln.outs[g] = ln.sw.ProcessFrames(in.now, &ln.fb, ln.outs[g])
	}
}

// endStream closes the stream half of a storm round: it notes what the
// stream left in the cache and moves the logical clock past max-idle, to the
// time the revalidator round runs at.
func (in *instance) endStream(ln *lane) uint64 {
	mf := ln.sw.Megaflow()
	in.roundMasks, in.roundEntries = mf.NumMasks(), mf.Len()
	in.now += stormIdle + 1
	return in.now
}

// samplePackets is the number of packets one sample of the lane carries.
// Every burst of a lane has the same length.
func (in *instance) samplePackets(ln *lane) int {
	return in.w.group * len(ln.bursts[0].frames)
}

// mfCounts is the megaflow cache's counters in one shape for the plain and
// the sharded cache.
type mfCounts struct {
	masks, entries    int
	scanned, billed   uint64 // logical scan positions; the run-coalesced part of them
	visits, prunes    uint64 // staged pruning: subtables probed, rejected for free
	masksPerShardPeak int
}

func megaflowCounts(sw *dataplane.Switch) mfCounts {
	if mf := sw.Megaflow(); mf != nil {
		return mfCounts{
			masks: mf.NumMasks(), entries: mf.Len(),
			scanned: mf.MasksScanned, billed: mf.RunBilledScans,
			visits: mf.SubtableVisits, prunes: mf.SubtablePrunes,
		}
	}
	smf := sw.ShardedMegaflow()
	if smf == nil {
		return mfCounts{}
	}
	s := smf.Snapshot()
	c := mfCounts{
		masks: smf.NumMasks(), entries: s.Entries, scanned: s.MasksScanned,
		visits: s.SubtableVisits, prunes: s.SubtablePrunes,
	}
	for i := 0; i < smf.NumShards(); i++ {
		c.masksPerShardPeak = max(c.masksPerShardPeak, smf.ShardSnapshot(i).Masks)
	}
	return c
}
