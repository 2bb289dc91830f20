// Command dpctl inspects the model dataplane the way ovs-dpctl and
// ovs-appctl inspect OVS. It builds the paper's two-tenant demo scenario,
// optionally executes the attack, and dumps the requested view:
//
//	dpctl show                      switch and cache summary
//	dpctl dump-rules                slow-path rules (ovs-ofctl style)
//	dpctl dump-flows [-n 20]        megaflow cache entries (with flow ages)
//	dpctl dump-masks [-n 20]        mask population with entry counts
//	dpctl revalidator [-rounds 12]  run dump rounds, print stats + flow limit
//	dpctl replay -pcap file.pcap    feed a capture through the scenario switch
//	dpctl metrics [-format prom]    drive traffic, dump the telemetry registry
//	dpctl trace [spec]              walk one frame through the cache hierarchy
//	dpctl self-check                validate table invariants
//
// Add -attack to run the covert stream before dumping (default on for
// dump-flows/dump-masks; -attack=false for the healthy view). The
// revalidator subcommand drives the covert stream itself, one cycle per
// dump round, and prints the adaptive flow limit collapsing (-fixed to
// pin it, -dump-rate to set the logical dump speed).
//
// The trace subcommand is the model's ofproto/trace: it takes a frame
// spec ("ip_src=10.0.0.1,ip_dst=10.0.0.9,proto=tcp,tp_dst=5201"),
// builds the wire frame, and prints every tier decision on the way to
// the verdict — EMC/SMC probes, subtable scans and stage-hash bails,
// the upcall admission verdict, the matched rule and the minted
// megaflow. -warm N first processes the frame N times (to see cache
// promotion); -emc restores the exact-match cache the demo scenario
// disables.
package main

import (
	"cmp"
	"flag"
	"fmt"
	"net/netip"
	"os"
	"slices"
	"strconv"
	"strings"

	"policyinject/internal/attack"
	"policyinject/internal/cache"
	"policyinject/internal/cms"
	"policyinject/internal/dataplane"
	"policyinject/internal/flow"
	"policyinject/internal/flowtable"
	"policyinject/internal/pkt"
	"policyinject/internal/revalidator"
	"policyinject/internal/telemetry"
	"policyinject/internal/traffic"
)

func main() {
	if len(os.Args) < 2 {
		usage()
		os.Exit(2)
	}
	cmd, args := os.Args[1], os.Args[2:]
	fs := flag.NewFlagSet(cmd, flag.ExitOnError)
	doAttack := fs.Bool("attack", cmd == "dump-flows" || cmd == "dump-masks", "run the covert stream first")
	smc := fs.Bool("smc", false, "enable the OVS 2.10 signature-match cache tier")
	// The revalidator demo defaults to the full three-field attack: its
	// 8192 flows are what make the default-rate dump overrun and the flow
	// limit visibly collapse.
	defaultFields := "ip_src,tp_dst"
	if cmd == "revalidator" {
		defaultFields = "ip_src,tp_dst,tp_src"
	}
	fields := fs.String("fields", defaultFields, "attack fields")
	n := fs.Int("n", 20, "entries to display")
	pcapPath := fs.String("pcap", "", "replay: capture file to feed")
	rounds := fs.Int("rounds", 12, "revalidator: dump rounds to run")
	interval := fs.Uint64("interval", 5, "revalidator: dump interval in logical units")
	dumpRate := fs.Float64("dump-rate", 64, "revalidator: flows dumped per worker per unit")
	fixed := fs.Bool("fixed", false, "revalidator: disable the adaptive flow-limit heuristic")
	format := fs.String("format", "prom", "metrics: output format, prom or json")
	emc := fs.Bool("emc", false, "trace: restore the exact-match cache tier")
	warm := fs.Int("warm", 0, "trace: process the frame this many times before tracing")
	fs.Parse(args)

	// Extra datapath options some subcommands inject at build time: the
	// EMC tier for trace, the live-instrument registry for metrics.
	var extra []dataplane.Option
	if *emc {
		extra = append(extra, dataplane.WithEMC(cache.EMCConfig{}))
	}
	var reg *telemetry.Registry
	if cmd == "metrics" {
		reg = telemetry.NewRegistry()
		extra = append(extra, dataplane.WithTelemetry(reg))
	}

	sc, err := buildScenario(*fields, *doAttack, *smc, extra...)
	if err != nil {
		fatal(err)
	}
	sw := sc.sw

	switch cmd {
	case "show":
		fmt.Print(sw.String())
	case "dump-rules":
		for _, r := range sw.Rules() {
			fmt.Printf("%s  # %s\n", r, r.Comment)
		}
	case "dump-flows":
		dumpFlows(sw, *n, scenarioNow)
	case "dump-masks":
		dumpMasks(sw, *n)
	case "revalidator":
		runRevalidator(sc, *rounds, *interval, *dumpRate, *fixed)
	case "replay":
		if err := replay(sw, *pcapPath); err != nil {
			fatal(err)
		}
	case "metrics":
		if err := runMetrics(sc, reg, *format, *rounds, *interval); err != nil {
			fatal(err)
		}
	case "trace":
		if err := runTrace(sc, fs.Args(), *warm); err != nil {
			fatal(err)
		}
	case "self-check":
		selfCheck(sw)
	default:
		usage()
		os.Exit(2)
	}
}

func usage() {
	fmt.Fprintln(os.Stderr, "usage: dpctl {show|dump-rules|dump-flows|dump-masks|revalidator|replay|metrics|trace|self-check} [-attack] [-fields ...] [-n N]")
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "dpctl:", err)
	os.Exit(1)
}

// scenario is the assembled demo cluster plus the handles the subcommands
// drive traffic with.
type scenario struct {
	sw           *dataplane.Switch
	atk          *attack.Attack
	victimIP     netip.Addr
	victimPort   uint32
	attackerPort uint32
}

// scenarioNow is the logical time after buildScenario's traffic (attack at
// t=1, victim warmup at t=2) — the clock dump-flows ages against.
const scenarioNow = 3

// buildScenario assembles the paper's demo cluster: victim and attacker
// pods sharing a hypervisor, victim policy installed, attacker policy
// injected, and (optionally) the covert stream plus victim warm traffic.
// extra options append after the defaults, so they win conflicts (the
// trace subcommand's -emc undoes the stock WithoutEMC this way).
func buildScenario(fields string, execute, smc bool, extra ...dataplane.Option) (*scenario, error) {
	cluster := cms.NewCluster()
	cluster.SwitchOpts = []dataplane.Option{dataplane.WithoutEMC()}
	if smc {
		cluster.SwitchOpts = append(cluster.SwitchOpts, dataplane.WithSMC(cache.SMCConfig{}))
	}
	cluster.SwitchOpts = append(cluster.SwitchOpts, extra...)
	if _, err := cluster.AddNode("server-1"); err != nil {
		return nil, err
	}
	victimPod, err := cluster.DeployPod("victim-corp", "backend", "server-1")
	if err != nil {
		return nil, err
	}
	attackerPod, err := cluster.DeployPod("mallory", "probe", "server-1")
	if err != nil {
		return nil, err
	}

	atk := &attack.Attack{DstIP: attackerPod.IP}
	var err2 error
	atk.Fields, err2 = parseFields(fields)
	if err2 != nil {
		return nil, err2
	}
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

	sw := victimPod.Node.Switch
	if execute {
		if _, err := atk.ExecuteFrames(sw, 1, attackerPod.Port); err != nil {
			return nil, err
		}
		// A little victim traffic so its megaflow shows in the dumps.
		victim := traffic.NewVictim(traffic.VictimConfig{
			Src: victimPod.IP, Dst: victimPod.IP, InPort: victimPod.Port,
		})
		var fb dataplane.FrameBatch
		for range 64 {
			fb.Append(victim.NextFrame())
		}
		sw.ProcessFrames(2, &fb, nil)
	}
	return &scenario{
		sw:           sw,
		atk:          atk,
		victimIP:     victimPod.IP,
		victimPort:   victimPod.Port,
		attackerPort: attackerPod.Port,
	}, nil
}

// runRevalidator puts the scenario switch under a revalidator and drives
// dump rounds with the covert stream cycling once per round (plus a victim
// trickle), printing each round's dump stats and the flow limit's path —
// the collapse, the staleness trims, and the per-worker shares.
func runRevalidator(sc *scenario, rounds int, interval uint64, dumpRate float64, fixed bool) {
	victim := traffic.NewVictim(traffic.VictimConfig{
		Src: sc.victimIP, Dst: sc.victimIP, InPort: sc.victimPort,
	})
	rev := revalidator.New(revalidator.Config{
		Interval:   interval,
		DumpRate:   dumpRate,
		FixedLimit: fixed,
	})
	rev.Attach(sc.sw)
	fmt.Printf("# %d rounds, interval %d, dump rate %g flows/unit/worker, covert stream %d packets/round\n",
		rounds, interval, dumpRate, sc.atk.PredictedMasks())
	now := uint64(1)
	var fb dataplane.FrameBatch
	var out []dataplane.Decision
	for r := 0; r < rounds; r++ {
		fb.Reset()
		for range 64 {
			fb.Append(victim.NextFrame())
		}
		out = sc.sw.ProcessFrames(now, &fb, out)
		if _, err := sc.atk.ExecuteFrames(sc.sw, now, sc.attackerPort); err != nil {
			fatal(err)
		}
		rev.Tick(now)
		st := rev.Stats()
		over := ""
		if st.Last.Overrun {
			over = " OVERRUN"
		}
		fmt.Printf("round %2d t=%-4d flows=%-6d dump=%6.2f/%d units%s  flow-limit=%-7d evicted idle=%d limit=%d\n",
			r+1, now, st.Last.Flows, st.Last.Duration, interval, over,
			st.FlowLimit, st.Last.IdleEvicted, st.Last.LimitEvicted)
		now += interval
	}
	st := rev.Stats()
	fmt.Println(st.String())
	for wi, w := range st.PerWorker {
		fmt.Printf("  worker %d: %d targets, %d flows, evicted idle=%d limit=%d policy=%d\n",
			wi, w.Targets, w.Flows, w.IdleEvicted, w.LimitEvicted, w.PolicyFlushed)
	}
	fmt.Printf("megaflow cache now: %d entries, %d masks (flow limit %d)\n",
		sc.sw.Megaflow().Len(), sc.sw.Megaflow().NumMasks(), sc.sw.Megaflow().FlowLimit())
}

func parseFields(csv string) ([]attack.TargetField, error) {
	var out []attack.TargetField
	for _, name := range splitComma(csv) {
		switch name {
		case "ip_src":
			out = append(out, attack.TargetField{Field: flow.FieldIPSrc, Allow: 0x0a000001})
		case "ip_dst":
			out = append(out, attack.TargetField{Field: flow.FieldIPDst, Allow: 0x0a000002})
		case "tp_dst":
			out = append(out, attack.TargetField{Field: flow.FieldTPDst, Allow: 80})
		case "tp_src":
			out = append(out, attack.TargetField{Field: flow.FieldTPSrc, Allow: 5201})
		default:
			return nil, fmt.Errorf("unknown field %q", name)
		}
	}
	return out, nil
}

func splitComma(s string) []string {
	var out []string
	cur := ""
	for _, r := range s {
		if r == ',' {
			if cur != "" {
				out = append(out, cur)
			}
			cur = ""
			continue
		}
		if r != ' ' {
			cur += string(r)
		}
	}
	if cur != "" {
		out = append(out, cur)
	}
	return out
}

// dumpFlows prints the megaflows subtable by subtable, each subtable's
// entries ordered by key: Entries walks a subtable's slots, which a
// per-process seed places, so the dump orders them itself.
func dumpFlows(sw *dataplane.Switch, n int, now uint64) {
	entries := sw.Megaflow().Entries()
	for i := 0; i < len(entries); {
		j := i + 1
		for j < len(entries) && entries[j].Match().Mask == entries[i].Match().Mask {
			j++
		}
		slices.SortFunc(entries[i:j], func(a, b *cache.Entry) int { return slices.Compare(a.Key[:], b.Key[:]) })
		i = j
	}
	fmt.Printf("# %d megaflow entries, %d masks (showing %d)\n",
		len(entries), sw.Megaflow().NumMasks(), min(n, len(entries)))
	for i, e := range entries {
		if i >= n {
			break
		}
		// age: units since install; used: units since the last hit — the
		// staleness the revalidator's idle sweep and limit trim key on.
		fmt.Printf("%s, actions:%s, hits:%d, age:%d, used:%d\n",
			e.Match(), e.Verdict, e.Hits, now-e.Added, now-e.LastHit)
	}
}

func dumpMasks(sw *dataplane.Switch, n int) {
	entries := sw.Megaflow().Entries()
	counts := map[flow.Mask]int{}
	for _, e := range entries {
		counts[e.Match().Mask]++
	}
	type row struct {
		mask  flow.Mask
		count int
	}
	rows := make([]row, 0, len(counts))
	for m, c := range counts {
		rows = append(rows, row{m, c})
	}
	// Most entries first, ties by mask: the map's order is random.
	slices.SortFunc(rows, func(a, b row) int {
		if c := cmp.Compare(b.count, a.count); c != 0 {
			return c
		}
		return slices.Compare(a.mask[:], b.mask[:])
	})
	fmt.Printf("# %d distinct masks (showing %d)\n", len(rows), min(n, len(rows)))
	for i, r := range rows {
		if i >= n {
			break
		}
		fmt.Printf("%4d entries  mask %s\n", r.count,
			flow.Match{Mask: r.mask}.String())
	}
}

// replay feeds a pcap capture through the scenario switch at port 1 and
// reports the verdict mix and the cache impact.
func replay(sw *dataplane.Switch, path string) error {
	if path == "" {
		return fmt.Errorf("replay needs -pcap <file>")
	}
	f, err := os.Open(path)
	if err != nil {
		return err
	}
	defer f.Close()
	frames, err := pkt.ReadPcap(f)
	if err != nil {
		return err
	}
	masksBefore := sw.Megaflow().NumMasks()
	allowed, denied, errs := 0, 0, 0
	// Feed the capture as NIC-sized wire bursts through the frame-first
	// ingress: malformed records get per-frame error slots instead of
	// aborting the burst.
	const burstLen = 32
	var fb dataplane.FrameBatch
	var out []dataplane.Decision
	for start := 0; start < len(frames); start += burstLen {
		fb.Reset()
		for _, fr := range frames[start:min(start+burstLen, len(frames))] {
			fb.Append(fr, 1)
		}
		out = sw.ProcessFrames(uint64(start/burstLen), &fb, out)
		for i, d := range out[:fb.Len()] {
			switch {
			case fb.Err(i) != nil:
				errs++
			case d.Verdict.Verdict == flowtable.Allow:
				allowed++
			default:
				denied++
			}
		}
	}
	fmt.Printf("replayed %d frames: %d allowed, %d denied, %d parse errors\n",
		len(frames), allowed, denied, errs)
	fmt.Printf("megaflow masks: %d -> %d\n", masksBefore, sw.Megaflow().NumMasks())
	return nil
}

// runMetrics exercises the instrumented demo switch — victim bursts plus
// the covert stream as wire frames, one revalidator round per cycle —
// then dumps the telemetry registry in Prometheus text or JSON form.
func runMetrics(sc *scenario, reg *telemetry.Registry, format string, rounds int, interval uint64) error {
	if format != "prom" && format != "json" {
		return fmt.Errorf("metrics: unknown -format %q (want prom or json)", format)
	}
	frames, err := sc.atk.Frames()
	if err != nil {
		return err
	}
	victim := traffic.NewVictim(traffic.VictimConfig{
		Src: sc.victimIP, Dst: sc.victimIP, InPort: sc.victimPort,
	})
	rev := revalidator.New(revalidator.Config{})
	rev.SetTelemetry(reg)
	rev.Attach(sc.sw)

	const burstLen = 32
	var fb dataplane.FrameBatch
	var out []dataplane.Decision
	now := uint64(1)
	for r := 0; r < rounds; r++ {
		fb.Reset()
		for i := 0; i < 64; i++ {
			fb.Append(victim.NextFrame())
		}
		out = sc.sw.ProcessFrames(now, &fb, out)
		for start := 0; start < len(frames); start += burstLen {
			fb.Reset()
			for _, fr := range frames[start:min(start+burstLen, len(frames))] {
				fb.Append(fr, sc.attackerPort)
			}
			out = sc.sw.ProcessFrames(now, &fb, out)
		}
		rev.Tick(now)
		now += interval
	}
	sc.sw.PublishTelemetry()
	snap := reg.Snapshot()
	if format == "json" {
		return snap.WriteJSON(os.Stdout)
	}
	return snap.WriteProm(os.Stdout)
}

// runTrace parses the frame spec, optionally warms the caches with it,
// and prints the explained walk through the tier hierarchy.
func runTrace(sc *scenario, args []string, warm int) error {
	if len(args) != 1 {
		return fmt.Errorf(`trace wants one frame spec, e.g. "ip_src=10.0.0.1,ip_dst=%s,proto=tcp,tp_src=40000,tp_dst=5201"`, sc.victimIP)
	}
	frame, inPort, err := parseFrameSpec(args[0], sc)
	if err != nil {
		return err
	}
	var fb dataplane.FrameBatch
	var out []dataplane.Decision
	for i := 0; i < warm; i++ {
		// One-frame bursts, so each pass sees the previous one's cache
		// promotions and the warmed state matches a real packet trickle.
		fb.Reset()
		fb.Append(frame, inPort)
		out = sc.sw.ProcessFrames(scenarioNow-1, &fb, out)
		if err := fb.Err(0); err != nil {
			return fmt.Errorf("warming: %w", err)
		}
	}
	fmt.Print(sc.sw.TraceFrame(scenarioNow, frame, inPort).String())
	return nil
}

// parseFrameSpec lowers "k=v,k=v" onto a built wire frame. Unset
// addresses default to the demo victim flow (client /24 -> victim pod),
// the input port to the victim's, the protocol to TCP.
func parseFrameSpec(spec string, sc *scenario) ([]byte, uint32, error) {
	ps := pkt.Spec{Proto: pkt.ProtoTCP, Dst: sc.victimIP}
	inPort := sc.victimPort
	for _, kv := range splitComma(spec) {
		k, v, ok := strings.Cut(kv, "=")
		if !ok {
			return nil, 0, fmt.Errorf("frame spec: %q is not key=value", kv)
		}
		var err error
		switch k {
		case "ip_src":
			ps.Src, err = netip.ParseAddr(v)
		case "ip_dst":
			ps.Dst, err = netip.ParseAddr(v)
		case "proto":
			switch v {
			case "tcp":
				ps.Proto = pkt.ProtoTCP
			case "udp":
				ps.Proto = pkt.ProtoUDP
			case "icmp":
				ps.Proto = pkt.ProtoICMP
			default:
				var n uint64
				n, err = strconv.ParseUint(v, 10, 8)
				ps.Proto = uint8(n)
			}
		case "tp_src":
			var n uint64
			n, err = strconv.ParseUint(v, 10, 16)
			ps.SrcPort = uint16(n)
		case "tp_dst":
			var n uint64
			n, err = strconv.ParseUint(v, 10, 16)
			ps.DstPort = uint16(n)
		case "in_port":
			var n uint64
			n, err = strconv.ParseUint(v, 10, 32)
			inPort = uint32(n)
		case "frame_len":
			var n uint64
			n, err = strconv.ParseUint(v, 10, 16)
			ps.FrameLen = int(n)
		default:
			return nil, 0, fmt.Errorf("frame spec: unknown key %q", k)
		}
		if err != nil {
			return nil, 0, fmt.Errorf("frame spec: %s=%s: %w", k, v, err)
		}
	}
	if !ps.Src.IsValid() {
		ps.Src = netip.AddrFrom4([4]byte{10, 0, 0, 1})
	}
	frame, err := pkt.Build(ps)
	if err != nil {
		return nil, 0, fmt.Errorf("frame spec: %w", err)
	}
	return frame, inPort, nil
}

func selfCheck(sw *dataplane.Switch) {
	ok := true
	// Rule table invariants.
	rules := sw.Rules()
	for i := 1; i < len(rules); i++ {
		if rules[i].Priority > rules[i-1].Priority {
			fmt.Printf("FAIL: rule order violated at %d\n", i)
			ok = false
		}
	}
	// Megaflow non-overlap within the cache (pairwise on a sample).
	entries := sw.Megaflow().Entries()
	limit := min(len(entries), 200)
	for i := 0; i < limit; i++ {
		for j := i + 1; j < limit; j++ {
			if entries[i].Match().Overlaps(entries[j].Match()) &&
				entries[i].Verdict != entries[j].Verdict {
				fmt.Printf("FAIL: conflicting overlapping megaflows %v / %v\n",
					entries[i].Match(), entries[j].Match())
				ok = false
			}
		}
	}
	if ok {
		fmt.Println("ok: rule order and megaflow consistency hold")
	} else {
		os.Exit(1)
	}
}
