// Package traffic provides the deterministic workload generators of the
// evaluation harness: the victim's iperf-like stream, benign multi-flow
// mixes, and the attacker's paced covert-stream replayer. Every generator
// emits wire frames (FrameSource); they are seeded and allocation-free on
// the per-packet path so experiments are reproducible run to run.
//
//lint:deterministic
package traffic

import (
	"fmt"
	"math"
	"net/netip"

	"policyinject/internal/flow"
	"policyinject/internal/pkt"
)

// FrameSource is what the simulator measures with: the next packet of a
// stream as a raw Ethernet frame plus its ingress port, ready for the
// dataplane's frame-first ingress (dataplane.FrameBatch / ProcessFrames).
// The Victim, Mix and Replayer generators implement it.
type FrameSource interface {
	NextFrame() (frame []byte, inPort uint32)
}

// renderFrames renders keys as the wire frames the dataplane would have
// parsed them from, padded to frameLen (pkt.BuildTuple over each key's
// five-tuple). The generators build only TCP keys, which always render.
func renderFrames(keys []flow.Key, frameLen int) [][]byte {
	frames := make([][]byte, len(keys))
	for i, k := range keys {
		f, err := pkt.BuildTuple(k.Tuple(), frameLen)
		if err != nil {
			panic(err)
		}
		frames[i] = f
	}
	return frames
}

// VictimConfig describes the victim workload: an iperf-like transfer of
// Flows parallel TCP connections from one client to one server, as in the
// paper's testbed (Fig. 3 measures this stream's throughput).
type VictimConfig struct {
	Src, Dst netip.Addr
	DstPort  uint16 // server port, default 5201 (iperf3)
	Flows    int    // parallel connections, default 8
	InPort   uint32 // ingress port at the hypervisor switch
	FrameLen int    // bytes on the wire, default 1514 (MTU frame)
}

// Victim is the victim stream generator: round-robins the wire frames of
// a stable set of Flows distinct 5-tuples, MTU-sized by default.
type Victim struct {
	cfg    VictimConfig
	keys   []flow.Key
	frames [][]byte // lazily built, aligned with keys
	next   int
}

// NewVictim builds the victim generator.
func NewVictim(cfg VictimConfig) *Victim {
	if cfg.DstPort == 0 {
		cfg.DstPort = 5201
	}
	if cfg.Flows <= 0 {
		cfg.Flows = 8
	}
	if cfg.FrameLen == 0 {
		cfg.FrameLen = 1514
	}
	v := &Victim{cfg: cfg}
	for i := 0; i < cfg.Flows; i++ {
		v.keys = append(v.keys, flow.FiveTuple{
			Src:     cfg.Src,
			Dst:     cfg.Dst,
			Proto:   uint8(flow.ProtoTCP),
			SrcPort: uint16(49152 + i),
			DstPort: cfg.DstPort,
		}.Key(cfg.InPort))
	}
	return v
}

// NextFrame returns the next packet, round-robin over the flows, as a
// wire frame (FrameLen bytes) with its ingress port.
func (v *Victim) NextFrame() ([]byte, uint32) {
	if v.frames == nil {
		v.frames = renderFrames(v.keys, v.cfg.FrameLen)
	}
	f := v.frames[v.next]
	v.next = (v.next + 1) % len(v.keys)
	return f, v.cfg.InPort
}

// WithNewClients wraps v in a victim stream with connection churn: every
// every-th frame comes from a new remote client (an arbitrary source address
// and ports, to v's server on v's port), the frames between are v's, in v's
// order. New clients land in cold subtables or miss outright, so no warm-flow
// mitigation spares them the mask scan. every <= 0 returns v itself.
func WithNewClients(v *Victim, every int) FrameSource {
	if every <= 0 {
		return v
	}
	return &newClients{v: v, every: every, lcg: 0x9e3779b97f4a7c15}
}

type newClients struct {
	v     *Victim
	every int
	lcg   uint64
	i     int
}

func (c *newClients) NextFrame() ([]byte, uint32) {
	c.i++
	if c.i%c.every != 0 {
		return c.v.NextFrame()
	}
	c.lcg = c.lcg*6364136223846793005 + 1442695040888963407
	t := c.v.keys[0].Tuple()
	t.Src, t.SrcPort, t.DstPort = flow.V4Addr(c.lcg&0xffffffff), uint16(1024+(c.lcg>>32)%60000), uint16(c.lcg>>48)
	f, err := pkt.BuildTuple(t, c.v.cfg.FrameLen)
	if err != nil {
		panic(err) // a TCP tuple always renders
	}
	return f, c.v.cfg.InPort
}

// MixConfig describes a benign multi-flow mix: NFlows distinct 5-tuples
// drawn deterministically from a subnet and port pool, visited with a
// skewed (approximately Zipfian) popularity so a handful of flows carry
// most packets — the traffic shape flow caches are designed for.
type MixConfig struct {
	Seed     uint64
	NFlows   int // default 1000
	Subnet   netip.Prefix
	DstIP    netip.Addr
	InPort   uint32
	Skew     float64 // 0 = uniform, 1 = heavy head; default 0.8
	FrameLen int     // wire frame size; 0 = minimal frames
}

// Mix is the benign mix generator.
type Mix struct {
	keys     []flow.Key
	frames   [][]byte // lazily built, aligned with keys
	lcg      uint64
	skew     float64
	inPort   uint32
	frameLen int
}

// NewMix builds the mix.
func NewMix(cfg MixConfig) *Mix {
	if cfg.NFlows <= 0 {
		cfg.NFlows = 1000
	}
	if cfg.Skew == 0 {
		cfg.Skew = 0.8
	}
	if !cfg.Subnet.IsValid() {
		cfg.Subnet = netip.MustParsePrefix("10.0.0.0/8")
	}
	if !cfg.DstIP.IsValid() {
		cfg.DstIP = netip.MustParseAddr("172.16.0.2")
	}
	m := &Mix{
		lcg: cfg.Seed*2862933555777941757 + 3037000493, skew: cfg.Skew,
		inPort: cfg.InPort, frameLen: cfg.FrameLen,
	}
	base := flow.V4(cfg.Subnet.Addr())
	span := uint64(1) << uint(32-cfg.Subnet.Bits())
	for i := 0; i < cfg.NFlows; i++ {
		m.lcg = m.lcg*6364136223846793005 + 1442695040888963407
		srcIP := base + m.lcg%span
		m.lcg = m.lcg*6364136223846793005 + 1442695040888963407
		sport := 1024 + uint16(m.lcg%60000)
		m.keys = append(m.keys, flow.FiveTuple{
			Src:     flow.V4Addr(srcIP),
			Dst:     cfg.DstIP,
			Proto:   uint8(flow.ProtoTCP),
			SrcPort: sport,
			DstPort: uint16(80 + i%3*363), // 80, 443, 806
		}.Key(cfg.InPort))
	}
	return m
}

// NextFrame draws the next packet, with skewed flow popularity, as a wire
// frame with its ingress port.
func (m *Mix) NextFrame() ([]byte, uint32) {
	if m.frames == nil {
		m.frames = renderFrames(m.keys, m.frameLen)
	}
	return m.frames[m.draw()], m.inPort
}

// draw advances the PRNG and picks the next flow index with the
// configured skew: flow index floor(n^(u^(1/(1-skew)))), approximated by
// exponentiating a uniform draw, pushes it toward the head of the list.
func (m *Mix) draw() int {
	m.lcg = m.lcg*6364136223846793005 + 1442695040888963407
	u := float64(m.lcg>>11) / (1 << 53)
	idx := int(math.Pow(u, 1/(1-m.skew*0.999)) * float64(len(m.keys)))
	if idx >= len(m.keys) {
		idx = len(m.keys) - 1
	}
	return idx
}

// Replayer cycles through a fixed frame sequence on one ingress port —
// the attacker's covert stream (attack.Frames) replayed forever at low
// rate.
type Replayer struct {
	frames [][]byte
	inPort uint32
	next   int
}

// NewReplayer builds a replayer over frames arriving on inPort; it panics
// on an empty sequence.
func NewReplayer(frames [][]byte, inPort uint32) *Replayer {
	if len(frames) == 0 {
		panic("traffic: empty replay sequence")
	}
	return &Replayer{frames: append([][]byte(nil), frames...), inPort: inPort}
}

// NextFrame returns the next frame in cyclic order with its ingress port.
func (r *Replayer) NextFrame() ([]byte, uint32) {
	f := r.frames[r.next]
	r.next = (r.next + 1) % len(r.frames)
	return f, r.inPort
}

// Pacer converts a packets-per-second rate into integer packet counts per
// simulation tick, accumulating fractional remainders so the long-run rate
// is exact.
type Pacer struct {
	PPS   float64
	accum float64
}

// Take returns how many packets to emit for a tick of dt seconds.
func (p *Pacer) Take(dt float64) int {
	if p.PPS <= 0 || dt <= 0 {
		return 0
	}
	p.accum += p.PPS * dt
	n := int(p.accum)
	p.accum -= float64(n)
	return n
}

// String describes the pacer.
func (p *Pacer) String() string { return fmt.Sprintf("%.0f pps", p.PPS) }
