// Package traffic provides the deterministic workload generators of the
// evaluation harness: the victim's iperf-like stream, benign multi-flow
// mixes, and the attacker's paced covert-stream replayer. Generators are
// seeded and allocation-free on the per-packet path so experiments are
// reproducible run to run.
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
// The Victim and Mix generators and the FrameReplayer implement it; each
// also has a key view (Next) over the same cursor, so a consumer may
// interleave Next and NextFrame and see one stream.
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

// Victim is the victim stream generator: round-robins its flows,
// producing a stable set of Flows distinct 5-tuples (and, via NextFrame,
// the matching MTU-sized wire frames).
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

// Next returns the next packet's key, round-robin over the flows.
func (v *Victim) Next() flow.Key {
	k := v.keys[v.next]
	v.next = (v.next + 1) % len(v.keys)
	return k
}

// NextFrame returns the next packet as a wire frame (FrameLen bytes) with
// its ingress port, advancing the same round-robin cursor as Next.
func (v *Victim) NextFrame() ([]byte, uint32) {
	if v.frames == nil {
		v.frames = renderFrames(v.keys, v.cfg.FrameLen)
	}
	f := v.frames[v.next]
	v.next = (v.next + 1) % len(v.keys)
	return f, v.cfg.InPort
}

// FrameLen returns the configured frame size in bytes.
func (v *Victim) FrameLen() int { return v.cfg.FrameLen }

// Flows returns the distinct keys of the stream.
func (v *Victim) Flows() []flow.Key { return append([]flow.Key(nil), v.keys...) }

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
	FrameLen int     // wire frame size for NextFrame; 0 = minimal frames
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

// Next draws the next packet with skewed flow popularity: flow index
// floor(n^(u^(1/(1-skew)))) approximated by exponentiating a uniform draw.
func (m *Mix) Next() flow.Key {
	return m.keys[m.draw()]
}

// NextFrame draws the next packet as a wire frame with its ingress port,
// advancing the same skewed PRNG as Next.
func (m *Mix) NextFrame() ([]byte, uint32) {
	if m.frames == nil {
		m.frames = renderFrames(m.keys, m.frameLen)
	}
	return m.frames[m.draw()], m.inPort
}

// draw advances the PRNG and picks the next flow index with the
// configured skew (push the uniform draw toward the head of the list).
func (m *Mix) draw() int {
	m.lcg = m.lcg*6364136223846793005 + 1442695040888963407
	u := float64(m.lcg>>11) / (1 << 53)
	idx := int(math.Pow(u, 1/(1-m.skew*0.999)) * float64(len(m.keys)))
	if idx >= len(m.keys) {
		idx = len(m.keys) - 1
	}
	return idx
}

// NFlows returns the number of distinct flows.
func (m *Mix) NFlows() int { return len(m.keys) }

// Replayer cycles through a fixed key sequence — the attacker's covert
// stream (attack.Keys) replayed forever at low rate. A plain Replayer is
// deliberately *not* a FrameSource: replay keys may carry fields no wire
// rendering could round-trip (or protocols the builder does not speak),
// so the frame capability is opt-in via WithFrames, which takes the
// faithful frames the caller already has (e.g. attack.Frames).
type Replayer struct {
	keys []flow.Key
	next int
}

// NewReplayer builds a replayer over keys; it panics on an empty sequence.
func NewReplayer(keys []flow.Key) *Replayer {
	if len(keys) == 0 {
		panic("traffic: empty replay sequence")
	}
	return &Replayer{keys: append([]flow.Key(nil), keys...)}
}

// WithFrames attaches the wire rendering of the replay sequence —
// frames[i] must be keys[i] on the wire — and the ingress port NextFrame
// reports, returning the FrameSource view of the replayer (cursor
// shared with r). It panics on a length mismatch.
func (r *Replayer) WithFrames(frames [][]byte, inPort uint32) *FrameReplayer {
	if len(frames) != len(r.keys) {
		panic(fmt.Sprintf("traffic: %d frames for %d replay keys", len(frames), len(r.keys)))
	}
	return &FrameReplayer{
		Replayer: r,
		frames:   append([][]byte(nil), frames...),
		inPort:   inPort,
	}
}

// Next returns the next key in cyclic order.
func (r *Replayer) Next() flow.Key {
	k := r.keys[r.next]
	r.next = (r.next + 1) % len(r.keys)
	return k
}

// FrameReplayer is a Replayer with its wire rendering attached: the key
// view of the embedded Replayer plus the FrameSource contract over the
// supplied frames, one shared cursor.
type FrameReplayer struct {
	*Replayer
	frames [][]byte
	inPort uint32
}

// NextFrame returns the next packet as a wire frame with its ingress
// port, advancing the same cursor as Next.
func (r *FrameReplayer) NextFrame() ([]byte, uint32) {
	f := r.frames[r.next]
	r.next = (r.next + 1) % len(r.keys)
	return f, r.inPort
}

// Len returns the sequence length.
func (r *Replayer) Len() int { return len(r.keys) }

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
