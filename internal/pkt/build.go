package pkt

import (
	"fmt"
	"net/netip"

	"policyinject/internal/flow"
)

// Spec describes a frame to build. Zero values are sensible: omitting MACs
// produces locally-administered placeholder addresses, omitting TTL uses
// 64, and PayloadLen pads with zero bytes. FrameLen, when non-zero, pads
// the final frame (including headers) up to the given total length, the
// knob the traffic generators use for MTU-sized vs minimum-sized packets.
type Spec struct {
	SrcMAC, DstMAC MAC
	VLAN           uint16 // 802.1Q TCI; 0 means untagged

	Src, Dst netip.Addr // both IPv4 or both IPv6
	Proto    uint8      // ProtoTCP, ProtoUDP, ProtoICMP, ProtoICMPv6
	TOS      uint8
	TTL      uint8 // default 64

	SrcPort, DstPort uint16 // TCP/UDP ports, or ICMP type/code
	TCPFlags         uint8  // default SYN for TCP
	Seq              uint32 // TCP sequence number

	PayloadLen int
	FrameLen   int // total frame length to pad to (0 = minimal)
	Payload    []byte
}

var defaultSrcMAC = MAC{0x02, 0x00, 0x00, 0x00, 0x00, 0x01}
var defaultDstMAC = MAC{0x02, 0x00, 0x00, 0x00, 0x00, 0x02}

// Build constructs the frame described by s, with correct length fields and
// checksums. The frame is sized once, padding included, and each header is
// written in place: one allocation a frame.
func Build(s Spec) ([]byte, error) {
	if !s.Src.IsValid() || !s.Dst.IsValid() {
		return nil, fmt.Errorf("pkt: spec needs both src and dst IP")
	}
	v4 := s.Src.Unmap().Is4()
	if v4 != s.Dst.Unmap().Is4() {
		return nil, fmt.Errorf("pkt: src/dst address family mismatch")
	}

	var l4Hdr int
	switch s.Proto {
	case ProtoTCP:
		l4Hdr = TCPHeaderLen
	case ProtoUDP:
		l4Hdr = UDPHeaderLen
	case ProtoICMP, ProtoICMPv6:
		l4Hdr = ICMPHeaderLen
	default:
		return nil, fmt.Errorf("%w: proto %d", ErrUnsupported, s.Proto)
	}
	payloadLen := len(s.Payload)
	if s.Payload == nil {
		payloadLen = max(s.PayloadLen, 0) // zeros, as the frame is made
	}
	l2Hdr, l3Hdr := EthHeaderLen, IPv6HeaderLen
	if s.VLAN != 0 {
		l2Hdr += VLANTagLen
	}
	if v4 {
		l3Hdr = IPv4HeaderLen
	}
	end := l2Hdr + l3Hdr + l4Hdr + payloadLen
	frame := make([]byte, max(end, s.FrameLen))

	putEth(frame[:l2Hdr], s, v4)
	l3 := frame[l2Hdr:end]
	l4 := l3[l3Hdr:]
	switch s.Proto {
	case ProtoTCP:
		putTCP(l4, s)
	case ProtoUDP:
		putUDP(l4, s)
	default:
		putICMP(l4, s)
	}
	copy(l4[l4Hdr:], s.Payload)
	if v4 {
		putIPv4(l3, s)
	} else {
		putIPv6(l3, s)
	}
	// L4 checksum needs the pseudo-header, hence after the L3 header.
	finishL4Checksum(s, v4, l3)
	return frame, nil
}

// MustBuild is Build for tests and generators with known-good specs.
func MustBuild(s Spec) []byte {
	f, err := Build(s)
	if err != nil {
		panic(err)
	}
	return f
}

// BuildTuple renders a five-tuple as the wire frame a flow key carrying
// it would have been parsed from, padded to frameLen (0: minimal). The
// frame re-extracts to the tuple's L3/L4 fields; the fields a tuple does
// not carry (MACs, TCP flags, TTL) take the builder defaults, as real
// traffic would carry some. It fails where Build does: on a protocol the
// builder does not speak.
func BuildTuple(t flow.FiveTuple, frameLen int) ([]byte, error) {
	return Build(Spec{
		Src: t.Src, Dst: t.Dst, Proto: t.Proto,
		SrcPort: t.SrcPort, DstPort: t.DstPort,
		FrameLen: frameLen,
	})
}

// putEth writes the Ethernet header, VLAN tag included, into b, which is
// exactly that long.
func putEth(b []byte, s Spec, v4 bool) {
	ethType := uint16(EtherTypeIPv6)
	if v4 {
		ethType = EtherTypeIPv4
	}
	src, dst := s.SrcMAC, s.DstMAC
	if src == (MAC{}) {
		src = defaultSrcMAC
	}
	if dst == (MAC{}) {
		dst = defaultDstMAC
	}
	copy(b[0:6], dst[:])
	copy(b[6:12], src[:])
	if s.VLAN != 0 {
		put16(b[12:14], EtherTypeVLAN)
		put16(b[14:16], s.VLAN)
		put16(b[16:18], ethType)
	} else {
		put16(b[12:14], ethType)
	}
}

// putIPv4 writes the IPv4 header at the front of b, the whole packet.
func putIPv4(b []byte, s Spec) {
	b[0] = 0x45 // version 4, IHL 5
	b[1] = s.TOS
	put16(b[2:4], uint16(len(b)))
	b[8] = s.TTL
	if b[8] == 0 {
		b[8] = 64
	}
	b[9] = s.Proto
	src, dst := s.Src.Unmap().As4(), s.Dst.Unmap().As4()
	copy(b[12:16], src[:])
	copy(b[16:20], dst[:])
	put16(b[10:12], Checksum(b[:IPv4HeaderLen]))
}

// putIPv6 writes the IPv6 header at the front of b, the whole packet.
func putIPv6(b []byte, s Spec) {
	b[0] = 0x60 | s.TOS>>4
	b[1] = s.TOS << 4
	put16(b[4:6], uint16(len(b)-IPv6HeaderLen))
	b[6] = s.Proto
	b[7] = s.TTL
	if b[7] == 0 {
		b[7] = 64
	}
	src, dst := s.Src.As16(), s.Dst.As16()
	copy(b[8:24], src[:])
	copy(b[24:40], dst[:])
}

// putTCP writes the TCP header at the front of b, the whole segment; the
// checksum is finishL4Checksum's.
func putTCP(b []byte, s Spec) {
	put16(b[0:2], s.SrcPort)
	put16(b[2:4], s.DstPort)
	put32(b[4:8], s.Seq)
	b[12] = 5 << 4 // data offset: 5 words
	flags := s.TCPFlags
	if flags == 0 {
		flags = TCPSyn
	}
	b[13] = flags
	put16(b[14:16], 65535) // window
}

// putUDP writes the UDP header at the front of b, the whole datagram.
func putUDP(b []byte, s Spec) {
	put16(b[0:2], s.SrcPort)
	put16(b[2:4], s.DstPort)
	put16(b[4:6], uint16(len(b)))
}

// putICMP writes the ICMP header at the front of b, the whole message.
func putICMP(b []byte, s Spec) {
	b[0] = byte(s.SrcPort) // type
	b[1] = byte(s.DstPort) // code
}

// finishL4Checksum fills the transport checksum in an assembled L3 packet.
func finishL4Checksum(s Spec, v4 bool, l3 []byte) {
	var l4 []byte
	var srcB, dstB []byte
	if v4 {
		l4 = l3[IPv4HeaderLen:]
		srcB, dstB = l3[12:16], l3[16:20]
	} else {
		l4 = l3[IPv6HeaderLen:]
		srcB, dstB = l3[8:24], l3[24:40]
	}
	switch s.Proto {
	case ProtoTCP:
		put16(l4[16:18], 0)
		put16(l4[16:18], PseudoChecksum(srcB, dstB, s.Proto, l4))
	case ProtoUDP:
		put16(l4[6:8], 0)
		ck := PseudoChecksum(srcB, dstB, s.Proto, l4)
		if ck == 0 {
			ck = 0xffff // RFC 768: transmitted zero means "no checksum"
		}
		put16(l4[6:8], ck)
	case ProtoICMP:
		put16(l4[2:4], 0)
		put16(l4[2:4], Checksum(l4))
	case ProtoICMPv6:
		put16(l4[2:4], 0)
		put16(l4[2:4], PseudoChecksum(srcB, dstB, s.Proto, l4))
	}
}
