package pkt

import (
	"fmt"

	"policyinject/internal/flow"
)

// Extract parses frame into the canonical flow key for a packet received on
// inPort. It performs no heap allocation: all state lives in the returned
// Key. Unknown EtherTypes and IP protocols still produce a Key carrying the
// L2/L3 fields that were understood; the error (wrapping ErrUnsupported)
// tells the caller the L4 fields are absent, mirroring how OVS classifies
// packets it cannot fully parse.
//
// This is the full scalar decoder — the fallback ExtractBatch takes for
// frames outside the dominant wire shapes, and the explicit cold side of
// the extract hot/cold boundary: its error paths may allocate.
//
//lint:coldpath
func Extract(frame []byte, inPort uint32) (flow.Key, error) {
	var k flow.Key
	k.Set(flow.FieldInPort, uint64(inPort))

	if len(frame) < EthHeaderLen {
		return k, fmt.Errorf("%w: %d bytes of %d-byte Ethernet header", ErrTruncated, len(frame), EthHeaderLen)
	}
	k.Set(flow.FieldEthDst, mac48(frame[0:6]))
	k.Set(flow.FieldEthSrc, mac48(frame[6:12]))
	etherType := be16(frame[12:14])
	off := EthHeaderLen

	if etherType == EtherTypeVLAN {
		if len(frame) < off+VLANTagLen {
			return k, fmt.Errorf("%w: VLAN tag", ErrTruncated)
		}
		k.Set(flow.FieldVLANTCI, uint64(be16(frame[off:off+2])))
		etherType = be16(frame[off+2 : off+4])
		off += VLANTagLen
	}
	k.Set(flow.FieldEthType, uint64(etherType))

	switch etherType {
	case EtherTypeIPv4:
		return extractIPv4(frame[off:], k)
	case EtherTypeIPv6:
		return extractIPv6(frame[off:], k)
	case EtherTypeARP:
		return extractARP(frame[off:], k)
	default:
		return k, fmt.Errorf("%w: ethertype %#04x", ErrUnsupported, etherType)
	}
}

func extractARP(b []byte, k flow.Key) (flow.Key, error) {
	if len(b) < ARPLen {
		return k, fmt.Errorf("%w: ARP", ErrTruncated)
	}
	k.Set(flow.FieldARPOp, uint64(be16(b[6:8])))
	// ARP SPA/TPA ride in the IPv4 address fields, as in the OVS flow key.
	k.Set(flow.FieldIPSrc, uint64(be32(b[14:18])))
	k.Set(flow.FieldIPDst, uint64(be32(b[24:28])))
	return k, nil
}

func extractIPv4(b []byte, k flow.Key) (flow.Key, error) {
	if len(b) < IPv4HeaderLen {
		return k, fmt.Errorf("%w: IPv4 header", ErrTruncated)
	}
	if v := b[0] >> 4; v != 4 {
		return k, fmt.Errorf("%w: version %d in IPv4 packet", ErrBadVersion, v)
	}
	ihl := int(b[0]&0x0f) * 4
	if ihl < IPv4HeaderLen || len(b) < ihl {
		return k, fmt.Errorf("%w: IHL %d", ErrBadIHL, ihl)
	}
	k.Set(flow.FieldIPTOS, uint64(b[1]))
	proto := b[9]
	k.Set(flow.FieldIPProto, uint64(proto))
	k.Set(flow.FieldIPSrc, uint64(be32(b[12:16])))
	k.Set(flow.FieldIPDst, uint64(be32(b[16:20])))

	fragOff := be16(b[6:8]) & 0x1fff
	moreFrag := b[6]&0x20 != 0
	if fragOff != 0 {
		// Later fragment: no L4 header present. Flag it and stop, as the
		// OVS flow key does with its "later fragment" bit.
		k.Set(flow.FieldIPFrag, 2)
		return k, nil
	}
	if moreFrag {
		k.Set(flow.FieldIPFrag, 1)
	}
	return extractL4(b[ihl:], proto, k)
}

func extractIPv6(b []byte, k flow.Key) (flow.Key, error) {
	if len(b) < IPv6HeaderLen {
		return k, fmt.Errorf("%w: IPv6 header", ErrTruncated)
	}
	if v := b[0] >> 4; v != 6 {
		return k, fmt.Errorf("%w: version %d in IPv6 packet", ErrBadVersion, v)
	}
	k.Set(flow.FieldIPTOS, uint64(b[0]&0x0f)<<4|uint64(b[1]>>4))
	proto := b[6] // next header; extension chains are not walked
	k.Set(flow.FieldIPProto, uint64(proto))
	k.Set(flow.FieldIPv6SrcHi, be64bytes(b[8:16]))
	k.Set(flow.FieldIPv6SrcLo, be64bytes(b[16:24]))
	k.Set(flow.FieldIPv6DstHi, be64bytes(b[24:32]))
	k.Set(flow.FieldIPv6DstLo, be64bytes(b[32:40]))
	return extractL4(b[IPv6HeaderLen:], proto, k)
}

func extractL4(b []byte, proto byte, k flow.Key) (flow.Key, error) {
	switch proto {
	case ProtoTCP:
		if len(b) < TCPHeaderLen {
			return k, fmt.Errorf("%w: TCP header", ErrTruncated)
		}
		k.Set(flow.FieldTPSrc, uint64(be16(b[0:2])))
		k.Set(flow.FieldTPDst, uint64(be16(b[2:4])))
		k.Set(flow.FieldTCPFlags, uint64(b[13]))
		return k, nil
	case ProtoUDP:
		if len(b) < UDPHeaderLen {
			return k, fmt.Errorf("%w: UDP header", ErrTruncated)
		}
		k.Set(flow.FieldTPSrc, uint64(be16(b[0:2])))
		k.Set(flow.FieldTPDst, uint64(be16(b[2:4])))
		return k, nil
	case ProtoICMP, ProtoICMPv6:
		if len(b) < 4 {
			return k, fmt.Errorf("%w: ICMP header", ErrTruncated)
		}
		k.Set(flow.FieldICMPType, uint64(b[0]))
		k.Set(flow.FieldICMPCode, uint64(b[1]))
		return k, nil
	default:
		return k, fmt.Errorf("%w: ip proto %d", ErrUnsupported, proto)
	}
}

// ExtractBatch parses a whole burst in one pass: frames[i], received on
// inPorts[i], is decoded into keys[i] and its parse outcome into errs[i]
// (nil for a clean decode). Unlike an early-return loop, a malformed frame
// never aborts the burst — every frame gets its own error slot, so the
// dataplane can account it and keep classifying the rest. The return value
// is the number of malformed frames (non-nil errs entries). Keys are composed
// in place — no 80-byte key is returned or copied on the fast path — and
// keys may hold anything on entry: every word of every keys[i] is
// overwritten.
//
// The burst loop takes a fast path for the dominant wire shapes — IPv4
// with no options, no fragmentation, TCP or UDP, untagged or behind a
// single 802.1Q tag — amortising the parser's per-layer bounds checks into
// one length comparison per frame; anything else falls back to the full
// scalar decoder. The result is bit-identical to calling Extract frame by
// frame (keys and errors both), which the batch-equivalence property test
// pins.
//
// keys, errs and inPorts must all have len(frames); ExtractBatch panics
// otherwise rather than silently truncating the burst.
//
//lint:hotpath
func ExtractBatch(frames [][]byte, inPorts []uint32, keys []flow.Key, errs []error) int {
	if len(inPorts) != len(frames) || len(keys) != len(frames) || len(errs) != len(frames) {
		panic("pkt: ExtractBatch slice lengths disagree")
	}
	bad := 0
	for i, f := range frames {
		if extractFast(f, inPorts[i], &keys[i]) {
			errs[i] = nil
			continue
		}
		keys[i], errs[i] = Extract(f, inPorts[i])
		if errs[i] != nil {
			bad++
		}
	}
	return bad
}

// Minimum frame lengths the fast path accepts for the two common L4s,
// untagged and single-VLAN-tagged.
const (
	fastUDPLen     = EthHeaderLen + IPv4HeaderLen + UDPHeaderLen
	fastTCPLen     = EthHeaderLen + IPv4HeaderLen + TCPHeaderLen
	fastVLANUDPLen = fastUDPLen + VLANTagLen
	fastVLANTCPLen = fastTCPLen + VLANTagLen
)

// fastField is a field's precomputed landing spot in a Key: word index and
// left shift. Derived from the flow field registry at init, so the fast
// path stays correct under layout changes; the batch==scalar property and
// fuzz tests pin the equivalence.
type fastField struct {
	w int
	s uint
}

func fastOf(id flow.FieldID) fastField {
	f := flow.FieldByID(id)
	return fastField{w: f.Word, s: uint(64 - f.Off - f.Bits)}
}

var (
	ffInPort   = fastOf(flow.FieldInPort)
	ffEthType  = fastOf(flow.FieldEthType)
	ffEthSrc   = fastOf(flow.FieldEthSrc)
	ffEthDst   = fastOf(flow.FieldEthDst)
	ffVLANTCI  = fastOf(flow.FieldVLANTCI)
	ffIPTOS    = fastOf(flow.FieldIPTOS)
	ffIPProto  = fastOf(flow.FieldIPProto)
	ffIPSrc    = fastOf(flow.FieldIPSrc)
	ffIPDst    = fastOf(flow.FieldIPDst)
	ffTPSrc    = fastOf(flow.FieldTPSrc)
	ffTPDst    = fastOf(flow.FieldTPDst)
	ffTCPFlags = fastOf(flow.FieldTCPFlags)
)

// extractFast decodes the common wire shapes — untagged or single-802.1Q
// IPv4, IHL 5, not a fragment, TCP or UDP — into *k, with a single bounds
// check per layer. It reports false, with *k untouched, for anything it does
// not handle, sending the frame to the full decoder. Otherwise it overwrites
// every word of *k (whatever the caller's scratch held): zeroed once, then
// composed by plain ORs (every field value is already width-exact, so no
// per-field read-modify-write), and the key is exactly what Extract would
// produce.
func extractFast(frame []byte, inPort uint32, k *flow.Key) bool {
	if len(frame) < fastUDPLen {
		return false
	}
	l3, minTCP, tci := EthHeaderLen, fastTCPLen, uint64(0)
	switch be16(frame[12:14]) {
	case EtherTypeIPv4:
	case EtherTypeVLAN:
		if len(frame) < fastVLANUDPLen || be16(frame[16:18]) != EtherTypeIPv4 {
			return false
		}
		tci = uint64(be16(frame[14:16]))
		l3, minTCP = EthHeaderLen+VLANTagLen, fastVLANTCPLen
	default:
		return false
	}
	ip := frame[l3 : l3+IPv4HeaderLen+UDPHeaderLen]
	if ip[0] != 0x45 { // version 4, no options
		return false
	}
	if ip[6]&0x3f != 0 || ip[7] != 0 { // any fragment bits: full decoder
		return false
	}
	proto := ip[9]
	switch proto {
	case ProtoUDP:
	case ProtoTCP:
		if len(frame) < minTCP {
			return false
		}
	default:
		return false
	}
	*k = flow.Key{}
	k[ffVLANTCI.w] |= tci << ffVLANTCI.s
	k[ffInPort.w] |= uint64(inPort) << ffInPort.s
	k[ffEthType.w] |= uint64(EtherTypeIPv4) << ffEthType.s
	k[ffEthDst.w] |= mac48(frame[0:6]) << ffEthDst.s
	k[ffEthSrc.w] |= mac48(frame[6:12]) << ffEthSrc.s
	k[ffIPTOS.w] |= uint64(ip[1]) << ffIPTOS.s
	k[ffIPProto.w] |= uint64(proto) << ffIPProto.s
	k[ffIPSrc.w] |= uint64(be32(ip[12:16])) << ffIPSrc.s
	k[ffIPDst.w] |= uint64(be32(ip[16:20])) << ffIPDst.s
	k[ffTPSrc.w] |= uint64(be16(ip[20:22])) << ffTPSrc.s
	k[ffTPDst.w] |= uint64(be16(ip[22:24])) << ffTPDst.s
	if proto == ProtoTCP {
		k[ffTCPFlags.w] |= uint64(frame[l3+IPv4HeaderLen+13]) << ffTCPFlags.s
	}
	return true
}

func mac48(b []byte) uint64 {
	_ = b[5]
	return uint64(b[0])<<40 | uint64(b[1])<<32 | uint64(b[2])<<24 |
		uint64(b[3])<<16 | uint64(b[4])<<8 | uint64(b[5])
}

func be64bytes(b []byte) uint64 {
	_ = b[7]
	return uint64(b[0])<<56 | uint64(b[1])<<48 | uint64(b[2])<<40 | uint64(b[3])<<32 |
		uint64(b[4])<<24 | uint64(b[5])<<16 | uint64(b[6])<<8 | uint64(b[7])
}
