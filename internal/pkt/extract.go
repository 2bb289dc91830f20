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
// the extract hot/cold boundary: its error paths may allocate. A header
// cut short past the Ethernet header is the exception: its error has fixed
// text, made once below, so a burst carrying such a frame allocates nothing.
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
			return k, errTruncVLAN
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

var (
	errTruncVLAN = fmt.Errorf("%w: VLAN tag", ErrTruncated)
	errTruncARP  = fmt.Errorf("%w: ARP", ErrTruncated)
	errTruncIPv4 = fmt.Errorf("%w: IPv4 header", ErrTruncated)
	errTruncIPv6 = fmt.Errorf("%w: IPv6 header", ErrTruncated)
	errTruncTCP  = fmt.Errorf("%w: TCP header", ErrTruncated)
	errTruncUDP  = fmt.Errorf("%w: UDP header", ErrTruncated)
	errTruncICMP = fmt.Errorf("%w: ICMP header", ErrTruncated)
)

func extractARP(b []byte, k flow.Key) (flow.Key, error) {
	if len(b) < ARPLen {
		return k, errTruncARP
	}
	k.Set(flow.FieldARPOp, uint64(be16(b[6:8])))
	// ARP SPA/TPA ride in the IPv4 address fields, as in the OVS flow key.
	k.Set(flow.FieldIPSrc, uint64(be32(b[14:18])))
	k.Set(flow.FieldIPDst, uint64(be32(b[24:28])))
	return k, nil
}

func extractIPv4(b []byte, k flow.Key) (flow.Key, error) {
	if len(b) < IPv4HeaderLen {
		return k, errTruncIPv4
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
		return k, errTruncIPv6
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
			return k, errTruncTCP
		}
		// Below five words or past the frame: as miniflow_extract, no L4 key.
		if off := int(b[12]>>4) * 4; off < TCPHeaderLen || len(b) < off {
			return k, errTruncTCP
		}
		k.Set(flow.FieldTPSrc, uint64(be16(b[0:2])))
		k.Set(flow.FieldTPDst, uint64(be16(b[2:4])))
		k.Set(flow.FieldTCPFlags, uint64(b[13]))
		return k, nil
	case ProtoUDP:
		if len(b) < UDPHeaderLen {
			return k, errTruncUDP
		}
		k.Set(flow.FieldTPSrc, uint64(be16(b[0:2])))
		k.Set(flow.FieldTPDst, uint64(be16(b[2:4])))
		return k, nil
	case ProtoICMP, ProtoICMPv6:
		if len(b) < 4 {
			return k, errTruncICMP
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
// is the number of malformed frames (non-nil errs entries). Keys are written
// in place — on the fast path each key is composed in registers and stored
// once, never returned or copied — and keys may hold anything on entry:
// every word of every keys[i] is overwritten.
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
	return ExtractHashBatch(frames, inPorts, keys, nil, errs)
}

// ExtractHashBatch is ExtractBatch that also writes keys[i].Hash() into
// hashes[i], in the same pass: a fast-path key word is folded into the hash
// while it is still in a register, so the key is never read back. A
// fallback frame, malformed or not, is hashed from its stored key. hashes
// may be nil, which hashes nothing; otherwise it must have len(frames).
//
//lint:hotpath
func ExtractHashBatch(frames [][]byte, inPorts []uint32, keys []flow.Key, hashes []uint64, errs []error) int {
	if len(inPorts) != len(frames) || len(keys) != len(frames) || len(errs) != len(frames) ||
		(hashes != nil && len(hashes) != len(frames)) {
		panic("pkt: ExtractBatch slice lengths disagree")
	}
	bad := 0
	for i, f := range frames {
		if w0, w1, w2, w3, w4, ok := extractFast(f, inPorts[i]); ok {
			// Word by word, not as a composite literal: the compiler builds
			// a literal in a stack temporary and copies it over in 16-byte
			// moves, whose loads straddle the 8-byte stores just made.
			k := &keys[i]
			k[0], k[1], k[2], k[3], k[4] = w0, w1, w2, w3, w4
			k[5], k[6], k[7], k[8], k[9] = 0, 0, 0, 0, 0
			errs[i] = nil
			if hashes != nil {
				h := flow.MixWord(flow.StageHashSeed, w0)
				h = flow.MixWord(h, w1)
				h = flow.MixWord(h, w2)
				h = flow.MixWord(h, w3)
				h = flow.MixWord(h, w4)
				for range flow.Words - 5 { // words 5-9 are zero
					h = flow.MixWord(h, 0)
				}
				hashes[i] = flow.HashFinish(h)
			}
			continue
		}
		keys[i], errs[i] = Extract(f, inPorts[i])
		if errs[i] != nil {
			bad++
		}
		if hashes != nil {
			hashes[i] = keys[i].Hash()
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

// extractFast decodes the common wire shapes — untagged or single-802.1Q
// IPv4, IHL 5, not a fragment, UDP or TCP with a data offset that fits the
// frame — with a single bounds check per layer, and returns the key's five
// leading words; the other five are zero, and the key is exactly what
// Extract would produce. It reports false for anything it does not handle,
// sending the frame to the full decoder.
//
// Each word is composed whole from big-endian loads, by the Words layout
// (flow/field.go): word 1 takes eth_src from frame[6:12] as the low six
// bytes of frame[4:12], word 2 takes eth_dst as the high six of frame[0:8]
// and word 3 is ip_src and ip_dst as one load. The layout is written here,
// not read from the field registry; the batch==scalar property and fuzz
// tests pin it against the registry through Extract.
func extractFast(frame []byte, inPort uint32) (w0, w1, w2, w3, w4 uint64, ok bool) {
	if len(frame) < fastUDPLen {
		return
	}
	l3, minTCP, tci := EthHeaderLen, fastTCPLen, uint64(0)
	switch be16(frame[12:14]) {
	case EtherTypeIPv4:
	case EtherTypeVLAN:
		if len(frame) < fastVLANUDPLen || be16(frame[16:18]) != EtherTypeIPv4 {
			return
		}
		tci = uint64(be16(frame[14:16]))
		l3, minTCP = EthHeaderLen+VLANTagLen, fastVLANTCPLen
	default:
		return
	}
	ip := frame[l3 : l3+IPv4HeaderLen+UDPHeaderLen]
	if ip[0] != 0x45 { // version 4, no options
		return
	}
	if ip[6]&0x3f != 0 || ip[7] != 0 { // any fragment bits: full decoder
		return
	}
	proto, flags := ip[9], uint64(0)
	switch proto {
	case ProtoUDP:
	case ProtoTCP:
		if len(frame) < minTCP {
			return
		}
		tcp := l3 + IPv4HeaderLen
		if off := int(frame[tcp+12]>>4) * 4; off < TCPHeaderLen || len(frame) < tcp+off {
			return // a bad data offset: the full decoder refuses it
		}
		flags = uint64(frame[tcp+13])
	default:
		return
	}
	w0 = uint64(inPort)<<32 | EtherTypeIPv4<<16 | tci
	w1 = be64bytes(frame[4:12])<<16 | uint64(proto)<<8 | uint64(ip[1])
	w2 = be64bytes(frame[0:8])&^0xffff | flags<<8
	w3 = be64bytes(ip[12:20])
	w4 = uint64(be32(ip[20:24])) << 32
	return w0, w1, w2, w3, w4, true
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
