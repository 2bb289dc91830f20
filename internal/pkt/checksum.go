package pkt

// Checksum computes the RFC 1071 Internet checksum of b: the one's
// complement of the one's-complement sum of 16-bit words, with an odd
// trailing byte padded with zero.
func Checksum(b []byte) uint16 {
	return finish(sum1c(b, 0))
}

// PseudoChecksum computes a transport checksum over the IPv4 or IPv6
// pseudo-header (per RFC 793 / RFC 2460 §8.1) followed by the transport
// segment. src and dst are the raw address bytes (4 or 16 each).
func PseudoChecksum(src, dst []byte, proto uint8, segment []byte) uint16 {
	var s uint32
	s = sum1c(src, s)
	s = sum1c(dst, s)
	s += uint32(proto)
	s += uint32(len(segment))
	s = sum1c(segment, s)
	return finish(s)
}

func sum1c(b []byte, acc uint32) uint32 {
	for len(b) >= 2 {
		acc += uint32(b[0])<<8 | uint32(b[1])
		b = b[2:]
	}
	if len(b) == 1 {
		acc += uint32(b[0]) << 8
	}
	return acc
}

func finish(s uint32) uint16 {
	for s>>16 != 0 {
		s = s&0xffff + s>>16
	}
	return ^uint16(s)
}
