package pkt

import (
	"errors"
	"fmt"

	"policyinject/internal/flow"
)

// Summary renders a one-line description of a frame for logs and the ovsdos
// tool, e.g. "10.0.0.1:4242 > 10.0.0.2:80 tcp len=1500", from the flow key
// Extract parses: the one frame decoder. A frame Extract cannot parse
// renders as its error, in angle brackets; one it parses only to L3 (an
// unsupported EtherType or IP protocol) renders what it understood.
func Summary(frame []byte) string {
	k, err := Extract(frame, 0)
	if err != nil && !errors.Is(err, ErrUnsupported) {
		return fmt.Sprintf("<%v>", err)
	}
	switch etherType := k.Get(flow.FieldEthType); etherType {
	case EtherTypeIPv4:
		src, dst := flow.V4Addr(k.Get(flow.FieldIPSrc)), flow.V4Addr(k.Get(flow.FieldIPDst))
		proto := uint8(k.Get(flow.FieldIPProto))
		later := k.Get(flow.FieldIPFrag) == 2 // no L4 header to render
		switch {
		case (proto == ProtoTCP || proto == ProtoUDP) && !later:
			name := "tcp"
			if proto == ProtoUDP {
				name = "udp"
			}
			return fmt.Sprintf("%s:%d > %s:%d %s len=%d",
				src, k.Get(flow.FieldTPSrc), dst, k.Get(flow.FieldTPDst), name, len(frame))
		case proto == ProtoICMP:
			return fmt.Sprintf("%s > %s icmp len=%d", src, dst, len(frame))
		default:
			return fmt.Sprintf("%s > %s proto=%d len=%d", src, dst, proto, len(frame))
		}
	case EtherTypeARP:
		return fmt.Sprintf("arp len=%d", len(frame))
	case EtherTypeIPv6:
		return fmt.Sprintf("ipv6 len=%d", len(frame))
	default:
		return fmt.Sprintf("ethertype=%#04x len=%d", etherType, len(frame))
	}
}

func (m MAC) String() string {
	return fmt.Sprintf("%02x:%02x:%02x:%02x:%02x:%02x", m[0], m[1], m[2], m[3], m[4], m[5])
}
