package pkt

import (
	"errors"
	"math/rand"
	"net/netip"
	"strings"
	"testing"

	"policyinject/internal/flow"
)

func tcpSpec() Spec {
	return Spec{
		Src:      netip.MustParseAddr("10.0.0.1"),
		Dst:      netip.MustParseAddr("10.0.0.2"),
		Proto:    ProtoTCP,
		SrcPort:  4242,
		DstPort:  80,
		TCPFlags: TCPSyn | TCPAck,
	}
}

func TestBuildExtractTCP(t *testing.T) {
	f := MustBuild(tcpSpec())
	k, err := Extract(f, 3)
	if err != nil {
		t.Fatal(err)
	}
	checks := []struct {
		field flow.FieldID
		want  uint64
	}{
		{flow.FieldInPort, 3},
		{flow.FieldEthType, flow.EthTypeIPv4},
		{flow.FieldIPProto, flow.ProtoTCP},
		{flow.FieldIPSrc, 0x0a000001},
		{flow.FieldIPDst, 0x0a000002},
		{flow.FieldTPSrc, 4242},
		{flow.FieldTPDst, 80},
		{flow.FieldTCPFlags, TCPSyn | TCPAck},
	}
	for _, c := range checks {
		if got := k.Get(c.field); got != c.want {
			t.Errorf("%s = %#x, want %#x", c.field.Name(), got, c.want)
		}
	}
}

func TestBuildExtractUDP(t *testing.T) {
	s := tcpSpec()
	s.Proto = ProtoUDP
	s.PayloadLen = 100
	f := MustBuild(s)
	k, err := Extract(f, 1)
	if err != nil {
		t.Fatal(err)
	}
	if got := k.Get(flow.FieldIPProto); got != flow.ProtoUDP {
		t.Errorf("proto = %d", got)
	}
	if got := k.Get(flow.FieldTPDst); got != 80 {
		t.Errorf("tp_dst = %d", got)
	}
	if got := k.Get(flow.FieldTCPFlags); got != 0 {
		t.Errorf("tcp_flags must be zero for UDP, got %#x", got)
	}
}

func TestBuildExtractICMP(t *testing.T) {
	s := tcpSpec()
	s.Proto = ProtoICMP
	s.SrcPort, s.DstPort = 8, 0 // echo request
	f := MustBuild(s)
	k, err := Extract(f, 1)
	if err != nil {
		t.Fatal(err)
	}
	if got := k.Get(flow.FieldICMPType); got != 8 {
		t.Errorf("icmp_type = %d", got)
	}
	if got := k.Get(flow.FieldTPSrc); got != 0 {
		t.Errorf("tp_src leaked for ICMP: %d", got)
	}
}

func TestBuildExtractVLAN(t *testing.T) {
	s := tcpSpec()
	s.VLAN = 0x2123 // PCP 1, VID 0x123
	f := MustBuild(s)
	k, err := Extract(f, 1)
	if err != nil {
		t.Fatal(err)
	}
	if got := k.Get(flow.FieldVLANTCI); got != 0x2123 {
		t.Errorf("vlan_tci = %#x", got)
	}
	if got := k.Get(flow.FieldEthType); got != flow.EthTypeIPv4 {
		t.Errorf("eth_type = %#x (must be inner type)", got)
	}
}

func TestBuildExtractIPv6(t *testing.T) {
	s := Spec{
		Src:     netip.MustParseAddr("2001:db8::1"),
		Dst:     netip.MustParseAddr("2001:db8::99"),
		Proto:   ProtoUDP,
		SrcPort: 1000,
		DstPort: 53,
	}
	f := MustBuild(s)
	k, err := Extract(f, 9)
	if err != nil {
		t.Fatal(err)
	}
	if got := k.Get(flow.FieldEthType); got != flow.EthTypeIPv6 {
		t.Errorf("eth_type = %#x", got)
	}
	if got := k.Get(flow.FieldIPv6DstLo); got != 0x99 {
		t.Errorf("ipv6_dst_lo = %#x", got)
	}
	if got := k.Get(flow.FieldTPDst); got != 53 {
		t.Errorf("tp_dst = %d", got)
	}
}

func TestBuildARPExtract(t *testing.T) {
	f := BuildARP(1, MAC{2, 0, 0, 0, 0, 1},
		netip.MustParseAddr("10.0.0.1"), netip.MustParseAddr("10.0.0.2"), MAC{})
	k, err := Extract(f, 1)
	if err != nil {
		t.Fatal(err)
	}
	if got := k.Get(flow.FieldEthType); got != flow.EthTypeARP {
		t.Errorf("eth_type = %#x", got)
	}
	if got := k.Get(flow.FieldARPOp); got != 1 {
		t.Errorf("arp_op = %d", got)
	}
	if got := k.Get(flow.FieldIPSrc); got != 0x0a000001 {
		t.Errorf("arp spa = %#x", got)
	}
}

func TestFrameLenPadding(t *testing.T) {
	s := tcpSpec()
	s.FrameLen = 1500
	f := MustBuild(s)
	if len(f) != 1500 {
		t.Fatalf("frame len = %d", len(f))
	}
	// Padding must not disturb parsing.
	k, err := Extract(f, 1)
	if err != nil {
		t.Fatal(err)
	}
	if got := k.Get(flow.FieldTPDst); got != 80 {
		t.Errorf("tp_dst = %d after padding", got)
	}
}

func TestIPv4HeaderChecksumValid(t *testing.T) {
	f := MustBuild(tcpSpec())
	hdr := f[EthHeaderLen : EthHeaderLen+IPv4HeaderLen]
	if !VerifyIPv4Header(hdr) {
		t.Error("IPv4 header checksum does not verify")
	}
	// Corrupt a byte: verification must fail.
	hdr[8] ^= 0xff
	if VerifyIPv4Header(hdr) {
		t.Error("corrupted header still verifies")
	}
}

func TestTCPChecksumValid(t *testing.T) {
	ip := MustBuild(tcpSpec())[EthHeaderLen:]
	if got := PseudoChecksum(ip[12:16], ip[16:20], ProtoTCP, ip[IPv4HeaderLen:]); got != 0 {
		t.Errorf("TCP segment does not checksum to zero: %#x", got)
	}
}

func TestUDPChecksumValid(t *testing.T) {
	s := tcpSpec()
	s.Proto = ProtoUDP
	s.PayloadLen = 37 // odd length exercises the trailing-byte path
	ip := MustBuild(s)[EthHeaderLen:]
	if got := PseudoChecksum(ip[12:16], ip[16:20], ProtoUDP, ip[IPv4HeaderLen:]); got != 0 {
		t.Errorf("UDP segment does not checksum to zero: %#x", got)
	}
}

func TestChecksumKnownVector(t *testing.T) {
	// RFC 1071 example: 0001 f203 f4f5 f6f7 -> checksum 0x220d.
	b := []byte{0x00, 0x01, 0xf2, 0x03, 0xf4, 0xf5, 0xf6, 0xf7}
	if got := Checksum(b); got != 0x220d {
		t.Errorf("Checksum = %#04x, want 0x220d", got)
	}
}

func TestExtractTruncated(t *testing.T) {
	f := MustBuild(tcpSpec())
	for _, cut := range []int{0, 5, 13, EthHeaderLen + 3, EthHeaderLen + IPv4HeaderLen + 2} {
		_, err := Extract(f[:cut], 1)
		if !errors.Is(err, ErrTruncated) {
			t.Errorf("cut=%d: err = %v, want ErrTruncated", cut, err)
		}
	}
}

// TestExtractTCPDataOffset: a TCP header whose data offset is below five
// words, or runs past the frame, is cut short, as OVS reads it; an offset
// that fits, options included, is a clean key.
func TestExtractTCPDataOffset(t *testing.T) {
	f := append(MustBuild(tcpSpec()), 0, 0, 0, 0) // room for one option word
	tcp := EthHeaderLen + IPv4HeaderLen
	for _, c := range []struct {
		off, frameLen int
		bad           bool
	}{
		{0, len(f), true},
		{4, len(f), true},
		{15, tcp + TCPHeaderLen, true},
		{6, tcp + TCPHeaderLen, true},
		{5, tcp + TCPHeaderLen, false},
		{6, tcp + TCPHeaderLen + 4, false},
	} {
		g := append([]byte(nil), f[:c.frameLen]...)
		g[tcp+12] = byte(c.off) << 4
		_, err := Extract(g, 1)
		if c.bad != errors.Is(err, ErrTruncated) || !c.bad && err != nil {
			t.Errorf("offset %d on %d bytes: err = %v, want truncated %v", c.off, c.frameLen, err, c.bad)
		}
	}
}

func TestExtractUnsupportedEtherType(t *testing.T) {
	f := MustBuild(tcpSpec())
	f[12], f[13] = 0x88, 0xcc // LLDP
	k, err := Extract(f, 1)
	if !errors.Is(err, ErrUnsupported) {
		t.Fatalf("err = %v", err)
	}
	// L2 fields must still be present.
	if got := k.Get(flow.FieldEthType); got != 0x88cc {
		t.Errorf("eth_type = %#x", got)
	}
}

func TestExtractFragment(t *testing.T) {
	f := MustBuild(tcpSpec())
	// Set fragment offset 100 on the IPv4 header and fix the checksum.
	ip := f[EthHeaderLen:]
	ip[6], ip[7] = 0x00, 100
	put16(ip[10:12], 0)
	put16(ip[10:12], Checksum(ip[:IPv4HeaderLen]))
	k, err := Extract(f, 1)
	if err != nil {
		t.Fatal(err)
	}
	if got := k.Get(flow.FieldIPFrag); got != 2 {
		t.Errorf("ip_frag = %d, want 2 (later fragment)", got)
	}
	if got := k.Get(flow.FieldTPDst); got != 0 {
		t.Errorf("L4 parsed inside a later fragment: tp_dst=%d", got)
	}
}

func TestExtractBadVersion(t *testing.T) {
	f := MustBuild(tcpSpec())
	f[EthHeaderLen] = 0x65 // version 6 inside an 0x0800 frame
	if _, err := Extract(f, 1); !errors.Is(err, ErrBadVersion) {
		t.Errorf("err = %v", err)
	}
}

func TestExtractBadIHL(t *testing.T) {
	f := MustBuild(tcpSpec())
	f[EthHeaderLen] = 0x42 // IHL 2 words
	if _, err := Extract(f, 1); !errors.Is(err, ErrBadIHL) {
		t.Errorf("err = %v", err)
	}
}

func TestExtractDoesNotAllocate(t *testing.T) {
	f := MustBuild(tcpSpec())
	n := testing.AllocsPerRun(200, func() {
		if _, err := Extract(f, 1); err != nil {
			t.Fatal(err)
		}
	})
	if n > 0 {
		t.Errorf("Extract allocates %.1f objects per run, want 0", n)
	}
}

func TestBuildErrors(t *testing.T) {
	if _, err := Build(Spec{}); err == nil {
		t.Error("Build with no addresses succeeded")
	}
	if _, err := Build(Spec{
		Src:   netip.MustParseAddr("10.0.0.1"),
		Dst:   netip.MustParseAddr("::1"),
		Proto: ProtoTCP,
	}); err == nil {
		t.Error("Build with mixed families succeeded")
	}
	if _, err := Build(Spec{
		Src:   netip.MustParseAddr("10.0.0.1"),
		Dst:   netip.MustParseAddr("10.0.0.2"),
		Proto: 200,
	}); !errors.Is(err, ErrUnsupported) {
		t.Errorf("unsupported proto: err = %v", err)
	}
}

// TestSummary holds the one-line rendering of each frame shape: the
// 5-tuple with ports for TCP and UDP (VLAN-tagged too), addresses only for
// ICMP and other IP protocols, a tag for ARP, IPv6 and unknown EtherTypes,
// and the parse error, in angle brackets, for a frame cut short.
func TestSummary(t *testing.T) {
	tcp := tcpSpec()
	tcp.FrameLen = 1500
	udp := tcpSpec()
	udp.Proto = ProtoUDP
	vlan := tcpSpec()
	vlan.VLAN = 0x2123
	icmp := Spec{Src: netip.MustParseAddr("1.1.1.1"), Dst: netip.MustParseAddr("2.2.2.2"), Proto: ProtoICMP}
	gre := MustBuild(tcpSpec())
	gre[EthHeaderLen+9] = 47
	v6 := Spec{Src: netip.MustParseAddr("2001:db8::1"), Dst: netip.MustParseAddr("2001:db8::99"), Proto: ProtoUDP, SrcPort: 1000, DstPort: 53}
	lldp := MustBuild(tcpSpec())
	lldp[12], lldp[13] = 0x88, 0xcc
	arp := BuildARP(1, MAC{2, 0, 0, 0, 0, 1}, netip.MustParseAddr("10.0.0.1"), netip.MustParseAddr("10.0.0.2"), MAC{})
	truncated := "<" + ErrTruncated.Error() // the error's detail is the parser's
	cases := []struct {
		name  string
		frame []byte
		want  string
	}{
		{"tcp", MustBuild(tcp), "10.0.0.1:4242 > 10.0.0.2:80 tcp len=1500"},
		{"udp", MustBuild(udp), "10.0.0.1:4242 > 10.0.0.2:80 udp len=42"},
		{"icmp", MustBuild(icmp), "1.1.1.1 > 2.2.2.2 icmp len=42"},
		{"other ip proto", gre, "10.0.0.1 > 10.0.0.2 proto=47 len=54"},
		{"vlan tcp", MustBuild(vlan), "10.0.0.1:4242 > 10.0.0.2:80 tcp len=58"},
		{"arp", arp, "arp len=42"},
		{"ipv6", MustBuild(v6), "ipv6 len=62"},
		{"unknown ethertype", lldp, "ethertype=0x88cc len=54"},
		{"truncated ethernet", lldp[:5], truncated},
		{"truncated tcp", MustBuild(tcpSpec())[:EthHeaderLen+IPv4HeaderLen+2], truncated},
	}
	for _, c := range cases {
		got := Summary(c.frame)
		if c.want == truncated {
			if !strings.HasPrefix(got, truncated) || !strings.HasSuffix(got, ">") {
				t.Errorf("%s: Summary = %q, want %q...>", c.name, got, truncated)
			}
			continue
		}
		if got != c.want {
			t.Errorf("%s: Summary = %q, want %q", c.name, got, c.want)
		}
	}
}

// Fuzz-style robustness: Extract must never panic on arbitrary bytes.
func TestExtractNeverPanics(t *testing.T) {
	rng := rand.New(rand.NewSource(99))
	base := MustBuild(tcpSpec())
	for trial := 0; trial < 20000; trial++ {
		var b []byte
		if trial%2 == 0 {
			b = make([]byte, rng.Intn(80))
			rng.Read(b)
		} else {
			b = append([]byte(nil), base...)
			for i := 0; i < 4; i++ {
				b[rng.Intn(len(b))] ^= byte(rng.Intn(256))
			}
			b = b[:rng.Intn(len(b)+1)]
		}
		Extract(b, 1) // must not panic; errors are fine
	}
}

func TestRoundTripRandomSpecs(t *testing.T) {
	rng := rand.New(rand.NewSource(2024))
	protos := []uint8{ProtoTCP, ProtoUDP, ProtoICMP}
	for trial := 0; trial < 1000; trial++ {
		s := Spec{
			Src:     netip.AddrFrom4([4]byte{10, byte(rng.Intn(256)), byte(rng.Intn(256)), byte(rng.Intn(256))}),
			Dst:     netip.AddrFrom4([4]byte{192, 168, byte(rng.Intn(256)), byte(rng.Intn(256))}),
			Proto:   protos[rng.Intn(len(protos))],
			TOS:     uint8(rng.Intn(256)),
			SrcPort: uint16(rng.Intn(65536)),
			DstPort: uint16(rng.Intn(65536)),
		}
		if s.Proto == ProtoICMP {
			s.SrcPort &= 0xff
			s.DstPort &= 0xff
		}
		k, err := Extract(MustBuild(s), 1)
		if err != nil {
			t.Fatalf("trial %d: %v", trial, err)
		}
		if got := k.Get(flow.FieldIPSrc); got != uint64(flow.V4(s.Src)) {
			t.Fatalf("trial %d: ip_src %#x", trial, got)
		}
		if got := k.Get(flow.FieldIPTOS); got != uint64(s.TOS) {
			t.Fatalf("trial %d: tos %#x want %#x", trial, got, s.TOS)
		}
		switch s.Proto {
		case ProtoTCP, ProtoUDP:
			if got := k.Get(flow.FieldTPSrc); got != uint64(s.SrcPort) {
				t.Fatalf("trial %d: tp_src %d", trial, got)
			}
		case ProtoICMP:
			if got := k.Get(flow.FieldICMPType); got != uint64(s.SrcPort) {
				t.Fatalf("trial %d: icmp_type %d", trial, got)
			}
		}
	}
}
