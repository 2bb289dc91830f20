package pkt

import (
	"crypto/sha256"
	"flag"
	"fmt"
	"net/netip"
	"os"
	"strings"
	"testing"

	"policyinject/internal/flow"
)

var update = flag.Bool("update", false, "rewrite testdata/build.golden")

// buildCase is one spec of the golden set.
type buildCase struct {
	name string
	spec Spec
}

// buildCases returns every protocol × address family × VLAN tag × FrameLen
// (none, one below the built frame, the minimum frame, an MTU frame) ×
// payload (none, PayloadLen zeros, explicit bytes of odd length) × header
// fields (all defaulted, all set) combination.
func buildCases() []buildCase {
	var cases []buildCase
	families := []struct {
		name     string
		src, dst netip.Addr
	}{
		{"v4", netip.MustParseAddr("10.0.0.1"), netip.MustParseAddr("192.168.7.9")},
		{"v6", netip.MustParseAddr("2001:db8::1"), netip.MustParseAddr("2001:db8:ffff::abcd")},
	}
	protos := []struct {
		name  string
		proto uint8
	}{{"tcp", ProtoTCP}, {"udp", ProtoUDP}, {"icmp", ProtoICMP}, {"icmpv6", ProtoICMPv6}}
	payloads := []struct {
		name    string
		n       int
		payload []byte
	}{{"bare", 0, nil}, {"zeros37", 37, nil}, {"bytes11", 0, []byte("covert data")}}
	for _, fam := range families {
		for _, p := range protos {
			for _, vlan := range []uint16{0, 0x2123} {
				for _, frameLen := range []int{0, 40, 64, 1514} {
					for _, pl := range payloads {
						for _, set := range []bool{false, true} {
							s := Spec{
								VLAN: vlan, Src: fam.src, Dst: fam.dst, Proto: p.proto,
								SrcPort: 40000, DstPort: 53211,
								PayloadLen: pl.n, Payload: pl.payload, FrameLen: frameLen,
							}
							if set {
								s.SrcMAC = MAC{0x0a, 1, 2, 3, 4, 5}
								s.DstMAC = MAC{0x0e, 6, 7, 8, 9, 0xa}
								s.TOS, s.TTL, s.TCPFlags, s.Seq = 0xb8, 3, TCPAck|TCPFin, 0xdeadbeef
							}
							name := fmt.Sprintf("%s/%s/vlan%#x/len%d/%s/set=%v", fam.name, p.name, vlan, frameLen, pl.name, set)
							cases = append(cases, buildCase{name, s})
						}
					}
				}
			}
		}
	}
	return cases
}

// TestBuildGolden holds Build's frames, byte for byte, to testdata/build.golden:
// one line per buildCases combination, its frame's length and SHA-256. The
// file was written by the builder that assembled each header in an allocation
// of its own; `go test ./internal/pkt -run BuildGolden -update` rewrites it,
// only when a frame is meant to change.
func TestBuildGolden(t *testing.T) {
	var b strings.Builder
	for _, c := range buildCases() {
		f, err := Build(c.spec)
		if err != nil {
			t.Fatalf("%s: %v", c.name, err)
		}
		fmt.Fprintf(&b, "%s %d %x\n", c.name, len(f), sha256.Sum256(f))
	}
	const path = "testdata/build.golden"
	if *update {
		if err := os.WriteFile(path, []byte(b.String()), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	got, wantLines := strings.Split(b.String(), "\n"), strings.Split(string(want), "\n")
	if len(got) != len(wantLines) {
		t.Fatalf("%d frames built, %d in %s", len(got)-1, len(wantLines)-1, path)
	}
	for i := range got {
		if got[i] != wantLines[i] {
			t.Errorf("frame %d: built %q, golden %q", i, got[i], wantLines[i])
		}
	}
}

// TestBuildAllocatesOnce holds Build to one allocation a frame, the frame,
// over the golden set's specs.
func TestBuildAllocatesOnce(t *testing.T) {
	for _, c := range buildCases() {
		if n := testing.AllocsPerRun(20, func() { MustBuild(c.spec) }); n != 1 {
			t.Errorf("%s: Build allocates %.1f objects a frame, want 1", c.name, n)
		}
	}
}

// TestBuildTupleRoundTrips: a rendered tuple re-extracts to the key the
// tuple builds on the same port, but for the L2 and TCP-flag fields the
// builder fills in; a protocol Build does not speak is refused.
func TestBuildTupleRoundTrips(t *testing.T) {
	for _, tup := range []flow.FiveTuple{
		{Src: netip.MustParseAddr("10.0.0.1"), Dst: netip.MustParseAddr("172.16.0.2"), Proto: ProtoTCP, SrcPort: 40000, DstPort: 80},
		{Src: netip.MustParseAddr("10.0.0.1"), Dst: netip.MustParseAddr("172.16.0.2"), Proto: ProtoUDP, SrcPort: 53, DstPort: 5353},
		{Src: netip.MustParseAddr("2001:db8::1"), Dst: netip.MustParseAddr("2001:db8::2"), Proto: ProtoTCP, SrcPort: 1, DstPort: 443},
	} {
		frame, err := BuildTuple(tup, 256)
		if err != nil {
			t.Fatalf("%+v: %v", tup, err)
		}
		if len(frame) != 256 {
			t.Errorf("%+v: %d-byte frame, want 256", tup, len(frame))
		}
		k, err := Extract(frame, 7)
		if err != nil {
			t.Fatalf("%+v: %v", tup, err)
		}
		if got := k.Tuple(); got != tup {
			t.Errorf("re-extracted tuple %+v, want %+v", got, tup)
		}
		for _, f := range []flow.FieldID{flow.FieldEthSrc, flow.FieldEthDst, flow.FieldTCPFlags} {
			k.Set(f, 0)
		}
		if want := tup.Key(7); k != want {
			t.Errorf("re-extracted key %v, want %v", k, want)
		}
	}
	if _, err := BuildTuple(flow.FiveTuple{Src: netip.MustParseAddr("10.0.0.1"), Dst: netip.MustParseAddr("10.0.0.2")}, 0); err == nil {
		t.Error("proto 0 rendered")
	}
}
