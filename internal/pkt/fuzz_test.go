package pkt

import (
	"bytes"
	"net/netip"
	"testing"

	"policyinject/internal/flow"
)

// Go-native fuzz targets. Under plain `go test` the seed corpus runs as
// regression tests; `go test -fuzz=FuzzExtract ./internal/pkt` explores.

// FuzzExtract: the frame parser must never panic and must never read past
// its input, whatever bytes arrive from the wire.
func FuzzExtract(f *testing.F) {
	f.Add([]byte{})
	f.Add(MustBuild(Spec{
		Src: netip.MustParseAddr("10.0.0.1"), Dst: netip.MustParseAddr("10.0.0.2"),
		Proto: ProtoTCP, SrcPort: 1, DstPort: 2,
	}))
	f.Add(MustBuild(Spec{
		Src: netip.MustParseAddr("2001:db8::1"), Dst: netip.MustParseAddr("2001:db8::2"),
		Proto: ProtoUDP, SrcPort: 53, DstPort: 53,
	}))
	f.Add(MustBuild(Spec{
		Src: netip.MustParseAddr("10.0.0.1"), Dst: netip.MustParseAddr("10.0.0.2"),
		Proto: ProtoICMP, VLAN: 0x2001,
	}))
	f.Add(BuildARP(1, MAC{2, 0, 0, 0, 0, 1},
		netip.MustParseAddr("10.0.0.1"), netip.MustParseAddr("10.0.0.2"), MAC{}))
	f.Fuzz(func(t *testing.T, frame []byte) {
		k, err := Extract(frame, 7)
		if err == nil {
			// Successful parses must at least carry the in_port and a
			// known EtherType.
			if got := k.Get(flow.FieldInPort); got != 7 {
				t.Fatalf("in_port = %d", got)
			}
		}
	})
}

// FuzzExtractBatch: whatever two frames arrive from the wire, the burst
// decoder must agree bit-for-bit with a scalar Extract loop — same keys,
// same errors — including the fast-path/fallback boundary the split
// across two frames probes.
func FuzzExtractBatch(f *testing.F) {
	tcp := MustBuild(Spec{
		Src: netip.MustParseAddr("10.0.0.1"), Dst: netip.MustParseAddr("10.0.0.2"),
		Proto: ProtoTCP, SrcPort: 1, DstPort: 2,
	})
	udp := MustBuild(Spec{
		Src: netip.MustParseAddr("10.0.0.1"), Dst: netip.MustParseAddr("10.0.0.2"),
		Proto: ProtoUDP, SrcPort: 53, DstPort: 53,
	})
	f.Add([]byte{}, []byte{})
	f.Add(tcp, udp)
	f.Add(tcp[:20], tcp)
	f.Add(udp, MustBuild(Spec{
		Src: netip.MustParseAddr("2001:db8::1"), Dst: netip.MustParseAddr("2001:db8::2"),
		Proto: ProtoICMPv6, SrcPort: 128,
	}))
	// A tagged frame the fast path gives up on after reading the TCI (IPv4
	// options): the full decoder must overwrite the dirty key, tag included.
	vlanOpts := MustBuild(Spec{
		Src: netip.MustParseAddr("10.0.0.1"), Dst: netip.MustParseAddr("10.0.0.2"),
		Proto: ProtoTCP, SrcPort: 80, DstPort: 8080, VLAN: 0x0fff,
	})
	vlanOpts[EthHeaderLen+VLANTagLen] = 0x46
	f.Add(vlanOpts, tcp)
	f.Fuzz(func(t *testing.T, a, b []byte) {
		checkBatchEqualsScalar(t, [][]byte{a, b}, []uint32{3, 9})
	})
}

// FuzzPcapRead: the capture parser must never panic and, for files our own
// writer produced, must round-trip exactly.
func FuzzPcapRead(f *testing.F) {
	var buf bytes.Buffer
	WritePcap(&buf, [][]byte{
		MustBuild(Spec{
			Src: netip.MustParseAddr("10.0.0.1"), Dst: netip.MustParseAddr("10.0.0.2"),
			Proto: ProtoTCP, SrcPort: 1, DstPort: 2,
		}),
	}, 100)
	f.Add(buf.Bytes())
	f.Add([]byte{})
	f.Add(make([]byte, 24))
	f.Fuzz(func(t *testing.T, data []byte) {
		frames, err := ReadPcap(bytes.NewReader(data))
		if err != nil {
			return
		}
		// Whatever parsed must re-serialise and re-parse identically.
		var out bytes.Buffer
		if err := WritePcap(&out, frames, 1); err != nil {
			t.Fatalf("re-write failed: %v", err)
		}
		again, err := ReadPcap(&out)
		if err != nil {
			t.Fatalf("re-read failed: %v", err)
		}
		if len(again) != len(frames) {
			t.Fatalf("round trip changed frame count %d -> %d", len(frames), len(again))
		}
	})
}
