package pkt

import (
	"bytes"
	"net/netip"
	"testing"

	"policyinject/internal/flow"
)

// corpusFrames builds the wire-shape corpus the batch-equivalence tests
// sweep: every L3/L4 combination the builder produces, ARP, VLAN tags,
// fragments, unsupported protocols, and every truncation prefix of a
// known-good frame — the shapes that exercise both the fast path and
// every fallback branch of ExtractBatch.
func corpusFrames(t testing.TB) [][]byte {
	t.Helper()
	v4a, v4b := netip.MustParseAddr("10.0.0.1"), netip.MustParseAddr("172.16.0.2")
	v6a, v6b := netip.MustParseAddr("2001:db8::1"), netip.MustParseAddr("2001:db8::2")
	frames := [][]byte{
		MustBuild(Spec{Src: v4a, Dst: v4b, Proto: ProtoTCP, SrcPort: 40000, DstPort: 443}),
		MustBuild(Spec{Src: v4a, Dst: v4b, Proto: ProtoTCP, SrcPort: 1, DstPort: 2, FrameLen: 1514, TCPFlags: TCPAck}),
		MustBuild(Spec{Src: v4a, Dst: v4b, Proto: ProtoUDP, SrcPort: 53, DstPort: 53}),
		MustBuild(Spec{Src: v4a, Dst: v4b, Proto: ProtoICMP, SrcPort: 8, DstPort: 0}),
		MustBuild(Spec{Src: v4a, Dst: v4b, Proto: ProtoTCP, SrcPort: 7, DstPort: 7, VLAN: 0x2042}),
		MustBuild(Spec{Src: v6a, Dst: v6b, Proto: ProtoTCP, SrcPort: 9, DstPort: 10}),
		MustBuild(Spec{Src: v6a, Dst: v6b, Proto: ProtoUDP, SrcPort: 11, DstPort: 12, VLAN: 5}),
		MustBuild(Spec{Src: v6a, Dst: v6b, Proto: ProtoICMPv6, SrcPort: 128, DstPort: 0}),
		MustBuild(Spec{Src: v4a, Dst: v4b, Proto: ProtoTCP, SrcPort: 3, DstPort: 4, TOS: 0xb8}),
		BuildARP(1, MAC{2, 0, 0, 0, 0, 1}, v4a, v4b, MAC{}),
		BuildARP(2, MAC{2, 0, 0, 0, 0, 1}, v4a, v4b, MAC{2, 0, 0, 0, 0, 2}),
		{}, // empty frame
	}
	// Unsupported EtherType and IP protocol.
	weird := MustBuild(Spec{Src: v4a, Dst: v4b, Proto: ProtoTCP, SrcPort: 1, DstPort: 2})
	badEth := append([]byte(nil), weird...)
	badEth[12], badEth[13] = 0x88, 0xcc // LLDP
	frames = append(frames, badEth)
	badProto := append([]byte(nil), weird...)
	badProto[EthHeaderLen+9] = 132 // SCTP
	frames = append(frames, badProto)
	// IPv4 options (IHL 6): fast path must fall back, scalar must agree.
	opts := append([]byte(nil), weird...)
	opts[EthHeaderLen] = 0x46
	frames = append(frames, opts)
	// Fragments: later fragment (offset != 0) and first fragment (MF set).
	later := append([]byte(nil), weird...)
	later[EthHeaderLen+6] = 0x00
	later[EthHeaderLen+7] = 0x10
	frames = append(frames, later)
	first := append([]byte(nil), weird...)
	first[EthHeaderLen+6] = 0x20
	frames = append(frames, first)
	// DF bit set: still the fast-path shape.
	df := append([]byte(nil), weird...)
	df[EthHeaderLen+6] = 0x40
	frames = append(frames, df)
	// Single-VLAN IPv4 shapes: the tagged fast path (UDP and TCP, zero and
	// non-zero TCI), plus its fallbacks — tagged fragment, tagged IPv4
	// options, and a QinQ outer tag (inner EtherType is VLAN again).
	vlanUDP := MustBuild(Spec{Src: v4a, Dst: v4b, Proto: ProtoUDP, SrcPort: 67, DstPort: 68, VLAN: 100})
	vlanTCP := MustBuild(Spec{Src: v4a, Dst: v4b, Proto: ProtoTCP, SrcPort: 80, DstPort: 8080, VLAN: 0x0fff, TCPFlags: TCPAck, TOS: 4})
	frames = append(frames, vlanUDP, vlanTCP)
	vlanFrag := append([]byte(nil), vlanTCP...)
	vlanFrag[EthHeaderLen+VLANTagLen+6] = 0x20
	frames = append(frames, vlanFrag)
	vlanOpts := append([]byte(nil), vlanTCP...)
	vlanOpts[EthHeaderLen+VLANTagLen] = 0x46
	frames = append(frames, vlanOpts)
	qinq := append([]byte(nil), vlanTCP...)
	qinq[16], qinq[17] = 0x81, 0x00
	frames = append(frames, qinq)
	// TCP data offsets the decoders must refuse, untagged and tagged: below
	// five words (0 and 4), and 15 words on a frame that ends after the
	// 20-byte header.
	for _, f := range [][]byte{weird, vlanTCP} {
		tcp := len(f) - len(weird) + EthHeaderLen + IPv4HeaderLen
		for _, off := range []byte{0, 4} {
			bad := append([]byte(nil), f...)
			bad[tcp+12] = off << 4
			frames = append(frames, bad)
		}
		long := append([]byte(nil), f[:tcp+TCPHeaderLen]...)
		long[tcp+12] = 15 << 4
		frames = append(frames, long)
	}
	// Every truncation prefix of a TCP frame, untagged and tagged.
	for n := 0; n < len(weird); n += 3 {
		frames = append(frames, weird[:n])
	}
	for n := 0; n < len(vlanTCP); n += 3 {
		frames = append(frames, vlanTCP[:n])
	}
	// Round-trip the whole corpus through the pcap writer/reader: the
	// capture path must deliver bit-identical frames into the batch.
	var buf bytes.Buffer
	if err := WritePcap(&buf, frames, 10); err != nil {
		t.Fatalf("WritePcap: %v", err)
	}
	rt, err := ReadPcap(&buf)
	if err != nil {
		t.Fatalf("ReadPcap: %v", err)
	}
	return append(frames, rt...)
}

// checkBatchEqualsScalar pins the ExtractBatch contract: identical keys
// and identical errors (same nil-ness, same message) to a frame-by-frame
// Extract loop, plus a correct malformed-frame count. Keys are composed in
// place, so the scratch goes in dirty — every key bit set, every error slot
// taken, as a reused FrameBatch leaves them — and must come out as if zeroed:
// a decoder that ORs into what it finds, on the fast path or after leaving
// it part-way, fails here. Both forms run: ExtractBatch, and ExtractHashBatch
// into a hash scratch of all ones, whose every slot — fast path, fallback
// and malformed frame alike — must come out as the scalar key's Hash.
func checkBatchEqualsScalar(t testing.TB, frames [][]byte, inPorts []uint32) {
	t.Helper()
	for _, hashed := range []bool{false, true} {
		keys := make([]flow.Key, len(frames))
		errs := make([]error, len(frames))
		var hashes []uint64
		if hashed {
			hashes = make([]uint64, len(frames))
		}
		for i := range keys {
			keys[i] = flow.Key(flow.ExactMask)
			errs[i] = ErrTruncated
			if hashed {
				hashes[i] = ^uint64(0)
			}
		}
		var bad int
		if hashed {
			bad = ExtractHashBatch(frames, inPorts, keys, hashes, errs)
		} else {
			bad = ExtractBatch(frames, inPorts, keys, errs)
		}
		wantBad := 0
		for i, f := range frames {
			wantK, wantErr := Extract(f, inPorts[i])
			if wantErr != nil {
				wantBad++
			}
			if keys[i] != wantK {
				t.Fatalf("hashed=%v frame %d (%d bytes): batch key %v != scalar key %v", hashed, i, len(f), keys[i], wantK)
			}
			if (errs[i] == nil) != (wantErr == nil) {
				t.Fatalf("hashed=%v frame %d: batch err %v, scalar err %v", hashed, i, errs[i], wantErr)
			}
			if errs[i] != nil && errs[i].Error() != wantErr.Error() {
				t.Fatalf("hashed=%v frame %d: batch err %q != scalar err %q", hashed, i, errs[i], wantErr)
			}
			if hashed && hashes[i] != wantK.Hash() {
				t.Fatalf("frame %d (%d bytes, err %v): batch hash %#x != Key.Hash %#x", i, len(f), wantErr, hashes[i], wantK.Hash())
			}
		}
		if bad != wantBad {
			t.Fatalf("hashed=%v: %d malformed frames reported, scalar loop found %d", hashed, bad, wantBad)
		}
	}
}

// TestExtractBatchEqualsScalarLoop is the batch==scalar property over the
// built-frame and pcap corpus, with varied in-ports.
func TestExtractBatchEqualsScalarLoop(t *testing.T) {
	frames := corpusFrames(t)
	inPorts := make([]uint32, len(frames))
	for i := range inPorts {
		inPorts[i] = uint32(i % 7)
	}
	checkBatchEqualsScalar(t, frames, inPorts)
}

// TestExtractBatchCountsMalformed pins the per-frame error policy: a
// malformed frame fills its own error slot and the others still decode.
func TestExtractBatchCountsMalformed(t *testing.T) {
	good := MustBuild(Spec{
		Src: netip.MustParseAddr("10.0.0.1"), Dst: netip.MustParseAddr("10.0.0.2"),
		Proto: ProtoTCP, SrcPort: 1, DstPort: 2,
	})
	frames := [][]byte{good, good[:10], good}
	keys := make([]flow.Key, 3)
	errs := make([]error, 3)
	if bad := ExtractBatch(frames, []uint32{1, 1, 1}, keys, errs); bad != 1 {
		t.Fatalf("bad = %d, want 1", bad)
	}
	if errs[0] != nil || errs[2] != nil || errs[1] == nil {
		t.Fatalf("error slots: %v", errs)
	}
	if keys[0] != keys[2] {
		t.Fatal("identical frames decoded to different keys")
	}
}

// TestExtractBatchPanicsOnLengthMismatch pins the no-silent-truncation
// contract: a short key slice, or a non-nil hash slice shorter than the
// burst.
func TestExtractBatchPanicsOnLengthMismatch(t *testing.T) {
	for name, extract := range map[string]func(){
		"keys": func() {
			ExtractBatch(make([][]byte, 2), make([]uint32, 2), make([]flow.Key, 1), make([]error, 2))
		},
		"hashes": func() {
			ExtractHashBatch(make([][]byte, 2), make([]uint32, 2), make([]flow.Key, 2), make([]uint64, 1), make([]error, 2))
		},
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("mismatched %s length did not panic", name)
				}
			}()
			extract()
		}()
	}
}
