package traffic

import (
	"bytes"
	"net/netip"
	"testing"

	"policyinject/internal/flow"
	"policyinject/internal/pkt"
)

// extractBack parses a generated frame back into a key, failing the test
// on a parse error — generator frames must always be well-formed.
func extractBack(t *testing.T, frame []byte, inPort uint32) flow.Key {
	t.Helper()
	k, err := pkt.Extract(frame, inPort)
	if err != nil {
		t.Fatalf("generator emitted unparseable frame: %v", err)
	}
	return k
}

// sameTuple fails unless the frame-extracted key carries exactly the
// generator key's five-tuple and in-port (the frame adds L2 fields the
// generator's keys leave zero; the classifier-relevant fields must agree).
func sameTuple(t *testing.T, want flow.Key, frame []byte, inPort uint32) {
	t.Helper()
	got := extractBack(t, frame, inPort)
	if got.Tuple() != want.Tuple() {
		t.Fatalf("frame tuple %+v != key tuple %+v", got.Tuple(), want.Tuple())
	}
	if got.Get(flow.FieldInPort) != want.Get(flow.FieldInPort) {
		t.Fatalf("in_port %d != %d", got.Get(flow.FieldInPort), want.Get(flow.FieldInPort))
	}
}

func TestVictimFramesMatchKeys(t *testing.T) {
	mk := func() *Victim {
		return NewVictim(VictimConfig{
			Src:    netip.MustParseAddr("10.10.0.5"),
			Dst:    netip.MustParseAddr("172.16.0.2"),
			InPort: 3,
		})
	}
	keyGen, frameGen := mk(), mk()
	for i := 0; i < 20; i++ {
		want := keyGen.Next()
		frame, inPort := frameGen.NextFrame()
		if len(frame) != keyGen.FrameLen() {
			t.Fatalf("frame %d: %d bytes, want %d", i, len(frame), keyGen.FrameLen())
		}
		sameTuple(t, want, frame, inPort)
	}
}

// TestVictimSharedCursor pins that Next and NextFrame advance one stream.
func TestVictimSharedCursor(t *testing.T) {
	v := NewVictim(VictimConfig{
		Src: netip.MustParseAddr("10.10.0.5"), Dst: netip.MustParseAddr("172.16.0.2"),
	})
	first := v.Next()
	frame, inPort := v.NextFrame()
	second := extractBack(t, frame, inPort)
	if first.Tuple() == second.Tuple() {
		t.Fatal("NextFrame did not advance the round-robin cursor")
	}
}

func TestMixFramesMatchKeys(t *testing.T) {
	cfg := MixConfig{Seed: 7, NFlows: 64, InPort: 2, FrameLen: 256}
	keyGen, frameGen := NewMix(cfg), NewMix(cfg)
	for i := 0; i < 50; i++ {
		want := keyGen.Next()
		frame, inPort := frameGen.NextFrame()
		if len(frame) != cfg.FrameLen {
			t.Fatalf("frame %d: %d bytes, want %d", i, len(frame), cfg.FrameLen)
		}
		sameTuple(t, want, frame, inPort)
	}
}

func TestReplayerWithFrames(t *testing.T) {
	keys := []flow.Key{
		flow.FiveTuple{Src: netip.MustParseAddr("10.0.0.1"), Dst: netip.MustParseAddr("10.0.0.2"), Proto: 6, SrcPort: 1, DstPort: 2}.Key(9),
		flow.FiveTuple{Src: netip.MustParseAddr("10.0.0.3"), Dst: netip.MustParseAddr("10.0.0.2"), Proto: 6, SrcPort: 3, DstPort: 4}.Key(9),
	}
	frames := [][]byte{{1}, {2}}
	r := NewReplayer(keys).WithFrames(frames, 9)
	for i := 0; i < 5; i++ {
		f, inPort := r.NextFrame()
		if inPort != 9 || f[0] != byte(1+i%2) {
			t.Fatalf("cycle %d: frame %v port %d", i, f, inPort)
		}
	}

	defer func() {
		if recover() == nil {
			t.Fatal("mismatched frame count did not panic")
		}
	}()
	NewReplayer(keys).WithFrames([][]byte{{1}}, 9)
}

// TestPlainReplayerIsNotAFrameSource pins the opt-in design: a Replayer
// without attached frames must not satisfy FrameSource (its keys may
// carry fields or protocols no builder rendering could round-trip), so
// nothing can send or measure such a replay until its caller supplies
// faithful frames. The FrameReplayer view shares the cursor with the
// underlying Replayer.
func TestPlainReplayerIsNotAFrameSource(t *testing.T) {
	keys := []flow.Key{
		flow.FiveTuple{Src: netip.MustParseAddr("10.0.0.1"), Dst: netip.MustParseAddr("10.0.0.2"), Proto: 17, SrcPort: 53, DstPort: 53}.Key(4),
		flow.FiveTuple{Src: netip.MustParseAddr("10.0.0.9"), Dst: netip.MustParseAddr("10.0.0.2"), Proto: 6, SrcPort: 99, DstPort: 443}.Key(7),
	}
	if _, ok := any(NewReplayer(keys)).(FrameSource); ok {
		t.Fatal("plain Replayer must not be a FrameSource")
	}
	fr := NewReplayer(keys).WithFrames([][]byte{{1}, {2}}, 4)
	if _, ok := any(fr).(FrameSource); !ok {
		t.Fatal("FrameReplayer must be a FrameSource")
	}
	fr.NextFrame() // advances the shared cursor...
	if got := fr.Next(); got != keys[1] {
		t.Fatalf("cursor not shared: got %v", got)
	}
}

// TestWithNewClients: every Nth frame of the churned stream comes from a new
// remote client towards the victim's server on its port; the N-1 between are
// byte-equal to a plain Victim's frames, in its order; two streams built
// alike give equal bytes; and N = 0 passes the victim through.
func TestWithNewClients(t *testing.T) {
	cfg := VictimConfig{
		Src:      netip.MustParseAddr("10.10.0.5"),
		Dst:      netip.MustParseAddr("172.16.0.1"),
		InPort:   4,
		FrameLen: 128,
	}
	const every = 10
	churned, twin := WithNewClients(NewVictim(cfg), every), WithNewClients(NewVictim(cfg), every)
	plain := NewVictim(cfg)
	clients := map[flow.Key]bool{}
	for i := 1; i <= 50*every; i++ {
		f, port := churned.NextFrame()
		tf, tport := twin.NextFrame()
		if !bytes.Equal(f, tf) || port != tport {
			t.Fatalf("frame %d: two streams built alike differ", i)
		}
		if len(f) != cfg.FrameLen || port != cfg.InPort {
			t.Fatalf("frame %d: %d bytes on port %d, want %d on %d", i, len(f), port, cfg.FrameLen, cfg.InPort)
		}
		if i%every != 0 {
			if pf, _ := plain.NextFrame(); !bytes.Equal(f, pf) {
				t.Fatalf("frame %d: not the plain victim's next frame", i)
			}
			continue
		}
		k := extractBack(t, f, port)
		if src := k.Get(flow.FieldIPSrc); src>>8 == 0x0a0a00 {
			t.Errorf("frame %d: new client %#x inside the victim's /24", i, src)
		}
		if k.Tuple().Dst != cfg.Dst || k.Get(flow.FieldIPProto) != uint64(flow.ProtoTCP) {
			t.Errorf("frame %d: new client's packet %v not towards the victim's server", i, k.Tuple())
		}
		clients[k] = true
	}
	if len(clients) != 50 {
		t.Errorf("%d distinct new clients in 50, want 50", len(clients))
	}

	off, ref := WithNewClients(NewVictim(cfg), 0), NewVictim(cfg)
	if _, ok := off.(*Victim); !ok {
		t.Fatalf("N = 0 wrapped the victim in a %T", off)
	}
	for i := 0; i < 3*every; i++ {
		f, _ := off.NextFrame()
		if rf, _ := ref.NextFrame(); !bytes.Equal(f, rf) {
			t.Fatalf("N = 0: frame %d differs from the plain victim's", i)
		}
	}
}
