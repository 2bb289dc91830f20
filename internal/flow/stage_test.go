package flow

import "testing"

// TestStageWordsPartition pins the stage layout invariant the staged
// lookup relies on: every Key word belongs to exactly one stage.
func TestStageWordsPartition(t *testing.T) {
	seen := make(map[int]Stage)
	for s := Stage(0); s < NumStages; s++ {
		for _, w := range stageWords[s] {
			if prev, dup := seen[w]; dup {
				t.Fatalf("word %d in both stage %v and %v", w, prev, s)
			}
			if w < 0 || w >= Words {
				t.Fatalf("stage %v covers out-of-range word %d", s, w)
			}
			seen[w] = s
		}
	}
	if len(seen) != Words {
		t.Fatalf("stages cover %d of %d words", len(seen), Words)
	}
}

// TestStageFieldAssignment spot-checks that the protocol layers land in
// the stages their names promise.
func TestStageFieldAssignment(t *testing.T) {
	cases := []struct {
		field FieldID
		stage Stage
	}{
		{FieldInPort, StageMeta},
		{FieldEthType, StageMeta},
		{FieldVLANTCI, StageMeta},
		{FieldEthSrc, StageL2},
		{FieldIPProto, StageL2},
		{FieldTCPFlags, StageL2},
		{FieldIPSrc, StageL3},
		{FieldIPv6DstLo, StageL3},
		{FieldTPSrc, StageL4},
		{FieldTPDst, StageL4},
		{FieldCTState, StageL4},
	}
	for _, c := range cases {
		var m Mask
		m.SetExact(c.field)
		if !m.StageUsed(c.stage) {
			t.Errorf("%v: expected stage %v used", c.field, c.stage)
		}
		for s := Stage(0); s < NumStages; s++ {
			if s != c.stage && m.StageUsed(s) {
				t.Errorf("%v: unexpected stage %v used", c.field, s)
			}
		}
		if last, ok := m.LastStage(); !ok || last != c.stage {
			t.Errorf("%v: LastStage = %v/%v, want %v/true", c.field, last, ok, c.stage)
		}
	}
}

func TestLastStageZeroMask(t *testing.T) {
	var m Mask
	if _, ok := m.LastStage(); ok {
		t.Fatal("zero mask reported a used stage")
	}
}

// TestHashStageChain pins the contract of the incremental chain: (a) the
// hash after stage s depends only on masked bits of stages <= s, (b) a
// masked key and its raw original hash identically, and (c) keys
// differing inside a masked stage diverge from that stage on.
func TestHashStageChain(t *testing.T) {
	var m Mask
	m.SetExact(FieldInPort)
	m.SetExact(FieldIPSrc)
	m.SetExact(FieldTPDst)

	mk := func(port, ip, dport, sport uint64) Key {
		var k Key
		k.Set(FieldInPort, port)
		k.Set(FieldIPSrc, ip)
		k.Set(FieldTPDst, dport)
		k.Set(FieldTPSrc, sport) // not masked: must never matter
		return k
	}
	chain := func(k Key) [NumStages]uint64 {
		var out [NumStages]uint64
		h := StageHashSeed
		for s := Stage(0); s < NumStages; s++ {
			h = k.HashStage(h, &m, s)
			out[s] = h
		}
		return out
	}

	a := chain(mk(1, 0x0a000001, 80, 1234))
	b := chain(mk(1, 0x0a000001, 80, 9999)) // differs only in unmasked bits
	if a != b {
		t.Fatal("unmasked bits leaked into the stage hash chain")
	}

	raw := mk(1, 0x0a000001, 80, 1234)
	masked := m.Apply(raw)
	if chain(raw) != chain(masked) {
		t.Fatal("masked key hashes differently from its raw original")
	}

	c := chain(mk(1, 0x0a000002, 80, 1234)) // diverges at L3
	if a[StageMeta] != c[StageMeta] || a[StageL2] != c[StageL2] {
		t.Fatal("pre-divergence stages must agree")
	}
	if a[StageL3] == c[StageL3] {
		t.Fatal("L3 divergence not reflected in the stage hash")
	}

	d := chain(mk(2, 0x0a000001, 80, 1234)) // diverges at metadata
	if a[StageMeta] == d[StageMeta] {
		t.Fatal("metadata divergence not reflected in the stage hash")
	}
}
