package flow

import (
	"math/rand"
	"testing"
	"testing/quick"
)

func TestFieldRegistryConsistent(t *testing.T) {
	seen := map[string]bool{}
	for id := FieldID(0); id < NumFields; id++ {
		f := FieldByID(id)
		if f.ID != id {
			t.Errorf("field %q: registry ID %d != index %d", f.Name, f.ID, id)
		}
		if f.Name == "" {
			t.Errorf("field %d has empty name", id)
		}
		if seen[f.Name] {
			t.Errorf("duplicate field name %q", f.Name)
		}
		seen[f.Name] = true
		if f.Word < 0 || f.Word >= Words {
			t.Errorf("field %q: word %d out of range", f.Name, f.Word)
		}
		if f.Bits < 1 || f.Bits > 64 {
			t.Errorf("field %q: bad width %d", f.Name, f.Bits)
		}
		if f.Off < 0 || f.Off+f.Bits > 64 {
			t.Errorf("field %q: spans word boundary (off %d bits %d)", f.Name, f.Off, f.Bits)
		}
	}
}

func TestFieldsDoNotOverlap(t *testing.T) {
	var occupied [Words]uint64
	for id := FieldID(0); id < NumFields; id++ {
		f := FieldByID(id)
		vm := f.valueMask()
		if occupied[f.Word]&vm != 0 {
			t.Errorf("field %q overlaps a previous field in word %d", f.Name, f.Word)
		}
		occupied[f.Word] |= vm
	}
}

func TestFieldByName(t *testing.T) {
	for id := FieldID(0); id < NumFields; id++ {
		want := FieldByID(id)
		got, ok := FieldByName(want.Name)
		if !ok || got.ID != id {
			t.Errorf("FieldByName(%q) = %+v, %v", want.Name, got, ok)
		}
	}
	if _, ok := FieldByName("no_such_field"); ok {
		t.Error("FieldByName accepted an unknown name")
	}
}

func TestFieldByIDPanicsOutOfRange(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("FieldByID(NumFields) did not panic")
		}
	}()
	FieldByID(NumFields)
}

func TestSetGetRoundTrip(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	for trial := 0; trial < 2000; trial++ {
		var k Key
		want := map[FieldID]uint64{}
		for id := FieldID(0); id < NumFields; id++ {
			f := FieldByID(id)
			v := rng.Uint64()
			if f.Bits < 64 {
				v &= (1 << uint(f.Bits)) - 1
			}
			k.Set(id, v)
			want[id] = v
		}
		for id, w := range want {
			if got := k.Get(id); got != w {
				t.Fatalf("trial %d: field %s: got %#x want %#x", trial, id.Name(), got, w)
			}
		}
	}
}

func TestSetTruncatesWideValues(t *testing.T) {
	var k Key
	k.Set(FieldIPProto, 0x1ff) // 9 bits into an 8-bit field
	if got := k.Get(FieldIPProto); got != 0xff {
		t.Fatalf("got %#x, want 0xff", got)
	}
	// Neighbouring fields in the same word must be untouched.
	if got := k.Get(FieldEthSrc); got != 0 {
		t.Fatalf("eth_src corrupted: %#x", got)
	}
	if got := k.Get(FieldIPTOS); got != 0 {
		t.Fatalf("ip_tos corrupted: %#x", got)
	}
}

func TestPrefixMask(t *testing.T) {
	f := FieldByID(FieldIPSrc)
	cases := []struct {
		nbits int
		want  uint64 // right-aligned field mask
	}{
		{0, 0},
		{1, 0x80000000},
		{8, 0xff000000},
		{9, 0xff800000},
		{31, 0xfffffffe},
		{32, 0xffffffff},
		{40, 0xffffffff}, // clamped
		{-3, 0},          // clamped
	}
	for _, c := range cases {
		var m Mask
		m.SetPrefix(FieldIPSrc, c.nbits)
		if got := f.GetMask(&m); got != c.want {
			t.Errorf("SetPrefix(ip_src, %d): got %#x want %#x", c.nbits, got, c.want)
		}
	}
}

func TestPrefixLen(t *testing.T) {
	var m Mask
	m.SetPrefix(FieldIPSrc, 13)
	if n, ok := m.PrefixLen(FieldIPSrc); n != 13 || !ok {
		t.Errorf("PrefixLen = %d, %v; want 13, true", n, ok)
	}
	// A non-contiguous mask is not a prefix.
	var m2 Mask
	FieldByID(FieldIPSrc).SetMask(&m2, 0xff00ff00)
	if _, ok := m2.PrefixLen(FieldIPSrc); ok {
		t.Error("non-contiguous mask reported as prefix")
	}
	// Zero mask is the empty prefix.
	var m3 Mask
	if n, ok := m3.PrefixLen(FieldIPSrc); n != 0 || !ok {
		t.Errorf("zero mask: PrefixLen = %d, %v; want 0, true", n, ok)
	}
}

// Property: for every field, setting a prefix of n bits yields a mask with
// exactly n bits set, all within the field, forming a superset chain as n
// grows.
func TestPrefixMaskProperties(t *testing.T) {
	for id := FieldID(0); id < NumFields; id++ {
		f := FieldByID(id)
		var prev Mask
		for n := 0; n <= f.Bits; n++ {
			var m Mask
			m.SetPrefix(id, n)
			if got := maskBits(m); got != n {
				t.Fatalf("%s: prefix %d has %d bits set", f.Name, n, got)
			}
			if prev.Apply(Key(m)) != Key(prev) {
				t.Fatalf("%s: prefix %d not superset of prefix %d", f.Name, n, n-1)
			}
			if m[f.Word]&^f.valueMask() != 0 {
				t.Fatalf("%s: prefix mask leaks outside the field", f.Name)
			}
			prev = m
		}
	}
}

func TestMaskApplyIdempotent(t *testing.T) {
	prop := func(kw, mw [Words]uint64) bool {
		k, m := Key(kw), Mask(mw)
		once := m.Apply(k)
		return m.Apply(once) == once
	}
	if err := quick.Check(prop, nil); err != nil {
		t.Error(err)
	}
}

func TestHashDistinguishesKeys(t *testing.T) {
	// Not a general collision test: just verifies single-bit flips change
	// the hash, the property TSS bucket spread depends on.
	rng := rand.New(rand.NewSource(7))
	for trial := 0; trial < 200; trial++ {
		var k Key
		for i := range k {
			k[i] = rng.Uint64()
		}
		h := k.Hash()
		w, b := rng.Intn(Words), uint(rng.Intn(64))
		k2 := k
		k2[w] ^= 1 << b
		if k2.Hash() == h {
			t.Fatalf("single-bit flip did not change hash (word %d bit %d)", w, b)
		}
	}
}
