package flow

import (
	"fmt"
	"math"
	"math/bits"
	"net/netip"
	"strings"
	"testing"
	"testing/quick"
)

func TestMatchMatches(t *testing.T) {
	var m Match
	m.Mask.SetPrefix(FieldIPSrc, 8)
	m.Key.Set(FieldIPSrc, 0x0a000000) // 10.0.0.0
	m.Normalize()

	var k Key
	k.Set(FieldIPSrc, 0x0a636363) // 10.99.99.99
	if !m.Matches(k) {
		t.Error("10.99.99.99 should match 10.0.0.0/8")
	}
	k.Set(FieldIPSrc, 0x0b000000) // 11.0.0.0
	if m.Matches(k) {
		t.Error("11.0.0.0 should not match 10.0.0.0/8")
	}
}

func TestMatchNormalize(t *testing.T) {
	var m Match
	m.Key.Set(FieldIPSrc, 0x0a0a0a0a)
	m.Mask.SetPrefix(FieldIPSrc, 8)
	m.Normalize()
	if got := m.Key.Get(FieldIPSrc); got != 0x0a000000 {
		t.Errorf("normalized key = %#x, want 0x0a000000", got)
	}
}

func TestMatchOverlaps(t *testing.T) {
	mk := func(plen int, ip uint64) Match {
		var m Match
		m.Mask.SetPrefix(FieldIPSrc, plen)
		m.Key.Set(FieldIPSrc, ip)
		m.Normalize()
		return m
	}
	a := mk(8, 0x0a000000)  // 10/8
	b := mk(16, 0x0a010000) // 10.1/16 — inside a
	c := mk(8, 0x0b000000)  // 11/8 — disjoint from a
	if !a.Overlaps(b) || !b.Overlaps(a) {
		t.Error("10/8 and 10.1/16 must overlap")
	}
	if a.Overlaps(c) {
		t.Error("10/8 and 11/8 must not overlap")
	}
	var any Match // catch-all overlaps everything
	if !any.Overlaps(a) || !a.Overlaps(any) {
		t.Error("catch-all must overlap 10/8")
	}
}

// Property: Overlaps is symmetric, and a match always overlaps itself.
func TestOverlapsProperties(t *testing.T) {
	prop := func(k1, k2 [Words]uint64, m1, m2 [Words]uint64) bool {
		a := Match{Key: Key(k1), Mask: Mask(m1)}
		b := Match{Key: Key(k2), Mask: Mask(m2)}
		a.Normalize()
		b.Normalize()
		return a.Overlaps(a) && a.Overlaps(b) == b.Overlaps(a)
	}
	if err := quick.Check(prop, nil); err != nil {
		t.Error(err)
	}
}

// Property: if a key matches two matches, they overlap.
func TestMatchImpliesOverlap(t *testing.T) {
	prop := func(kw, m1w, m2w [Words]uint64) bool {
		k := Key(kw)
		a := Match{Key: Mask(m1w).Apply(k), Mask: Mask(m1w)}
		b := Match{Key: Mask(m2w).Apply(k), Mask: Mask(m2w)}
		// k matches both by construction.
		return a.Matches(k) && b.Matches(k) && a.Overlaps(b)
	}
	if err := quick.Check(prop, nil); err != nil {
		t.Error(err)
	}
}

func TestMatchStringFig2Style(t *testing.T) {
	var m Match
	m.Key.Set(FieldIPSrc, 0x0a000000)
	m.Mask.SetPrefix(FieldIPSrc, 8)
	m.Normalize()
	if got := m.String(); got != "ip_src=10.0.0.0/8" {
		t.Errorf("String() = %q", got)
	}

	var exact Match
	exact.Key.Set(FieldTPDst, 80)
	exact.Mask.SetExact(FieldTPDst)
	if got := exact.String(); got != "tp_dst=80" {
		t.Errorf("String() = %q", got)
	}

	var all Match
	if got := all.String(); got != "*" {
		t.Errorf("catch-all String() = %q, want *", got)
	}
}

func TestMatchStringMultiField(t *testing.T) {
	var m Match
	m.Key.Set(FieldIPSrc, 0x0a000000)
	m.Mask.SetPrefix(FieldIPSrc, 8)
	m.Key.Set(FieldTPDst, 0x5000)
	m.Mask.SetPrefix(FieldTPDst, 9)
	m.Normalize()
	s := m.String()
	if !strings.Contains(s, "ip_src=10.0.0.0/8") || !strings.Contains(s, "tp_dst=0x5000/9") {
		t.Errorf("String() = %q", s)
	}
}

func TestFiveTupleKeyRoundTrip(t *testing.T) {
	ft := FiveTuple{
		Src:     netip.MustParseAddr("10.1.2.3"),
		Dst:     netip.MustParseAddr("192.168.9.10"),
		Proto:   uint8(ProtoTCP),
		SrcPort: 40000,
		DstPort: 443,
	}
	k := ft.Key(7)
	if got := k.Get(FieldInPort); got != 7 {
		t.Errorf("in_port = %d", got)
	}
	if got := k.Get(FieldEthType); got != EthTypeIPv4 {
		t.Errorf("eth_type = %#x", got)
	}
	back := k.Tuple()
	if back != ft {
		t.Errorf("round trip: got %+v want %+v", back, ft)
	}
}

func TestFiveTupleICMPUsesTypeCode(t *testing.T) {
	ft := FiveTuple{
		Src:     netip.MustParseAddr("10.0.0.1"),
		Dst:     netip.MustParseAddr("10.0.0.2"),
		Proto:   uint8(ProtoICMP),
		SrcPort: 8, // echo request type
		DstPort: 0,
	}
	k := ft.Key(1)
	if got := k.Get(FieldICMPType); got != 8 {
		t.Errorf("icmp_type = %d", got)
	}
	if got := k.Get(FieldTPSrc); got != 0 {
		t.Errorf("tp_src should stay zero for ICMP, got %d", got)
	}
}

func TestFiveTupleIPv6(t *testing.T) {
	ft := FiveTuple{
		Src:     netip.MustParseAddr("2001:db8::1"),
		Dst:     netip.MustParseAddr("2001:db8::2"),
		Proto:   uint8(ProtoUDP),
		SrcPort: 53,
		DstPort: 53,
	}
	k := ft.Key(3)
	if got := k.Get(FieldEthType); got != EthTypeIPv6 {
		t.Errorf("eth_type = %#x", got)
	}
	if got := k.Get(FieldIPv6SrcHi); got != 0x20010db800000000 {
		t.Errorf("ipv6_src_hi = %#x", got)
	}
	if got := k.Get(FieldIPv6SrcLo); got != 1 {
		t.Errorf("ipv6_src_lo = %#x", got)
	}
}

func TestV4Conversions(t *testing.T) {
	a := netip.MustParseAddr("172.16.254.1")
	v := V4(a)
	if v != 0xac10fe01 {
		t.Fatalf("V4 = %#x", v)
	}
	if got := V4Addr(v); got != a {
		t.Fatalf("V4Addr = %v", got)
	}
}

func TestV4PanicsOnV6(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("V4 on an IPv6 address did not panic")
		}
	}()
	V4(netip.MustParseAddr("::1"))
}

func TestExactMaskCoversEverything(t *testing.T) {
	prop := func(kw [Words]uint64) bool {
		k := Key(kw)
		return ExactMask.Apply(k) == k
	}
	if err := quick.Check(prop, nil); err != nil {
		t.Error(err)
	}
	if maskBits(ExactMask) != Words*64 {
		t.Errorf("ExactMask has %d bits", maskBits(ExactMask))
	}
}

func TestMaskFields(t *testing.T) {
	var m Mask
	m.SetPrefix(FieldIPSrc, 1)
	m.SetExact(FieldTPDst)
	got := m.Fields()
	if len(got) != 2 || got[0] != FieldIPSrc || got[1] != FieldTPDst {
		t.Errorf("Fields() = %v", got)
	}
}

func TestHashKeysMatchesScalarHash(t *testing.T) {
	keys := make([]Key, 5)
	for i := range keys {
		keys[i].Set(FieldIPSrc, uint64(0x0a000001+i))
		keys[i].Set(FieldTPDst, uint64(80+i))
	}
	// Fills a fresh slice, matches per-key Hash, and reuses capacity.
	got := HashKeys(keys, nil)
	for i := range keys {
		if got[i] != keys[i].Hash() {
			t.Fatalf("hash %d diverges from Key.Hash", i)
		}
	}
	reuse := HashKeys(keys[:3], got)
	if &reuse[0] != &got[0] || len(reuse) != 3 {
		t.Error("HashKeys did not reuse the destination buffer")
	}

	// MixWord folded over the words from StageHashSeed, then HashFinish, is
	// Hash: the definition a decoder hashing words as it composes them
	// relies on. The fixed keys fill the tail words (IPv6, ct_state) a
	// fast-path IPv4 key leaves zero.
	fold := func(k Key) uint64 {
		h := StageHashSeed
		for _, w := range k {
			h = MixWord(h, w)
		}
		return HashFinish(h)
	}
	var v6 Key
	v6.Set(FieldIPv6SrcHi, 0x20010db800000000)
	v6.Set(FieldIPv6DstLo, 2)
	v6.Set(FieldCTState, CTTracked|CTEstablished)
	for _, k := range append(keys, v6, Key(ExactMask), Key{}) {
		if fold(k) != k.Hash() {
			t.Fatalf("MixWord/HashFinish fold of %v diverges from Key.Hash", k)
		}
	}
	if err := quick.Check(func(kw [Words]uint64) bool { return fold(Key(kw)) == Key(kw).Hash() }, nil); err != nil {
		t.Error(err)
	}
}

// covertShapedKeys reproduces the covert stream's key shape without
// importing the attack package: one template flow, and for every
// combination of a bit of ip_src (32), tp_src (16) and tp_dst (16) the
// field's allowed value with exactly that bit flipped — 8 192 sparse keys
// that pairwise differ in at most six bits.
func covertShapedKeys() []Key {
	var template Key
	template.Set(FieldInPort, 66)
	template.Set(FieldEthType, EthTypeIPv4)
	template.Set(FieldIPProto, 6)
	template.Set(FieldIPDst, 0x0a000002)
	fields := []struct {
		id    FieldID
		allow uint64
	}{{FieldIPSrc, 0x0a000001}, {FieldTPSrc, 40000}, {FieldTPDst, 53211}}
	var out []Key
	for a := 0; a < 32; a++ {
		for b := 0; b < 16; b++ {
			for c := 0; c < 16; c++ {
				k := template
				for i, bit := range []int{a, b, c} {
					k.Set(fields[i].id, fields[i].allow^1<<uint(bit))
				}
				out = append(out, k)
			}
		}
	}
	return out
}

// sequentialPortKeys is one flow template swept over 8 192 consecutive
// source ports: keys that differ only in the low bits of one field.
func sequentialPortKeys() []Key {
	out := make([]Key, 8192)
	for i := range out {
		out[i].Set(FieldInPort, 1)
		out[i].Set(FieldEthType, EthTypeIPv4)
		out[i].Set(FieldIPProto, 6)
		out[i].Set(FieldIPSrc, 0x0a0a0005)
		out[i].Set(FieldIPDst, 0x0a0a0105)
		out[i].Set(FieldTPSrc, uint64(1024+i))
		out[i].Set(FieldTPDst, 5201)
	}
	return out
}

// TestHashSpread holds Key.Hash to balance on every slice of it the
// datapath consumes — hash mod N for 2..8 RSS lanes, bits [32,40) for 8
// cache shards, the low six bits the EMC/SMC slot index starts from and
// the top 16 bits the SMC keeps as signature (folded to 64 bins) — on the
// two adversarially regular key populations above. Tolerance: every bin
// within five standard deviations of a uniform draw (5*sqrt(expected)),
// which a well-mixed hash misses with probability below 1e-4 over all
// the bins checked and a byte- or word-aligned weakness misses at once.
func TestHashSpread(t *testing.T) {
	type slice struct {
		name string
		bins int
		bin  func(h uint64) int
	}
	slices := []slice{
		{"shard bits [32,40) of 8", 8, func(h uint64) int { return int(h >> 32 & 7) }},
		{"EMC/SMC low index bits", 64, func(h uint64) int { return int(h & 63) }},
		{"SMC signature (top 16 bits)", 64, func(h uint64) int { return int(h >> 48 & 63) }},
	}
	for n := 2; n <= 8; n++ {
		slices = append(slices, slice{fmt.Sprintf("hash mod %d RSS lanes", n), n, func(h uint64) int { return int(h % uint64(n)) }})
	}
	for _, pop := range []struct {
		name string
		keys []Key
	}{{"covert-stream", covertShapedKeys()}, {"sequential-port", sequentialPortKeys()}} {
		for _, sl := range slices {
			counts := make([]int, sl.bins)
			for _, k := range pop.keys {
				counts[sl.bin(k.Hash())]++
			}
			expected := float64(len(pop.keys)) / float64(sl.bins)
			tol := 5 * math.Sqrt(expected)
			for b, c := range counts {
				if d := math.Abs(float64(c) - expected); d > tol {
					t.Errorf("%s keys, %s: bin %d holds %d, want %.0f +/- %.0f", pop.name, sl.name, b, c, expected, tol)
				}
			}
		}
	}
}

// maskBits returns the number of bits m selects.
func maskBits(m Mask) int {
	n := 0
	for _, w := range m {
		n += bits.OnesCount64(w)
	}
	return n
}
