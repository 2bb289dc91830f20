package acl

import (
	"net/netip"
	"strings"
	"testing"

	"policyinject/internal/flow"
	"policyinject/internal/flowtable"
)

func TestCompilePaperACL(t *testing.T) {
	// Fig. 2a: allow from 10.0.0.0/8, deny everything else.
	a := (&ACL{Comment: "fig2a"}).Allow(Entry{Src: netip.MustParsePrefix("10.0.0.0/8")})
	rules, err := a.Compile()
	if err != nil {
		t.Fatal(err)
	}
	if len(rules) != 2 {
		t.Fatalf("rules = %d, want 2", len(rules))
	}
	r := rules[0]
	if r.Action.Verdict != flowtable.Allow || r.Priority != EntryPriority {
		t.Errorf("allow rule: %v", r)
	}
	if got := r.Match.Key.Get(flow.FieldIPSrc); got != 0x0a000000 {
		t.Errorf("ip_src = %#x", got)
	}
	if plen, ok := r.Match.Mask.PrefixLen(flow.FieldIPSrc); plen != 8 || !ok {
		t.Errorf("prefix = %d,%v", plen, ok)
	}
	// eth_type pinned to IPv4 when an IP constraint is present.
	if got := r.Match.Key.Get(flow.FieldEthType); got != flow.EthTypeIPv4 {
		t.Errorf("eth_type = %#x", got)
	}
	deny := rules[1]
	if deny.Action.Verdict != flowtable.Deny || deny.Match.Mask != (flow.Mask{}) || deny.Priority != DenyPriority {
		t.Errorf("default deny: %v", deny)
	}
}

func TestCompileExactHostAndPort(t *testing.T) {
	a := (&ACL{}).Allow(Entry{
		Src:     netip.MustParsePrefix("10.0.0.1/32"),
		Proto:   6,
		DstPort: Port(80),
	})
	rules, err := a.Compile()
	if err != nil {
		t.Fatal(err)
	}
	m := rules[0].Match
	if plen, _ := m.Mask.PrefixLen(flow.FieldIPSrc); plen != 32 {
		t.Errorf("ip_src plen = %d", plen)
	}
	if plen, _ := m.Mask.PrefixLen(flow.FieldTPDst); plen != 16 {
		t.Errorf("tp_dst plen = %d", plen)
	}
	if got := m.Key.Get(flow.FieldIPProto); got != 6 {
		t.Errorf("proto = %d", got)
	}
}

func TestCompileDstPrefix(t *testing.T) {
	a := (&ACL{}).Allow(Entry{Dst: netip.MustParsePrefix("192.168.0.0/16")})
	rules, err := a.Compile()
	if err != nil {
		t.Fatal(err)
	}
	if plen, _ := rules[0].Match.Mask.PrefixLen(flow.FieldIPDst); plen != 16 {
		t.Errorf("ip_dst plen = %d", plen)
	}
}

func TestCompileNormalizesHostBits(t *testing.T) {
	a := (&ACL{}).Allow(Entry{Src: netip.MustParsePrefix("10.9.9.9/8")})
	rules, err := a.Compile()
	if err != nil {
		t.Fatal(err)
	}
	if got := rules[0].Match.Key.Get(flow.FieldIPSrc); got != 0x0a000000 {
		t.Errorf("host bits not masked: %#x", got)
	}
}

func TestPortRangeBlocks(t *testing.T) {
	cases := []struct {
		from, to uint16
		want     int // number of prefix blocks
	}{
		{80, 80, 1},      // exact
		{0, 65535, 1},    // full range = zero-length prefix
		{1024, 2047, 1},  // aligned power of two
		{1024, 65535, 6}, // 1024-2047,2048-4095,...,32768-65535
		{1, 65534, 30},   // worst case: 2*(16-1)
		{1000, 1000, 1},
	}
	for _, c := range cases {
		blocks := PortRange(c.from, c.to).blocks()
		if len(blocks) != c.want {
			t.Errorf("range %d-%d: %d blocks, want %d (%v)", c.from, c.to, len(blocks), c.want, blocks)
		}
		// Every port in range must be covered exactly once.
		covered := map[uint16]int{}
		for _, b := range blocks {
			span := 1 << (16 - b.plen)
			for p := 0; p < span; p++ {
				covered[uint16(b.value)+uint16(p)]++
			}
		}
		for p := int(c.from); p <= int(c.to); p++ {
			if covered[uint16(p)] != 1 {
				t.Fatalf("range %d-%d: port %d covered %d times", c.from, c.to, p, covered[uint16(p)])
			}
		}
		if len(covered) != int(c.to)-int(c.from)+1 {
			t.Fatalf("range %d-%d: covered %d ports", c.from, c.to, len(covered))
		}
	}
}

func TestCompilePortRangeCrossProduct(t *testing.T) {
	a := (&ACL{}).Allow(Entry{
		Proto:   17,
		SrcPort: PortRange(1024, 2047), // 1 block
		DstPort: PortRange(80, 81),     // 1 block (aligned pair)
	})
	rules, err := a.Compile()
	if err != nil {
		t.Fatal(err)
	}
	if len(rules) != 2 { // 1x1 + default deny
		t.Fatalf("rules = %d", len(rules))
	}
	if plen, _ := rules[0].Match.Mask.PrefixLen(flow.FieldTPDst); plen != 15 {
		t.Errorf("tp_dst plen = %d, want 15", plen)
	}
}

func TestValidateErrors(t *testing.T) {
	cases := []*ACL{
		(&ACL{}).Allow(Entry{ // mixed address families
			Src: netip.MustParsePrefix("10.0.0.0/8"),
			Dst: netip.MustParsePrefix("2001:db8::/64"),
		}),
		(&ACL{}).Allow(Entry{Proto: 1, DstPort: Port(80)}),                   // ports on ICMP
		(&ACL{}).Allow(Entry{SrcPort: PortMatch{From: 9, To: 3, set: true}}), // inverted
	}
	for i, a := range cases {
		if err := a.Validate(); err == nil {
			t.Errorf("case %d: Validate accepted invalid ACL", i)
		}
		if _, err := a.Compile(); err == nil {
			t.Errorf("case %d: Compile accepted invalid ACL", i)
		}
	}
}

func TestCompileIPv6Prefixes(t *testing.T) {
	cases := []struct {
		cidr           string
		wantHiPlen     int
		wantLoPlen     int
		wantHi, wantLo uint64
	}{
		{"2001:db8::/32", 32, 0, 0x2001_0db8_0000_0000, 0},
		{"2001:db8:0:1::/64", 64, 0, 0x2001_0db8_0000_0001, 0},
		{"2001:db8::1:0:0/96", 64, 32, 0x2001_0db8_0000_0000, 0x0000_0001_0000_0000},
		{"2001:db8::42/128", 64, 64, 0x2001_0db8_0000_0000, 0x42},
	}
	for _, c := range cases {
		a := (&ACL{}).Allow(Entry{Src: netip.MustParsePrefix(c.cidr)})
		rules, err := a.Compile()
		if err != nil {
			t.Fatalf("%s: %v", c.cidr, err)
		}
		m := rules[0].Match
		if got := m.Key.Get(flow.FieldEthType); got != flow.EthTypeIPv6 {
			t.Errorf("%s: eth_type = %#x", c.cidr, got)
		}
		if plen, ok := m.Mask.PrefixLen(flow.FieldIPv6SrcHi); plen != c.wantHiPlen || !ok {
			t.Errorf("%s: hi plen = %d,%v want %d", c.cidr, plen, ok, c.wantHiPlen)
		}
		if plen, ok := m.Mask.PrefixLen(flow.FieldIPv6SrcLo); plen != c.wantLoPlen || !ok {
			t.Errorf("%s: lo plen = %d,%v want %d", c.cidr, plen, ok, c.wantLoPlen)
		}
		if got := m.Key.Get(flow.FieldIPv6SrcHi); got != c.wantHi {
			t.Errorf("%s: hi = %#x want %#x", c.cidr, got, c.wantHi)
		}
		if got := m.Key.Get(flow.FieldIPv6SrcLo); got != c.wantLo {
			t.Errorf("%s: lo = %#x want %#x", c.cidr, got, c.wantLo)
		}
	}
}

func TestCompileIPv6RulesClassify(t *testing.T) {
	// End to end: an IPv6 whitelist admits the right packets.
	a := (&ACL{}).Allow(Entry{Src: netip.MustParsePrefix("2001:db8::/32"), Proto: 17, DstPort: Port(53)})
	rules, err := a.Compile()
	if err != nil {
		t.Fatal(err)
	}
	var tbl flowtable.Table
	for i := range rules {
		tbl.Insert(rules[i])
	}
	in := flow.FiveTuple{
		Src: netip.MustParseAddr("2001:db8::99"), Dst: netip.MustParseAddr("2001:db8::1"),
		Proto: 17, SrcPort: 1234, DstPort: 53,
	}.Key(1)
	if r := tbl.Lookup(in); r == nil || r.Action.Verdict != flowtable.Allow {
		t.Errorf("whitelisted v6 flow denied: %v", r)
	}
	out := flow.FiveTuple{
		Src: netip.MustParseAddr("2a00::1"), Dst: netip.MustParseAddr("2001:db8::1"),
		Proto: 17, SrcPort: 1234, DstPort: 53,
	}.Key(1)
	if r := tbl.Lookup(out); r == nil || r.Action.Verdict != flowtable.Deny {
		t.Errorf("non-whitelisted v6 source allowed: %v", r)
	}
}

func TestDenyEntriesCompile(t *testing.T) {
	a := (&ACL{}).
		Deny(Entry{Src: netip.MustParsePrefix("10.66.0.0/16")}).
		Allow(Entry{Src: netip.MustParsePrefix("10.0.0.0/8")})
	rules, err := a.Compile()
	if err != nil {
		t.Fatal(err)
	}
	if rules[0].Action.Verdict != flowtable.Deny || rules[1].Action.Verdict != flowtable.Allow {
		t.Errorf("verdict order wrong: %v %v", rules[0], rules[1])
	}
	// Equal priority: first-added (the deny exception) wins in a table.
	if rules[0].Priority != rules[1].Priority {
		t.Errorf("priorities differ: %d vs %d", rules[0].Priority, rules[1].Priority)
	}
}

func TestParseRoundTrip(t *testing.T) {
	text := `
# the paper's two-rule attack ACL
allow src=10.0.0.1
allow dport=80 proto=tcp
deny *
`
	a, err := Parse(text)
	if err != nil {
		t.Fatal(err)
	}
	if len(a.Entries) != 2 {
		t.Fatalf("entries = %d", len(a.Entries))
	}
	if a.Entries[0].Src.Bits() != 32 {
		t.Errorf("bare address should parse as /32, got /%d", a.Entries[0].Src.Bits())
	}
	if a.Entries[1].Proto != 6 || a.Entries[1].DstPort != Port(80) {
		t.Errorf("entry 1: %+v", a.Entries[1])
	}
	// Round trip through String and Parse again.
	b, err := Parse(a.String())
	if err != nil {
		t.Fatalf("reparse: %v\n%s", err, a.String())
	}
	if len(b.Entries) != len(a.Entries) {
		t.Errorf("round trip changed entry count")
	}
}

func TestParseRanges(t *testing.T) {
	a, err := Parse("allow sport=1000-2000 proto=udp")
	if err != nil {
		t.Fatal(err)
	}
	e := a.Entries[0]
	if e.SrcPort.From != 1000 || e.SrcPort.To != 2000 || e.Proto != 17 {
		t.Errorf("entry: %+v", e)
	}
}

func TestParseErrors(t *testing.T) {
	for _, text := range []string{
		"permit src=10.0.0.0/8", // unknown verb
		"allow source=10.0.0.0", // unknown key
		"allow src=10.0.0.0/33", // bad prefix
		"allow dport=70000",     // port overflow
		"allow dport=80-x",      // bad range
		"allow proto=banana",    // bad proto
		"allow src",             // token without =
	} {
		if _, err := Parse(text); err == nil {
			t.Errorf("Parse(%q) succeeded", text)
		}
	}
}

func TestStringFormat(t *testing.T) {
	a := (&ACL{}).Allow(Entry{
		Src:     netip.MustParsePrefix("10.0.0.0/8"),
		DstPort: Port(80),
	})
	got := a.String()
	if !strings.Contains(got, "allow src=10.0.0.0/8 dport=80") || !strings.Contains(got, "deny *") {
		t.Errorf("String() = %q", got)
	}
}

func TestEntryStringCatchAll(t *testing.T) {
	e := Entry{Action: flowtable.Allow}
	if got := e.String(); got != "allow *" {
		t.Errorf("String() = %q", got)
	}
}
