// Package acl models the tenant-facing access-control lists a cloud
// management system accepts — "Whitelist + Default-Deny type of ACLs"
// operating on the IP 5-tuple, per the paper — and compiles them to the
// wildcard flow rules the hypervisor switch evaluates.
//
// An ACL is an ordered list of whitelist entries plus an implicit
// default-deny. Compilation preserves the paper's precedence model: all
// entries share one priority, so the first-added rule wins on overlap.
package acl

import (
	"fmt"
	"net/netip"
	"strings"

	"policyinject/internal/flow"
	"policyinject/internal/flowtable"
)

// PortMatch matches a transport port: nothing (Any), one port (exact), or
// an inclusive range. Ranges compile to multiple prefix-masked rules (the
// standard range-to-prefix decomposition), exactly the transformation a
// CMS plugin performs for "endPort" style policies.
type PortMatch struct {
	From, To uint16 // inclusive; zero value means any
	set      bool
}

// Port matches exactly p.
func Port(p uint16) PortMatch { return PortMatch{From: p, To: p, set: true} }

// PortRange matches from..to inclusive.
func PortRange(from, to uint16) PortMatch { return PortMatch{From: from, To: to, set: true} }

// Any reports whether the match is unconstrained.
func (p PortMatch) Any() bool { return !p.set }

func (p PortMatch) String() string {
	switch {
	case !p.set:
		return "*"
	case p.From == p.To:
		return fmt.Sprintf("%d", p.From)
	default:
		return fmt.Sprintf("%d-%d", p.From, p.To)
	}
}

// Entry is one whitelist line: every set constraint must hold.
type Entry struct {
	Src, Dst         netip.Prefix // zero value: any
	Proto            uint8        // 0: any IP protocol
	SrcPort, DstPort PortMatch
	Action           flowtable.Verdict // Allow for whitelists; Deny entries express exceptions
	Comment          string
}

func (e Entry) String() string {
	var parts []string
	verb := "allow"
	if e.Action == flowtable.Deny {
		verb = "deny"
	}
	if e.Src.IsValid() {
		parts = append(parts, "src="+e.Src.String())
	}
	if e.Dst.IsValid() {
		parts = append(parts, "dst="+e.Dst.String())
	}
	if e.Proto != 0 {
		parts = append(parts, fmt.Sprintf("proto=%d", e.Proto))
	}
	if !e.SrcPort.Any() {
		parts = append(parts, "sport="+e.SrcPort.String())
	}
	if !e.DstPort.Any() {
		parts = append(parts, "dport="+e.DstPort.String())
	}
	if len(parts) == 0 {
		parts = append(parts, "*")
	}
	return verb + " " + strings.Join(parts, " ")
}

// ACL is an ordered whitelist with implicit default deny.
type ACL struct {
	Entries []Entry
	Comment string
	// Stateful compiles the ACL as a connection-tracking security group
	// (the OpenStack flavour): untracked packets are sent through
	// conntrack and re-classified; established/reply traffic is allowed
	// regardless of the whitelist; whitelist entries admit and commit
	// +new connections. Requires a dataplane with conntrack enabled.
	Stateful bool
}

// Allow appends an allow entry and returns the ACL for chaining.
func (a *ACL) Allow(e Entry) *ACL {
	e.Action = flowtable.Allow
	a.Entries = append(a.Entries, e)
	return a
}

// Deny appends an explicit deny entry.
func (a *ACL) Deny(e Entry) *ACL {
	e.Action = flowtable.Deny
	a.Entries = append(a.Entries, e)
	return a
}

// Validate rejects entries this dataplane cannot express.
func (a *ACL) Validate() error {
	for i, e := range a.Entries {
		if e.Src.IsValid() && e.Dst.IsValid() &&
			e.Src.Addr().Unmap().Is4() != e.Dst.Addr().Unmap().Is4() {
			return fmt.Errorf("acl entry %d: mixed IPv4/IPv6 src and dst (%v, %v)", i, e.Src, e.Dst)
		}
		portsUsed := !e.SrcPort.Any() || !e.DstPort.Any()
		if portsUsed && e.Proto != 0 && e.Proto != uint8(flow.ProtoTCP) && e.Proto != uint8(flow.ProtoUDP) {
			return fmt.Errorf("acl entry %d: ports require TCP or UDP, got proto %d", i, e.Proto)
		}
		if !e.SrcPort.Any() && e.SrcPort.From > e.SrcPort.To {
			return fmt.Errorf("acl entry %d: inverted sport range %s", i, e.SrcPort)
		}
		if !e.DstPort.Any() && e.DstPort.From > e.DstPort.To {
			return fmt.Errorf("acl entry %d: inverted dport range %s", i, e.DstPort)
		}
	}
	return nil
}

// Compiled rule priorities: conntrack dispatch above the stateful
// shortcut, whitelist entries below both, default deny last.
const (
	RecircPriority      = 300
	EstablishedPriority = 200
	EntryPriority       = 100
	DenyPriority        = 0
)

// Compile lowers the ACL to flow rules, appending the implicit default
// deny. Entries with port ranges expand to one rule per (sport, dport)
// prefix-block combination.
func (a *ACL) Compile() ([]flowtable.Rule, error) {
	if err := a.Validate(); err != nil {
		return nil, err
	}
	var rules []flowtable.Rule
	if a.Stateful {
		// Untracked -> ct(recirc). Mask only the +trk bit: the rule must
		// match every packet that has not been through conntrack yet.
		var untracked flow.Match
		flow.FieldByID(flow.FieldCTState).SetMask(&untracked.Mask, flow.CTTracked)
		rules = append(rules, flowtable.Rule{
			Match:    untracked,
			Priority: RecircPriority,
			Action:   flowtable.Action{Recirc: true},
			Comment:  "untracked: send to conntrack",
		})
		// +trk+est -> allow, the stateful shortcut for return traffic.
		var est flow.Match
		flow.FieldByID(flow.FieldCTState).SetMask(&est.Mask, flow.CTTracked|flow.CTEstablished)
		est.Key.Set(flow.FieldCTState, flow.CTTracked|flow.CTEstablished)
		rules = append(rules, flowtable.Rule{
			Match:    est,
			Priority: EstablishedPriority,
			Action:   flowtable.Action{Verdict: flowtable.Allow},
			Comment:  "established/reply: allow",
		})
	}
	for i, e := range a.Entries {
		base := flow.Match{}
		if e.Src.IsValid() {
			applyCIDR(&base, e.Src, flow.FieldIPSrc, flow.FieldIPv6SrcHi, flow.FieldIPv6SrcLo)
		}
		if e.Dst.IsValid() {
			applyCIDR(&base, e.Dst, flow.FieldIPDst, flow.FieldIPv6DstHi, flow.FieldIPv6DstLo)
		}
		if e.Proto != 0 {
			base.Key.Set(flow.FieldIPProto, uint64(e.Proto))
			base.Mask.SetExact(flow.FieldIPProto)
			// Unless an address constraint already pinned the family, a
			// bare-proto entry applies to IPv4 — the 5-tuple family of
			// the paper's ACLs.
			if f := flow.FieldByID(flow.FieldEthType); f.GetMask(&base.Mask) == 0 {
				base.Key.Set(flow.FieldEthType, flow.EthTypeIPv4)
				base.Mask.SetExact(flow.FieldEthType)
			}
		}
		comment := e.Comment
		if comment == "" {
			comment = fmt.Sprintf("%s entry %d", a.Comment, i)
		}
		for _, sp := range e.SrcPort.blocks() {
			for _, dp := range e.DstPort.blocks() {
				m := base
				sp.apply(&m, flow.FieldTPSrc)
				dp.apply(&m, flow.FieldTPDst)
				action := flowtable.Action{Verdict: e.Action}
				if a.Stateful {
					// Whitelist entries admit only +new tracked packets
					// and commit the connection.
					m.Key.Set(flow.FieldCTState, flow.CTTracked|flow.CTNew)
					flow.FieldByID(flow.FieldCTState).SetMask(&m.Mask, flow.CTTracked|flow.CTNew)
					if e.Action == flowtable.Allow {
						action.Commit = true
					}
				}
				m.Normalize()
				rules = append(rules, flowtable.Rule{
					Match:    m,
					Priority: EntryPriority,
					Action:   action,
					Comment:  comment,
				})
			}
		}
	}
	rules = append(rules, flowtable.Rule{
		Priority: DenyPriority,
		Action:   flowtable.Action{Verdict: flowtable.Deny},
		Comment:  "default deny",
	})
	return rules, nil
}

// applyCIDR lowers one CIDR constraint onto a match, dispatching between
// the IPv4 field and the split 128-bit IPv6 fields, and pinning eth_type.
func applyCIDR(m *flow.Match, p netip.Prefix, v4Field, v6Hi, v6Lo flow.FieldID) {
	p = p.Masked()
	if p.Addr().Unmap().Is4() {
		m.Key.Set(v4Field, flow.V4(p.Addr()))
		m.Mask.SetPrefix(v4Field, p.Bits())
		m.Key.Set(flow.FieldEthType, flow.EthTypeIPv4)
		m.Mask.SetExact(flow.FieldEthType)
		return
	}
	a := p.Addr().As16()
	hi := be64(a[:8])
	lo := be64(a[8:])
	plen := p.Bits()
	if plen > 64 {
		m.Key.Set(v6Hi, hi)
		m.Mask.SetPrefix(v6Hi, 64)
		m.Key.Set(v6Lo, lo)
		m.Mask.SetPrefix(v6Lo, plen-64)
	} else {
		m.Key.Set(v6Hi, hi)
		m.Mask.SetPrefix(v6Hi, plen)
	}
	m.Key.Set(flow.FieldEthType, flow.EthTypeIPv6)
	m.Mask.SetExact(flow.FieldEthType)
}

func be64(b []byte) uint64 {
	_ = b[7]
	return uint64(b[0])<<56 | uint64(b[1])<<48 | uint64(b[2])<<40 | uint64(b[3])<<32 |
		uint64(b[4])<<24 | uint64(b[5])<<16 | uint64(b[6])<<8 | uint64(b[7])
}

// block is one prefix block of a port range: value/plen.
type block struct {
	value uint64
	plen  int
	any   bool
}

func (b block) apply(m *flow.Match, f flow.FieldID) {
	if b.any {
		return
	}
	m.Key.Set(f, b.value)
	m.Mask.SetPrefix(f, b.plen)
}

// blocks decomposes the port match into maximal prefix blocks, the
// standard technique for expressing ranges in TCAM/wildcard matchers: at
// most 2*16-2 blocks for any 16-bit range.
func (p PortMatch) blocks() []block {
	if !p.set {
		return []block{{any: true}}
	}
	var out []block
	lo, hi := uint32(p.From), uint32(p.To)
	for lo <= hi {
		// Largest power-of-two block aligned at lo that fits in [lo, hi].
		size := uint32(1)
		for lo&(size<<1-1) == 0 && lo+(size<<1)-1 <= hi && size<<1 <= 1<<16 {
			size <<= 1
		}
		plen := 16
		for s := size; s > 1; s >>= 1 {
			plen--
		}
		out = append(out, block{value: uint64(lo), plen: plen})
		lo += size
		if lo == 0 { // wrapped past 65535
			break
		}
	}
	return out
}

func (a *ACL) String() string {
	var b strings.Builder
	for _, e := range a.Entries {
		b.WriteString(e.String())
		b.WriteByte('\n')
	}
	b.WriteString("deny *\n")
	return b.String()
}
