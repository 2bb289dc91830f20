// Package flow defines the canonical flow key and mask representation used
// throughout the dataplane: a fixed array of 64-bit words with a typed field
// registry mapping protocol header fields onto bit ranges.
//
// The representation mirrors Open vSwitch's struct flow / flow_wildcards
// pair: a Key holds the parsed header fields of one packet, a Mask selects
// the bits a classifier entry cares about, and a Match is a (Key, Mask)
// pair with Key&Mask == Key. Keys and Masks are plain comparable arrays,
// usable directly as Go map keys: the slow-path classifier keys maps by
// them. The fast-path caches (internal/cache) do not — the exact-match
// cache indexes its keys by the flow hash (Key.Hash) a burst computes once,
// and the megaflow subtables hash and compare only the words a mask
// selects, each in its own open-addressed table. A Key is 80 bytes: the
// fast path hands keys around by pointer into the burst's key slice.
//
// Bit numbering is MSB-first within each word: bit 0 of a field is its most
// significant bit. This makes prefix masks (the object of study of the
// policy-injection attack) a contiguous run of high bits, for any field.
package flow

import "fmt"

// Words is the number of 64-bit words in a Key or Mask.
//
// Layout (word: fields, MSB to LSB):
//
//	0: InPort(32) EthType(16) VLANTCI(16)
//	1: EthSrc(48) IPProto(8) IPTOS(8)
//	2: EthDst(48) TCPFlags(8) IPFrag(8)
//	3: IPSrc(32) IPDst(32)            (IPv4)
//	4: TPSrc(16) TPDst(16) ICMPType(8) ICMPCode(8) ARPOp(16)
//	5: IPv6SrcHi(64)   6: IPv6SrcLo(64)
//	7: IPv6DstHi(64)   8: IPv6DstLo(64)
//	9: CTState(8) pad(56)
const Words = 10

// FieldID enumerates every header field the dataplane can match on.
type FieldID uint8

// Field identifiers. The order is stable and part of the package API: it is
// used for canonical formatting and for indexing per-field prefix tries.
const (
	FieldInPort FieldID = iota
	FieldEthType
	FieldVLANTCI
	FieldEthSrc
	FieldIPProto
	FieldIPTOS
	FieldEthDst
	FieldTCPFlags
	FieldIPFrag
	FieldIPSrc
	FieldIPDst
	FieldTPSrc
	FieldTPDst
	FieldICMPType
	FieldICMPCode
	FieldARPOp
	FieldIPv6SrcHi
	FieldIPv6SrcLo
	FieldIPv6DstHi
	FieldIPv6DstLo
	FieldCTState

	// NumFields is the number of defined fields.
	NumFields
)

// CTState bit values (FieldCTState). They mirror the OVS ct_state flags
// the dataplane matches on after conntrack recirculation.
const (
	CTTracked     uint64 = 1 << 0 // +trk: the packet has been through conntrack
	CTNew         uint64 = 1 << 1 // +new: would create a new connection
	CTEstablished uint64 = 1 << 2 // +est: part of a seen-both-ways connection
	CTReply       uint64 = 1 << 3 // +rpl: flowing in the reply direction
	CTInvalid     uint64 = 1 << 4 // +inv: conntrack could not make sense of it
)

// Field describes where a header field lives inside a Key and how wide it
// is. A field never spans a word boundary (128-bit IPv6 addresses are split
// into explicit Hi/Lo fields).
type Field struct {
	ID   FieldID
	Name string // canonical short name, following ovs-fields(7) usage
	Word int    // word index within Key/Mask
	Off  int    // bit offset of the field MSB within the word (0 = word MSB)
	Bits int    // field width in bits, 1..64
}

// fields is the field registry, indexed by FieldID.
var fields = [NumFields]Field{
	FieldInPort:    {FieldInPort, "in_port", 0, 0, 32},
	FieldEthType:   {FieldEthType, "eth_type", 0, 32, 16},
	FieldVLANTCI:   {FieldVLANTCI, "vlan_tci", 0, 48, 16},
	FieldEthSrc:    {FieldEthSrc, "eth_src", 1, 0, 48},
	FieldIPProto:   {FieldIPProto, "ip_proto", 1, 48, 8},
	FieldIPTOS:     {FieldIPTOS, "ip_tos", 1, 56, 8},
	FieldEthDst:    {FieldEthDst, "eth_dst", 2, 0, 48},
	FieldTCPFlags:  {FieldTCPFlags, "tcp_flags", 2, 48, 8},
	FieldIPFrag:    {FieldIPFrag, "ip_frag", 2, 56, 8},
	FieldIPSrc:     {FieldIPSrc, "ip_src", 3, 0, 32},
	FieldIPDst:     {FieldIPDst, "ip_dst", 3, 32, 32},
	FieldTPSrc:     {FieldTPSrc, "tp_src", 4, 0, 16},
	FieldTPDst:     {FieldTPDst, "tp_dst", 4, 16, 16},
	FieldICMPType:  {FieldICMPType, "icmp_type", 4, 32, 8},
	FieldICMPCode:  {FieldICMPCode, "icmp_code", 4, 40, 8},
	FieldARPOp:     {FieldARPOp, "arp_op", 4, 48, 16},
	FieldIPv6SrcHi: {FieldIPv6SrcHi, "ipv6_src_hi", 5, 0, 64},
	FieldIPv6SrcLo: {FieldIPv6SrcLo, "ipv6_src_lo", 6, 0, 64},
	FieldIPv6DstHi: {FieldIPv6DstHi, "ipv6_dst_hi", 7, 0, 64},
	FieldIPv6DstLo: {FieldIPv6DstLo, "ipv6_dst_lo", 8, 0, 64},
	FieldCTState:   {FieldCTState, "ct_state", 9, 0, 8},
}

var fieldsByName = func() map[string]FieldID {
	m := make(map[string]FieldID, NumFields)
	for _, f := range fields {
		m[f.Name] = f.ID
	}
	return m
}()

// FieldByID returns the descriptor for id. It panics on an out-of-range id,
// which always indicates a programming error.
func FieldByID(id FieldID) Field {
	if id >= NumFields {
		//lint:allow hotpathalloc panic path, reached only on a programming error
		panic(fmt.Sprintf("flow: invalid field id %d", id))
	}
	return fields[id]
}

// FieldByName looks a field up by its canonical name (e.g. "ip_src").
func FieldByName(name string) (Field, bool) {
	id, ok := fieldsByName[name]
	if !ok {
		return Field{}, false
	}
	return fields[id], true
}

// Name returns the canonical name of the field.
func (id FieldID) Name() string { return FieldByID(id).Name }

// String implements fmt.Stringer with the canonical field name.
func (id FieldID) String() string { return id.Name() }

// Bits returns the width of the field in bits.
func (id FieldID) Bits() int { return FieldByID(id).Bits }

// shift returns the left-shift that moves a field value into word position.
func (f Field) shift() uint { return uint(64 - f.Off - f.Bits) }

// valueMask returns the in-word mask covering the whole field.
func (f Field) valueMask() uint64 {
	if f.Bits == 64 {
		return ^uint64(0)
	}
	return ((uint64(1) << uint(f.Bits)) - 1) << f.shift()
}

// prefixMask returns the in-word mask covering the top nbits of the field.
// nbits is clamped to [0, f.Bits].
func (f Field) prefixMask(nbits int) uint64 {
	if nbits <= 0 {
		return 0
	}
	if nbits > f.Bits {
		nbits = f.Bits
	}
	m := ^uint64(0) << uint(64-nbits) // top nbits of a word
	return (m >> uint(f.Off)) & f.valueMask()
}

// Get extracts the field value from k, right-aligned.
func (f Field) Get(k *Key) uint64 {
	return (k[f.Word] & f.valueMask()) >> f.shift()
}

// Set stores the right-aligned value v into the field of k. Bits of v above
// the field width are discarded.
func (f Field) Set(k *Key, v uint64) {
	if f.Bits < 64 {
		v &= (uint64(1) << uint(f.Bits)) - 1
	}
	k[f.Word] = k[f.Word]&^f.valueMask() | v<<f.shift()
}

// GetMask returns the mask bits of the field in m, right-aligned.
func (f Field) GetMask(m *Mask) uint64 {
	return (m[f.Word] & f.valueMask()) >> f.shift()
}

// SetMask stores a right-aligned raw mask value into the field of m.
func (f Field) SetMask(m *Mask, v uint64) {
	if f.Bits < 64 {
		v &= (uint64(1) << uint(f.Bits)) - 1
	}
	m[f.Word] = m[f.Word]&^f.valueMask() | v<<f.shift()
}
