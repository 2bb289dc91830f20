package flow

import (
	"fmt"
	"math/bits"
	"sort"
	"strings"
)

// Key is the parsed header of one packet: every matchable field, packed
// into Words 64-bit words per the layout documented on Words. The zero Key
// has every field zero. Key is comparable and usable as a map key.
type Key [Words]uint64

// Mask selects the Key bits a classifier entry matches on. A set bit means
// "this bit of the key is significant". Mask is comparable and usable as a
// map key, which is how the tuple-space search groups entries by mask.
type Mask [Words]uint64

// Match is a masked key: the pair (Key AND Mask, Mask). It is the unit the
// megaflow cache stores and the unit the slow path synthesises per upcall.
type Match struct {
	Key  Key
	Mask Mask
}

// ExactMask matches every bit of every field.
var ExactMask = func() Mask {
	var m Mask
	for i := range m {
		m[i] = ^uint64(0)
	}
	return m
}()

// Apply returns k with every bit not selected by m cleared.
func (m Mask) Apply(k Key) Key {
	var out Key
	for i := range k {
		out[i] = k[i] & m[i]
	}
	return out
}

// SetPrefix marks the top nbits of field id as significant.
func (m *Mask) SetPrefix(id FieldID, nbits int) {
	f := FieldByID(id)
	m[f.Word] |= f.prefixMask(nbits)
}

// SetExact marks the whole of field id as significant.
func (m *Mask) SetExact(id FieldID) {
	f := FieldByID(id)
	m[f.Word] |= f.valueMask()
}

// PrefixLen returns the number of leading significant bits of field id and
// whether the field mask is an exact prefix (contiguous run of high bits).
func (m Mask) PrefixLen(id FieldID) (int, bool) {
	f := FieldByID(id)
	v := f.GetMask(&m)
	// v is right-aligned in f.Bits bits; a prefix is 1...10...0.
	n := 0
	seenZero := false
	for i := f.Bits - 1; i >= 0; i-- {
		bit := v>>uint(i)&1 == 1
		if bit {
			if seenZero {
				return n, false
			}
			n++
		} else {
			seenZero = true
		}
	}
	return n, true
}

// Fields returns the IDs of all fields with at least one significant bit,
// in registry order.
func (m Mask) Fields() []FieldID {
	var out []FieldID
	for id := FieldID(0); id < NumFields; id++ {
		f := FieldByID(id)
		if m[f.Word]&f.valueMask() != 0 {
			out = append(out, id)
		}
	}
	return out
}

// hashMul is the odd multiplier every hashed word is folded through (the
// 64-bit golden ratio).
const hashMul uint64 = 0x9e3779b97f4a7c15

// MixWord folds one 64-bit word into the running hash h: xor it in, take
// the full 128-bit product with hashMul and xor the halves together. The
// high half carries every input bit down and the low half carries every
// input bit up, so one step already spreads a single-bit difference over
// the whole word. (The megaflow subtable probe in internal/cache has a step
// of the same shape with a secret multiplier of its own; nothing ties the
// two hashes together.)
func MixWord(h, w uint64) uint64 {
	hi, lo := bits.Mul64(h^w, hashMul)
	return hi ^ lo
}

// HashFinish is Hash's finaliser: one xor-shift-multiply round over the
// state MixWord left after the key's last word.
func HashFinish(h uint64) uint64 {
	h ^= h >> 32
	h *= 0xff51afd7ed558ccd
	return h ^ h>>29
}

// Hash returns a 64-bit hash of the key: the ten words folded one at a
// time, from StageHashSeed, through MixWord (one multiply a word, not one a
// byte), then HashFinish. It is not cryptographic; it
// distributes flows across RSS lanes, cache shards and the EMC/SMC index
// bits the way the OVS datapath uses its flow hash. It is a pure function
// of the key — no per-process seed — so the same pack and seed steer,
// place and evict identically on every run. Consumers slice it
// differently (hash mod N for RSS lanes, bits [32,40) for shards, the low
// bits for SMC slots, the top 16 for the SMC signature, all 64 for the
// EMC's victim and — through a secret multiply — its index), and the keys
// that matter most here are sparse and differ in single bits or by one in
// a port field — the covert stream's shape. The full-width product is
// what keeps every slice balanced on such keys; TestHashSpread holds it
// to a stated tolerance.
//
// pkt.ExtractHashBatch computes it a second way, bit for bit the same: it
// folds each fast-path key word through MixWord as it composes it.
func (k Key) Hash() uint64 { return hashWords(&k) }

// hashWords is Hash on the key where it lies: HashKeys walks a burst's key
// slice without copying a key out of it.
func hashWords(k *Key) uint64 {
	h := StageHashSeed
	for _, w := range k {
		h = MixWord(h, w)
	}
	return HashFinish(h)
}

// HashKeys fills dst with the Hash of each key, reusing dst's storage when
// its capacity suffices, and returns it. This is the batch-entry hash pass
// of the vectorized datapath: a burst's flow hashes are computed once —
// at extract/batch-entry time — and then reused by every hash-consuming
// consumer (EMC index and victim selection, SMC fingerprinting, shard and
// RSS steering) instead of re-hashing the key per probe.
func HashKeys(keys []Key, dst []uint64) []uint64 {
	if cap(dst) < len(keys) {
		dst = make([]uint64, len(keys))
	}
	dst = dst[:len(keys)]
	for i := range keys {
		dst[i] = hashWords(&keys[i])
	}
	return dst
}

// Get returns the value of field id in k, right-aligned.
func (k Key) Get(id FieldID) uint64 {
	f := FieldByID(id)
	return f.Get(&k)
}

// Set stores the right-aligned value v into field id.
func (k *Key) Set(id FieldID, v uint64) {
	f := FieldByID(id)
	f.Set(k, v)
}

// Matches reports whether key k agrees with match m on every significant bit.
func (m Match) Matches(k Key) bool {
	for i := range k {
		if k[i]&m.Mask[i] != m.Key[i] {
			return false
		}
	}
	return true
}

// Normalize clears key bits not covered by the mask, establishing the
// invariant Key == Mask.Apply(Key).
func (m *Match) Normalize() { m.Key = m.Mask.Apply(m.Key) }

// Overlaps reports whether some key could match both m and o: on every bit
// significant to both, the two keys must agree.
func (m Match) Overlaps(o Match) bool {
	for i := range m.Key {
		both := m.Mask[i] & o.Mask[i]
		if (m.Key[i]^o.Key[i])&both != 0 {
			return false
		}
	}
	return true
}

// String renders the match in ovs-ofctl style: field=value[/mask] pairs
// joined by commas, fields in registry order. An empty (catch-all) match
// renders as "*".
func (m Match) String() string {
	ids := m.Mask.Fields()
	if len(ids) == 0 {
		return "*"
	}
	parts := make([]string, 0, len(ids))
	for _, id := range ids {
		f := FieldByID(id)
		v := f.Get(&m.Key)
		mk := f.GetMask(&m.Mask)
		parts = append(parts, formatField(f, v, mk))
	}
	return strings.Join(parts, ",")
}

func formatField(f Field, v, mk uint64) string {
	exact := mk == (uint64(1)<<uint(f.Bits))-1 || (f.Bits == 64 && mk == ^uint64(0))
	switch f.ID {
	case FieldIPSrc, FieldIPDst:
		ip := fmt.Sprintf("%d.%d.%d.%d", byte(v>>24), byte(v>>16), byte(v>>8), byte(v))
		if exact {
			return fmt.Sprintf("%s=%s", f.Name, ip)
		}
		if plen, ok := prefixOf(mk, f.Bits); ok {
			return fmt.Sprintf("%s=%s/%d", f.Name, ip, plen)
		}
		return fmt.Sprintf("%s=%s/%#x", f.Name, ip, mk)
	case FieldEthSrc, FieldEthDst:
		mac := fmt.Sprintf("%02x:%02x:%02x:%02x:%02x:%02x",
			byte(v>>40), byte(v>>32), byte(v>>24), byte(v>>16), byte(v>>8), byte(v))
		if exact {
			return fmt.Sprintf("%s=%s", f.Name, mac)
		}
		return fmt.Sprintf("%s=%s/%#x", f.Name, mac, mk)
	default:
		if exact {
			return fmt.Sprintf("%s=%d", f.Name, v)
		}
		if plen, ok := prefixOf(mk, f.Bits); ok {
			return fmt.Sprintf("%s=%#x/%d", f.Name, v, plen)
		}
		return fmt.Sprintf("%s=%#x/%#x", f.Name, v, mk)
	}
}

// prefixOf reports whether mk (right-aligned in bits) is a contiguous
// prefix mask and if so its length.
func prefixOf(mk uint64, bits int) (int, bool) {
	n := 0
	seenZero := false
	for i := bits - 1; i >= 0; i-- {
		if mk>>uint(i)&1 == 1 {
			if seenZero {
				return 0, false
			}
			n++
		} else {
			seenZero = true
		}
	}
	return n, true
}

// String renders the key as an exact match over the conventionally
// interesting fields (those that are non-zero), for diagnostics.
func (k Key) String() string {
	m := Match{Key: k, Mask: ExactMask}
	var parts []string
	for _, id := range m.Mask.Fields() {
		f := FieldByID(id)
		if v := f.Get(&k); v != 0 {
			parts = append(parts, formatField(f, v, (uint64(1)<<uint(f.Bits))-1|f64(f.Bits)))
		}
	}
	if len(parts) == 0 {
		return "<zero>"
	}
	sort.Strings(parts)
	return strings.Join(parts, ",")
}

func f64(bits int) uint64 {
	if bits == 64 {
		return ^uint64(0)
	}
	return 0
}
